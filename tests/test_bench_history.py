"""BENCH_PERF.json history accumulation: the trajectory must grow."""

from repro.bench.harness import (HISTORY_LABEL, headline_reference,
                                 update_history)


PR2_ROW = {"label": "pr2-batched-rpcs-group-commit", "headline": "old"}


def test_new_label_appends_after_prior_rows():
    entry = {"label": HISTORY_LABEL, "headline": "new"}
    history = update_history([PR2_ROW], entry)
    assert [row["label"] for row in history] == [PR2_ROW["label"],
                                                HISTORY_LABEL]


def test_rerun_replaces_own_row_in_place():
    first = {"label": HISTORY_LABEL, "headline": "run-1"}
    second = {"label": HISTORY_LABEL, "headline": "run-2"}
    history = update_history([PR2_ROW], first)
    history = update_history(history, second)
    assert [row["label"] for row in history] == [PR2_ROW["label"],
                                                HISTORY_LABEL]
    assert history[-1]["headline"] == "run-2"


def test_empty_and_none_history_start_one_row():
    entry = {"label": HISTORY_LABEL}
    assert update_history(None, entry) == [entry]
    assert update_history([], entry) == [entry]


def test_foreign_rows_are_never_dropped():
    rows = [{"label": f"pr{i}"} for i in range(5)]
    history = update_history(list(rows), {"label": HISTORY_LABEL})
    assert history[:5] == rows


def test_headline_reference_prefers_this_labels_previous_run():
    rows = [{"label": "older", "headline_ops_per_sec": 100.0},
            {"label": HISTORY_LABEL, "headline_ops_per_sec": 200.0},
            {"label": "newer", "headline_ops_per_sec": 300.0}]
    assert headline_reference(rows) == 200.0


def test_headline_reference_of_a_new_label_is_the_newest_headline():
    """A label's first run must still be gated against something."""
    rows = [{"label": "older", "headline_ops_per_sec": 100.0},
            {"label": "newest", "headline_ops_per_sec": 300.0},
            {"label": "no-headline"}]
    assert headline_reference(rows) == 300.0
    assert headline_reference([PR2_ROW]) is None
    assert headline_reference(None) is None
