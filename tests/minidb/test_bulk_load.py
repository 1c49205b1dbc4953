"""Deferred index maintenance for LOAD (DB2's "load pending" state).

Between ``begin_bulk_load`` and ``end_bulk_load`` the table's B+trees
are NOT touched per row: entries collect in volatile pending state (so
index scans don't see the loaded rows), unique violations are still
caught against pending entries, aborts drop their deferred entries, a
crash discards the deferral entirely (restart rebuilds indexes from
durable state), and the final merge is one sorted bottom-up build.
"""

import pytest

from repro.errors import DuplicateKeyError
from repro.minidb import Database, DBConfig


def make_db(sim, **cfg):
    cfg.setdefault("next_key_locking", False)
    db = Database(sim, "bulk", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.execute("CREATE INDEX t_v ON t (v)")
        yield from session.commit()

    sim.run_process(setup())
    return db


def insert_rows(db, keys, commit=True):
    def go():
        session = db.session()
        for k in keys:
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (k, f"v{k}"))
        if commit:
            yield from session.commit()
        else:
            yield from session.rollback()

    db.sim.run_process(go())


def end_bulk(db, table="t"):
    return db.sim.run_process(db.end_bulk_load(table))


def select_by_key(db, k):
    def go():
        session = db.session()
        result = yield from session.execute(
            "SELECT k, v FROM t WHERE k = ?", (k,))
        yield from session.commit()
        return result.rows

    return db.sim.run_process(go())


def test_deferral_keeps_btrees_empty_until_merge(sim):
    db = make_db(sim)
    db.begin_bulk_load("t")
    assert db.in_bulk_load("t")
    insert_rows(db, range(10))
    # Heap has the rows; the indexes haven't seen a single entry.
    assert len(list(db.heaps["t"].scan())) == 10
    assert len(db.btrees["t_k"]) == 0
    assert len(db.btrees["t_v"]) == 0
    assert db.metrics.bulk_entries_deferred == 20      # 10 rows × 2 indexes
    merged = end_bulk(db)
    assert merged == 20
    assert not db.in_bulk_load("t")
    assert len(db.btrees["t_k"]) == 10
    assert select_by_key(db, 7) == [(7, "v7")]


def test_unique_violation_caught_against_pending(sim):
    db = make_db(sim)
    db.begin_bulk_load("t")
    insert_rows(db, [1])
    with pytest.raises(DuplicateKeyError):
        insert_rows(db, [1])
    end_bulk(db)
    assert len(db.btrees["t_k"]) == 1


def test_abort_drops_deferred_entries(sim):
    db = make_db(sim)
    db.begin_bulk_load("t")
    insert_rows(db, [1, 2, 3], commit=False)          # rolled back
    insert_rows(db, [4, 5])
    assert end_bulk(db) == 4                           # 2 rows × 2 indexes
    assert len(db.btrees["t_k"]) == 2
    assert select_by_key(db, 1) == []
    assert select_by_key(db, 4) == [(4, "v4")]
    # The aborted keys are reusable: no ghost pending entry blocks them.
    insert_rows(db, [1])
    assert select_by_key(db, 1) == [(1, "v1")]


def test_crash_discards_deferral_and_rebuilds_indexes(sim):
    db = make_db(sim)
    db.begin_bulk_load("t")
    insert_rows(db, range(8))
    db.crash()
    db.restart()
    assert not db.in_bulk_load("t")
    assert len(db.btrees["t_k"]) == 8                  # rebuilt, not lost
    assert select_by_key(db, 3) == [(3, "v3")]


def test_checkpoint_during_bulk_merges_pending_into_image(sim):
    """A checkpoint taken mid-load must fold the pending entries into
    the stored index images — otherwise an instant restart would serve
    index scans missing committed rows."""
    db = make_db(sim)
    db.begin_bulk_load("t")
    insert_rows(db, range(6))
    db.checkpoint()
    insert_rows(db, range(6, 9))                       # post-checkpoint tail
    db.crash()
    db.restart()
    assert len(db.btrees["t_k"]) == 9
    assert select_by_key(db, 2) == [(2, "v2")]
    assert select_by_key(db, 8) == [(8, "v8")]


def test_create_index_during_bulk_sees_heap_rows(sim):
    db = make_db(sim)
    db.begin_bulk_load("t")
    insert_rows(db, range(5))

    def ddl():
        session = db.session()
        yield from session.execute("CREATE INDEX t_k2 ON t (k, v)")
        yield from session.commit()

    sim.run_process(ddl())
    # Built from the heap → already has the 5 loaded rows; rows loaded
    # from here on defer into it like the others.
    assert len(db.btrees["t_k2"]) == 5
    insert_rows(db, [5])
    assert len(db.btrees["t_k2"]) == 5
    end_bulk(db)
    assert len(db.btrees["t_k2"]) == 6
    assert len(db.btrees["t_k"]) == 6


def test_end_bulk_load_charges_discounted_index_time(sim):
    from repro.minidb.config import TimingModel
    timing = TimingModel(enabled=True, cpu_per_statement=0.0, page_io=0.0,
                         rpc=0.0, log_force=0.0,
                         index_entry=0.01, bulk_index_factor=0.1)
    db = make_db(sim, timing=timing)
    db.begin_bulk_load("t")
    started = sim.now
    insert_rows(db, range(10))
    assert sim.now == started                          # nothing billed per row
    end_bulk(db)
    # 20 entries × 0.01 × 0.1 — one order cheaper than per-row.
    assert sim.now - started == pytest.approx(0.02)
