"""Scatter-gather 2PC: parallel fan-out, read-only votes, crash windows.

The paper's coordinator drives its participants serially; this repo fans
them out ``HostConfig.fanout_workers`` at a time (1 is the serial
coordinator), and the protocol outcomes must be IDENTICAL at every
width — one no-vote aborts everyone including already-prepared
participants (§3.3) — plus the classical read-only participant
optimization: a DLFM whose local transaction wrote nothing
votes read-only at Prepare, is released at end of phase 1, gets no
``dlk_indoubt`` decision row and no phase-2 Commit.
"""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import CrashedError, LinkError, TransactionAborted
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.host.session import HostSession
from repro.system import System


def _make(servers=("fs1", "fs2", "fs3"), injector=None, **host_kwargs):
    system = System(seed=11, servers=servers,
                    host_config=HostConfig(**host_kwargs),
                    injector=injector)

    def setup():
        yield from system.host.create_datalink_table(
            "spread", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for server in servers:
            for i in range(4):
                system.create_user_file(server, f"/s/f{i}", owner="u")

    if injector is not None:
        injector.enabled = False  # keep faults out of the fixture setup
    system.run(setup())
    if injector is not None:
        injector.enabled = True
    return system


def _link(session, row_id, server, path="/s/f0"):
    yield from session.execute(
        "INSERT INTO spread (id, doc) VALUES (?, ?)",
        (row_id, build_url(server, path)))


def _touch_readonly(session, row_id, server):
    """Make ``server`` a participant whose local txn wrote nothing: the
    failed link's statement backout leaves no DLFM state behind."""
    with pytest.raises(LinkError):
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (row_id, build_url(server, "/s/does-not-exist")))


def test_readonly_participant_skips_phase2(monkeypatch):
    """fs2 joins the transaction but writes nothing: it votes read-only,
    gets no decision row and no phase-2 Commit RPC."""
    system = _make()
    decision_rows = {}
    orig = HostSession._forget_decision

    def spy(self, txn_id, reuse=True):
        # Capture the durable decision rows the instant before phase 2
        # forgets them.
        decision_rows["rows"] = self.host.db.table_rows("dlk_indoubt")
        yield from orig(self, txn_id, reuse)

    monkeypatch.setattr(HostSession, "_forget_decision", spy)
    fs1, fs2 = system.dlfms["fs1"], system.dlfms["fs2"]
    rpcs_before = {}

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _touch_readonly(session, 2, "fs2")
        assert sorted(session.participants) == ["fs1", "fs2"]
        rpcs_before["fs1"] = fs1.metrics.rpcs
        rpcs_before["fs2"] = fs2.metrics.rpcs
        yield from session.commit()

    system.run(go())
    txn_id = decision_rows["rows"][0][0]
    assert decision_rows["rows"] == [(txn_id, "fs1")]  # no fs2 row
    # fs1 saw Prepare + Commit; fs2 saw ONLY Prepare.
    assert fs1.metrics.rpcs - rpcs_before["fs1"] == 2
    assert fs2.metrics.rpcs - rpcs_before["fs2"] == 1
    assert fs1.metrics.readonly_votes == 0
    assert fs2.metrics.readonly_votes == 1
    assert system.host.metrics.readonly_votes == 1
    assert fs2.db.table_rows("dfm_txn") == []  # never went in doubt
    assert fs1.linked_count() == 1
    assert system.host.db.table_rows("dlk_indoubt") == []


def test_all_readonly_transaction_has_no_phase2_at_all():
    system = _make(servers=("fs1", "fs2"))
    fs1, fs2 = system.dlfms["fs1"], system.dlfms["fs2"]
    commits_before = system.host.metrics.commits

    def go():
        session = system.session()
        yield from _touch_readonly(session, 1, "fs1")
        yield from _touch_readonly(session, 2, "fs2")
        yield from session.commit()

    system.run(go())
    assert system.host.metrics.readonly_votes == 2
    assert fs1.metrics.readonly_votes == 1
    assert fs2.metrics.readonly_votes == 1
    assert system.host.db.table_rows("dlk_indoubt") == []
    assert fs1.db.table_rows("dfm_txn") == []
    assert fs2.db.table_rows("dfm_txn") == []
    assert system.host.metrics.commits - commits_before == 1


def test_no_vote_aborts_already_prepared_participants():
    """Three participants fan out in parallel; fs3 is dead, so its
    prepare fails while fs1/fs2 may already have prepared — everyone
    must abort (§3.3)."""
    system = _make()

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _link(session, 2, "fs2")
        yield from _link(session, 3, "fs3")
        system.dlfms["fs3"].crash()
        system.dlfms["fs3"].restart()
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    system.run(go())
    for name in ("fs1", "fs2", "fs3"):
        assert system.dlfms[name].linked_count() == 0
        assert system.dlfms[name].db.table_rows("dfm_txn") == []
    assert system.host.db.table_rows("dlk_indoubt") == []
    assert system.host.metrics.prepare_failures == 1


def test_host_crash_between_parallel_prepares_leaves_only_indoubt():
    """The coordinator dies inside the scatter→gather window of phase 1:
    the in-flight prepares finish server-side, so every participant ends
    in doubt (a dfm_txn row, no open local transaction) and presumed
    abort mops up after restart."""
    plan = FaultPlan([FaultRule("twopc.fanout:prepare", "crash",
                                prob=1.0, max_fires=1)], name="t")
    system = _make(servers=("fs1", "fs2"),
                   injector=FaultInjector(plan))

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _link(session, 2, "fs2")
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    system.run(go())
    assert system.host.db.crashed
    system.sim.run(until=system.sim.now + 60.0)  # drain detached prepares
    assert system.sim.consume_failures() == []
    for name in ("fs1", "fs2"):
        dlfm = system.dlfms[name]
        # In doubt, never dangling: prepared (dfm_txn row) with no open
        # local transaction left behind.
        assert len(dlfm.db.table_rows("dfm_txn")) == 1
        assert dlfm.db.txns.active == []
    # Restart runs distributed recovery: this transaction has no decision
    # row, so presumed abort resolves both in-doubt participants. The
    # forget of the set-up transaction (the datalink table's creation,
    # committed on fs1 and fs2) is written lazily and never forced, so
    # the crash loses it: its decision row survives and the resolver
    # re-drives that Commit to both servers, which answer
    # already-finished — hence committed == 2.
    resolved = system.run(system.host.restart(), "host-restart")
    assert resolved == {"committed": 2, "aborted": 2}
    for name in ("fs1", "fs2"):
        assert system.dlfms[name].db.table_rows("dfm_txn") == []
        assert system.dlfms[name].linked_count() == 0


def test_indoubt_resolution_with_mixed_readonly_and_write_set():
    """Host dies in the phase-2 fan-out window: the write participant's
    decision row re-drives Commit after restart; the read-only voter was
    already released and needs nothing."""
    plan = FaultPlan([FaultRule("twopc.fanout:phase2", "crash",
                                prob=1.0, max_fires=1)], name="t")
    system = _make(servers=("fs1", "fs2"),
                   injector=FaultInjector(plan))

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _touch_readonly(session, 2, "fs2")
        # The decision is already durable when the crash hits phase 2,
        # so the failure surfaces as the crash itself, not an abort.
        with pytest.raises(CrashedError):
            yield from session.commit()

    system.run(go())
    assert system.host.db.crashed
    system.sim.run(until=system.sim.now + 60.0)
    system.sim.consume_failures()
    resolved = system.run(system.host.restart(), "host-restart")
    assert resolved["aborted"] == 0
    assert resolved["committed"] == 1  # fs1's decision row re-driven
    assert system.dlfms["fs1"].linked_count() == 1  # decision survived
    assert system.dlfms["fs2"].linked_count() == 0
    assert system.dlfms["fs2"].db.table_rows("dfm_txn") == []
    assert system.host.db.table_rows("dlk_indoubt") == []


def _commit_then_rollback(fanout_workers):
    system = _make(fanout_workers=fanout_workers)

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from _link(session, 2, "fs2")
        yield from _link(session, 3, "fs3")
        yield from session.commit()
        yield from _link(session, 4, "fs1", path="/s/f1")
        yield from session.rollback()

    system.run(go())
    return (
        tuple(sorted((name, system.dlfms[name].linked_count())
                     for name in system.dlfms)),
        system.host.metrics.commits,
        system.host.metrics.rollbacks,
        system.host.db.table_rows("dlk_indoubt"),
    )


@pytest.mark.parametrize("workers", [1, 2, None])
def test_serial_and_scatter_coordinators_agree(workers):
    """Same workload at every fan-out width — serial (1), bounded below
    the three participants (2), unbounded (None): identical durable
    state."""
    outcome = _commit_then_rollback(workers)
    assert outcome == _commit_then_rollback(None)
    assert outcome[0] == (("fs1", 1), ("fs2", 1), ("fs3", 1))


@pytest.mark.parametrize("workers", [1, 2, None])
def test_no_vote_aborts_everyone_at_every_width(workers):
    """fs2 is dead at phase 1: whatever the width, every participant
    ends aborted and no decision row is left behind."""
    system = _make(fanout_workers=workers)

    def go():
        session = system.session()
        for row_id, server in enumerate(("fs1", "fs2", "fs3"), 1):
            yield from _link(session, row_id, server)
        system.dlfms["fs2"].crash()
        system.dlfms["fs2"].restart()
        with pytest.raises(TransactionAborted) as err:
            yield from session.commit()
        assert err.value.reason == "prepare"

    system.run(go())
    for name in ("fs1", "fs2", "fs3"):
        dlfm = system.dlfms[name]
        assert dlfm.linked_count() == 0
        assert dlfm.db.table_rows("dfm_txn") == []
        assert dlfm.db.txns.active == []
    assert system.host.db.table_rows("dlk_indoubt") == []
    assert system.host.metrics.prepare_failures == 1


def test_decision_session_is_reused_across_sync_commits():
    """Synchronous phase 2 forgets decision rows through one cached
    session instead of opening a fresh one per transaction."""
    system = _make(servers=("fs1",))

    def go():
        session = system.session()
        yield from _link(session, 1, "fs1")
        yield from session.commit()
        first = session._decision_session
        assert first is not None
        yield from _link(session, 2, "fs1", path="/s/f1")
        yield from session.commit()
        assert session._decision_session is first
        return True

    assert system.run(go()) is True
    assert system.host.db.table_rows("dlk_indoubt") == []
