"""Presumed-abort lazy forget: the coordinator's end record is unforced.

After every participant acknowledged phase 2, the host forgets its
commit decision without forcing its log — a ``dlk_indoubt`` DELETE
committed with ``force=False``, or an unforced FORGET record for a
piggybacked decision. A crash right after the forget
(``twopc.forget:<host db>``) loses it: the decision survives restart,
the resolver re-drives the Commit, and every participant answers
``already-finished`` without touching its links.
"""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
from repro.dlfm.manager import DLFM
from repro.errors import CrashedError
from repro.host import DatalinkSpec, HostConfig, build_url
from repro.system import System

SERVERS = ("fs1", "fs2")


def _make(plan=None, **host_kwargs):
    injector = FaultInjector(plan) if plan is not None else None
    system = System(seed=5, servers=SERVERS,
                    host_config=HostConfig(**host_kwargs), injector=injector)

    def setup():
        yield from system.host.create_datalink_table(
            "spread", [("id", "INT"), ("doc", "TEXT")],
            {"doc": DatalinkSpec(recovery=False)})
        for server in SERVERS:
            system.create_user_file(server, "/s/f0", owner="u")

    if injector is not None:
        injector.enabled = False  # keep faults out of the fixture setup
    system.run(setup())
    system.sim.run(until=system.sim.now + 60.0)  # drain E6 finishers
    if injector is not None:
        injector.enabled = True
    return system


def _link_everywhere(system):
    session = system.session()
    for row_id, server in enumerate(SERVERS, 1):
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)",
            (row_id, build_url(server, "/s/f0")))
    return session


def _spy_commit_outcomes(monkeypatch):
    """Record every phase-2 Commit outcome the DLFMs return."""
    outcomes = []
    original = DLFM._commit_once

    def spy(self, session, req, done_chown):
        result = yield from original(self, session, req, done_chown)
        outcomes.append((self.name, req.txn_id, result["outcome"]))
        return result

    monkeypatch.setattr(DLFM, "_commit_once", spy)
    return outcomes


def _links(system):
    return {name: sorted(dlfm.db.table_rows("dfm_file"))
            for name, dlfm in system.dlfms.items()}


@pytest.mark.parametrize("piggyback", [False, True])
def test_forget_commits_without_forcing_the_host_log(piggyback):
    """Phase 2 completes with exactly one host log force per commit: the
    decision's. The forget sits in the unforced tail until the next."""
    system = _make(decision_piggyback=piggyback)
    wal = system.host.db.wal
    forces = wal.metrics.forces

    def go():
        session = yield from _link_everywhere(system)
        yield from session.commit()

    system.run(go())
    assert wal.metrics.forces - forces == 1
    assert wal.tail_lsn > wal.flushed_upto
    assert system.host.decision_rows() == []


@pytest.mark.parametrize("piggyback", [False, True])
def test_lost_forget_is_redriven_and_answered_already_finished(
        monkeypatch, piggyback):
    plan = FaultPlan([FaultRule("twopc.forget:host-*", "crash", prob=1.0,
                                max_fires=1)], name="t")
    system = _make(plan, decision_piggyback=piggyback)
    txn = {}

    def go():
        session = yield from _link_everywhere(system)
        txn["id"] = session.txn_id
        # Phase 2 finished everywhere; the crash hits right after the
        # unforced forget, so the application sees the crash.
        with pytest.raises(CrashedError):
            yield from session.commit()

    system.run(go())
    assert system.host.db.crashed
    assert [c["point"] for c in system.injector.crashes] == [
        "twopc.forget:host-hostdb"]
    links_before = _links(system)
    for dlfm in system.dlfms.values():
        assert dlfm.linked_count() == 1
        assert dlfm.db.table_rows("dfm_txn") == []   # phase 2 done

    outcomes = _spy_commit_outcomes(monkeypatch)
    resolved = system.run(system.host.restart(), "host-restart")
    # The decision survived the crash, so the resolver re-drove it to
    # both participants, and both had already finished.
    assert resolved == {"committed": 2, "aborted": 0}
    assert sorted(outcomes) == [(name, txn["id"], "already-finished")
                                for name in SERVERS]
    assert system.host.decision_rows() == []
    wal = system.host.db.wal
    assert wal.tail_lsn > wal.flushed_upto   # the resolver forgot lazily
    assert system.host.db.table_rows("dlk_indoubt") == []
    assert _links(system) == links_before


def test_lost_forget_of_an_async_phase2_is_redriven(monkeypatch):
    """E6 mode: the forget runs in the detached phase-2 finisher; a crash
    there loses it the same way, and restart re-drives the Commit."""
    plan = FaultPlan([FaultRule("twopc.forget:host-*", "crash", prob=1.0,
                                max_fires=1)], name="t")
    system = _make(plan, sync_commit=False)

    def go():
        session = yield from _link_everywhere(system)
        yield from session.commit()   # returns before the replies

    system.run(go())
    # Let the finisher run into the crash.
    system.sim.run(until=system.sim.now + 60.0, raise_failures=False)
    failures = system.sim.consume_failures()
    assert [type(error) for _, error in failures] == [CrashedError]
    assert system.host.db.crashed
    links_before = _links(system)

    outcomes = _spy_commit_outcomes(monkeypatch)
    resolved = system.run(system.host.restart(), "host-restart")
    assert resolved == {"committed": 2, "aborted": 0}
    assert {outcome for _, _, outcome in outcomes} == {"already-finished"}
    assert system.host.db.table_rows("dlk_indoubt") == []
    assert _links(system) == links_before


def test_next_forced_commit_makes_the_forget_durable():
    """The log is sequential: the next transaction's forced commit
    carries the earlier forget, so a crash after it re-drives nothing."""
    system = _make()

    def go():
        session = yield from _link_everywhere(system)
        yield from session.commit()
        yield from session.execute(
            "INSERT INTO spread (id, doc) VALUES (?, ?)", (9, None))
        yield from session.commit()   # host-only: one forced commit

    system.run(go())
    system.host.crash()
    resolved = system.run(system.host.restart(), "host-restart")
    assert resolved == {"committed": 0, "aborted": 0}
    for dlfm in system.dlfms.values():
        assert dlfm.linked_count() == 1
