"""WAL group commit (``DBConfig.group_commit_window``, MINCOMMIT-style).

Committers that reach their log force within the window share ONE
physical force: the first becomes the leader, sleeps the window, forces
the tail (covering everyone who appended meanwhile), and wakes the rest.
The ack-after-force invariant must survive crashes: a commit whose force
never happened is never acknowledged, and its work is gone at restart.

The committers UPDATE distinct pre-existing rows: concurrent INSERTs
would serialize on the shared candidate-rid X lock (held to commit under
strict 2PL) and never meet inside one window.
"""

import pytest

from repro.errors import CrashedError
from repro.kernel import Simulator, Timeout
from repro.minidb import Database, DBConfig
from repro.minidb.config import TimingModel


def make_db(sim, **cfg):
    # These tests are about the WAL, not locking: next-key locking would
    # chain committer k to committer k+1 via the index-probe neighbor
    # lock (E3) and keep them out of each other's window.
    cfg.setdefault("next_key_locking", False)
    db = Database(sim, "g", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        for k in range(10):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (k, "init"))
        yield from session.commit()
        # E4 lesson: without statistics the UPDATE probes scan (and lock)
        # the whole table, serializing the committers before they ever
        # reach the log force.
        db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})

    sim.run_process(setup())
    return db


def all_rows(db):
    def go():
        session = db.session()
        result = yield from session.execute("SELECT k, v FROM t ORDER BY k")
        yield from session.commit()
        return result.rows
    return db.sim.run_process(go())


def committer(db, k, delay=0.0):
    if delay:
        yield Timeout(delay)
    session = db.session()
    yield from session.execute(
        "UPDATE t SET v = ? WHERE k = ?", (f"v{k}", k))
    yield from session.commit()


def test_window_validation():
    with pytest.raises(ValueError):
        DBConfig(group_commit_window=-0.1).validate()


def test_concurrent_committers_share_one_force():
    sim = Simulator()
    db = make_db(sim, group_commit_window=0.02)
    forces_before = db.wal.metrics.forces
    groups_before = db.wal.metrics.group_commits

    def root():
        procs = [sim.spawn(committer(db, k), f"c{k}") for k in range(5)]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    # One leader forces for everyone; four followers ride along.
    assert db.wal.metrics.forces - forces_before == 1
    assert db.wal.metrics.forces_saved == 4
    assert db.wal.metrics.group_commits - groups_before == 1
    assert all_rows(db) == [(k, f"v{k}") for k in range(5)] + [
        (k, "init") for k in range(5, 10)]


def test_stragglers_outside_the_window_start_a_new_group():
    sim = Simulator()
    db = make_db(sim, group_commit_window=0.02)
    forces_before = db.wal.metrics.forces
    groups_before = db.wal.metrics.group_commits

    def root():
        procs = [sim.spawn(committer(db, 1), "c1"),
                 sim.spawn(committer(db, 2, delay=1.0), "c2")]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    assert db.wal.metrics.forces - forces_before == 2
    assert db.wal.metrics.forces_saved == 0
    assert db.wal.metrics.group_commits - groups_before == 2


def test_group_commit_charges_one_force_latency():
    """Five grouped committers pay one window + one log-force latency,
    not five forces."""
    sim = Simulator()
    db = make_db(sim, group_commit_window=0.02,
                 timing=TimingModel(enabled=True, cpu_per_statement=0.0,
                                    page_io=0.0, rpc=0.0,
                                    log_force=0.006))
    started = sim.now

    def root():
        procs = [sim.spawn(committer(db, k), f"c{k}") for k in range(5)]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    assert sim.now - started == pytest.approx(0.02 + 0.006)


def test_crash_inside_window_never_acks_the_commit():
    """The durability half of the contract: a committer that crashed
    while waiting for the group force gets CrashedError — its commit was
    never acknowledged — and restart has no trace of its work."""
    sim = Simulator()
    db = make_db(sim, group_commit_window=0.05)
    outcomes = {}

    def victim(k):
        try:
            yield from committer(db, k)
            outcomes[k] = "acked"
        except CrashedError:
            outcomes[k] = "crashed"

    def saboteur():
        # Mid-window: both committers are parked waiting for the force.
        yield Timeout(0.01)
        db.crash()

    def root():
        procs = [sim.spawn(victim(1), "v1"), sim.spawn(victim(2), "v2"),
                 sim.spawn(saboteur(), "boom")]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    assert outcomes == {1: "crashed", 2: "crashed"}
    db.restart()
    assert all_rows(db) == [(k, "init") for k in range(10)]


def test_commit_after_restart_works_again():
    sim = Simulator()
    db = make_db(sim, group_commit_window=0.05)

    def doomed():
        try:
            yield from committer(db, 1)
        except CrashedError:
            pass

    def saboteur():
        yield Timeout(0.01)
        db.crash()

    def root():
        procs = [sim.spawn(doomed(), "d"), sim.spawn(saboteur(), "boom")]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    db.restart()
    sim.run_process(committer(db, 2))
    rows = dict(all_rows(db))
    assert rows[1] == "init"     # the doomed commit left no trace
    assert rows[2] == "v2"       # the engine groups again after restart
    assert db.wal.metrics.group_commits >= 1


def test_zero_window_is_the_classic_path():
    """window=0 (the default) must behave exactly like the seed engine:
    every commit forces physically, nothing grouped, same data."""
    results = {}
    for window in (0.0, 0.02):
        sim = Simulator()
        db = make_db(sim, group_commit_window=window)

        def serial():
            for k in range(4):
                yield from committer(db, k)

        sim.run_process(serial())
        results[window] = (all_rows(db), db.wal.metrics.forces_saved)
    rows_zero, saved_zero = results[0.0]
    rows_win, _ = results[0.02]
    assert rows_zero == rows_win
    assert saved_zero == 0
    assert results[0.0][0][:4] == [(k, f"v{k}") for k in range(4)]


# ----------------------------------------------------------------- auto window

def test_auto_window_validation():
    DBConfig(group_commit_window="auto").validate()
    with pytest.raises(ValueError):
        DBConfig(group_commit_window="adaptive").validate()
    with pytest.raises(ValueError):
        DBConfig(group_commit_window="auto",
                 group_commit_min_window=0.1,
                 group_commit_max_window=0.05).validate()
    with pytest.raises(ValueError):
        DBConfig(group_commit_window="auto",
                 group_commit_ewma_alpha=0.0).validate()
    with pytest.raises(ValueError):
        DBConfig(group_commit_window="auto",
                 group_commit_burst_factor=0.0).validate()


def prime_ewma(db, keys=(0, 1)):
    """Two back-to-back commits (virtual gap ≈ 0) pull the commit
    inter-arrival EWMA to ~0, so the next leader opens a batching
    window of ``group_commit_min_window``."""
    for k in keys:
        db.sim.run_process(committer(db, k))


def test_auto_sparse_arrivals_force_immediately():
    """Commits spaced beyond the max window must not pay any window at
    all — the latency-tax half of the E1 trade-off."""
    sim = Simulator()
    db = make_db(sim, group_commit_window="auto")

    def serial():
        for k in range(4):
            yield from committer(db, k, delay=1.0)

    sim.run_process(serial())
    metrics = db.wal.metrics
    assert metrics.auto_immediate >= 3   # every post-EWMA commit forced now
    assert metrics.auto_batched == 0
    assert metrics.forces_saved == 0
    assert metrics.group_commits == 0
    # No window was ever opened: total time is just the four 1 s delays.
    assert sim.now == pytest.approx(4.0)
    assert set(db.wal.auto_windows) == {0.0}


def test_auto_burst_batches_within_bounds():
    """Dense arrivals: the EWMA collapses, leaders open windows inside
    [min_window, max_window], and followers share the force."""
    sim = Simulator()
    db = make_db(sim, group_commit_window="auto")
    prime_ewma(db)
    forces_before = db.wal.metrics.forces

    def root():
        procs = [sim.spawn(committer(db, k), f"c{k}") for k in range(2, 8)]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    metrics = db.wal.metrics
    assert metrics.auto_batched >= 1
    assert metrics.forces_saved >= 5
    assert metrics.forces - forces_before == 1   # one force for the burst
    cfg = db.config
    opened = [w for w in db.wal.auto_windows if w > 0]
    assert opened
    assert all(cfg.group_commit_min_window <= w
               <= cfg.group_commit_max_window for w in opened)
    assert all_rows(db)[2:8] == [(k, f"v{k}") for k in range(2, 8)]


def test_auto_crash_inside_window_never_acks():
    """The never-ack contract holds in auto mode: a crash while the
    leader sleeps its self-chosen window fails every member, and restart
    has no trace of their work."""
    sim = Simulator()
    db = make_db(sim, group_commit_window="auto")
    prime_ewma(db)
    outcomes = {}

    def victim(k):
        try:
            yield from committer(db, k)
            outcomes[k] = "acked"
        except CrashedError:
            outcomes[k] = "crashed"

    def saboteur():
        # Inside the min_window (0.002) the leader is sleeping out.
        yield Timeout(0.001)
        db.crash()

    def root():
        procs = [sim.spawn(victim(2), "v2"), sim.spawn(victim(3), "v3"),
                 sim.spawn(saboteur(), "boom")]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    assert outcomes == {2: "crashed", 3: "crashed"}
    db.restart()
    rows = dict(all_rows(db))
    assert rows[2] == "init" and rows[3] == "init"
    assert rows[0] == "v0" and rows[1] == "v1"   # the acked ones survive


def test_auto_leader_aborted_inside_window_hands_off():
    """The leader re-check: a transaction aborted while sleeping its
    window must NOT force (its commit is dead) — it wakes the followers
    so one of them takes over leadership, and only their work commits."""
    from repro.errors import TransactionAborted
    sim = Simulator()
    db = make_db(sim, group_commit_window="auto")
    prime_ewma(db)
    outcomes = {}
    txns = {}

    def leader():
        session = db.session()
        yield from session.execute(
            "UPDATE t SET v = ? WHERE k = ?", ("doomed", 2))
        txns["leader"] = session.txn
        try:
            yield from session.commit()
            outcomes["leader"] = "acked"
        except TransactionAborted:
            outcomes["leader"] = "aborted"
            yield from db.rollback(txns["leader"])

    def follower():
        yield Timeout(0.0005)        # join the leader's open window
        yield from committer(db, 3)
        outcomes["follower"] = "acked"

    def saboteur():
        yield Timeout(0.001)         # mid-window: mark the leader dead
        txns["leader"].rollback_only = True
        txns["leader"].abort_reason = "victim"

    def root():
        procs = [sim.spawn(leader(), "L"), sim.spawn(follower(), "F"),
                 sim.spawn(saboteur(), "S")]
        for proc in procs:
            yield from proc.join()

    sim.run_process(root())
    assert outcomes == {"leader": "aborted", "follower": "acked"}
    rows = dict(all_rows(db))
    assert rows[2] == "init"         # the dead leader's work is gone
    assert rows[3] == "v3"           # the follower's commit survived


def test_auto_matches_fixed_data_outcome():
    """auto and a fixed window must produce identical data for the same
    serial schedule — the tuning only moves forces around."""
    results = {}
    for window in ("auto", 0.02):
        sim = Simulator()
        db = make_db(sim, group_commit_window=window)

        def serial():
            for k in range(6):
                yield from committer(db, k)

        sim.run_process(serial())
        results[window] = all_rows(db)
    assert results["auto"] == results[0.02]


def _unforced_update(db, k, value):
    session = db.session()
    yield from session.execute(
        "UPDATE t SET v = ? WHERE k = ?", (value, k))
    yield from session.commit(force=False)


@pytest.mark.parametrize("window", [0.0, 0.02, "auto"])
def test_unforced_commit_releases_locks_without_a_force(window):
    """``commit(force=False)`` appends the COMMIT record and releases
    locks at once, but pays no force, opens no group and feeds nothing
    into the auto window's inter-arrival EWMA."""
    sim = Simulator()
    db = make_db(sim, group_commit_window=window)
    wal = db.wal
    before = (wal.metrics.forces, wal.metrics.group_commits,
              wal.flushed_upto, wal.last_commit_request,
              wal.commit_gap_ewma)
    started = sim.now
    sim.run_process(_unforced_update(db, 1, "lazy"))
    assert sim.now == started                # no window, no force latency
    assert (wal.metrics.forces, wal.metrics.group_commits,
            wal.flushed_upto, wal.last_commit_request,
            wal.commit_gap_ewma) == before
    assert wal.records[-1].kind == "COMMIT"
    assert db.locks.heads == {}
    assert dict(all_rows(db))[1] == "lazy"   # visible to the next reader


def test_unforced_commit_is_lost_by_a_crash_before_the_next_force():
    sim = Simulator()
    db = make_db(sim)
    sim.run_process(_unforced_update(db, 1, "lazy"))
    db.crash()
    db.restart()
    assert dict(all_rows(db))[1] == "init"


def test_later_forced_commit_makes_an_unforced_one_durable():
    """The log is sequential: a forced commit — here one that read the
    row the unforced commit wrote — flushes every earlier record."""
    sim = Simulator()
    db = make_db(sim)

    def reader_then_writer():
        session = db.session()
        result = yield from session.execute(
            "SELECT v FROM t WHERE k = ?", (1,))
        yield from session.execute(
            "UPDATE t SET v = ? WHERE k = ?", (result.rows[0][0] + "+", 2))
        yield from session.commit()

    sim.run_process(_unforced_update(db, 1, "lazy"))
    sim.run_process(reader_then_writer())
    db.crash()
    db.restart()
    rows = dict(all_rows(db))
    assert rows[1] == "lazy" and rows[2] == "lazy+"


def test_unforced_commit_fires_no_force_crash_points():
    """``wal.force.before/after`` bracket a force; a commit that forces
    nothing must not reach them."""
    from repro.chaos.faults import FaultInjector, FaultPlan, FaultRule
    plan = FaultPlan([FaultRule("wal.force.before:g", "crash", prob=1.0),
                      FaultRule("wal.force.after:g", "crash", prob=1.0)],
                     name="t")
    injector = FaultInjector(plan)
    sim = Simulator(injector=injector)
    injector.enabled = False
    db = make_db(sim)
    injector.enabled = True
    sim.run_process(_unforced_update(db, 1, "lazy"))
    assert injector.crashes == []
    assert not db.crashed
