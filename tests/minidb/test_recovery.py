"""Crash/restart recovery: redo of committed work, undo of losers."""

import pytest

from repro.errors import CrashedError, LogFullError
from repro.kernel import Simulator
from repro.minidb import Database, DBConfig


def make_db(sim, **cfg):
    db = Database(sim, "r", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(setup())
    return db


def insert(db, session, k, v):
    yield from session.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))


def all_rows(db):
    def go():
        session = db.session()
        result = yield from session.execute("SELECT k, v FROM t ORDER BY k")
        yield from session.commit()
        return result.rows
    return db.sim.run_process(go())


def test_committed_data_survives_crash_without_checkpoint():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "one")
        yield from insert(db, session, 2, "two")
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    summary = db.restart()
    assert summary["redone"] >= 2
    assert all_rows(db) == [(1, "one"), (2, "two")]


def test_uncommitted_transaction_rolled_back_at_restart():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "committed")
        yield from session.commit()
        yield from insert(db, session, 2, "in-flight")
        # force the log tail so the loser's records are durable, then crash
        db.wal.force()

    sim.run_process(work())
    db.crash()
    summary = db.restart()
    assert summary["losers"]
    assert all_rows(db) == [(1, "committed")]


def test_unforced_loser_records_simply_vanish():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "committed")
        yield from session.commit()
        yield from insert(db, session, 2, "never-forced")

    sim.run_process(work())
    db.crash()
    db.restart()
    assert all_rows(db) == [(1, "committed")]


def test_update_and_delete_recovered():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        for k in range(5):
            yield from insert(db, session, k, f"v{k}")
        yield from session.commit()
        yield from session.execute("UPDATE t SET v = 'changed' WHERE k = 2")
        yield from session.execute("DELETE FROM t WHERE k = 4")
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    db.restart()
    assert all_rows(db) == [(0, "v0"), (1, "v1"), (2, "changed"), (3, "v3")]


def test_recovery_is_idempotent_across_double_crash():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        yield from insert(db, session, 1, "one")
        yield from session.commit()
        yield from insert(db, session, 2, "loser")
        db.wal.force()

    sim.run_process(work())
    db.crash()
    db.restart()
    db.crash()  # crash again right after recovery
    db.restart()
    assert all_rows(db) == [(1, "one")]


def test_indexes_rebuilt_after_restart():
    sim = Simulator()
    db = make_db(sim)

    def work():
        session = db.session()
        for k in range(10):
            yield from insert(db, session, k, f"v{k}")
        yield from session.commit()

    sim.run_process(work())
    db.crash()
    db.restart()
    db.set_table_stats("t", card=1_000_000, colcard={"k": 1_000_000})
    assert db.explain("SELECT v FROM t WHERE k = ?")["access"] == "index_scan"

    def probe():
        session = db.session()
        row = yield from session.query_one("SELECT v FROM t WHERE k = ?", (7,))
        yield from session.commit()
        return row

    assert sim.run_process(probe()) == ("v7",)


def test_checkpoint_bounds_redo_work():
    sim = Simulator()
    db = make_db(sim)

    def phase(vals):
        session = db.session()
        for k in vals:
            yield from insert(db, session, k, "x")
        yield from session.commit()

    sim.run_process(phase(range(50)))
    db.checkpoint()
    sim.run_process(phase(range(50, 60)))
    db.crash()
    summary = db.restart()
    # Only the 10 post-checkpoint inserts should need redo.
    assert summary["redone"] <= 12
    assert len(all_rows(db)) == 60


def test_operations_on_crashed_db_fail_fast():
    sim = Simulator()
    db = make_db(sim)
    db.crash()
    with pytest.raises(CrashedError):
        db.begin()


def test_log_full_from_one_giant_transaction():
    sim = Simulator()
    db = make_db(sim, wal_capacity=100)

    def work():
        session = db.session()
        with pytest.raises(LogFullError):
            for k in range(200):
                yield from insert(db, session, k, "x")
        return "aborted"

    assert sim.run_process(work()) == "aborted"
    assert db.wal.metrics.log_fulls == 1


def test_periodic_commits_avoid_log_full():
    """The paper's mitigation (E8): commit every N records."""
    sim = Simulator()
    db = make_db(sim, wal_capacity=100)

    def work():
        session = db.session()
        for k in range(200):
            yield from insert(db, session, k, "x")
            if (k + 1) % 20 == 0:
                yield from session.commit()
                db.checkpoint()
        yield from session.commit()

    sim.run_process(work())
    assert len(all_rows(db)) == 200
    assert db.wal.metrics.log_fulls == 0


def test_log_full_transaction_can_still_roll_back():
    sim = Simulator()
    db = make_db(sim, wal_capacity=100)

    def work():
        session = db.session()
        try:
            for k in range(200):
                yield from insert(db, session, k, "x")
        except LogFullError:
            pass
        # engine auto-rolled-back; a fresh transaction works
        yield from insert(db, session, 999, "after")
        yield from session.commit()

    sim.run_process(work())
    assert all_rows(db) == [(999, "after")]


def test_active_floor_pins_log_across_other_commits():
    """A long-running transaction pins the active window even while other
    transactions commit (why DLFM marks utility txns in-flight, E8)."""
    sim = Simulator()
    # next-key locking off: the pinner's key locks are irrelevant here
    db = make_db(sim, wal_capacity=120, next_key_locking=False)

    def work():
        pinner = db.session()
        yield from insert(db, pinner, 100_000, "pin")  # stays open
        other = db.session()
        raised = False
        try:
            for k in range(200):
                yield from other.execute(
                    "INSERT INTO t (k, v) VALUES (?, ?)", (k, "x"))
                if (k + 1) % 10 == 0:
                    yield from other.commit()
                    db.checkpoint()
        except LogFullError:
            raised = True
        return raised

    assert sim.run_process(work()) is True


def test_evicted_dirty_page_forces_the_log_first():
    """WAL before data: a two-page pool evicts the page an open
    transaction dirtied; the eviction must force the log up to the
    page's LSN, so restart finds the loser's records and undoes them
    instead of reading the uncommitted value back off the disk."""
    sim = Simulator()
    db = make_db(sim, buffer_pool_pages=2)

    def load():
        session = db.session()
        for k in range(200):
            yield from insert(db, session, k, f"v{k}")
        yield from session.commit()

    def dirty_then_scan():
        session = db.session()
        yield from session.execute("UPDATE t SET v = 'dirty' WHERE k = 0")
        yield from session.execute("SELECT k, v FROM t")  # evicts page 0

    sim.run_process(load())
    forces = db.wal.metrics.forces
    sim.run_process(dirty_then_scan())
    evicted_forces = db.wal.metrics.forces - forces
    db.crash()
    db.restart()
    rows = all_rows(db)
    assert rows[0] == (0, "v0")
    assert len(rows) == 200
    assert evicted_forces == 1  # one force, before the first eviction


def test_checkpoint_forces_the_log_past_every_dirty_page():
    """The checkpoint writes every dirty page: one force up to the
    largest page LSN precedes the writes."""
    sim = Simulator()
    db = make_db(sim)

    def dirty():
        session = db.session()
        yield from insert(db, session, 1, "in-flight")

    sim.run_process(dirty())
    page_lsns = [db.heaps["t"].page_lsn(0)]
    flushed = []
    write_page = db.disk.write_page

    def spy(table, page):
        flushed.append(db.wal.flushed_upto)
        write_page(table, page)

    db.disk.write_page = spy
    db.checkpoint()
    assert flushed and min(flushed) >= max(page_lsns)
