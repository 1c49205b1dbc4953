"""Prepared statements: parse once, bind once, execute many.

The contract under test (DESIGN.md §14): a
:class:`~repro.minidb.session.PreparedStatement` holds a stable cache
key, NOT a plan object — every execution routes through the shared
bound-plan cache, so the handle survives DDL eviction, stats-version
invalidation and even a crash (it silently re-binds, paying
``compile_cpu`` once, exactly like a DB2 package rebind).
"""

import pytest

from repro.errors import DatabaseError
from repro.minidb import Database, DBConfig
from repro.minidb.config import TimingModel

COMPILE = 0.004


def make_db(sim, **cfg):
    db = Database(sim, "prep", DBConfig(**cfg))

    def setup():
        session = db.session()
        yield from session.execute("CREATE TABLE t (k INT, v TEXT)")
        for i in range(50):
            yield from session.execute(
                "INSERT INTO t (k, v) VALUES (?, ?)", (i, f"v{i}"))
        yield from session.commit()

    sim.run_process(setup())
    return db


def compile_only_timing():
    """Bill ONLY compile time, so sim-clock deltas isolate it."""
    return TimingModel(enabled=True, cpu_per_statement=0.0, page_io=0.0,
                       rpc=0.0, log_force=0.0,
                       compile_cpu=COMPILE)


def test_prepare_once_execute_many_hits_cache(sim):
    db = make_db(sim)
    hits0, binds0 = db.metrics.plan_hits, db.metrics.plan_binds

    def go():
        session = db.session()
        stmt = yield from session.prepare("SELECT v FROM t WHERE k = ?")
        rows = []
        for k in range(10):
            result = yield from stmt.execute((k,))
            rows.append(result.rows[0])
        yield from session.commit()
        return stmt, rows

    stmt, rows = sim.run_process(go())
    assert rows == [(f"v{k}",) for k in range(10)]
    assert stmt.executions == 10
    assert db.metrics.plan_binds == binds0 + 1   # bound at prepare()
    assert db.metrics.plan_hits == hits0 + 10    # every execution hit


def test_compile_cpu_billed_only_on_miss(sim):
    db = make_db(sim, timing=compile_only_timing())

    def go():
        session = db.session()
        started = sim.now
        stmt = yield from session.prepare("SELECT v FROM t WHERE k = ?")
        prepare_cost = sim.now - started
        started = sim.now
        for k in range(10):
            yield from stmt.execute((k,))
        execute_cost = sim.now - started
        yield from session.commit()
        return prepare_cost, execute_cost

    prepare_cost, execute_cost = sim.run_process(go())
    assert prepare_cost == pytest.approx(COMPILE)
    assert execute_cost == 0.0


def test_interpolated_sql_pays_compile_every_time(sim):
    """The tax the API exists to remove: literal-splicing SQL gets a
    distinct cache key per value and re-compiles on every execution."""
    db = make_db(sim, timing=compile_only_timing())

    def go():
        session = db.session()
        started = sim.now
        for k in range(10):
            yield from session.execute(f"SELECT v FROM t WHERE k = {k}")
        yield from session.commit()
        return sim.now - started

    assert sim.run_process(go()) == pytest.approx(10 * COMPILE)


def test_prepare_rejects_ddl_and_explain(sim):
    db = make_db(sim)

    def go(sql):
        session = db.session()
        yield from session.prepare(sql)

    for sql in ("CREATE TABLE x (a INT)", "DROP TABLE t",
                "CREATE INDEX t_k ON t (k)",
                "EXPLAIN SELECT * FROM t WHERE k = 1"):
        with pytest.raises(DatabaseError):
            sim.run_process(go(sql))


def test_ddl_eviction_rebinds_held_statement(sim):
    """CREATE INDEX evicts the bound scan plan; the HELD handle picks up
    the index plan on its next execution — no re-prepare needed."""
    db = make_db(sim)
    db.set_table_stats("t", card=1_000_000, npages=40_000,
                       colcard={"k": 1_000_000})

    def go():
        session = db.session()
        stmt = yield from session.prepare("SELECT v FROM t WHERE k = ?")
        yield from stmt.execute((1,))
        yield from session.commit()
        scan_kind = stmt.plan.access.kind
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()
        assert stmt.plan is None            # evicted by the DDL
        result = yield from stmt.execute((2,))
        yield from session.commit()
        return scan_kind, stmt.plan.access.kind, result.rows

    scan_kind, rebound_kind, rows = sim.run_process(go())
    assert scan_kind == "table_scan"
    assert rebound_kind == "index_scan"
    assert rows == [("v2",)]


def test_stats_bump_rebinds_mid_use(sim):
    """A stats-version bump between executions re-binds the held handle
    mid-use and pays compile_cpu exactly once more."""
    db = make_db(sim, timing=compile_only_timing())

    def setup_index():
        session = db.session()
        yield from session.execute("CREATE UNIQUE INDEX t_k ON t (k)")
        yield from session.commit()

    sim.run_process(setup_index())

    def go():
        session = db.session()
        stmt = yield from session.prepare("SELECT v FROM t WHERE k = ?")
        yield from stmt.execute((1,))
        before_kind = stmt.plan.access.kind
        # stats surgery: huge card makes the index plan the clear winner
        db.set_table_stats("t", card=1_000_000, npages=40_000,
                           colcard={"k": 1_000_000})
        invalidations = db.metrics.plan_invalidations
        started = sim.now
        yield from stmt.execute((2,))       # re-binds against new stats
        rebind_cost = sim.now - started
        started = sim.now
        yield from stmt.execute((3,))       # back to cache hits
        hit_cost = sim.now - started
        yield from session.commit()
        return (before_kind, stmt.plan.access.kind,
                db.metrics.plan_invalidations - invalidations,
                rebind_cost, hit_cost)

    before, after, invalidated, rebind_cost, hit_cost = sim.run_process(go())
    assert before == "table_scan"           # 50 rows: scan is cheaper
    assert after == "index_scan"            # million-row stats flip it
    assert invalidated == 1
    assert rebind_cost == pytest.approx(COMPILE)
    assert hit_cost == 0.0


def test_crash_clears_prepared_state_then_rebinds(sim):
    db = make_db(sim, timing=compile_only_timing())

    def prepare():
        session = db.session()
        stmt = yield from session.prepare("SELECT v FROM t WHERE k = ?")
        yield from stmt.execute((1,))
        yield from session.commit()
        return stmt

    stmt = sim.run_process(prepare())
    assert stmt.plan is not None
    db.crash()
    db.restart()
    assert stmt.plan is None                # cache gone with the crash

    def reexecute():
        session = db.session()
        started = sim.now
        result = yield from session.execute(stmt.sql, (1,))
        cost = sim.now - started
        yield from session.commit()
        return result.rows, cost

    rows, cost = sim.run_process(reexecute())
    assert rows == [("v1",)]
    assert cost == pytest.approx(COMPILE)   # implicit re-prepare, once


def test_si_snapshot_reads_through_prepared_plan(sim):
    """A prepared SELECT executed under SI resolves against the session
    snapshot: a concurrent committed UPDATE stays invisible."""
    db = make_db(sim, isolation="CS")

    def go():
        reader = db.session("SI")
        stmt = yield from reader.prepare("SELECT v FROM t WHERE k = ?")
        first = yield from stmt.execute((1,))
        writer = db.session()
        yield from writer.execute(
            "UPDATE t SET v = ? WHERE k = ?", ("changed", 1))
        yield from writer.commit()
        again = yield from stmt.execute((1,))     # same snapshot
        yield from reader.commit()
        fresh = db.session("SI")
        final = yield from fresh.execute(stmt.sql, (1,))
        yield from fresh.commit()
        return first.rows, again.rows, final.rows

    first, again, final = sim.run_process(go())
    assert first == [("v1",)]
    assert again == [("v1",)]               # snapshot-stable through handle
    assert final == [("changed",)]          # new snapshot sees the commit
