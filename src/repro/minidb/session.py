"""SQL sessions — the black-box surface DLFM programs against.

``execute`` is a kernel generator (statements can block on locks):

    rows = yield from session.execute(
        "SELECT * FROM dfm_file WHERE filename = ?", ("a.mpg",))

Behavioural contract (mirrors DB2):

* a transaction begins implicitly at the first statement;
* each statement runs under an implicit savepoint — statement errors
  (duplicate key, type errors) undo only that statement and leave the
  transaction usable;
* deadlock / lock-timeout / log-full abort the WHOLE transaction: the
  engine rolls it back automatically and raises ``TransactionAborted``
  (with ``reason``), exactly the behaviour DLFM's phase-2 retry loops and
  the host's savepoint story are built around.
"""

from __future__ import annotations


from repro.errors import DatabaseError, TransactionAborted
from repro.kernel.sim import Timeout
from repro.sql import ast
from repro.sql.executor import ResultSet
from repro.sql.parser import parse


class _ExplainPlan:
    """Pseudo-plan carrying an EXPLAIN result row (never cached)."""

    kind = "explain"

    def __init__(self, row: tuple):
        self.row = row


class PreparedStatement:
    """A statement handle from :meth:`Session.prepare`: parse once, bind
    once, execute many.

    The handle does NOT pin a plan object — every execution goes through
    the shared bound-plan cache, so all the invalidation machinery works
    unchanged: a stats-version bump or DDL eviction re-binds on the next
    execution (paying ``compile_cpu`` again), and a crash clears the
    cache so restarted executions re-prepare implicitly, exactly like
    DB2 packages. What the handle guarantees is a *stable cache key*
    (parameter markers, never interpolated literals) plus a one-time
    parse, which is what makes the steady state all cache hits.
    """

    def __init__(self, session: "Session", sql: str):
        self.session = session
        self.sql = sql
        self.executions = 0

    @property
    def plan(self):
        """The currently cached plan, or None if evicted/invalidated."""
        cached = self.session.db._plan_cache.get(self.sql)
        return cached[0] if cached is not None else None

    def execute(self, params: tuple = ()):
        """Generator: run the prepared statement with ``params``."""
        self.executions += 1
        result = yield from self.session.execute(self.sql, params)
        return result

    def query_one(self, params: tuple = ()):
        """Generator: run a prepared SELECT, return the one row or None."""
        self.executions += 1
        row = yield from self.session.query_one(self.sql, params)
        return row


class Session:
    def __init__(self, db, isolation: str):
        self.db = db
        self.isolation = isolation
        self.txn = None

    # ------------------------------------------------------------------ txn control

    @property
    def in_txn(self) -> bool:
        return self.txn is not None

    def _require_txn(self):
        if self.txn is None:
            self.txn = self.db.begin(self.isolation)
        return self.txn

    def commit(self, payload=None, force: bool = True):
        """Generator: commit the open transaction (no-op when none).

        ``payload`` (if any) rides on the COMMIT log record — see
        :meth:`Database.commit`. A payload with no open transaction
        starts one so the record is still written and forced.
        ``force=False`` leaves the COMMIT record unforced (see
        :meth:`Database.commit`).
        """
        if self.txn is None:
            if payload is None:
                return
            self._require_txn()
        txn, self.txn = self.txn, None
        yield from self.db.commit(txn, payload=payload, force=force)

    def rollback(self):
        """Generator: roll back the open transaction (no-op when none)."""
        if self.txn is None:
            return
        txn, self.txn = self.txn, None
        yield from self.db.rollback(txn)

    def savepoint(self, name: str) -> None:
        self._require_txn().set_savepoint(name)

    def rollback_to_savepoint(self, name: str) -> None:
        if self.txn is None:
            raise DatabaseError("no transaction for savepoint rollback")
        self.db.rollback_to_savepoint(self.txn, name)

    # ------------------------------------------------------------------ execute

    def execute(self, sql: str, params: tuple = ()):
        """Generator: run one SQL statement.

        Returns a :class:`ResultSet` for SELECT, the affected-row count
        for INSERT/UPDATE/DELETE, and None for DDL.
        """
        self.db.metrics.statements += 1
        stall = self.db.traffic_open_at - self.db.sim.now
        if stall > 0:
            # Crash recovery is still replaying: classic ARIES restart
            # holds ALL new statements until REDO and the index rebuilds
            # finish; the instant path only holds them for the log-tail
            # analysis pass (DESIGN.md §11).
            yield Timeout(stall)
        cost = self.db.config.timing.statement_cost()
        if cost > 0:
            yield Timeout(cost)

        plan, hit = self._plan_or_ddl(sql)
        if not hit:
            # Parse + optimize happened: charge compilation. A cache hit
            # (the prepared-statement steady state) skips this entirely —
            # that asymmetry is the whole point of preparing.
            cost = self.db.config.timing.compile_cost()
            if cost > 0:
                yield Timeout(cost)
        if plan is None:
            return None  # DDL handled eagerly

        if plan.kind == "explain":
            return ResultSet(["kind", "access", "index", "cost"],
                             [plan.row])

        txn = self._require_txn()
        statement_start = txn.last_lsn
        try:
            if plan.kind == "select":
                result = yield from self.db.executor.run_select(
                    txn, plan, params)
            elif plan.kind == "insert":
                result = yield from self.db.executor.run_insert(
                    txn, plan, params)
            elif plan.kind == "update":
                result = yield from self.db.executor.run_update(
                    txn, plan, params)
            elif plan.kind == "delete":
                result = yield from self.db.executor.run_delete(
                    txn, plan, params)
            else:  # pragma: no cover — planner restricts kinds
                raise DatabaseError(f"unknown plan kind {plan.kind}")
        except TransactionAborted:
            # Severe error: DB2 has already decided the transaction dies.
            self.txn = None
            yield from self.db.rollback(txn)
            raise
        except DatabaseError:
            # Statement-level failure: undo this statement only.
            self.db._undo_to(txn, upto_lsn=statement_start)
            raise
        yield from self._charge_io()
        return result

    def _plan_or_ddl(self, sql: str):
        """Resolve ``sql`` to ``(plan, cache_hit)`` — None for DDL."""
        stmt = None
        if sql not in self.db._plan_cache:
            stmt = parse(sql)
            if isinstance(stmt, (ast.CreateTable, ast.CreateIndex,
                                 ast.DropTable, ast.DropIndex)):
                self.db.ddl(stmt)
                return None, False
            if isinstance(stmt, ast.Explain):
                return self._explain_plan(stmt), False
        return self.db.bind_plan(sql, stmt)

    def _explain_plan(self, stmt):
        """EXPLAIN: plan the inner statement, return a descriptor plan."""
        from repro.sql.optimizer import plan_statement
        inner = plan_statement(self.db.catalog, stmt.statement)
        access = getattr(inner, "access", None)
        row = (inner.kind,
               access.kind if access else "n/a",
               access.index_name if access else None,
               round(access.cost, 3) if access else None)
        return _ExplainPlan(row)

    def _charge_io(self):
        pages = self.db.pool.metrics.drain_unbilled()
        cost = self.db.config.timing.io_cost(pages)
        entries, self.db.unbilled_index_entries = (
            self.db.unbilled_index_entries, 0.0)
        cost += self.db.config.timing.index_entry_cost(entries)
        if cost > 0:
            yield Timeout(cost)

    # ------------------------------------------------------------------ prepare

    def prepare(self, sql: str):
        """Generator: compile ``sql`` once, returning a
        :class:`PreparedStatement` for repeated execution.

        Binding happens now, through the shared plan cache — a miss
        charges ``compile_cpu`` here so the executions themselves run
        at cache-hit cost. DDL and EXPLAIN have no bound plan and
        cannot be prepared.
        """
        stmt = parse(sql)
        if isinstance(stmt, (ast.CreateTable, ast.CreateIndex,
                             ast.DropTable, ast.DropIndex, ast.Explain)):
            raise DatabaseError(f"cannot prepare DDL/EXPLAIN: {sql!r}")
        _, hit = self.db.bind_plan(sql, stmt)
        if not hit:
            cost = self.db.config.timing.compile_cost()
            if cost > 0:
                yield Timeout(cost)
        return PreparedStatement(self, sql)

    # ------------------------------------------------------------------ sugar

    def query_one(self, sql: str, params: tuple = ()):
        """Generator: run a SELECT and return the single row or None."""
        result = yield from self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise DatabaseError("query_one needs a SELECT")
        if len(result) > 1:
            raise DatabaseError(f"expected at most one row, got {len(result)}")
        return result.rows[0] if result.rows else None
