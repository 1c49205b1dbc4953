"""The Database facade: what DLFM and the host engine see as "DB2".

Owns every engine component and exposes:

* :meth:`session` — SQL sessions (the only interface DLFM uses);
* transaction control (begin/commit/rollback/savepoints) as kernel
  generators, since commit forces the log and rollback may take locks;
* plan binding with statistics-version invalidation (E4);
* RUNSTATS and hand-crafted statistics;
* :meth:`crash` / :meth:`restart` with ARIES-style recovery (E10);
* :meth:`checkpoint` — flush dirty pages and truncate the active log.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (CatalogError, CrashedError, DatabaseError,
                          TransactionAborted)
from repro.kernel.sim import Event, Simulator, Timeout
from repro.minidb import wal as walmod
from repro.minidb.btree import BTree, encode_key
from repro.minidb.catalog import Catalog, ColumnDef
from repro.minidb.config import DBConfig
from repro.minidb.locks import LockManager
from repro.minidb.storage import BufferPool, Disk, Heap
from repro.minidb.txn import Transaction, TransactionTable, TxnState
from repro.minidb.wal import LogManager
from repro.sql import ast
from repro.sql.executor import Executor
from repro.sql.optimizer import plan_statement
from repro.sql.parser import parse


@dataclass
class DBMetrics:
    statements: int = 0
    commits: int = 0
    rollbacks: int = 0
    aborts_by_reason: dict = field(default_factory=dict)
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    table_scans: int = 0
    index_scans: int = 0
    plan_binds: int = 0
    plan_hits: int = 0
    plan_invalidations: int = 0
    plan_evictions: int = 0
    #: Auto-RUNSTATS refreshes triggered by mutation counters.
    auto_runstats_runs: int = 0
    recoveries: int = 0
    #: Instant recovery: pages whose pending log chain was replayed on
    #: demand (or by the background replayer), and records applied.
    pages_replayed: int = 0
    replay_records: int = 0
    #: Bulk LOAD: index entries whose maintenance was deferred to the
    #: end-of-load bottom-up build instead of per-row inserts.
    bulk_entries_deferred: int = 0
    #: MVCC: tail versions stamped at commit / folded back into base
    #: records (inline at commit plus the merge daemon's passes).
    versions_created: int = 0
    versions_merged: int = 0

    def note_abort(self, reason: str) -> None:
        self.rollbacks += 1
        self.aborts_by_reason[reason] = (
            self.aborts_by_reason.get(reason, 0) + 1)


class _BulkIndexPending:
    """Deferred index entries for one index during a bulk LOAD.

    ``by_rid`` (rid → key values) makes undo of an aborted LOAD an O(1)
    removal; ``keys`` (key values → count) backs unique pre-checks,
    which become authoritative while the B-tree insert is deferred.
    """

    __slots__ = ("by_rid", "keys")

    def __init__(self) -> None:
        self.by_rid: dict = {}
        self.keys: dict = {}

    def add(self, rid, key) -> None:
        self.by_rid[rid] = key
        self.keys[key] = self.keys.get(key, 0) + 1

    def drop(self, rid) -> bool:
        key = self.by_rid.pop(rid, _ABSENT)
        if key is _ABSENT:
            return False
        count = self.keys.get(key, 0) - 1
        if count <= 0:
            self.keys.pop(key, None)
        else:
            self.keys[key] = count
        return True


_ABSENT = object()


class Database:
    def __init__(self, sim: Simulator, name: str = "db",
                 config: Optional[DBConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or DBConfig()
        self.config.validate()
        self.disk = Disk()
        self.catalog = Catalog()
        self.metrics = DBMetrics()
        self.crashed = False
        self._build_volatile()

    def _build_volatile(self) -> None:
        """(Re)create everything lost in a crash."""
        self.wal = getattr(self, "wal", None) or LogManager(
            self.config.wal_capacity)
        self.pool = BufferPool(self.disk, self.config.buffer_pool_pages,
                               self.config.rows_per_page, self.wal)
        self.locks = LockManager(self.sim, self.config, self.name)
        previous = getattr(self, "txns", None)
        self.txns = TransactionTable(
            start=(previous.highest_id + 1) if previous else 1)
        self.heaps: dict[str, Heap] = {}
        self.btrees: dict[str, BTree] = {}
        #: Instant recovery: (table, page_no) → ascending LSNs still to
        #: replay. Filled by ``recovery.py``, drained by
        #: :meth:`replay_page` (volatile; rebuilt from the WAL at restart).
        self.replay_pending: dict[tuple[str, int], list[int]] = {}
        #: Sim time before which new statements stall: recovery converts
        #: its foreground I/O (REDO scan, page reads, index repair) into
        #: this gate, so a restarted DB really is unavailable while the
        #: classic restart replays — and barely stalls on the instant path.
        self.traffic_open_at: float = 0.0
        self.executor = Executor(self)
        #: Bound-plan cache, LRU-ordered (oldest first); capped at
        #: ``config.plan_cache_size``.
        self._plan_cache: OrderedDict[str, tuple] = OrderedDict()
        #: In-flight group-commit force (Event) or None; volatile state.
        self._group_force: Optional[Event] = None
        #: Active bulk LOADs: table → {index name → _BulkIndexPending}.
        #: Volatile by design — a crash discards the deferral and restart
        #: rebuilds indexes from durable state as usual.
        self._bulk_loads: dict[str, dict[str, _BulkIndexPending]] = {}
        #: Index-entry maintenance work not yet converted into simulated
        #: time (drained by Session._charge_io, like pool.unbilled_io).
        self.unbilled_index_entries: float = 0.0
        #: Guard-rail log for the merge path: an explicit fold watermark
        #: above the oldest live snapshot lands here (the chaos checker
        #: surfaces entries as ``stale-merge`` violations).
        self.version_violations: list[str] = []
        #: Auto-RUNSTATS bookkeeping: rows mutated per table since its
        #: statistics were last computed. Volatile by design — a crash
        #: loses the counters and staleness re-accumulates from zero,
        #: exactly like DB2's in-memory UDI counters.
        self.stats_mutations: dict[str, int] = {}
        for table in self.catalog.tables.values():
            self.heaps[table.name] = Heap(table.name, self.pool)
        for index in self.catalog.indexes.values():
            self.btrees[index.name] = BTree(
                index.name, index.table, index.columns, index.unique,
                self.config.btree_order)

    # ------------------------------------------------------------------ sessions

    def session(self, isolation: Optional[str] = None) -> "Session":
        from repro.minidb.session import Session
        return Session(self, isolation or self.config.isolation)

    # ------------------------------------------------------------------ txn control

    def begin(self, isolation: Optional[str] = None) -> Transaction:
        self._ensure_up()
        level = isolation or self.config.isolation
        txn = self.txns.begin(level, self.sim.now)
        if level == "SI":
            if not self.config.mvcc:
                raise DatabaseError("isolation='SI' requires mvcc=True")
            # Snapshot = current WAL tail: exactly the commit records
            # appended so far. Reading an appended-but-unforced commit is
            # safe — our own commit force flushes the tail in order, so
            # this read can never become durable before what it saw.
            txn.snapshot_lsn = self.wal.tail_lsn
        return txn

    def commit(self, txn: Transaction, payload=None, force: bool = True):
        """Generator: commit — force the log, release locks.

        ``payload`` rides on the COMMIT record itself (decision
        piggybacking: the host's 2PC decision shares the commit's one
        WAL force instead of paying for its own logged INSERTs). A
        payload forces a COMMIT record even for a write-free
        transaction — the decision must be durable regardless.

        ``force=False`` appends the COMMIT record but leaves it in the
        unforced tail: versions are stamped and locks released at once,
        no force is paid or fed to the group-commit EWMA, and a crash
        before the next force loses the whole transaction. Releasing
        locks early is safe because the log is sequential: any later
        forced commit — including one that read the freed rows — makes
        this record durable first. For work whose loss is harmless (the
        2PC coordinator's forget of a fully-acknowledged decision).
        """
        self._ensure_up()
        if txn.rollback_only:
            yield from self.rollback(txn)
            raise TransactionAborted(
                f"txn {txn.id} was rollback-only at commit",
                reason=txn.abort_reason or "error")
        if txn.last_lsn is not None or payload is not None:
            record = self.wal.append(walmod.COMMIT, txn, payload=payload,
                                     active_floor=self.txns.active_floor())
            # Stamp the version tail with the commit LSN before any yield:
            # in the cooperative kernel no snapshot can begin in between,
            # so versions and the commit record appear atomically.
            self._stamp_versions(txn, record.lsn)
            if force:
                injector = self.sim.injector
                if injector.enabled:
                    # Crash with the COMMIT record appended, NOT durable.
                    injector.maybe_crash(f"wal.force.before:{self.name}",
                                         self.name)
                yield from self._force_wal(txn, "commit")
                if injector.enabled:
                    # Crash with the record durable but the ack never sent.
                    injector.maybe_crash(f"wal.force.after:{self.name}",
                                         self.name)
        self.locks.release_all(txn)
        self.txns.end(txn, TxnState.COMMITTED)
        self.metrics.commits += 1
        self._maybe_auto_runstats()
        self._maybe_soft_checkpoint()

    def prepare(self, txn: Transaction):
        """Generator: XA phase 1 — harden the transaction, keep locks.

        From here on the transaction's outcome belongs to the external
        transaction manager: restart recovery neither redoes-away nor
        undoes it, and its write locks are reacquired (it stays indoubt
        until :meth:`commit` or :meth:`rollback` is called for it).
        """
        self._ensure_up()
        if txn.rollback_only:
            yield from self.rollback(txn)
            raise TransactionAborted(
                f"txn {txn.id} was rollback-only at prepare",
                reason=txn.abort_reason or "error")
        txn.ensure_active()
        self.wal.append(walmod.PREPARE, txn,
                        active_floor=self.txns.active_floor())
        injector = self.sim.injector
        if injector.enabled:
            injector.maybe_crash(f"wal.force.before:{self.name}", self.name)
        yield from self._force_wal(txn, "prepare")
        if injector.enabled:
            injector.maybe_crash(f"wal.force.after:{self.name}", self.name)
        txn.state = TxnState.PREPARED

    def _commit_window(self) -> float:
        """Window a new group-commit leader should wait, in seconds.

        Fixed mode returns the configured constant. ``"auto"`` consults
        the WAL's commit inter-arrival EWMA: when the expected gap is at
        or beyond the max window, waiting would buy nothing — force
        immediately (no latency tax at low concurrency). Under bursts,
        wait long enough to cover about ``group_commit_burst_factor``
        expected arrivals, clamped to [min_window, max_window].
        """
        cfg = self.config
        if cfg.group_commit_window != "auto":
            return float(cfg.group_commit_window)
        gap = self.wal.commit_gap_ewma
        if gap is None or gap >= cfg.group_commit_max_window:
            return 0.0
        return min(max(cfg.group_commit_burst_factor * gap,
                       cfg.group_commit_min_window),
                   cfg.group_commit_max_window)

    def _force_wal(self, txn: Transaction, record: str):
        """Generator: make the just-appended commit/prepare record durable.

        With a positive ``group_commit_window`` (or ``"auto"`` choosing
        one), committers arriving while a force is pending share ONE
        physical force: the first becomes the group leader, waits out
        the window, then forces to the log tail — covering everyone who
        appended meanwhile; followers just wait (``forces_saved``).
        Control never returns before the record is durable, so an
        acknowledgement cannot precede the force: a crash inside the
        window fails every member with CrashedError.
        """
        cfg = self.config
        auto = cfg.group_commit_window == "auto"
        if auto:
            self.wal.note_commit_request(self.sim.now,
                                         cfg.group_commit_ewma_alpha)
        elif cfg.group_commit_window <= 0:
            if self.wal.force():
                with self.sim.tracer.span("wal.force", db=self.name,
                                          txn=txn.id, record=record,
                                          lsn=self.wal.flushed_upto):
                    cost = cfg.timing.log_force_cost()
                    if cost > 0:
                        yield Timeout(cost)
            return
        target = self.wal.tail_lsn
        while target > self.wal.flushed_upto:
            event = self._group_force
            if event is None:
                window = self._commit_window()
                if auto:
                    self.wal.auto_windows.append(window)
                if window <= 0:
                    # Auto, sparse arrivals: nobody is expected within a
                    # useful window, so pay our own force right away.
                    self.wal.metrics.auto_immediate += 1
                    if self.wal.force():
                        with self.sim.tracer.span("wal.force", db=self.name,
                                                  txn=txn.id, record=record,
                                                  lsn=self.wal.flushed_upto):
                            cost = cfg.timing.log_force_cost()
                            if cost > 0:
                                yield Timeout(cost)
                    return
                if auto:
                    self.wal.metrics.auto_batched += 1
                # Leader: open a group, collect committers for one window.
                event = Event(self.sim, latch=True,
                              name=f"group-force-{self.name}")
                self._group_force = event
                yield Timeout(window)
                if self._group_force is not event:
                    # crash() failed the group while we slept
                    raise CrashedError(
                        f"database {self.name} crashed during group commit")
                injector = self.sim.injector
                if injector.enabled:
                    # Crash between window expiry and the physical force:
                    # the whole group's records sit in the unforced tail,
                    # so crash() must fail every member (never-ack). Fires
                    # while _group_force is still set so crash() can see
                    # and fail the group.
                    injector.maybe_crash(f"wal.group:leader:{self.name}",
                                         self.name)
                self._group_force = None
                if txn.rollback_only:
                    # Aborted while waiting (e.g. picked as a victim): a
                    # dead transaction must not force its own commit
                    # record. Wake the followers with a benign outcome so
                    # one of them re-loops into leadership.
                    event.trigger(None)
                    raise TransactionAborted(
                        f"txn {txn.id} aborted inside the group-commit "
                        f"window", reason=txn.abort_reason or "error")
                self.wal.metrics.group_commits += 1
                if self.wal.force():
                    with self.sim.tracer.span("wal.force", db=self.name,
                                              txn=txn.id, record=record,
                                              lsn=self.wal.flushed_upto,
                                              group=True):
                        cost = cfg.timing.log_force_cost()
                        if cost > 0:
                            yield Timeout(cost)
                event.trigger(None)
            else:
                # Follower: the pending force will cover our record.
                self.wal.metrics.forces_saved += 1
                outcome = yield event.wait()
                if isinstance(outcome, BaseException):
                    raise outcome

    def indoubt_transactions(self) -> list[Transaction]:
        """Prepared transactions awaiting an outcome (after restart too)."""
        return [t for t in self.txns.active
                if t.state is TxnState.PREPARED]

    def find_prepared(self, txn_id: int) -> Transaction:
        for txn in self.txns.active:
            if txn.id == txn_id and txn.state is TxnState.PREPARED:
                return txn
        raise DatabaseError(f"no prepared transaction {txn_id}")

    def rollback(self, txn: Transaction):
        """Generator: undo everything the transaction did, release locks."""
        self._ensure_up()
        if txn.state not in (TxnState.ACTIVE, TxnState.PREPARED):
            return
        self._undo_to(txn, upto_lsn=None)
        if txn.last_lsn is not None:
            self.wal.append(walmod.ABORT, txn,
                            active_floor=self.txns.active_floor())
        self.locks.release_all(txn)
        self.txns.end(txn, TxnState.ABORTED)
        self.metrics.note_abort(txn.abort_reason or "user")
        self._maybe_soft_checkpoint()
        return
        yield  # pragma: no cover — generator for interface symmetry

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        target = txn.savepoint_lsn(name)
        self._undo_to(txn, upto_lsn=target)
        txn.rollback_only = False
        txn.abort_reason = None

    # ------------------------------------------------------------------ undo

    def _undo_to(self, txn: Transaction, upto_lsn: Optional[int]) -> None:
        """Undo ``txn``'s records with LSN greater than ``upto_lsn``.

        Locks are already held (strict 2PL), so undo never blocks.
        """
        floor = upto_lsn or 0
        next_to_undo = txn.last_lsn
        while next_to_undo is not None and next_to_undo > floor:
            record = self.wal.record(next_to_undo)
            if record.kind == walmod.CLR:
                next_to_undo = record.undo_next
                continue
            if record.redoable:
                self._apply_state(record.table, record.rid, record.before)
                clr = self.wal.append(
                    walmod.CLR, txn, table=record.table, rid=record.rid,
                    before=record.after, after=record.before,
                    undo_next=record.prev_lsn,
                    active_floor=self.txns.active_floor())
                self.heaps[record.table].set_page_lsn(record.rid[0], clr.lsn)
            next_to_undo = record.prev_lsn

    def _apply_state(self, table: str, rid, desired: Optional[tuple]) -> None:
        """Force a heap slot (and index entries) to ``desired``."""
        heap = self.heaps[table]
        current = heap.fetch(rid)
        tdef = self.catalog.tables.get(table)
        if current is not None:
            heap.delete(rid)
            if tdef is not None:
                self.apply_index_delete(tdef, current, rid)
        if desired is not None:
            heap.insert(desired, rid=rid)
            if tdef is not None:
                self.apply_index_insert(tdef, desired, rid)

    # ------------------------------------------------------------------ lazy replay

    def replay_page(self, table: str, page_no: int) -> int:
        """On-demand REDO of one page's pending log chain (instant recovery).

        Called by the heap replay gate on first touch after a lazy
        restart, and by DLFM's background replayer for cold pages. Pops
        the page from the pending set *before* applying, so the replay's
        own page accesses pass straight through the gate. Idempotent:
        each record is applied only when the page LSN is behind it.
        Returns the number of records applied.
        """
        lsns = self.replay_pending.pop((table, page_no), None)
        if lsns is None:
            return 0
        heap = self.heaps.get(table)
        applied = 0
        if heap is not None:
            for lsn in lsns:
                record = self.wal.record(lsn)
                if heap.page_lsn(page_no) >= lsn:
                    continue
                current = heap.fetch(record.rid)
                if current is not None:
                    heap.delete(record.rid)
                if record.after is not None:
                    heap.insert(record.after, rid=record.rid)
                heap.set_page_lsn(page_no, lsn)
                applied += 1
            self.metrics.pages_replayed += 1
            self.metrics.replay_records += applied
        if not self.replay_pending:
            # Replay complete: take the gate off the hot path entirely.
            for other in self.heaps.values():
                other.replay_hook = None
        return applied

    # ------------------------------------------------------------------ WAL hook

    def log_write(self, kind: str, txn: Transaction, table: str, rid,
                  before, after):
        record = self.wal.append(
            getattr(walmod, kind), txn, table=table, rid=rid, before=before,
            after=after, active_floor=self.txns.active_floor())
        heap = self.heaps[table]
        heap.set_page_lsn(rid[0], record.lsn)
        if self.config.mvcc:
            # First touch pins the committed pre-state as the chain seed;
            # the commit will stamp the final state with its commit LSN.
            heap.version_seed(rid, before)
            txn.touched[(table, rid)] = None
        return record

    # ------------------------------------------------------------------ versions

    def oldest_snapshot_lsn(self) -> int:
        """Merge watermark: oldest live SI snapshot, else the WAL tail."""
        snap = self.txns.oldest_snapshot()
        return snap if snap is not None else self.wal.tail_lsn

    def write_conflict_check(self, txn: Transaction, table: str,
                             rid) -> None:
        """SI first-writer-wins: abort if the row has a version committed
        after our snapshot (called with the X row lock already held, so
        the newest version is final). Rows we already wrote are ours."""
        if txn.snapshot_lsn is None or (table, rid) in txn.touched:
            return
        if self.heaps[table].version_newest_ts(rid) > txn.snapshot_lsn:
            txn.mark_rollback_only("write-conflict")
            raise TransactionAborted(
                f"txn {txn.id}: row {table}:{rid} was modified after the "
                f"snapshot (first writer wins)", reason="write-conflict")

    def _stamp_versions(self, txn: Transaction, commit_lsn: int) -> None:
        """Append one version per written rid at the commit LSN, then fold
        what no live snapshot needs (with none live, the chain collapses
        back into the base record immediately — legacy workloads never
        accumulate chains)."""
        if not self.config.mvcc or not txn.touched:
            return
        touched = list(txn.touched)
        txn.touched.clear()
        watermark = self.oldest_snapshot_lsn()
        merged = 0
        for table, rid in touched:
            heap = self.heaps.get(table)
            if heap is None:
                continue  # table dropped mid-transaction (DDL is immediate)
            heap.version_append(rid, commit_lsn, heap.fetch(rid))
            self.metrics.versions_created += 1
            merged += heap.fold_versions(rid, watermark)
        self.metrics.versions_merged += merged

    def merge_versions(self, watermark: Optional[int] = None) -> int:
        """One merge pass: fold every chain no live snapshot can see.

        Skips chains pinned by an in-flight writer (their slot holds
        uncommitted data, so the seed must survive until commit/abort
        resolves it). An explicit ``watermark`` above the oldest live
        snapshot is a caller bug — it is recorded for the chaos
        ``stale-merge`` invariant and the fold proceeds as asked, so the
        checker provably catches the damage. Returns entries folded.
        """
        if not self.config.mvcc:
            return 0
        safe = self.oldest_snapshot_lsn()
        if watermark is None:
            watermark = safe
        elif watermark > safe:
            self.version_violations.append(
                f"merge watermark {watermark} above oldest live "
                f"snapshot {safe}")
        pinned = set()
        for active in self.txns.active:
            pinned.update(active.touched)
        merged = 0
        for table, heap in self.heaps.items():
            for rid in heap.version_rids():
                if (table, rid) in pinned:
                    continue
                merged += heap.fold_versions(rid, watermark)
        self.metrics.versions_merged += merged
        return merged

    def live_chains(self) -> int:
        return sum(heap.live_chains for heap in self.heaps.values())

    def snapshot_table_rows(self, table: str,
                            ts: Optional[int] = None) -> list[tuple]:
        """Rows of ``table`` visible at snapshot ``ts`` (default: a fresh
        snapshot at the current tail). Lock-free; used by tests and the
        chaos ``lost-committed-version`` checker."""
        if ts is None:
            ts = self.wal.tail_lsn
        return [row for _, row in self.heaps[table].snapshot_scan(ts)]

    # ------------------------------------------------------------------ index maintenance

    def apply_index_insert(self, table, row: tuple, rid) -> None:
        pending = self._bulk_loads.get(table.name)
        for index in self.catalog.indexes_by_table.get(table.name, []):
            key = tuple(row[table.position(c)] for c in index.columns)
            if pending is not None:
                pending[index.name].add(rid, key)
                self.metrics.bulk_entries_deferred += 1
            else:
                self.unbilled_index_entries += 1
                self.btrees[index.name].insert(key, rid)

    def apply_index_delete(self, table, row: tuple, rid) -> None:
        pending = self._bulk_loads.get(table.name)
        for index in self.catalog.indexes_by_table.get(table.name, []):
            if pending is not None and pending[index.name].drop(rid):
                continue  # entry was still deferred; undo is a dict pop
            key = tuple(row[table.position(c)] for c in index.columns)
            self.unbilled_index_entries += 1
            self.btrees[index.name].delete(key, rid)

    def apply_index_update(self, table, old_row: tuple, new_row: tuple,
                           rid) -> None:
        pending = self._bulk_loads.get(table.name)
        for index in self.catalog.indexes_by_table.get(table.name, []):
            old_key = tuple(old_row[table.position(c)] for c in index.columns)
            new_key = tuple(new_row[table.position(c)] for c in index.columns)
            if old_key == new_key:
                continue
            if pending is not None:
                p = pending[index.name]
                if not p.drop(rid):
                    self.unbilled_index_entries += 1
                    self.btrees[index.name].delete(old_key, rid)
                p.add(rid, new_key)
                self.metrics.bulk_entries_deferred += 1
            else:
                self.unbilled_index_entries += 2
                btree = self.btrees[index.name]
                btree.delete(old_key, rid)
                btree.insert(new_key, rid)

    # ------------------------------------------------------------------ bulk LOAD

    def in_bulk_load(self, table: str) -> bool:
        return table in self._bulk_loads

    def bulk_pending_duplicate(self, table: str, index_name: str,
                               key: tuple) -> bool:
        """Does a deferred entry already carry ``key``? (unique pre-check)"""
        pending = self._bulk_loads.get(table)
        if pending is None:
            return False
        p = pending.get(index_name)
        return p is not None and key in p.keys

    def begin_bulk_load(self, table: str) -> None:
        """Defer per-row index maintenance for ``table`` (DB2 LOAD).

        While active, ``apply_index_*`` records pending entries instead
        of touching the B+trees, so index scans do not see the loaded
        rows until :meth:`end_bulk_load` folds them in with one sorted
        bottom-up build (DB2's "load pending" table state). Heap writes
        and WAL records are unchanged, so aborts undo normally (the
        deferred entry is dropped) and a crash simply discards the
        volatile deferral — restart rebuilds indexes from durable state.
        The loader is assumed to be the table's only writer (LOAD holds
        the DLFM file locks), so next-key locks are skipped meanwhile.
        """
        self._ensure_up()
        self.catalog.require_table(table)
        self._bulk_loads.setdefault(table, {
            index.name: _BulkIndexPending()
            for index in self.catalog.indexes_by_table.get(table, [])})

    def _merge_bulk_load(self, table: str) -> int:
        """Fold a table's deferred entries into its B+trees; returns count."""
        pending = self._bulk_loads.pop(table, None)
        if pending is None:
            return 0
        merged = 0
        for index_name, p in pending.items():
            btree = self.btrees.get(index_name)
            if btree is None or not p.by_rid:
                continue
            pairs = list(btree.items())
            pairs.extend((encode_key(key), rid)
                         for rid, key in p.by_rid.items())
            btree.bulk_load(pairs)
            merged += len(p.by_rid)
        return merged

    def end_bulk_load(self, table: str):
        """Generator: merge deferred entries, charging the sequential
        bottom-up build at ``bulk_index_factor`` of per-row cost."""
        merged = self._merge_bulk_load(table)
        cost = self.config.timing.index_entry_cost(
            merged * self.config.timing.bulk_index_factor)
        if cost > 0:
            yield Timeout(cost)
        return merged

    # ------------------------------------------------------------------ DDL

    def ddl(self, stmt) -> None:
        """DDL is applied immediately and is not transactional (documented)."""
        self._ensure_up()
        if isinstance(stmt, ast.CreateTable):
            columns = [ColumnDef(n, t) for n, t in stmt.columns]
            self.catalog.create_table(stmt.table, columns)
            self.heaps[stmt.table] = Heap(stmt.table, self.pool)
            touched = stmt.table
        elif isinstance(stmt, ast.CreateIndex):
            index = self.catalog.create_index(stmt.index, stmt.table,
                                              stmt.columns, stmt.unique)
            btree = BTree(index.name, index.table, index.columns,
                          index.unique, self.config.btree_order)
            table = self.catalog.require_table(stmt.table)
            for rid, row in self.heaps[stmt.table].scan():
                key = tuple(row[table.position(c)] for c in index.columns)
                btree.insert(key, rid)
            self.btrees[index.name] = btree
            if stmt.table in self._bulk_loads:
                # Built from the heap, which already holds the loaded
                # rows; only entries deferred from here on concern it.
                self._bulk_loads[stmt.table][index.name] = (
                    _BulkIndexPending())
            touched = stmt.table
        elif isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.table)
            self.heaps.pop(stmt.table, None)
            for name in [n for n, b in self.btrees.items()
                         if b.table == stmt.table]:
                del self.btrees[name]
                self.disk.drop_index_image(name)
            self.pool.drop_table(stmt.table)
            self.wal.forget_table(stmt.table)
            self._bulk_loads.pop(stmt.table, None)
            for key in [k for k in self.replay_pending
                        if k[0] == stmt.table]:
                del self.replay_pending[key]
            touched = stmt.table
        elif isinstance(stmt, ast.DropIndex):
            index = self.catalog.require_index(stmt.index)
            self.catalog.indexes_by_table[index.table].remove(index)
            del self.catalog.indexes[stmt.index]
            del self.btrees[stmt.index]
            self.disk.drop_index_image(stmt.index)
            self._bulk_loads.get(index.table, {}).pop(stmt.index, None)
            touched = index.table
        else:
            raise CatalogError(f"not DDL: {stmt!r}")
        self._invalidate_plans(touched)

    # ------------------------------------------------------------------ plans

    def get_plan(self, sql: str):
        """Bound-plan lookup; stale statistics versions force a re-bind."""
        return self.bind_plan(sql)[0]

    def bind_plan(self, sql: str, stmt=None):
        """Bound-plan lookup returning ``(plan, hit)``.

        ``hit`` distinguishes a cache hit (no parse, no optimize — the
        prepared-statement fast path) from a fresh bind, which is what
        :class:`~repro.minidb.session.Session` charges ``compile_cpu``
        for. A cached plan whose statistics versions went stale counts
        as a miss: it re-parses, re-optimizes and pays compilation
        again. ``stmt`` (if given) is a pre-parsed AST reused on a miss,
        so ``Session.prepare`` parses exactly once.
        """
        cached = self._plan_cache.get(sql)
        if cached is not None:
            plan, versions = cached
            if all(self.catalog.stats_version(t) == v
                   for t, v in versions.items()):
                self._plan_cache.move_to_end(sql)
                self.metrics.plan_hits += 1
                return plan, True
            self.metrics.plan_invalidations += 1
        if stmt is None:
            stmt = parse(sql)
        plan = plan_statement(self.catalog, stmt)
        versions = {t: self.catalog.stats_version(t) for t in plan.tables}
        self._plan_cache[sql] = (plan, versions)
        self._plan_cache.move_to_end(sql)
        while len(self._plan_cache) > self.config.plan_cache_size:
            self._plan_cache.popitem(last=False)
            self.metrics.plan_evictions += 1
        self.metrics.plan_binds += 1
        return plan, False

    def _invalidate_plans(self, table: Optional[str] = None) -> None:
        """Evict cached plans — all of them, or those touching ``table``.

        DDL passes the affected table so that e.g. CREATE INDEX evicts
        exactly the plans it could improve (an already-cached scan plan
        would otherwise keep running without the new index), without
        discarding every other statement's binding work.
        """
        if table is None:
            self._plan_cache.clear()
            return
        stale = [sql for sql, (plan, _) in self._plan_cache.items()
                 if table in plan.tables]
        for sql in stale:
            del self._plan_cache[sql]
            self.metrics.plan_evictions += 1

    def explain(self, sql: str) -> dict:
        """Access-path summary for tests/benchmarks (not SQL EXPLAIN)."""
        plan = self.get_plan(sql)
        info = {"kind": plan.kind}
        access = getattr(plan, "access", None)
        if access is not None:
            info["access"] = access.kind
            info["index"] = access.index_name
            info["cost"] = round(access.cost, 3)
        return info

    # ------------------------------------------------------------------ statistics

    def runstats(self, table: str) -> None:
        """Recompute true statistics (DB2 RUNSTATS); invalidates plans."""
        tdef = self.catalog.require_table(table)
        heap = self.heaps[table]
        distinct: dict[str, set] = {c.name: set() for c in tdef.columns}
        for _, row in heap.scan():
            for column, value in zip(tdef.columns, row):
                distinct[column.name].add(value)
        self.catalog.runstats(
            table, card=heap.nrows, npages=heap.npages,
            colcard={c: len(vals) for c, vals in distinct.items()})
        self.stats_mutations.pop(table, None)

    def set_table_stats(self, table: str, card: int,
                        npages: Optional[int] = None,
                        colcard: Optional[dict[str, int]] = None) -> None:
        """Hand-craft statistics (the paper's catalog-poking utility)."""
        self.catalog.set_stats(table, card, npages, colcard)
        self.stats_mutations.pop(table, None)

    def note_mutation(self, table: str, rows: int = 1) -> None:
        """Count mutated rows toward the table's auto-RUNSTATS trigger."""
        self.stats_mutations[table] = self.stats_mutations.get(table, 0) + rows

    def _auto_runstats_due(self, table: str) -> bool:
        stats = self.catalog.stats.get(table)
        if stats is None or stats.manual:
            # Dropped table, or hand-crafted statistics: the E4 pinning
            # guard always wins over the refresh daemon.
            return False
        due = (self.config.auto_runstats_threshold
               + self.config.auto_runstats_fraction * stats.card)
        return self.stats_mutations.get(table, 0) >= due

    def _maybe_auto_runstats(self) -> None:
        """Refresh statistics for tables whose mutation counters crossed
        the staleness threshold (runs inline at commit, like DB2's
        real-time statistics collection). The refresh bumps the stats
        version, so every cached plan on the table re-binds — the
        ``card=0`` table-scan cliff heals itself as tables grow."""
        if not self.config.auto_runstats or not self.stats_mutations:
            return
        for table in sorted(self.stats_mutations):
            if table in self._bulk_loads:
                continue  # LOAD pending: stats come after the build phase
            if not self._auto_runstats_due(table):
                continue
            injector = self.sim.injector
            if injector.enabled:
                # Crash with mutations applied but the refresh (and its
                # plan invalidation) not yet installed — restart must
                # leave plans consistent with whatever stats survived.
                injector.maybe_crash(f"runstats.refresh:{self.name}",
                                     self.name)
            self.runstats(table)
            self.metrics.auto_runstats_runs += 1

    # ------------------------------------------------------------------ checkpoint / crash

    def _maybe_soft_checkpoint(self) -> None:
        """Reclaim log space once no old transaction pins it (as DB2's
        automatic log truncation does). Without this, one log-full event
        would poison the log forever."""
        window = self.wal.window(self.txns.active_floor())
        if window > self.config.wal_capacity // 2:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Flush dirty pages, snapshot volatile state, truncate the log.

        The payload carries what instant recovery's tail-only analysis
        needs: the transaction table (first/last LSN and prepared flag
        per active transaction — a prepared transaction may predate the
        checkpoint by an arbitrary margin) and the per-page chain-head
        table. Secondary-index images go to the disk, keyed by index
        name, so restart repairs each index from image + tail deltas
        instead of a full-heap rebuild.
        """
        self._ensure_up()
        self.pool.flush_all()
        for name, btree in self.btrees.items():
            image = list(btree.items())
            for pending in self._bulk_loads.values():
                p = pending.get(name)
                if p is not None and p.by_rid:
                    # Deferred LOAD entries are durable heap rows whose
                    # WAL records may predate this checkpoint: the image
                    # must carry them or restart's image+tail repair
                    # would silently lose them.
                    image.extend((encode_key(key), rid)
                                 for rid, key in p.by_rid.items())
            self.disk.store_index_image(name, image)
        txn_table = {}
        for txn in self.txns.active:
            txn_table[txn.id] = {
                "first": txn.first_lsn, "last": txn.last_lsn,
                "prepared": txn.state is TxnState.PREPARED}
        versions = {table: heap.versions_image()
                    for table, heap in self.heaps.items()
                    if heap.live_chains}
        record = self.wal.append(
            walmod.CHECKPOINT, None,
            payload={"active": [t.id for t in self.txns.active],
                     "chain_heads": dict(self.wal.page_heads),
                     "txn_table": txn_table,
                     "versions": versions})
        self.wal.force()
        self.wal.note_checkpoint(record.lsn)

    def crash(self) -> None:
        """Power failure: volatile state gone, durable state preserved."""
        self.crashed = True
        pending, self._group_force = self._group_force, None
        if pending is not None:
            # Fail every group-commit member: their commit records are in
            # the tail being discarded and were never acknowledged.
            pending.trigger(CrashedError(
                f"database {self.name} crashed before the group force"))
        self.wal.crash()
        self.pool.clear()
        self.locks.clear()
        self.txns.clear()
        self.heaps.clear()
        self.btrees.clear()
        self.replay_pending.clear()
        self._plan_cache.clear()
        self._bulk_loads.clear()
        self.stats_mutations.clear()
        self.unbilled_index_entries = 0.0

    def restart(self) -> dict:
        """Restart after a crash; returns a recovery summary.

        With ``config.instant_recovery`` (default) this is the instant,
        REDO-only restart: tail analysis + eager undo run here, but page
        REDO is deferred into ``replay_pending`` and happens lazily (see
        :meth:`replay_page`). Otherwise classic full-replay ARIES.
        """
        from repro.minidb.recovery import recover
        self.crashed = False
        self._build_volatile()
        summary = recover(self)
        self.metrics.recoveries += 1
        return summary

    def _ensure_up(self) -> None:
        if self.crashed:
            raise CrashedError(f"database {self.name} is down (crashed)")

    # ------------------------------------------------------------------ backup images

    def backup_image(self) -> dict:
        """Full offline-style backup: checkpoint, then snapshot durables."""
        import copy
        self.checkpoint()
        return {
            "disk": copy.deepcopy(self.disk),
            "catalog": copy.deepcopy(self.catalog),
            "wal_flushed": self.wal.flushed_upto,
        }

    def restore_image(self, image: dict) -> None:
        """Point-in-time restore from :meth:`backup_image`."""
        import copy
        self.crashed = True
        self.disk = copy.deepcopy(image["disk"])
        self.catalog = copy.deepcopy(image["catalog"])
        self.wal = LogManager(self.config.wal_capacity)
        self.restart()

    # ------------------------------------------------------------------ convenience

    def table_rows(self, table: str) -> list[tuple]:
        """Unlocked debug read of a whole table (tests only)."""
        return [row for _, row in self.heaps[table].scan()]
