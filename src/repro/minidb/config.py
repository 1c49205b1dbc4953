"""Tunable knobs for the minidb engine.

These map one-for-one onto the DB2 configuration parameters the paper
tunes: LOCKTIMEOUT, DLCHKTIME, LOCKLIST/MAXLOCKS (escalation), the
next-key-locking registry switch, and log capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union


@dataclass
class TimingModel:
    """Virtual service times charged to operations (seconds).

    With ``enabled=False`` (the default for unit tests) no time is charged
    and simulations complete at t≈0 except for explicit waits. Benchmarks
    use :meth:`calibrated`, whose values are chosen so the tuned E1
    configuration lands near the paper's reported 300 links/min with 100
    clients (see EXPERIMENTS.md, "Calibration").
    """

    enabled: bool = False
    cpu_per_statement: float = 0.0005
    #: Parse + optimize cost, charged only when a statement misses the
    #: bound-plan cache (a re-bind after invalidation pays it again).
    #: Dynamic SQL that interpolates literals gets a distinct cache key
    #: per value and pays this on EVERY execution — the cost the
    #: prepared-statement API exists to amortize. 0.0 keeps the
    #: historical "compilation is free" calibration (like
    #: ``index_entry``); the prepared-statement bench arm opts in.
    compile_cpu: float = 0.0
    page_io: float = 0.004
    log_force: float = 0.006
    rpc: float = 0.002
    #: Per-entry secondary-index maintenance (DB2 logs index pages; our
    #: indexes are memory-resident, so this models that write cost).
    #: 0.0 keeps the historical "indexes are free" calibration — the
    #: LOAD bench arm opts in to expose the bulk-build win.
    index_entry: float = 0.0
    #: Relative per-entry cost of a sorted bottom-up bulk build versus
    #: per-row insert maintenance (sequential index-page writes).
    bulk_index_factor: float = 0.1

    @classmethod
    def zero(cls) -> "TimingModel":
        return cls(enabled=False)

    @classmethod
    def calibrated(cls) -> "TimingModel":
        return cls(enabled=True)

    def statement_cost(self) -> float:
        return self.cpu_per_statement if self.enabled else 0.0

    def compile_cost(self) -> float:
        return self.compile_cpu if self.enabled else 0.0

    def io_cost(self, pages: int = 1) -> float:
        return self.page_io * pages if self.enabled else 0.0

    def log_force_cost(self) -> float:
        return self.log_force if self.enabled else 0.0

    def rpc_cost(self) -> float:
        return self.rpc if self.enabled else 0.0

    def index_entry_cost(self, entries: float = 1) -> float:
        return self.index_entry * entries if self.enabled else 0.0


@dataclass
class DBConfig:
    """Engine configuration; defaults approximate an untuned DB2 instance."""

    #: Seconds a lock request may wait before LockTimeoutError (LOCKTIMEOUT).
    lock_timeout: float = 60.0
    #: Period of the wait-for-graph deadlock detector (DLCHKTIME).
    deadlock_check_interval: float = 1.0
    #: ARIES/KVL next-key locking on index access under RR (the paper turns
    #: this OFF for DLFM's local database).
    next_key_locking: bool = True
    #: Default isolation level for new sessions: "RR" (repeatable read,
    #: with phantom protection when next-key locking is on), "RS" (read
    #: stability: read locks held to commit, no phantom protection — what
    #: DLFM effectively got by disabling next-key locking), "CS"
    #: (cursor stability), or "SI" (snapshot isolation: reads resolve
    #: against a begin-timestamp snapshot of the version chains and take
    #: no S row/key locks at all; writers keep X locks and the first
    #: writer to commit wins write-write conflicts). SI requires ``mvcc``.
    isolation: str = "RR"
    #: Maintain MVCC lineage chains (base slot + append-only version
    #: tail stamped with commit LSNs). Required for isolation="SI";
    #: chains fold back into base records as soon as no live snapshot
    #: can see them, so with no SI sessions this is pure bookkeeping and
    #: RR/RS/CS scheduling is unchanged.
    mvcc: bool = True
    #: Total lock entries available across all transactions (LOCKLIST).
    locklist_size: int = 100_000
    #: Fraction of the locklist one transaction may fill before its row
    #: locks on a table escalate to a table lock (MAXLOCKS).
    maxlocks_fraction: float = 0.22
    #: Master switch for escalation (real DB2 cannot disable it; we can,
    #: for the E5 ablation's control arm).
    lock_escalation: bool = True
    #: Use U (update) locks on update/delete scans instead of S→X
    #: conversion — DB2's remedy for conversion deadlocks. Off by default
    #: so the conversion-deadlock behaviour stays observable.
    update_locks: bool = False
    #: Active-log capacity in log records before LogFullError (LOGPRIMARY).
    wal_capacity: int = 200_000
    #: WAL group commit (DB2's MINCOMMIT): committers arriving within this
    #: many simulated seconds of each other share ONE physical log force —
    #: the first becomes the group leader, waits out the window, then
    #: forces to the log tail, covering everyone who appended meanwhile.
    #: 0.0 (the default) forces per commit, the paper-faithful behaviour;
    #: commit latency grows by up to the window when enabled.
    #: ``"auto"`` self-tunes: the WAL keeps an EWMA of commit-request
    #: inter-arrival spacing and each leader picks its own window —
    #: force immediately when arrivals are sparse (no latency tax at low
    #: concurrency), batch up to ``group_commit_max_window`` under
    #: bursts (keeping the forces-saved win). See DESIGN.md §9.
    group_commit_window: Union[float, str] = 0.0
    #: Auto mode: smallest window a batching leader will wait (floor so
    #: a dense burst still collects followers arriving "now").
    group_commit_min_window: float = 0.002
    #: Auto mode: hard ceiling on the chosen window (the latency bound —
    #: equal to the historical fixed window, so auto never waits longer
    #: than the fixed configuration did).
    group_commit_max_window: float = 0.05
    #: Auto mode: EWMA smoothing factor for commit inter-arrival gaps.
    group_commit_ewma_alpha: float = 0.25
    #: Auto mode: window = clamp(factor * ewma_gap, min, max) — how many
    #: expected arrivals a leader tries to cover.
    group_commit_burst_factor: float = 4.0
    #: Bound on ``Database._plan_cache`` entries (LRU eviction beyond it).
    plan_cache_size: int = 512
    #: Auto-RUNSTATS: refresh a table's statistics once enough rows have
    #: mutated since they were last computed, bumping the stats version
    #: so cached plans re-bind — no more ``card=0`` scan plans on tables
    #: that grew after creation. Off by default: the E4 ablation (and
    #: DB2 up to v8) depends on stale statistics staying stale until
    #: someone runs RUNSTATS. Tables with hand-crafted (``manual``)
    #: statistics are never refreshed — the paper's pinning guard wins.
    auto_runstats: bool = False
    #: Minimum mutations (insert/update/delete rows) since the last
    #: refresh before auto-RUNSTATS reconsiders a table.
    auto_runstats_threshold: int = 200
    #: Refresh once mutations exceed ``threshold + fraction * card`` —
    #: the PostgreSQL-autovacuum shape: cheap tables refresh eagerly,
    #: million-row tables only after proportional churn.
    auto_runstats_fraction: float = 0.2
    #: Instant, REDO-only restart (Sauer & Härder): analysis over the
    #: durable tail builds per-page replay chains; pages are replayed
    #: lazily on first touch (plus a background drain in DLFM) instead
    #: of a full-log REDO pass before the first statement. False gives
    #: the classic ARIES full-replay restart (the bench baseline).
    instant_recovery: bool = True
    #: Buffer-pool capacity in pages.
    buffer_pool_pages: int = 2_000
    #: Heap rows per page (drives optimizer page counts and I/O volume).
    rows_per_page: int = 32
    #: B+tree fanout.
    btree_order: int = 64
    #: Virtual service times.
    timing: TimingModel = field(default_factory=TimingModel.zero)

    def with_changes(self, **kwargs) -> "DBConfig":
        """Functional update helper used by experiment configuration."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        if self.lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive")
        if not 0 < self.maxlocks_fraction <= 1:
            raise ValueError("maxlocks_fraction must be in (0, 1]")
        if self.isolation not in ("RR", "RS", "CS", "SI"):
            raise ValueError(f"unknown isolation level {self.isolation!r}")
        if self.isolation == "SI" and not self.mvcc:
            raise ValueError("isolation='SI' requires mvcc=True")
        if self.rows_per_page < 1 or self.btree_order < 4:
            raise ValueError("degenerate storage geometry")
        if isinstance(self.group_commit_window, str):
            if self.group_commit_window != "auto":
                raise ValueError(
                    f"group_commit_window must be a number or 'auto', "
                    f"got {self.group_commit_window!r}")
        elif self.group_commit_window < 0:
            raise ValueError("group_commit_window must be >= 0")
        if not (0 < self.group_commit_min_window
                <= self.group_commit_max_window):
            raise ValueError(
                "need 0 < group_commit_min_window <= group_commit_max_window")
        if not 0 < self.group_commit_ewma_alpha <= 1:
            raise ValueError("group_commit_ewma_alpha must be in (0, 1]")
        if self.group_commit_burst_factor <= 0:
            raise ValueError("group_commit_burst_factor must be positive")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.auto_runstats_threshold < 1:
            raise ValueError("auto_runstats_threshold must be >= 1")
        if self.auto_runstats_fraction < 0:
            raise ValueError("auto_runstats_fraction must be >= 0")
