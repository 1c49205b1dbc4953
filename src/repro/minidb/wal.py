"""Write-ahead log with a bounded active window and per-page log chains.

The log is logical (row-level before/after images); secondary indexes
are repaired from checkpoint images plus the durable tail at restart
(see ``recovery.py``). The *active window* spans from the oldest
position still needed — the first LSN of the oldest in-flight
transaction, or the last checkpoint, whichever is older — to the tail.
When that window exceeds ``wal_capacity`` the appending transaction
gets :class:`~repro.errors.LogFullError`, exactly the DB2 "log full"
condition the paper's long-running utilities (load, reconcile,
delete-group) had to dodge with periodic local commits (lesson §4, E8).

Per-page chains (Sauer & Härder instant recovery): every redoable
record carries ``prev_page_lsn``, the LSN of the previous redoable
record against the same heap page, and :attr:`LogManager.page_heads`
maps each page to its chain head. Checkpoints snapshot the head table
so a restart can find every page's chain without scanning the whole
log; :meth:`LogManager.crash` rebuilds the heads from the last durable
checkpoint plus the surviving tail (prev links only ever point
backward, so truncating the unforced tail cannot dangle a chain).

MVCC version chains are logged *implicitly*, the same substitution the
indexes use: a version append is fully determined by a transaction's
redoable records (the seed is the before-image of its first touch of a
slot, the stamped state is its last logged ``after``) plus the LSN of
its COMMIT record, which doubles as the version timestamp. Checkpoints
snapshot the chains themselves in the payload (``"versions"``) next to
the chain heads; ``recovery._rebuild_versions`` replays image + tail
to reconstruct chains on both the classic and instant paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import LogFullError

# Log record kinds.
BEGIN = "BEGIN"
COMMIT = "COMMIT"
ABORT = "ABORT"
INSERT = "INSERT"
DELETE = "DELETE"
UPDATE = "UPDATE"
CLR = "CLR"
CHECKPOINT = "CHECKPOINT"
PREPARE = "PREPARE"  # XA: transaction hardened but outcome undecided
FORGET = "FORGET"    # 2PC decision forgotten (piggybacked decisions)

_REDOABLE = frozenset({INSERT, DELETE, UPDATE, CLR})


@dataclass(slots=True)
class LogRecord:
    """One WAL entry. ``undo_next`` is only set for CLRs.

    ``prev_page_lsn`` threads the per-page log chain: for a redoable
    record it is the LSN of the previous redoable record against the
    same (table, page), or None at the chain's start.

    Slotted: the log keeps every record for the life of the database,
    so a per-record ``__dict__`` is the largest allocation of a run.
    """

    lsn: int
    kind: str
    txn_id: int
    prev_lsn: Optional[int] = None
    table: Optional[str] = None
    rid: Optional[tuple[int, int]] = None
    before: Optional[tuple] = None
    after: Optional[tuple] = None
    undo_next: Optional[int] = None
    prev_page_lsn: Optional[int] = None
    payload: Any = None  # checkpoint snapshots

    @property
    def redoable(self) -> bool:
        return self.kind in _REDOABLE


@dataclass
class WalMetrics:
    appends: int = 0
    forces: int = 0
    log_fulls: int = 0
    #: Group commit (``DBConfig.group_commit_window``): number of shared
    #: physical forces, and commits/prepares that piggybacked on one
    #: instead of paying their own.
    group_commits: int = 0
    forces_saved: int = 0
    #: Auto window mode only: leaders that forced immediately because
    #: arrivals were sparse, and leaders that chose to wait and batch.
    auto_immediate: int = 0
    auto_batched: int = 0


class LogManager:
    """Append-only log plus durability watermark.

    Records with ``lsn <= flushed_upto`` survive a crash; the tail is lost.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.records: list[LogRecord] = []
        self.flushed_upto = 0  # highest durable LSN; LSNs start at 1
        self.last_checkpoint_lsn = 0
        #: (table, page_no) → LSN of the newest redoable record against
        #: that page (the per-page chain head).
        self.page_heads: dict[tuple[str, int], int] = {}
        self.metrics = WalMetrics()
        #: Adaptive group commit ("auto" window): EWMA of commit-request
        #: inter-arrival gaps, fed by :meth:`note_commit_request`. Kept
        #: here (not in WalMetrics) because the obs layer coerces every
        #: WalMetrics field to an int counter.
        self.commit_gap_ewma: Optional[float] = None
        self.last_commit_request: Optional[float] = None
        #: Windows chosen by auto-mode leaders, for the obs histogram.
        self.auto_windows: list[float] = []

    @property
    def tail_lsn(self) -> int:
        return len(self.records)

    def append(self, kind: str, txn, *, table: Optional[str] = None,
               rid: Optional[tuple[int, int]] = None,
               before: Optional[tuple] = None, after: Optional[tuple] = None,
               undo_next: Optional[int] = None, payload: Any = None,
               active_floor: Optional[int] = None) -> LogRecord:
        """Append one record for ``txn``; enforces the active-window bound.

        ``active_floor`` is the smallest first-LSN among in-flight
        transactions (computed by the caller, who owns the transaction
        table); ``None`` means no transaction is pinning the log.
        """
        floor = self.last_checkpoint_lsn
        if active_floor is not None:
            floor = min(floor, active_floor - 1)
        window = self.tail_lsn - floor
        if window >= self.capacity and kind not in (COMMIT, ABORT, CLR,
                                                    CHECKPOINT, PREPARE,
                                                    FORGET):
            # Ending records are always allowed so the pinning transaction
            # can be rolled back / finished; CLRs are its undo work.
            self.metrics.log_fulls += 1
            if txn is not None:
                txn.mark_rollback_only("logfull")
            raise LogFullError(
                f"active log window {window} reached capacity "
                f"{self.capacity} (txn {txn.id if txn else 0})")
        lsn = self.tail_lsn + 1
        prev_page_lsn = None
        if kind in _REDOABLE and table is not None and rid is not None:
            page_key = (table, rid[0])
            prev_page_lsn = self.page_heads.get(page_key)
            self.page_heads[page_key] = lsn
        record = LogRecord(lsn=lsn, kind=kind,
                           txn_id=txn.id if txn is not None else 0,
                           prev_lsn=txn.last_lsn if txn is not None else None,
                           table=table, rid=rid, before=before, after=after,
                           undo_next=undo_next, prev_page_lsn=prev_page_lsn,
                           payload=payload)
        self.records.append(record)
        self.metrics.appends += 1
        if txn is not None:
            txn.last_lsn = lsn
            if txn.first_lsn is None:
                txn.first_lsn = lsn
        return record

    def force(self, upto: Optional[int] = None) -> bool:
        """Make the log durable up to ``upto`` (default: tail).

        Returns True when a physical force was needed (caller charges I/O).
        """
        target = self.tail_lsn if upto is None else upto
        if target <= self.flushed_upto:
            return False
        self.flushed_upto = target
        self.metrics.forces += 1
        return True

    def record(self, lsn: int) -> LogRecord:
        return self.records[lsn - 1]

    def note_commit_request(self, now: float, alpha: float) -> None:
        """Feed one commit-request arrival into the inter-arrival EWMA.

        Called by the database on every commit/prepare force request when
        the group-commit window is ``"auto"``. The EWMA tracks the spacing
        between requests; leaders consult it via the database's window
        policy to decide between forcing immediately and batching.
        """
        if self.last_commit_request is not None:
            gap = now - self.last_commit_request
            if self.commit_gap_ewma is None:
                self.commit_gap_ewma = gap
            else:
                self.commit_gap_ewma += alpha * (gap - self.commit_gap_ewma)
        self.last_commit_request = now

    def window(self, active_floor: Optional[int]) -> int:
        """Current active-log size in records."""
        floor = self.last_checkpoint_lsn
        if active_floor is not None:
            floor = min(floor, active_floor - 1)
        return self.tail_lsn - floor

    def note_checkpoint(self, lsn: int) -> None:
        self.last_checkpoint_lsn = lsn

    def forget_table(self, table: str) -> None:
        """Drop a table's per-page chains (non-transactional DROP TABLE)."""
        for key in [k for k in self.page_heads if k[0] == table]:
            del self.page_heads[key]

    # -- crash/restart support -------------------------------------------------

    def durable_records(self) -> list[LogRecord]:
        """The prefix of the log that survives a crash."""
        return self.records[: self.flushed_upto]

    def crash(self) -> None:
        """Discard the unforced tail, as a machine crash would.

        The chain-head table is volatile state: rebuild it from the last
        durable checkpoint's snapshot plus a forward scan of the records
        that survive — exactly what restart recovery may rely on.
        """
        del self.records[self.flushed_upto:]
        if self.last_checkpoint_lsn > self.flushed_upto:
            # The noted checkpoint fell past the durability watermark
            # (test harnesses move flushed_upto backward): fall back to
            # the newest checkpoint record that actually survived.
            self.last_checkpoint_lsn = 0
            for record in reversed(self.records):
                if record.kind == CHECKPOINT:
                    self.last_checkpoint_lsn = record.lsn
                    break
        heads: dict[tuple[str, int], int] = {}
        ckpt = self.last_checkpoint_lsn
        if ckpt:
            payload = self.record(ckpt).payload or {}
            heads.update(payload.get("chain_heads", {}))
        for record in self.records[ckpt:]:
            if record.redoable and record.table is not None:
                heads[(record.table, record.rid[0])] = record.lsn
        self.page_heads = heads
