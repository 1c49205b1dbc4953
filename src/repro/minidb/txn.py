"""Transaction objects and the active-transaction table."""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.errors import TransactionAborted
from repro.minidb.locks import Resource


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"   # XA: hardened, outcome owned by the TM
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One minidb transaction: lock ownership, undo chain head, savepoints."""

    def __init__(self, txn_id: int, isolation: str, start_time: float):
        self.id = txn_id
        self.isolation = isolation
        self.state = TxnState.ACTIVE
        self.start_time = start_time
        self.rollback_only = False
        self.abort_reason: Optional[str] = None
        self.first_lsn: Optional[int] = None
        self.last_lsn: Optional[int] = None
        #: SI only: WAL tail LSN at begin. Reads resolve to the newest
        #: version committed at or before it; None for RR/RS/CS.
        self.snapshot_lsn: Optional[int] = None
        #: (table, rid) written by this transaction, insertion-ordered.
        #: Snapshot reads treat these as own-writes (read the slot), the
        #: commit stamps one version per entry, and the merge daemon
        #: never folds a chain pinned here.
        self.touched: dict[tuple[str, tuple], None] = {}
        self._locks: dict[Resource, None] = {}  # insertion-ordered set
        self._row_locks: dict[str, set[Resource]] = {}
        self._savepoints: dict[str, Optional[int]] = {}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Txn {self.id} {self.state.value}>"

    # -- state -----------------------------------------------------------------

    def ensure_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionAborted(
                f"transaction {self.id} is {self.state.value}",
                reason=self.abort_reason or "ended")
        if self.rollback_only:
            raise TransactionAborted(
                f"transaction {self.id} is rollback-only "
                f"({self.abort_reason})", reason=self.abort_reason or "error")

    def mark_rollback_only(self, reason: str = "error") -> None:
        if not self.rollback_only:
            self.rollback_only = True
            self.abort_reason = reason

    # -- lock bookkeeping (called by LockManager) ----------------------------------

    def note_lock(self, resource: Resource) -> None:
        self._locks[resource] = None
        if resource[0] != "table":
            rows = self._row_locks.get(resource[1])
            if rows is None:
                rows = self._row_locks[resource[1]] = set()
            rows.add(resource)

    def forget_lock(self, resource: Resource) -> None:
        self._locks.pop(resource, None)
        if resource[0] != "table":
            rows = self._row_locks.get(resource[1])
            if rows is not None:
                rows.discard(resource)

    def drain_locks(self) -> list[Resource]:
        resources = list(self._locks)
        self._locks.clear()
        self._row_locks.clear()
        return resources

    def row_lock_count(self, table: str) -> int:
        return len(self._row_locks.get(table, ()))

    def row_locks(self, table: str) -> set[Resource]:
        return set(self._row_locks.get(table, ()))

    @property
    def lock_count(self) -> int:
        return len(self._locks)

    # -- savepoints ------------------------------------------------------------

    def set_savepoint(self, name: str) -> None:
        self._savepoints[name] = self.last_lsn

    def savepoint_lsn(self, name: str) -> Optional[int]:
        if name not in self._savepoints:
            raise TransactionAborted(f"unknown savepoint {name!r}")
        return self._savepoints[name]

    def drop_savepoint(self, name: str) -> None:
        self._savepoints.pop(name, None)


class TransactionTable:
    """Registry of in-flight transactions; feeds the WAL's active floor.

    ``start`` lets a restarted database continue its id sequence — the
    paper stresses transaction ids must be monotonically increasing,
    which must hold across crashes too.
    """

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)
        self._active: dict[int, Transaction] = {}
        self._highest = start - 1

    def begin(self, isolation: str, now: float) -> Transaction:
        txn = Transaction(next(self._counter), isolation, now)
        self._highest = max(self._highest, txn.id)
        self._active[txn.id] = txn
        return txn

    @property
    def highest_id(self) -> int:
        return self._highest

    def end(self, txn: Transaction, state: TxnState) -> None:
        txn.state = state
        self._active.pop(txn.id, None)

    def active_floor(self) -> Optional[int]:
        """Smallest first-LSN among in-flight transactions (pins the log)."""
        lsns = [t.first_lsn for t in self._active.values()
                if t.first_lsn is not None]
        return min(lsns) if lsns else None

    def oldest_snapshot(self) -> Optional[int]:
        """Smallest begin-snapshot among live SI transactions, or None.

        This is the version-merge watermark source: versions older than
        the newest one at-or-below it are invisible to every live and
        future snapshot and can fold into the base record.
        """
        snaps = [t.snapshot_lsn for t in self._active.values()
                 if t.snapshot_lsn is not None]
        return min(snaps) if snaps else None

    @property
    def active(self) -> list[Transaction]:
        return list(self._active.values())

    def clear(self) -> None:
        self._active.clear()
