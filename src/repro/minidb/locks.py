"""Multi-granularity strict-2PL lock manager.

Implements the DB2 behaviours the paper's lessons revolve around:

* intent modes IS/IX/S/SIX/X on tables, S/X on rows and index keys;
* **next-key locking** resources (``("key", table, index, ekey)``) taken by
  the executor when ``DBConfig.next_key_locking`` is on — experiment E3;
* **lock escalation**: when one transaction's row/key locks on a table
  exceed ``maxlocks_fraction × locklist_size``, or the locklist is full,
  its row locks are traded for a single table lock — experiment E5;
* FIFO queuing with conversion priority, **interval-based deadlock
  detection** (victim = youngest) and per-request **timeouts** — E7.

The detector timer is armed only while requests are blocked, so drained
simulations terminate.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import DeadlockError, LockTimeoutError, TransactionAborted
from repro.kernel.sim import TIMEOUT, Event, Simulator

from repro.minidb.config import DBConfig


class LockMode(enum.IntEnum):
    IS = 0
    IX = 1
    S = 2
    U = 3    # update lock: read now, intend to convert to X
    SIX = 4
    X = 5


_M = LockMode
#: _COMPAT[a][b] — may a be held concurrently with b? Indexed by mode.
#: U coexists with readers (S/IS) but not with another U/IX/X — the
#: classic remedy for S→X conversion deadlocks on update scans.
_COMPAT = (
    # IS     IX     S      U      SIX    X
    (True,  True,  True,  True,  True,  False),  # IS
    (True,  True,  False, False, False, False),  # IX
    (True,  False, True,  True,  False, False),  # S
    (True,  False, True,  False, False, False),  # U
    (True,  False, False, False, False, False),  # SIX
    (False, False, False, False, False, False),  # X
)
#: _SUP[a][b] — least upper bound in the lock lattice (for conversions).
_SUP = (
    # IS      IX      S       U       SIX     X
    (_M.IS,  _M.IX,  _M.S,   _M.U,   _M.SIX, _M.X),  # IS
    (_M.IX,  _M.IX,  _M.SIX, _M.X,   _M.SIX, _M.X),  # IX
    (_M.S,   _M.SIX, _M.S,   _M.U,   _M.SIX, _M.X),  # S
    (_M.U,   _M.X,   _M.U,   _M.U,   _M.X,   _M.X),  # U
    (_M.SIX, _M.SIX, _M.SIX, _M.X,   _M.SIX, _M.X),  # SIX
    (_M.X,   _M.X,   _M.X,   _M.X,   _M.X,   _M.X),  # X
)
#: _COVERS[table][row] — does a table lock make a row/key lock redundant?
_COVERS = (
    # IS     IX     S      U      SIX    X
    (False, False, False, False, False, False),  # IS
    (False, False, False, False, False, False),  # IX
    (True,  False, True,  False, False, False),  # S
    (False, False, False, False, False, False),  # U
    (True,  False, True,  False, False, False),  # SIX
    (True,  True,  True,  True,  True,  True),   # X
)
#: _INTENT[row] — the table intent a row/key lock needs (U intends to
#: write, so it takes IX).
_INTENT = (_M.IS, _M.IX, _M.IS, _M.IX, _M.IX, _M.IX)


def compatible(a: LockMode, b: LockMode) -> bool:
    return _COMPAT[a][b]


def supremum(a: LockMode, b: LockMode) -> LockMode:
    return _SUP[a][b]


#: Lock resources. ``table`` granularity:   ("table", tname)
#:                 ``row``   granularity:   ("row", tname, rid)
#:                 ``key``   granularity:   ("key", tname, index, ekey)
Resource = tuple


class _Request:
    __slots__ = ("txn", "mode", "desired", "event", "is_conversion")

    def __init__(self, txn, mode: LockMode, desired: LockMode,
                 event: Event, is_conversion: bool):
        self.txn = txn
        self.mode = mode
        self.desired = desired
        self.event = event
        self.is_conversion = is_conversion


class _LockHead:
    __slots__ = ("resource", "holders", "queue")

    def __init__(self, resource: Resource):
        self.resource = resource
        self.holders: dict[int, LockMode] = {}  # txn id → mode
        self.queue: deque[_Request] = deque()


@dataclass
class LockMetrics:
    acquires: int = 0
    waits: int = 0
    deadlocks: int = 0
    timeouts: int = 0
    escalations: int = 0
    escalation_failures: int = 0
    peak_locks: int = 0
    detector_runs: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class LockManager:
    def __init__(self, sim: Simulator, config: DBConfig, name: str = "db"):
        self.sim = sim
        self.config = config
        self.name = name
        self.heads: dict[Resource, _LockHead] = {}
        self.metrics = LockMetrics()
        self._total_locks = 0
        self._waiting: dict[int, tuple] = {}  # txn id → (resource, request, txn)
        self._detector_armed = False

    # ------------------------------------------------------------------ acquire

    def acquire(self, txn, resource: Resource, mode: LockMode,
                timeout: Optional[float] = None):
        """Generator: take ``resource`` in ``mode`` for ``txn`` (blocking).

        Returns True when a *new* lock entry was created for this
        transaction (used by cursor-stability early release). Raises
        DeadlockError / LockTimeoutError (both mark the transaction
        rollback-only) or TransactionAborted("locklist") when the locklist
        is exhausted and escalation is disabled or fails.
        """
        txn.ensure_active()
        self.metrics.acquires += 1

        if self.sim.injector.enabled:
            rule = self.sim.injector.fire(f"lock.acquire:{self.name}",
                                          ("lock_timeout", "lock_deadlock"))
            if rule is not None:
                # Forced victim, following the exact failure paths below.
                if rule.kind == "lock_timeout":
                    self.metrics.timeouts += 1
                    txn.mark_rollback_only("timeout")
                    raise LockTimeoutError(
                        f"txn {txn.id} injected lock timeout on {resource!r}")
                self.metrics.deadlocks += 1
                txn.mark_rollback_only("deadlock")
                raise DeadlockError(
                    f"txn {txn.id} injected deadlock victim on {resource!r}")

        if resource[0] != "table":
            table = resource[1]
            table_resource = ("table", table)
            table_head = self.heads.get(table_resource)
            held = (table_head.holders.get(txn.id)
                    if table_head is not None else None)
            if held is not None and _COVERS[held][mode]:
                return False  # an escalated table lock already covers this
            # Multi-granularity protocol: row/key locks are always preceded
            # by the matching intent lock on the table, so an escalated
            # table lock held by someone else blocks us here.
            intent = _INTENT[mode]
            if self._try_grant(txn, table_resource, intent) is None:
                yield from self._wait(txn, table_resource, intent, timeout)
            if self._should_escalate(txn, table):
                yield from self._escalate(txn, table, mode)
                return False
        newly = self._try_grant(txn, resource, mode)
        if newly is None:
            newly = yield from self._wait(txn, resource, mode, timeout)
        return newly

    def _try_grant(self, txn, resource: Resource,
                   mode: LockMode) -> Optional[bool]:
        """Grant ``mode`` at once when no wait is needed.

        Returns True when a new entry was created, False when the held
        mode already sufficed or was converted in place, and None when
        the request must queue (then nothing has changed).
        """
        head = self.heads.get(resource)
        if head is None:  # uncontended: the first holder of the resource
            head = self.heads[resource] = _LockHead(resource)
            self._grant(head, txn, mode, new=True)
            return True
        txn_id = txn.id
        held = head.holders.get(txn_id)
        if held is None:
            # FIFO fairness: a fresh request must not overtake waiters.
            for queued in head.queue:
                if queued.txn.id != txn_id:
                    return None
            desired = mode
        else:
            desired = _SUP[held][mode]
            if desired == held:
                return False  # already strong enough
        compat = _COMPAT[desired]
        for other_id, other_mode in head.holders.items():
            if other_id != txn_id and not compat[other_mode]:
                return None
        self._grant(head, txn, desired, new=held is None)
        return held is None

    def _wait(self, txn, resource: Resource, mode: LockMode,
              timeout: Optional[float]):
        """Generator: queue a request :meth:`_try_grant` refused and block
        until it is granted (returns whether the entry is new), times out
        or is chosen as a deadlock victim."""
        head = self.heads[resource]
        held = head.holders.get(txn.id)
        desired = _SUP[held][mode] if held is not None else mode
        self.metrics.waits += 1
        event = Event(self.sim, name=f"lock:{resource!r}:{txn.id}")
        request = _Request(txn, mode, desired, event, held is not None)
        head.queue.append(request)
        self._waiting[txn.id] = (resource, request, txn)
        self._arm_detector()
        wait_limit = self.config.lock_timeout if timeout is None else timeout
        with self.sim.tracer.span("lock.wait", db=self.name,
                                  resource=resource, mode=desired.name,
                                  txn=txn.id) as span:
            outcome = yield event.wait(wait_limit)
            if outcome is TIMEOUT:
                span.set(outcome="timeout")
                self._cancel_request(head, request)
                self.metrics.timeouts += 1
                txn.mark_rollback_only("timeout")
                raise LockTimeoutError(
                    f"txn {txn.id} timed out after {wait_limit}s on "
                    f"{resource!r} ({desired.name})")
            if outcome == "deadlock":
                span.set(outcome="deadlock")
                self.metrics.deadlocks += 1
                txn.mark_rollback_only("deadlock")
                raise DeadlockError(
                    f"txn {txn.id} chosen as deadlock victim on {resource!r}")
            # ("granted", newly): bookkeeping was done by the granter.
            span.set(outcome="granted")
            return outcome[1]

    def _grant(self, head: _LockHead, txn, desired: LockMode, new: bool) -> None:
        head.holders[txn.id] = desired
        if new:
            txn.note_lock(head.resource)
            self._total_locks += 1
            if self._total_locks > self.metrics.peak_locks:
                self.metrics.peak_locks = self._total_locks

    # ------------------------------------------------------------------ release

    def release(self, txn, resource: Resource) -> None:
        """Early release of a single lock (cursor-stability reads)."""
        head = self.heads.get(resource)
        if head is None or head.holders.pop(txn.id, None) is None:
            return
        txn.forget_lock(resource)
        self._total_locks -= 1
        if head.queue:
            self._wake_waiters(head)
        elif not head.holders:
            del self.heads[resource]

    def release_all(self, txn) -> None:
        """End-of-transaction release (strict 2PL)."""
        resources = txn.drain_locks()
        affected = []
        for resource in resources:
            head = self.heads.get(resource)
            if head is not None and head.holders.pop(txn.id, None) is not None:
                self._total_locks -= 1
                if head.queue:
                    affected.append(head)
                elif not head.holders:
                    del self.heads[resource]
        for head in affected:
            self._wake_waiters(head)

    def _wake_waiters(self, head: _LockHead) -> None:
        # Pass 1: conversions anywhere in the queue (they jump the line).
        for request in list(head.queue):
            if request.is_conversion and self._compatible_with_others(
                    head, request.txn, request.desired):
                head.queue.remove(request)
                self._finish_grant(head, request)
        # Pass 2: FIFO prefix of compatible fresh requests.
        while head.queue:
            request = head.queue[0]
            if not self._compatible_with_others(head, request.txn,
                                                request.desired):
                break
            head.queue.popleft()
            self._finish_grant(head, request)
        if not head.holders and not head.queue:
            self.heads.pop(head.resource, None)

    def _compatible_with_others(self, head: _LockHead, txn,
                                desired: LockMode) -> bool:
        return all(compatible(desired, mode)
                   for other, mode in head.holders.items() if other != txn.id)

    def _finish_grant(self, head: _LockHead, request: _Request) -> None:
        new = request.txn.id not in head.holders
        self._grant(head, request.txn, request.desired, new=new)
        self._waiting.pop(request.txn.id, None)
        request.event.trigger(("granted", new))

    def _cancel_request(self, head: _LockHead, request: _Request) -> None:
        try:
            head.queue.remove(request)
        except ValueError:
            pass
        self._waiting.pop(request.txn.id, None)
        self._wake_waiters(head)

    # ------------------------------------------------------------------ escalation

    def _should_escalate(self, txn, table: str) -> bool:
        config = self.config
        if self._total_locks >= config.locklist_size:  # locklist is full
            if config.lock_escalation:
                return True
            txn.mark_rollback_only()
            raise TransactionAborted(
                f"locklist exhausted ({config.locklist_size}) and "
                "lock escalation is disabled", reason="locklist")
        return config.lock_escalation and (
            txn.row_lock_count(table) + 1
            > config.maxlocks_fraction * config.locklist_size)

    def _escalate(self, txn, table: str, pending_mode: LockMode):
        """Trade row/key locks on ``table`` for one table lock."""
        wants_x = pending_mode in (LockMode.X, LockMode.IX, LockMode.SIX,
                                   LockMode.U)
        if not wants_x:
            wants_x = any(
                self.heads[res].holders.get(txn.id) == LockMode.X
                for res in txn.row_locks(table) if res in self.heads)
        target = LockMode.X if wants_x else LockMode.S
        try:
            if self._try_grant(txn, ("table", table), target) is None:
                yield from self._wait(txn, ("table", table), target, None)
        except TransactionAborted:
            self.metrics.escalation_failures += 1
            raise
        self.metrics.escalations += 1
        self.sim.tracer.event("lock.escalation", db=self.name, table=table,
                              txn=txn.id, mode=target.name)
        for resource in list(txn.row_locks(table)):
            head = self.heads.get(resource)
            if head is not None and txn.id in head.holders:
                del head.holders[txn.id]
                self._total_locks -= 1
                self._wake_waiters(head)
            txn.forget_lock(resource)

    # ------------------------------------------------------------------ deadlocks

    def _arm_detector(self) -> None:
        if self._detector_armed:
            return
        self._detector_armed = True
        self.sim.after(self.config.deadlock_check_interval,
                       self._detector_tick)

    def _detector_tick(self) -> None:
        self._detector_armed = False
        if not self._waiting:
            return
        self.metrics.detector_runs += 1
        while True:
            victim = self._find_deadlock_victim()
            if victim is None:
                break
            resource, request, txn = self._waiting.pop(victim)
            self.sim.tracer.event("lock.deadlock", db=self.name,
                                  victim=victim, resource=resource)
            head = self.heads.get(resource)
            if head is not None:
                try:
                    head.queue.remove(request)
                except ValueError:
                    pass
                self._wake_waiters(head)
            request.event.trigger("deadlock")
        if self._waiting:
            self._arm_detector()

    def _find_deadlock_victim(self) -> Optional[int]:
        """DFS for a cycle in the wait-for graph; returns the youngest member."""
        edges: dict[int, set[int]] = {}
        for txn_id, (resource, request, _) in self._waiting.items():
            head = self.heads.get(resource)
            if head is None:
                continue
            blockers = set()
            for holder, mode in head.holders.items():
                if holder != txn_id and not compatible(request.desired, mode):
                    blockers.add(holder)
            if not request.is_conversion:
                # Fresh requests also wait behind earlier incompatible
                # waiters (FIFO); conversions jump the queue, so they wait
                # only on holders.
                for queued in head.queue:
                    if queued is request:
                        break
                    if (queued.txn.id != txn_id
                            and not compatible(request.desired,
                                               queued.desired)):
                        blockers.add(queued.txn.id)
            edges[txn_id] = blockers

        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(edges, WHITE)

        def dfs(node: int, path: list[int]) -> Optional[list[int]]:
            color[node] = GREY
            path.append(node)
            for nxt in edges.get(node, ()):
                if color.get(nxt, BLACK) == GREY:
                    return path[path.index(nxt):]
                if color.get(nxt, BLACK) == WHITE:
                    cycle = dfs(nxt, path)
                    if cycle is not None:
                        return cycle
            path.pop()
            color[node] = BLACK
            return None

        for start in list(edges):
            if color[start] == WHITE:
                cycle = dfs(start, [])
                if cycle is not None:
                    return max(cycle)  # youngest transaction dies
        return None

    # ------------------------------------------------------------------ recovery

    def force_grant(self, txn, resource: Resource, mode: LockMode) -> None:
        """Grant without queuing — restart recovery reacquiring the write
        locks of a prepared (indoubt) transaction, before any new work is
        admitted, so contention is impossible by construction."""
        if resource[0] != "table":
            self.force_grant(txn, ("table", resource[1]), LockMode.IX)
        head = self.heads.get(resource)
        if head is None:
            head = self.heads[resource] = _LockHead(resource)
        held = head.holders.get(txn.id)
        desired = _SUP[held][mode] if held is not None else mode
        self._grant(head, txn, desired, new=held is None)

    # ------------------------------------------------------------------ inspection

    @property
    def total_locks(self) -> int:
        return self._total_locks

    def holders_of(self, resource: Resource) -> dict[int, LockMode]:
        head = self.heads.get(resource)
        return dict(head.holders) if head else {}

    def waiting_txns(self) -> list[int]:
        return sorted(self._waiting)

    def clear(self) -> None:
        """Crash: the lock table is volatile."""
        self.heads.clear()
        self._waiting.clear()
        self._total_locks = 0
