"""Property-based lock manager testing.

Random concurrent lock workloads must preserve:

P1  mutual exclusion — at no instant do two transactions hold
    incompatible modes on one resource;
P2  liveness — every process eventually finishes (granted, deadlock
    victim, or timeout: nothing hangs);
P3  accounting — after all transactions end, the lock table is empty.

The multi-granularity workload adds row locks under automatic table
intents, table S/X locks, cursor-stability early release and a tiny
locklist (so escalation fires), and checks P1 across granularities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionAborted
from repro.kernel import Simulator, Timeout
from repro.minidb.config import DBConfig
from repro.minidb.locks import (LockManager, LockMode, compatible,
                                supremum)
from repro.minidb.txn import TransactionTable, TxnState

# Each process: list of (resource index, mode, hold time)
step = st.tuples(st.integers(0, 3),
                 st.sampled_from([LockMode.S, LockMode.X]),
                 st.floats(0.0, 2.0))
process_plan = st.lists(step, min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(process_plan, min_size=2, max_size=5))
def test_random_workloads_hold_invariants(plans):
    sim = Simulator(seed=3)
    config = DBConfig(lock_timeout=30.0, deadlock_check_interval=0.5)
    locks = LockManager(sim, config)
    txns = TransactionTable()
    violations = []
    finished = []

    def audit():
        """P1: check every lock head for incompatible co-holders."""
        for head in locks.heads.values():
            holders = list(head.holders.items())
            for i, (txn_a, mode_a) in enumerate(holders):
                for txn_b, mode_b in holders[i + 1:]:
                    if not compatible(mode_a, mode_b):
                        violations.append(
                            (head.resource, txn_a, mode_a, txn_b, mode_b))

    def proc(plan, index):
        txn = txns.begin("RR", sim.now)
        try:
            for resource_index, mode, hold in plan:
                resource = ("row", "t", (0, resource_index))
                yield from locks.acquire(txn, resource, mode)
                audit()
                if hold:
                    yield Timeout(hold)
                audit()
        except TransactionAborted:
            pass
        finally:
            locks.release_all(txn)
            txns.end(txn, TxnState.ABORTED)
            finished.append(index)

    for i, plan in enumerate(plans):
        sim.spawn(proc(plan, i), f"p{i}")
    sim.run(until=500.0)

    assert violations == []                  # P1
    assert sorted(finished) == list(range(len(plans)))  # P2
    assert locks.total_locks == 0            # P3
    assert locks.heads == {}
    assert locks.waiting_txns() == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=4,
                         unique=True),
                min_size=2, max_size=4))
def test_opposite_order_x_locks_always_resolve(orders):
    """All-X workloads in arbitrary orders: pure deadlock bait. Everyone
    must terminate via grant or victim selection."""
    sim = Simulator(seed=11)
    config = DBConfig(lock_timeout=60.0, deadlock_check_interval=0.5)
    locks = LockManager(sim, config)
    txns = TransactionTable()
    outcomes = []

    def proc(order):
        txn = txns.begin("RR", sim.now)
        try:
            for resource_index in order:
                yield from locks.acquire(
                    txn, ("row", "t", (0, resource_index)), LockMode.X)
                yield Timeout(0.3)
            outcomes.append("done")
        except TransactionAborted as error:
            outcomes.append(error.reason)
        finally:
            locks.release_all(txn)

    for order in orders:
        sim.spawn(proc(order))
    sim.run(until=1000.0)
    assert len(outcomes) == len(orders)
    assert locks.total_locks == 0
    # at least one transaction always completes (no total livelock)
    assert "done" in outcomes


#: A table lock's implicit mode on each of the table's rows.
IMPLICIT_ROW_MODE = {LockMode.S: LockMode.S, LockMode.SIX: LockMode.S,
                     LockMode.X: LockMode.X}
TABLES = ("t", "u")

# (table, row index or None for the table itself, mode, hold time,
#  release early if the lock is new — cursor stability)
mg_step = st.tuples(
    st.sampled_from(TABLES), st.one_of(st.none(), st.integers(0, 4)),
    st.sampled_from([LockMode.IS, LockMode.IX, LockMode.S, LockMode.U,
                     LockMode.X]),
    st.sampled_from([0.0, 0.3, 1.0]), st.booleans())
mg_plan = st.lists(mg_step, min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(st.lists(mg_plan, min_size=2, max_size=5))
def test_multi_granularity_workloads_hold_invariants(plans):
    sim = Simulator(seed=5)
    # maxlocks 0.5 x 6: a transaction's third row lock on one table
    # escalates, and six locks in all fill the locklist.
    config = DBConfig(lock_timeout=20.0, deadlock_check_interval=0.5,
                      locklist_size=6, maxlocks_fraction=0.5)
    locks = LockManager(sim, config)
    txns = TransactionTable()
    violations = []
    finished = []
    begun = []
    calls = [0]

    #: txn id -> {resource: mode} each live transaction was granted,
    #: directly or through a covering table lock: what it may rely on.
    claims = {}

    def audit():
        heads = list(locks.heads.values())
        held = {}
        for head in heads:
            for txn_id in head.holders:
                held[txn_id] = held.get(txn_id, 0) + 1
        if sum(held.values()) != locks.total_locks:
            violations.append(("total", sum(held.values()),
                               locks.total_locks))
        for txn in begun:
            if txn.id in claims and txn.lock_count != held.get(txn.id, 0):
                violations.append(("count", txn.id, txn.lock_count,
                                   held.get(txn.id, 0)))
        granted = [(txn_a, resource, mode)
                   for txn_a, mine in claims.items()
                   for resource, mode in mine.items()]
        for txn_a, res_a, mode_a in granted:
            for txn_b, res_b, mode_b in granted:
                if txn_a == txn_b:
                    continue
                if res_a == res_b:
                    clash = not compatible(mode_a, mode_b)
                elif res_a == ("table", res_b[1]) and res_b[0] == "row":
                    implied = IMPLICIT_ROW_MODE.get(mode_a)
                    clash = (implied is not None
                             and not compatible(implied, mode_b))
                else:
                    clash = False
                if clash:
                    violations.append(("claim", txn_a, res_a, mode_a,
                                       txn_b, res_b, mode_b))
        for head in heads:
            holders = list(head.holders.items())
            for i, (txn_a, mode_a) in enumerate(holders):
                for txn_b, mode_b in holders[i + 1:]:
                    if not compatible(mode_a, mode_b):
                        violations.append(("same", head.resource, txn_a,
                                           mode_a, txn_b, mode_b))
        for head in heads:
            if head.resource[0] == "table":
                continue
            table = locks.holders_of(("table", head.resource[1]))
            for txn_b, row_mode in head.holders.items():
                if txn_b not in table:          # rows need a table lock
                    violations.append(("no-intent", head.resource, txn_b))
                for txn_a, table_mode in table.items():
                    implied = IMPLICIT_ROW_MODE.get(table_mode)
                    if (txn_a != txn_b and implied is not None
                            and not compatible(implied, row_mode)):
                        violations.append(("cross", head.resource, txn_a,
                                           table_mode, txn_b, row_mode))

    def proc(plan, index):
        txn = txns.begin("CS", sim.now)
        begun.append(txn)
        mine = claims[txn.id] = {}
        try:
            for table, row, mode, hold, early in plan:
                resource = (("table", table) if row is None
                            else ("row", table, (0, row)))
                calls[0] += 1
                newly = yield from locks.acquire(txn, resource, mode)
                before = mine.get(resource)
                mine[resource] = (mode if before is None
                                  else supremum(before, mode))
                audit()
                if hold:
                    yield Timeout(hold)
                if early and newly and row is not None:
                    locks.release(txn, resource)
                    del mine[resource]
                audit()
        except TransactionAborted:
            pass
        finally:
            del claims[txn.id]
            locks.release_all(txn)
            txns.end(txn, TxnState.ABORTED)
            audit()
            finished.append(index)

    for i, plan in enumerate(plans):
        sim.spawn(proc(plan, i), f"p{i}")
    sim.run(until=1000.0)

    assert violations == []                              # P1
    assert sorted(finished) == list(range(len(plans)))   # P2
    assert locks.heads == {}                             # P3
    assert locks.total_locks == 0
    assert all(txn.lock_count == 0 for txn in begun)
    assert locks.waiting_txns() == []
    assert locks.metrics.acquires == calls[0]
