"""Plan execution with the DB2-style locking protocol.

All methods are kernel generators (they may block on locks). The locking
rules implemented here are the ones the paper's lessons depend on:

* readers take table IS + row S; writers take table IX + row X;
* under **RR** read locks are held to commit and, with next-key locking
  on, the key past the end of every index range is S-locked (phantom
  protection); under **CS** read locks on qualifying rows last until the
  end of the statement and non-qualifying rows are released immediately;
* **index maintenance** (insert/delete of index entries) X-locks the next
  key whenever ``next_key_locking`` is configured on, regardless of
  isolation — this is the behaviour DLFM disabled (E3);
* a table scan locks *every row it examines*, which is why the optimizer
  picking table scans under concurrency "causes havoc" (E4);
* update/delete scans lock examined rows S then convert qualifying rows
  to X (conversion deadlocks included, as in real life without U locks);
* under **SI** plain reads take no locks at all — they resolve against
  the begin-snapshot version chains (see ``storage.py``) — while writes
  keep the full X/next-key protocol above plus a first-writer-wins
  check, so mixed SI/RR workloads preserve RR's guarantees.

Statement-level atomicity: the session wraps each statement in an
implicit savepoint and undoes partial work on statement errors.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DuplicateKeyError, SQLTypeError
from repro.minidb.btree import INFINITY_KEY, encode_key, encode_value
from repro.minidb.locks import LockMode
from repro.sql.optimizer import (AccessPath, DeletePlan, InsertPlan,
                                 SelectPlan, UpdatePlan)


class ResultSet:
    """Materialized query result."""

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> tuple:
        return self.rows[index]

    def scalar(self):
        """First column of the first row, or None for an empty result."""
        return self.rows[0][0] if self.rows else None

    def dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<ResultSet {self.columns} x{len(self.rows)}>"


class Executor:
    def __init__(self, db):
        self.db = db

    # ------------------------------------------------------------------ SELECT

    def run_select(self, txn, plan: SelectPlan, params: tuple):
        rows = yield from self._select_rows(txn, plan, params)
        if plan.except_plan is not None:
            removed = yield from self._select_rows(txn, plan.except_plan,
                                                   params)
            removed_set = set(removed)
            seen: set = set()
            kept = []
            for row in rows:
                if row not in removed_set and row not in seen:
                    seen.add(row)
                    kept.append(row)
            rows = kept
        if plan.limit is not None:
            limit = plan.limit({}, params)
            if not isinstance(limit, int) or limit < 0:
                raise SQLTypeError(f"bad LIMIT value {limit!r}")
            rows = rows[:limit]
        return ResultSet(plan.columns, rows)

    def _select_rows(self, txn, plan: SelectPlan, params: tuple):
        binding = plan.access.binding
        # SI: plain reads resolve against the begin snapshot with no
        # table/row/key locks at all. FOR UPDATE is a write intent and
        # keeps the locking protocol (current-state read, like RR).
        si_read = txn.snapshot_lsn is not None and not plan.for_update
        if plan.for_update:
            # DB2 update cursors take U when update locking is enabled:
            # writers serialize against each other without blocking
            # plain readers, and without S→X conversion deadlocks.
            read_mode = (LockMode.U if self.db.config.update_locks
                         else LockMode.X)
        else:
            read_mode = LockMode.S
        if not si_read:
            table_intent = LockMode.IX if plan.for_update else LockMode.IS
            yield from self.db.locks.acquire(
                txn, ("table", plan.table.name), table_intent)
            if plan.join is not None:
                yield from self.db.locks.acquire(
                    txn, ("table", plan.join.table.name), LockMode.IS)

        produced: list[tuple] = []
        order_keys: list[tuple] = []
        cs_locks: list = []

        scanned = yield from self._scan_access(
            txn, plan.access, params, {}, read_mode, cs_locks,
            write_scan=plan.for_update, si=si_read)
        for rid, row in scanned:
            env = {binding: row}
            if plan.join is not None:
                inner_rows = yield from self._scan_access(
                    txn, plan.join.access, params, env, LockMode.S, cs_locks,
                    write_scan=False, si=si_read)
                for inner_rid, inner_row in inner_rows:
                    env2 = dict(env)
                    env2[plan.join.access.binding] = inner_row
                    if not self._passes(plan.join_filter, env2, params):
                        continue
                    if not self._passes(plan.filter, env2, params):
                        continue
                    self._emit(plan, env2, params, produced, order_keys)
            else:
                if not self._passes(plan.filter, env, params):
                    self._maybe_release_cs(txn, plan, rid)
                    continue
                self._emit(plan, env, params, produced, order_keys)

        if txn.isolation == "CS" and not plan.for_update:
            self._release_cs_locks(txn, cs_locks)

        if plan.aggregates is not None:
            return [self._aggregate_row(plan, produced, order_keys)]

        if plan.order_by:
            paired = sorted(zip(order_keys, produced),
                            key=lambda pair: pair[0])
            produced = [row for _, row in paired]
        return produced

    def _emit(self, plan: SelectPlan, env: dict, params: tuple,
              produced: list, order_keys: list) -> None:
        if plan.aggregates is not None:
            # For aggregates we keep the raw env values per spec.
            values = tuple(
                (spec.arg(env, params) if spec.arg is not None else 1)
                for spec in plan.aggregates)
            produced.append(values)
            return
        if plan.items is None:
            row = env[plan.access.binding]
        else:
            row = tuple(item(env, params) for item, _ in plan.items)
        produced.append(row)
        if plan.order_by:
            key = []
            for compiled, descending in plan.order_by:
                value = compiled(env, params)
                encoded = encode_value(value)
                key.append(_Reversed(encoded) if descending else encoded)
            order_keys.append(tuple(key))

    def _aggregate_row(self, plan: SelectPlan, produced: list[tuple],
                       _order_keys) -> tuple:
        result = []
        for i, spec in enumerate(plan.aggregates):
            column = [row[i] for row in produced]
            non_null = [v for v in column if v is not None]
            if spec.name == "COUNT":
                result.append(len(non_null) if spec.arg is not None
                              else len(column))
            elif spec.name == "MAX":
                result.append(max(non_null) if non_null else None)
            elif spec.name == "MIN":
                result.append(min(non_null) if non_null else None)
            elif spec.name == "SUM":
                result.append(sum(non_null) if non_null else None)
            else:  # pragma: no cover - parser restricts names
                raise SQLTypeError(f"unknown aggregate {spec.name}")
        return tuple(result)

    @staticmethod
    def _passes(compiled, env: dict, params: tuple) -> bool:
        if compiled is None:
            return True
        value = compiled(env, params)
        return bool(value) and value is not None

    # ------------------------------------------------------------------ scans

    def _scan_access(self, txn, access: AccessPath, params: tuple,
                     outer_env: dict, row_mode: LockMode, cs_locks: list,
                     write_scan: bool, si: bool = False):
        """Lock-and-fetch all rows the access path touches.

        Returns list of (rid, row). ``row_mode`` is the lock taken on each
        examined row (S for reads; write scans take S then convert
        qualifying rows later). With ``si`` the scan is lock-free: rows
        resolve through the version chains at the transaction's begin
        snapshot (own writes read the slot).
        """
        heap = self.db.heaps[access.table]
        rows: list = []
        if si:
            return self._scan_snapshot(txn, access, params, outer_env)
        if access.kind == "table_scan":
            self.db.metrics.table_scans += 1
            for rid, _ in list(heap.scan()):
                newly = yield from self.db.locks.acquire(
                    txn, ("row", access.table, rid), row_mode)
                row = heap.fetch(rid)  # re-fetch: may have changed while blocked
                if row is None:
                    if newly:
                        self.db.locks.release(txn, ("row", access.table, rid))
                    continue
                if newly:
                    cs_locks.append(("row", access.table, rid))
                rows.append((rid, row))
            return rows

        self.db.metrics.index_scans += 1
        probe = access.probe
        btree = self.db.btrees[probe.index.name]
        eq_values = [expr(outer_env, params) for expr in probe.eq_exprs]
        lo_vals = list(eq_values)
        hi_vals = list(eq_values)
        lo_inc = hi_inc = True
        if probe.lo is not None:
            lo_vals.append(probe.lo[0](outer_env, params))
            lo_inc = probe.lo[1]
        if probe.hi is not None:
            hi_vals.append(probe.hi[0](outer_env, params))
            hi_inc = probe.hi[1]
        lo = tuple(lo_vals) if lo_vals else None
        hi = tuple(hi_vals) if hi_vals else None

        key_protect = (self.db.config.next_key_locking
                       and txn.isolation == "RR")
        matches = list(btree.scan_range(lo, lo_inc, hi, hi_inc))
        for ekey, rid in matches:
            if key_protect:
                # ARIES/KVL: each key read under RR is S-locked for commit
                # duration, so inserters' next-key X locks collide with us.
                yield from self.db.locks.acquire(
                    txn, ("key", access.table, probe.index.name, ekey),
                    LockMode.S)
            newly = yield from self.db.locks.acquire(
                txn, ("row", access.table, rid), row_mode)
            row = heap.fetch(rid)
            if row is None:
                if newly:
                    self.db.locks.release(txn, ("row", access.table, rid))
                continue
            if newly:
                cs_locks.append(("row", access.table, rid))
            rows.append((rid, row))

        # Phantom protection: under RR with next-key locking, lock the key
        # past the end of the scanned range.
        if key_protect:
            boundary = (tuple(hi_vals) if hi_vals else None)
            next_key = (btree.next_key_after(boundary) if boundary is not None
                        else INFINITY_KEY)
            nk_mode = LockMode.X if write_scan else LockMode.S
            yield from self.db.locks.acquire(
                txn, ("key", access.table, probe.index.name, next_key),
                nk_mode)
        return rows

    def _scan_snapshot(self, txn, access: AccessPath, params: tuple,
                       outer_env: dict) -> list:
        """SI access path: resolve rows at the begin snapshot, lock-free.

        Index probes need care: the B+tree reflects *current* keys (and
        uncommitted writers' entries), so probe matches are candidates
        only — each candidate's visible version is re-checked against
        the probe bounds — and rows whose visible version left the index
        (deleted or re-keyed after the snapshot) are found through their
        live chains, the L-Store-style tail sidecar scan.
        """
        heap = self.db.heaps[access.table]
        ts = txn.snapshot_lsn
        own = frozenset(r for t, r in txn.touched if t == access.table)
        if access.kind == "table_scan":
            self.db.metrics.table_scans += 1
            return list(heap.snapshot_scan(ts, own))

        self.db.metrics.index_scans += 1
        probe = access.probe
        btree = self.db.btrees[probe.index.name]
        eq_values = [expr(outer_env, params) for expr in probe.eq_exprs]
        lo_vals = list(eq_values)
        hi_vals = list(eq_values)
        lo_inc = hi_inc = True
        if probe.lo is not None:
            lo_vals.append(probe.lo[0](outer_env, params))
            lo_inc = probe.lo[1]
        if probe.hi is not None:
            hi_vals.append(probe.hi[0](outer_env, params))
            hi_inc = probe.hi[1]
        lo = tuple(lo_vals) if lo_vals else None
        hi = tuple(hi_vals) if hi_vals else None
        elo = encode_key(lo) if lo is not None else None
        ehi = encode_key(hi) if hi is not None else None

        candidates: list = []
        seen: set = set()
        for _, rid in btree.scan_range(lo, lo_inc, hi, hi_inc):
            if rid not in seen:
                seen.add(rid)
                candidates.append(rid)
        for rid in heap.version_rids():
            if rid not in seen:
                seen.add(rid)
                candidates.append(rid)

        table = self.db.catalog.tables[access.table]
        columns = probe.index.columns
        rows: list = []
        for rid in candidates:
            row = heap.snapshot_fetch(rid, ts, own)
            if row is None:
                continue
            ekey = encode_key(
                tuple(row[table.position(c)] for c in columns))
            if elo is not None:
                prefix = ekey[:len(elo)]
                if prefix < elo or (prefix == elo and not lo_inc):
                    continue
            if ehi is not None:
                prefix = ekey[:len(ehi)]
                if prefix > ehi or (prefix == ehi and not hi_inc):
                    continue
            rows.append((rid, row))
        return rows

    def _maybe_release_cs(self, txn, plan: SelectPlan, rid) -> None:
        """CS: a scanned row that did not qualify is unlocked immediately."""
        if txn.isolation == "CS" and not plan.for_update:
            self.db.locks.release(txn, ("row", plan.table.name, rid))

    def _release_cs_locks(self, txn, cs_locks: list) -> None:
        for resource in cs_locks:
            self.db.locks.release(txn, resource)

    # ------------------------------------------------------------------ INSERT

    def run_insert(self, txn, plan: InsertPlan, params: tuple):
        table = plan.table
        yield from self.db.locks.acquire(
            txn, ("table", table.name), LockMode.IX)
        count = 0
        for row_exprs in plan.rows:
            row = tuple(expr({}, params) if expr is not None else None
                        for expr in row_exprs)
            yield from self._insert_row(txn, table, row)
            count += 1
        return count

    def _insert_row(self, txn, table, row: tuple):
        self._typecheck(table, row)

        heap = self.db.heaps[table.name]
        # Lock the landing rid before the row becomes visible.
        while True:
            rid = heap.candidate_rid()
            newly = yield from self.db.locks.acquire(
                txn, ("row", table.name, rid), LockMode.X)
            if heap.is_free(rid):
                break
            # Someone landed there while we waited; drop the stale lock
            # (if it is not otherwise ours) and pick a new slot.
            if newly:
                self.db.locks.release(txn, ("row", table.name, rid))

        # Key-value locks for index maintenance (lesson E3: taken whenever
        # the feature is on, irrespective of isolation level). ARIES/KVL:
        # the inserted key is X-locked for commit duration and so is the
        # next key (we hold the latter to commit too — a simplification
        # that only strengthens the paper's observed behaviour).
        indexes = self.db.catalog.indexes_by_table.get(table.name, [])
        bulk = self.db.in_bulk_load(table.name)
        if self.db.config.next_key_locking and not bulk:
            # Bulk LOAD skips key-value locks: deferred entries are not
            # in the B-tree, so next-key resources are meaningless, and
            # the loader is the table's only writer by contract.
            from repro.minidb.btree import encode_key
            for index in indexes:
                key = self._index_key(table, index, row)
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, encode_key(key)),
                    LockMode.X)
                next_key = self.db.btrees[index.name].next_key_after(key)
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, next_key),
                    LockMode.X)

        # Unique pre-check (authoritative check is the B-tree insert —
        # except under bulk LOAD, where the insert is deferred and this
        # check, extended over the deferred entries, decides).
        for index in indexes:
            if index.unique and not self._has_null_key(table, index, row):
                key = self._index_key(table, index, row)
                if (self.db.btrees[index.name].contains(key)
                        or self.db.bulk_pending_duplicate(
                            table.name, index.name, key)):
                    raise DuplicateKeyError(
                        f"duplicate key {key!r} for unique index "
                        f"{index.name}")

        self.db.log_write("INSERT", txn, table.name, rid, before=None,
                          after=row)
        heap.insert(row, rid=rid)
        self.db.apply_index_insert(table, row, rid)
        self.db.metrics.rows_inserted += 1
        self.db.note_mutation(table.name)

    # ------------------------------------------------------------------ UPDATE

    def run_update(self, txn, plan: UpdatePlan, params: tuple):
        table = plan.table
        yield from self.db.locks.acquire(
            txn, ("table", table.name), LockMode.IX)
        cs_locks: list = []
        scan_mode = (LockMode.U if self.db.config.update_locks
                     else LockMode.S)
        scanned = yield from self._scan_access(
            txn, plan.access, params, {}, scan_mode, cs_locks,
            write_scan=True, si=txn.snapshot_lsn is not None)
        binding = plan.access.binding
        count = 0
        heap = self.db.heaps[table.name]
        for rid, row in scanned:
            env = {binding: row}
            if not self._passes(plan.filter, env, params):
                if txn.isolation == "CS":
                    self.db.locks.release(txn, ("row", table.name, rid))
                continue
            yield from self.db.locks.acquire(
                txn, ("row", table.name, rid), LockMode.X)
            # SI: the scan saw the snapshot version; with the X lock held,
            # first-writer-wins — any version committed past the snapshot
            # aborts us. When it passes, the slot equals the snapshot row.
            self.db.write_conflict_check(txn, table.name, rid)
            current = heap.fetch(rid)
            if current is None:
                continue
            new_row = list(current)
            env = {binding: current}
            for position, compiled in plan.assignments:
                new_row[position] = compiled(env, params)
            new_row = tuple(new_row)
            self._typecheck(table, new_row)
            yield from self._index_maintenance_locks(
                txn, table, current, new_row)
            self.db.log_write("UPDATE", txn, table.name, rid,
                              before=current, after=new_row)
            heap.update(rid, new_row)
            self.db.apply_index_update(table, current, new_row, rid)
            count += 1
        self.db.metrics.rows_updated += count
        if count:
            self.db.note_mutation(table.name, count)
        return count

    # ------------------------------------------------------------------ DELETE

    def run_delete(self, txn, plan: DeletePlan, params: tuple):
        table = plan.table
        yield from self.db.locks.acquire(
            txn, ("table", table.name), LockMode.IX)
        cs_locks: list = []
        scan_mode = (LockMode.U if self.db.config.update_locks
                     else LockMode.S)
        scanned = yield from self._scan_access(
            txn, plan.access, params, {}, scan_mode, cs_locks,
            write_scan=True, si=txn.snapshot_lsn is not None)
        binding = plan.access.binding
        count = 0
        heap = self.db.heaps[table.name]
        for rid, row in scanned:
            env = {binding: row}
            if not self._passes(plan.filter, env, params):
                if txn.isolation == "CS":
                    self.db.locks.release(txn, ("row", table.name, rid))
                continue
            yield from self.db.locks.acquire(
                txn, ("row", table.name, rid), LockMode.X)
            self.db.write_conflict_check(txn, table.name, rid)
            current = heap.fetch(rid)
            if current is None:
                continue
            yield from self._index_maintenance_locks(
                txn, table, current, None)
            self.db.log_write("DELETE", txn, table.name, rid,
                              before=current, after=None)
            heap.delete(rid)
            self.db.apply_index_delete(table, current, rid)
            count += 1
        self.db.metrics.rows_deleted += count
        if count:
            self.db.note_mutation(table.name, count)
        return count

    def _index_maintenance_locks(self, txn, table, old_row,
                                 new_row: Optional[tuple]):
        """Next-key X locks for delete/update index maintenance (E3)."""
        if (not self.db.config.next_key_locking
                or self.db.in_bulk_load(table.name)):
            return
        from repro.minidb.btree import encode_key
        for index in self.db.catalog.indexes_by_table.get(table.name, []):
            btree = self.db.btrees[index.name]
            old_key = self._index_key(table, index, old_row)
            touched = [old_key]
            if new_row is not None:
                new_key = self._index_key(table, index, new_row)
                if new_key == old_key:
                    continue  # this index is untouched by the update
                touched.append(new_key)
            for key in touched:
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, encode_key(key)),
                    LockMode.X)
                next_key = btree.next_key_after(key)
                yield from self.db.locks.acquire(
                    txn, ("key", table.name, index.name, next_key),
                    LockMode.X)

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _index_key(table, index, row: tuple) -> tuple:
        return tuple(row[table.position(c)] for c in index.columns)

    @staticmethod
    def _has_null_key(table, index, row: tuple) -> bool:
        return any(row[table.position(c)] is None for c in index.columns)

    _PY_TYPES = {"INT": (int,), "FLOAT": (int, float), "TEXT": (str,),
                 "BOOL": (bool, int)}

    def _typecheck(self, table, row: tuple) -> None:
        for column, value in zip(table.columns, row):
            if value is None:
                continue
            expected = self._PY_TYPES[column.type]
            if not isinstance(value, expected):
                raise SQLTypeError(
                    f"column {table.name}.{column.name} is {column.type}, "
                    f"got {type(value).__name__} {value!r}")


class _Reversed:
    """Sort-key wrapper inverting comparison for ORDER BY ... DESC."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value
