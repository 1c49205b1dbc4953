"""Disk, buffer pool and heap files.

Storage is deliberately synchronous: the only blocking points inside the
engine are lock waits. I/O volume is *metered* here (buffer misses, page
writes, log forces) and converted into virtual time by the session layer
after each statement, which keeps the event count of big simulations low
without losing the timing behaviour.

Durability model: the :class:`Disk` holds immutable snapshots of pages;
the buffer pool is a write-back cache over it (steal/no-force). A crash
drops the buffer pool and the unforced log tail; restart redoes/undoes
from the log (see ``recovery.py``).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import DatabaseError

#: RID: (page number, slot number) within a table's heap.
Rid = tuple[int, int]


class HeapPage:
    """In-memory image of one heap page."""

    __slots__ = ("page_no", "slots", "page_lsn")

    def __init__(self, page_no: int, capacity: int,
                 slots: Optional[list] = None, page_lsn: int = 0):
        self.page_no = page_no
        self.slots: list[Optional[tuple]] = (
            list(slots) if slots is not None else [None] * capacity)
        self.page_lsn = page_lsn

    @property
    def free_slots(self) -> int:
        return self.slots.count(None)

    def first_free(self) -> Optional[int]:
        try:
            return self.slots.index(None)
        except ValueError:
            return None


class Disk:
    """Durable page store: table → page_no → (page_lsn, row snapshot).

    Also holds the checkpoint-time secondary-index images instant
    recovery repairs from (chain-driven per-index repair instead of a
    full-heap rebuild): index name → list of (encoded key, rid) pairs,
    written by ``Database.checkpoint`` and consumed by ``recovery.py``.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[int, tuple[int, tuple]]] = {}
        self._index_images: dict[str, list] = {}

    def write_page(self, table: str, page: HeapPage) -> None:
        self._tables.setdefault(table, {})[page.page_no] = (
            page.page_lsn, tuple(page.slots))

    def read_page(self, table: str, page_no: int,
                  capacity: int) -> Optional[HeapPage]:
        stored = self._tables.get(table, {}).get(page_no)
        if stored is None:
            return None
        page_lsn, slots = stored
        return HeapPage(page_no, capacity, slots=list(slots),
                        page_lsn=page_lsn)

    def page_numbers(self, table: str) -> list[int]:
        return sorted(self._tables.get(table, {}))

    def page_lsn(self, table: str, page_no: int) -> int:
        """Durable page LSN without a buffer-pool fetch (0 = no page)."""
        stored = self._tables.get(table, {}).get(page_no)
        return stored[0] if stored is not None else 0

    def drop_table(self, table: str) -> None:
        self._tables.pop(table, None)

    def tables(self) -> list[str]:
        return sorted(self._tables)

    # -- index images (checkpoint ↔ instant recovery) -------------------------

    def store_index_image(self, name: str, pairs: list) -> None:
        self._index_images[name] = list(pairs)

    def load_index_image(self, name: str) -> Optional[list]:
        pairs = self._index_images.get(name)
        return list(pairs) if pairs is not None else None

    def drop_index_image(self, name: str) -> None:
        self._index_images.pop(name, None)


@dataclass
class BufferMetrics:
    hits: int = 0
    misses: int = 0
    page_writes: int = 0
    #: misses + writes accumulated since the last drain (for time charging)
    unbilled_io: int = 0

    def _io(self) -> None:
        self.unbilled_io += 1

    def drain_unbilled(self) -> int:
        n, self.unbilled_io = self.unbilled_io, 0
        return n


class BufferPool:
    """Write-back LRU page cache over the :class:`Disk`.

    WAL before data: with a ``wal`` attached, no dirty page reaches the
    disk before the log is durable up to that page's ``page_lsn`` —
    otherwise an uncommitted change could survive a crash with no log
    record left for restart to undo it.
    """

    def __init__(self, disk: Disk, capacity: int, rows_per_page: int,
                 wal=None):
        self.disk = disk
        self.capacity = capacity
        self.rows_per_page = rows_per_page
        self.wal = wal
        self._frames: "OrderedDict[tuple[str, int], HeapPage]" = OrderedDict()
        self._dirty: set[tuple[str, int]] = set()
        self.metrics = BufferMetrics()

    def fetch(self, table: str, page_no: int, create: bool = False) -> HeapPage:
        key = (table, page_no)
        page = self._frames.get(key)
        if page is not None:
            self._frames.move_to_end(key)
            self.metrics.hits += 1
            return page
        page = self.disk.read_page(table, page_no, self.rows_per_page)
        if page is None:
            if not create:
                raise DatabaseError(f"missing page {table}:{page_no}")
            page = HeapPage(page_no, self.rows_per_page)
        else:
            self.metrics.misses += 1
            self.metrics._io()
        self._frames[key] = page
        self._evict_if_needed()
        return page

    def mark_dirty(self, table: str, page_no: int) -> None:
        self._dirty.add((table, page_no))

    def _evict_if_needed(self) -> None:
        while len(self._frames) > self.capacity:
            key, page = self._frames.popitem(last=False)
            if key in self._dirty:
                self._dirty.discard(key)
                self._force_log(page.page_lsn)
                self.disk.write_page(key[0], page)
                self.metrics.page_writes += 1
                self.metrics._io()

    def _force_log(self, lsn: int) -> None:
        """Force the log up to ``lsn``; a physical force is one I/O."""
        if self.wal is not None and self.wal.force(lsn):
            self.metrics._io()

    def flush_all(self) -> int:
        """Write every dirty page to disk (checkpoint); returns pages written."""
        self._force_log(max((self._frames[key].page_lsn
                             for key in self._dirty if key in self._frames),
                            default=0))
        written = 0
        for key in sorted(self._dirty):
            page = self._frames.get(key)
            if page is not None:
                self.disk.write_page(key[0], page)
                self.metrics.page_writes += 1
                self.metrics._io()
                written += 1
        self._dirty.clear()
        return written

    def drop_table(self, table: str) -> None:
        for key in [k for k in self._frames if k[0] == table]:
            del self._frames[key]
            self._dirty.discard(key)
        self.disk.drop_table(table)

    def clear(self) -> None:
        """Crash: lose all cached (including dirty) pages."""
        self._frames.clear()
        self._dirty.clear()

    def peek_slot(self, table: str, page_no: int, slot_no: int):
        """Read one slot without touching pool state (no LRU move, no
        miss/IO accounting, no caching). The version-merge fold uses it
        to compare a chain's newest entry against the base record, so
        folding never perturbs buffer metrics or eviction order. Reads
        the cached frame when present (it is newer than disk), else the
        durable page — which may be stale during a lazy restart; callers
        treat a mismatch as "keep the chain" (conservative)."""
        page = self._frames.get((table, page_no))
        if page is None:
            page = self.disk.read_page(table, page_no, self.rows_per_page)
        if page is None or slot_no >= len(page.slots):
            return None
        return page.slots[slot_no]


class Heap:
    """Slotted heap file for one table, accessed through the buffer pool."""

    def __init__(self, table: str, pool: BufferPool):
        self.table = table
        self.pool = pool
        self.rows_per_page = pool.rows_per_page
        self._page_count = 0
        self._free_pages: set[int] = set()
        #: Free-space hint: lazy min-heap mirror of ``_free_pages``. May
        #: hold stale or duplicate page numbers; they are popped on first
        #: contact. Keeps "lowest page with space" amortized O(log n)
        #: instead of scanning the whole free set per insert.
        self._free_heap: list[int] = []
        self._row_count = 0
        #: Instant-recovery replay gate: when set, called with a page
        #: number before ANY page access, replaying that page's pending
        #: log chain first (see ``Database.replay_page``). None outside
        #: of a lazy restart — the common case pays one attribute test.
        self.replay_hook = None
        #: MVCC lineage chains (L-Store style): rid → ascending list of
        #: ``(commit_lsn, row_or_None)`` versions. The base record is the
        #: heap slot itself; the chain is its append-only tail, oldest
        #: first — each entry's lineage predecessor is simply the entry
        #: before it, and a ``None`` row is a delete marker. A missing
        #: chain means the slot's committed value is the base, visible to
        #: every snapshot (effective timestamp 0). Timestamp 0 marks the
        #: seed entry: the committed state before the first in-flight
        #: writer touched the slot.
        self._versions: dict[Rid, list[tuple[int, Optional[tuple]]]] = {}

    # -- bootstrap --------------------------------------------------------------

    @classmethod
    def recover(cls, table: str, pool: BufferPool) -> "Heap":
        """Rebuild heap bookkeeping from durable pages after a restart."""
        heap = cls(table, pool)
        for page_no in pool.disk.page_numbers(table):
            page = pool.fetch(table, page_no)
            heap._page_count = max(heap._page_count, page_no + 1)
            used = sum(1 for slot in page.slots if slot is not None)
            heap._row_count += used
            if used < heap.rows_per_page:
                heap._note_free(page_no)
        return heap

    @classmethod
    def recover_lazy(cls, table: str, pool: BufferPool,
                     chain_pages: Iterable[int] = ()) -> "Heap":
        """Heap bookkeeping without reading a single page.

        ``chain_pages`` are pages named by pending per-page log chains
        (they may not exist on disk yet). The page count must be exact —
        it keeps fresh inserts off rid ranges the replay will fill — but
        the free-space map starts empty: new inserts land on fresh pages
        and ``_row_count`` only counts rows seen so far (documented
        deviation; statistics catch up via RUNSTATS or pinned stats).
        """
        heap = cls(table, pool)
        numbers = pool.disk.page_numbers(table)
        if numbers:
            heap._page_count = numbers[-1] + 1
        for page_no in chain_pages:
            heap._page_count = max(heap._page_count, page_no + 1)
        return heap

    # -- geometry (feeds optimizer statistics) -----------------------------------

    @property
    def npages(self) -> int:
        return self._page_count

    @property
    def nrows(self) -> int:
        return self._row_count

    # -- operations ---------------------------------------------------------------

    def candidate_rid(self) -> Rid:
        """Where the next free-choice insert would land (no mutation).

        The executor X-locks this rid *before* inserting so a reused slot
        still X-locked by an uncommitted deleter can't expose dirty data.
        """
        page = self._first_page_with_space()
        if page is not None:
            return (page.page_no, page.first_free())
        return (self._page_count, 0)

    def is_free(self, rid: Rid) -> bool:
        if rid[0] >= self._page_count:
            return True
        page = self._page_for(rid[0])
        return page.slots[rid[1]] is None

    def insert(self, row: tuple, rid: Optional[Rid] = None) -> Rid:
        """Place ``row``; a forced ``rid`` is used by redo/undo replay."""
        if rid is not None:
            page = self._page_for(rid[0], create=True)
            if page.slots[rid[1]] is not None:
                raise DatabaseError(f"redo insert into occupied slot {rid}")
            page.slots[rid[1]] = row
            target = rid
        else:
            page = self._page_with_space()
            slot = page.first_free()
            assert slot is not None
            page.slots[slot] = row
            target = (page.page_no, slot)
        if page.free_slots == 0:
            self._free_pages.discard(page.page_no)
        else:
            self._note_free(page.page_no)
        self.pool.mark_dirty(self.table, page.page_no)
        self._row_count += 1
        return target

    def delete(self, rid: Rid) -> tuple:
        page = self._page_for(rid[0])
        row = page.slots[rid[1]]
        if row is None:
            raise DatabaseError(f"delete of empty slot {self.table}:{rid}")
        page.slots[rid[1]] = None
        self._note_free(page.page_no)
        self.pool.mark_dirty(self.table, page.page_no)
        self._row_count -= 1
        return row

    def update(self, rid: Rid, new_row: tuple) -> tuple:
        page = self._page_for(rid[0])
        old = page.slots[rid[1]]
        if old is None:
            raise DatabaseError(f"update of empty slot {self.table}:{rid}")
        page.slots[rid[1]] = new_row
        self.pool.mark_dirty(self.table, page.page_no)
        return old

    def fetch(self, rid: Rid) -> Optional[tuple]:
        if rid[0] >= self._page_count:
            return None
        page = self._page_for(rid[0])
        return page.slots[rid[1]]

    def scan(self) -> Iterator[tuple[Rid, tuple]]:
        for page_no in range(self._page_count):
            page = self._page_for(page_no)
            for slot_no, row in enumerate(page.slots):
                if row is not None:
                    yield (page_no, slot_no), row

    # -- version chains (MVCC lineage tails) ---------------------------------------

    @property
    def live_chains(self) -> int:
        return len(self._versions)

    def version_seed(self, rid: Rid, row: Optional[tuple]) -> None:
        """Pin the committed pre-state when a writer first touches a slot.

        No-op if the rid already has a chain: its newest committed entry
        is the pre-state. The seed (timestamp 0) is what snapshots older
        than every chained version resolve to.
        """
        if rid not in self._versions:
            self._versions[rid] = [(0, row)]

    def version_append(self, rid: Rid, ts: int, row: Optional[tuple]) -> None:
        """Append the committed state at commit LSN ``ts`` (delete → None)."""
        chain = self._versions.get(rid)
        if chain is None:
            # Guarded against by the write-pin rule (an active writer's
            # chains are never folded); kept for defense in depth.
            self._versions[rid] = [(0, row), (ts, row)]
        else:
            chain.append((ts, row))

    def version_newest_ts(self, rid: Rid) -> int:
        """Commit LSN of the newest version (0 = base only, never conflicts)."""
        chain = self._versions.get(rid)
        return chain[-1][0] if chain else 0

    def version_rids(self) -> list[Rid]:
        return list(self._versions)

    def snapshot_fetch(self, rid: Rid, ts: int,
                       own: frozenset = frozenset()) -> Optional[tuple]:
        """Row visible at snapshot ``ts``: newest version with commit
        LSN ≤ ts; rids in ``own`` read the slot (a transaction sees its
        own uncommitted writes); no chain means the slot is the base."""
        if rid in own:
            return self.fetch(rid)
        chain = self._versions.get(rid)
        if chain is None:
            return self.fetch(rid)
        for entry_ts, row in reversed(chain):
            if entry_ts <= ts:
                return row
        return None

    def snapshot_scan(self, ts: int, own: frozenset = frozenset()
                      ) -> Iterator[tuple[Rid, tuple]]:
        """Like :meth:`scan`, resolved through version chains at ``ts``.

        Pages are fetched through the pool (snapshot readers pay the
        same I/O a locking scan would); only visibility differs.
        """
        for page_no in range(self._page_count):
            page = self._page_for(page_no)
            for slot_no, slot in enumerate(page.slots):
                rid = (page_no, slot_no)
                if rid in own:
                    if slot is not None:
                        yield rid, slot
                    continue
                chain = self._versions.get(rid)
                if chain is not None:
                    row = None
                    for entry_ts, entry_row in reversed(chain):
                        if entry_ts <= ts:
                            row = entry_row
                            break
                    if row is not None:
                        yield rid, row
                elif slot is not None:
                    yield rid, slot

    def fold_versions(self, rid: Rid, watermark: int) -> int:
        """Merge: drop chain entries no snapshot ≥ ``watermark`` can see.

        Keeps the newest entry with ts ≤ watermark (it is what the
        oldest live snapshot resolves to) and everything newer. When a
        single entry remains and it equals the base record, the whole
        chain folds away — the base alone serves every snapshot. The
        slot comparison uses the pool-neutral peek; a stale durable page
        during a lazy restart just means the chain is kept for now.
        Returns the number of entries dropped.
        """
        chain = self._versions.get(rid)
        if not chain:
            return 0
        keep_from = 0
        for i, (entry_ts, _) in enumerate(chain):
            if entry_ts <= watermark:
                keep_from = i
            else:
                break
        dropped = keep_from
        if keep_from:
            del chain[:keep_from]
        if (len(chain) == 1 and chain[0][0] <= watermark
                and chain[0][1] == self.pool.peek_slot(
                    self.table, rid[0], rid[1])):
            del self._versions[rid]
            dropped += 1
        return dropped

    def versions_image(self) -> dict:
        """Copy of all chains (checkpoint payload; entries are immutable)."""
        return {rid: list(chain) for rid, chain in self._versions.items()}

    def restore_versions(self, image: dict) -> None:
        self._versions = {rid: list(chain) for rid, chain in image.items()}

    def set_page_lsn(self, page_no: int, lsn: int) -> None:
        page = self._page_for(page_no, create=True)
        page.page_lsn = max(page.page_lsn, lsn)

    def page_lsn(self, page_no: int) -> int:
        return self._page_for(page_no, create=True).page_lsn

    # -- internals -------------------------------------------------------------

    def _page_for(self, page_no: int, create: bool = False) -> HeapPage:
        if self.replay_hook is not None:
            # On-demand REDO: drain this page's pending log chain before
            # anyone sees the page. The hook removes the page from the
            # pending set before applying, so the replay's own accesses
            # pass straight through (no recursion).
            self.replay_hook(self.table, page_no)
        if page_no >= self._page_count:
            if not create:
                raise DatabaseError(
                    f"page {page_no} beyond heap {self.table}")
            for missing in range(self._page_count, page_no + 1):
                self._note_free(missing)
            self._page_count = page_no + 1
            return self.pool.fetch(self.table, page_no, create=True)
        return self.pool.fetch(self.table, page_no, create=True)

    def _note_free(self, page_no: int) -> None:
        if page_no not in self._free_pages:
            self._free_pages.add(page_no)
            heapq.heappush(self._free_heap, page_no)

    def _first_page_with_space(self) -> Optional[HeapPage]:
        """Lowest-numbered page with a free slot, via the hint heap.
        Stale entries (removed or refilled pages) pop lazily."""
        while self._free_heap:
            page_no = self._free_heap[0]
            if page_no not in self._free_pages:
                heapq.heappop(self._free_heap)
                continue
            page = self._page_for(page_no)
            if page.first_free() is None:
                self._free_pages.discard(page_no)
                heapq.heappop(self._free_heap)
                continue
            return page
        return None

    def _page_with_space(self) -> HeapPage:
        page = self._first_page_with_space()
        if page is not None:
            return page
        page_no = self._page_count
        self._page_count += 1
        page = self.pool.fetch(self.table, page_no, create=True)
        self._note_free(page_no)
        return page
