"""Tests for disk, buffer pool and heap files."""

import pytest

from repro.errors import DatabaseError
from repro.minidb.storage import BufferPool, Disk, Heap, HeapPage


def make_heap(capacity=100, rows_per_page=4):
    disk = Disk()
    pool = BufferPool(disk, capacity, rows_per_page)
    return Heap("t", pool), pool, disk


def test_insert_returns_rids_and_fetch():
    heap, _, _ = make_heap()
    rid = heap.insert(("a", 1))
    assert heap.fetch(rid) == ("a", 1)
    assert heap.nrows == 1


def test_rows_fill_page_then_spill():
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [heap.insert((i,)) for i in range(5)]
    assert {rid[0] for rid in rids} == {0, 1, 2}
    assert heap.npages == 3


def test_delete_frees_slot_for_reuse():
    heap, _, _ = make_heap(rows_per_page=2)
    rid = heap.insert(("a",))
    heap.insert(("b",))
    heap.delete(rid)
    assert heap.fetch(rid) is None
    new_rid = heap.insert(("c",))
    assert new_rid == rid  # lowest free slot reused
    assert heap.nrows == 2


def test_candidate_rid_predicts_insert_position():
    heap, _, _ = make_heap(rows_per_page=2)
    assert heap.candidate_rid() == (0, 0)
    rid = heap.insert(("a",))
    assert heap.candidate_rid() == (0, 1)
    heap.delete(rid)
    assert heap.candidate_rid() == (0, 0)


def test_is_free():
    heap, _, _ = make_heap()
    rid = heap.insert(("a",))
    assert not heap.is_free(rid)
    assert heap.is_free((5, 0))


def test_update_in_place():
    heap, _, _ = make_heap()
    rid = heap.insert(("a", 1))
    old = heap.update(rid, ("a", 2))
    assert old == ("a", 1)
    assert heap.fetch(rid) == ("a", 2)


def test_delete_empty_slot_is_error():
    heap, _, _ = make_heap()
    heap.insert(("a",))
    with pytest.raises(DatabaseError):
        heap.delete((0, 1))


def test_scan_yields_all_live_rows_in_rid_order():
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [heap.insert((i,)) for i in range(6)]
    heap.delete(rids[2])
    scanned = list(heap.scan())
    assert [row for _, row in scanned] == [(0,), (1,), (3,), (4,), (5,)]


def test_insert_at_forced_rid_for_redo():
    heap, _, _ = make_heap(rows_per_page=4)
    heap.insert(("x",), rid=(3, 2))
    assert heap.fetch((3, 2)) == ("x",)
    assert heap.npages == 4


def test_insert_at_occupied_forced_rid_is_error():
    heap, _, _ = make_heap()
    heap.insert(("a",), rid=(0, 0))
    with pytest.raises(DatabaseError):
        heap.insert(("b",), rid=(0, 0))


def test_buffer_pool_eviction_writes_dirty_pages():
    heap, pool, disk = make_heap(capacity=2, rows_per_page=1)
    for i in range(5):
        heap.insert((i,))
    # With capacity 2, at least 3 pages must have been written back.
    assert pool.metrics.page_writes >= 3
    assert len(disk.page_numbers("t")) >= 3


def test_buffer_pool_reload_after_eviction_preserves_rows():
    heap, pool, disk = make_heap(capacity=2, rows_per_page=1)
    rids = [heap.insert((i,)) for i in range(10)]
    for rid, expected in zip(rids, range(10)):
        assert heap.fetch(rid) == (expected,)


def test_flush_all_then_crash_preserves_rows():
    heap, pool, disk = make_heap(rows_per_page=2)
    rids = [heap.insert((i,)) for i in range(4)]
    pool.flush_all()
    pool.clear()  # crash: volatile cache gone
    recovered = Heap.recover("t", pool)
    assert recovered.nrows == 4
    for rid, expected in zip(rids, range(4)):
        assert recovered.fetch(rid) == (expected,)


def test_unflushed_pages_lost_on_clear():
    heap, pool, disk = make_heap(rows_per_page=2)
    heap.insert((1,))
    pool.clear()
    recovered = Heap.recover("t", pool)
    assert recovered.nrows == 0


def test_disk_snapshots_are_isolated_from_later_mutation():
    heap, pool, disk = make_heap(rows_per_page=2)
    rid = heap.insert(("original",))
    pool.flush_all()
    heap.update(rid, ("mutated",))
    stored = disk.read_page("t", 0, 2)
    assert stored.slots[0] == ("original",)


def test_page_lsn_round_trip_through_disk():
    heap, pool, disk = make_heap()
    rid = heap.insert(("a",))
    heap.set_page_lsn(rid[0], 42)
    pool.flush_all()
    pool.clear()
    recovered = Heap.recover("t", pool)
    assert recovered.page_lsn(rid[0]) == 42


def test_drop_table_removes_pages():
    heap, pool, disk = make_heap()
    heap.insert(("a",))
    pool.flush_all()
    pool.drop_table("t")
    assert disk.page_numbers("t") == []


def test_unbilled_io_counts_misses_and_writes():
    heap, pool, _ = make_heap(capacity=1, rows_per_page=1)
    for i in range(4):
        heap.insert((i,))
    assert pool.metrics.drain_unbilled() > 0
    assert pool.metrics.drain_unbilled() == 0  # drained


# -- free-space hint (lazy min-heap over _free_pages) -------------------------

def test_free_hint_always_picks_lowest_page_with_space():
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [heap.insert((i,)) for i in range(8)]   # pages 0..3 full
    heap.delete(rids[6])                           # page 3 has a hole
    heap.delete(rids[2])                           # page 1 has a hole
    assert heap.candidate_rid() == rids[2]         # lowest wins
    assert heap.insert(("x",)) == rids[2]
    assert heap.candidate_rid() == rids[6]
    assert heap.insert(("y",)) == rids[6]
    # everything full again: next insert extends the heap
    assert heap.candidate_rid() == (4, 0)


def test_free_hint_skips_stale_entries():
    """Pages that filled back up (or duplicate notes) pop lazily without
    being offered as candidates."""
    heap, _, _ = make_heap(rows_per_page=2)
    rids = [heap.insert((i,)) for i in range(4)]
    # Free and refill page 0 repeatedly: the hint heap accumulates
    # notes; only live free space may surface.
    for _ in range(3):
        heap.delete(rids[0])
        assert heap.insert(("again",)) == rids[0]
    assert heap.candidate_rid() == (2, 0)
    assert heap.insert(("tail",)) == (2, 0)


def test_free_hint_survives_recover():
    heap, pool, _ = make_heap(rows_per_page=2)
    rids = [heap.insert((i,)) for i in range(6)]
    heap.delete(rids[1])
    pool.flush_all()
    pool.clear()
    recovered = Heap.recover("t", pool)
    assert recovered.candidate_rid() == rids[1]
    assert recovered.insert(("back",)) == rids[1]
    assert recovered.candidate_rid() == (3, 0)


def test_free_hint_matches_linear_scan_reference():
    """Differential check: the hinted candidate always equals what the
    seed's linear scan over all pages would have chosen."""
    import random

    rng = random.Random(11)
    heap, _, _ = make_heap(rows_per_page=3)
    live = []
    for step in range(300):
        if live and rng.random() < 0.4:
            rid = live.pop(rng.randrange(len(live)))
            heap.delete(rid)
        else:
            live.append(heap.insert((step,)))
        # reference: lowest (page, slot) with a free slot, else new page
        expected = None
        for page_no in range(heap.npages):
            page = heap._page_for(page_no)
            slot = page.first_free()
            if slot is not None:
                expected = (page_no, slot)
                break
        if expected is None:
            expected = (heap.npages, 0)
        assert heap.candidate_rid() == expected


def test_heap_page_free_slot_accounting():
    page = HeapPage(0, 3)
    assert (page.free_slots, page.first_free()) == (3, 0)
    page.slots[0] = ("a",)
    page.slots[2] = ("c",)
    assert (page.free_slots, page.first_free()) == (1, 1)
    page.slots[1] = ("b",)
    assert (page.free_slots, page.first_free()) == (0, None)
