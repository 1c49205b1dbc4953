"""Unit and property-based tests for the B+tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError
from repro.minidb.btree import BTree, INFINITY_KEY, encode_key, encode_value


def make(unique=False, order=8):
    return BTree("idx", "t", ("k",), unique, order=order)


def test_insert_and_search_eq():
    tree = make()
    tree.insert(("a",), (0, 0))
    tree.insert(("b",), (0, 1))
    assert tree.search_eq(("a",)) == [(0, 0)]
    assert tree.search_eq(("b",)) == [(0, 1)]
    assert tree.search_eq(("c",)) == []


def test_duplicate_rids_allowed_on_non_unique():
    tree = make()
    tree.insert(("a",), (0, 0))
    tree.insert(("a",), (0, 1))
    assert sorted(tree.search_eq(("a",))) == [(0, 0), (0, 1)]


def test_unique_index_rejects_duplicate_key():
    tree = make(unique=True)
    tree.insert(("a",), (0, 0))
    with pytest.raises(DuplicateKeyError):
        tree.insert(("a",), (0, 1))
    assert len(tree) == 1


def test_delete_specific_entry():
    tree = make()
    tree.insert(("a",), (0, 0))
    tree.insert(("a",), (0, 1))
    assert tree.delete(("a",), (0, 0)) is True
    assert tree.search_eq(("a",)) == [(0, 1)]
    assert tree.delete(("a",), (9, 9)) is False


def test_splits_preserve_order_with_many_keys():
    tree = make(order=4)
    keys = [f"k{i:04d}" for i in range(500)]
    for i, key in enumerate(keys):
        tree.insert((key,), (i, 0))
    scanned = [k for k, _ in tree.scan_range(None, True, None, True)]
    assert scanned == sorted(encode_key((k,)) for k in keys)
    assert tree.nlevels > 1


def test_range_scan_inclusive_exclusive():
    tree = make()
    for i in range(10):
        tree.insert((i,), (i, 0))
    rids = [rid for _, rid in tree.scan_range((3,), True, (6,), True)]
    assert rids == [(3, 0), (4, 0), (5, 0), (6, 0)]
    rids = [rid for _, rid in tree.scan_range((3,), False, (6,), False)]
    assert rids == [(4, 0), (5, 0)]


def test_range_scan_unbounded_sides():
    tree = make()
    for i in range(5):
        tree.insert((i,), (i, 0))
    assert [r for _, r in tree.scan_range(None, True, (2,), True)] == [
        (0, 0), (1, 0), (2, 0)]
    assert [r for _, r in tree.scan_range((3,), True, None, True)] == [
        (3, 0), (4, 0)]


def test_prefix_scan_on_composite_key():
    tree = BTree("idx", "t", ("a", "b"), unique=False, order=8)
    tree.insert((1, "x"), (0, 0))
    tree.insert((1, "y"), (0, 1))
    tree.insert((2, "x"), (0, 2))
    rids = [rid for _, rid in tree.scan_range((1,), True, (1,), True)]
    assert rids == [(0, 0), (0, 1)]


def test_next_key_after():
    tree = make()
    for value in (10, 20, 30):
        tree.insert((value,), (value, 0))
    assert tree.next_key_after((10,)) == encode_key((20,))
    assert tree.next_key_after((15,)) == encode_key((20,))
    assert tree.next_key_after((30,)) is INFINITY_KEY
    assert tree.next_key_after(None) == encode_key((10,))


def test_next_key_skips_equal_duplicates():
    tree = make()
    tree.insert((10,), (0, 0))
    tree.insert((10,), (0, 1))
    tree.insert((20,), (0, 2))
    assert tree.next_key_after((10,)) == encode_key((20,))


def test_null_sorts_lowest():
    tree = make()
    tree.insert((None,), (0, 0))
    tree.insert((1,), (0, 1))
    scanned = [rid for _, rid in tree.scan_range(None, True, None, True)]
    assert scanned == [(0, 0), (0, 1)]


def test_mixed_type_keys_order_stably():
    assert encode_value(None) < encode_value(5) < encode_value("a")


def test_clear():
    tree = make()
    tree.insert((1,), (0, 0))
    tree.clear()
    assert len(tree) == 0
    assert tree.search_eq((1,)) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=300))
def test_property_inserted_keys_all_findable(values):
    tree = BTree("idx", "t", ("k",), unique=False, order=6)
    for i, value in enumerate(values):
        tree.insert((value,), (i, 0))
    for i, value in enumerate(values):
        assert (i, 0) in tree.search_eq((value,))
    scanned = [k for k, _ in tree.scan_range(None, True, None, True)]
    assert scanned == sorted(scanned)
    assert len(scanned) == len(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=50)),
                min_size=1, max_size=200))
def test_property_matches_reference_model(ops):
    """Insert/delete fuzz against a sorted-list reference model."""
    tree = BTree("idx", "t", ("k",), unique=False, order=5)
    model: list[tuple[int, tuple]] = []
    for i, (is_insert, value) in enumerate(ops):
        if is_insert:
            tree.insert((value,), (i, 0))
            model.append((value, (i, 0)))
        elif model:
            value, rid = model.pop()
            assert tree.delete((value,), rid) is True
    expected = sorted((encode_key((v,)), rid) for v, rid in model)
    actual = list(tree.scan_range(None, True, None, True))
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=1000), min_size=2,
               max_size=100))
def test_property_next_key_matches_sorted_order(values):
    tree = BTree("idx", "t", ("k",), unique=True, order=7)
    ordered = sorted(values)
    for i, value in enumerate(ordered):
        tree.insert((value,), (i, 0))
    for a, b in zip(ordered, ordered[1:]):
        assert tree.next_key_after((a,)) == encode_key((b,))
    assert tree.next_key_after((ordered[-1],)) is INFINITY_KEY


# ------------------------------------------------------------------- bulk load

def test_bulk_load_empty_input():
    tree = make()
    tree.bulk_load([])
    assert len(tree) == 0
    assert tree.search_eq(("a",)) == []
    tree.insert(("a",), (0, 0))          # the empty tree is still usable
    assert tree.search_eq(("a",)) == [(0, 0)]


def test_bulk_load_keeps_duplicates_on_non_unique():
    tree = make(order=4)
    pairs = [(encode_key(("a",)), (0, i)) for i in range(5)]
    pairs += [(encode_key(("b",)), (1, 0))]
    tree.bulk_load(pairs)
    assert sorted(tree.search_eq(("a",))) == [(0, i) for i in range(5)]
    assert tree.search_eq(("b",)) == [(1, 0)]
    assert len(tree) == 6


def test_bulk_load_sorts_out_of_order_input():
    """The build SORTS its input rather than requiring pre-sorted pairs
    (the chosen contract — callers hand it raw (key, rid) mixes); feed
    it reversed input and assert full ordering."""
    tree = make(order=4)
    keys = [f"k{i:03d}" for i in range(100)]
    pairs = [(encode_key((k,)), (i, 0)) for i, k in enumerate(keys)]
    pairs.reverse()
    tree.bulk_load(pairs)
    scanned = [k for k, _ in tree.scan_range(None, True, None, True)]
    assert scanned == sorted(encode_key((k,)) for k in keys)
    assert tree.nlevels > 1


def test_bulk_load_differential_against_per_row():
    """10k random keys (with duplicates): the bottom-up build must be
    observationally identical to per-row inserts."""
    import random
    rng = random.Random(7)
    keys = [rng.randrange(100_000) for _ in range(10_000)]
    per_row = make(order=64)
    for i, k in enumerate(keys):
        per_row.insert((k,), (i, 0))
    bulk = make(order=64)
    bulk.bulk_load([(encode_key((k,)), (i, 0))
                    for i, k in enumerate(keys)])
    assert len(bulk) == len(per_row) == 10_000
    assert list(bulk.items()) == list(per_row.items())
    for k in rng.sample(keys, 50):
        assert sorted(bulk.search_eq((k,))) == sorted(
            per_row.search_eq((k,)))
    probe = rng.randrange(100_000)
    assert bulk.next_key_after(encode_key((probe,))) == \
        per_row.next_key_after(encode_key((probe,)))


def test_bulk_load_replaces_prior_contents():
    tree = make()
    tree.insert(("old",), (9, 9))
    tree.bulk_load([(encode_key(("new",)), (0, 0))])
    assert tree.search_eq(("old",)) == []
    assert tree.search_eq(("new",)) == [(0, 0)]
    assert len(tree) == 1


# ------------------------------------------------------------- bounded scans

#: Few distinct values per column, NULLs and mixed int/str: long runs of
#: equal keys and prefixes, which at order 4-5 span several leaves.
column_value = st.sampled_from([None, 0, 1, 2, "a", "b"])
two_column_key = st.tuples(column_value, column_value)
prefix_bound = st.one_of(
    st.none(),
    st.tuples(st.lists(column_value, min_size=1, max_size=2).map(tuple),
              st.booleans()))


def _in_bounds(ekey, lo, hi) -> bool:
    """The reference: bounds compare with the same-length key prefix."""
    if lo is not None:
        elo, inclusive = encode_key(lo[0]), lo[1]
        prefix = ekey[:len(elo)]
        if prefix < elo or (prefix == elo and not inclusive):
            return False
    if hi is not None:
        ehi, inclusive = encode_key(hi[0]), hi[1]
        prefix = ekey[:len(ehi)]
        if prefix > ehi or (prefix == ehi and not inclusive):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(keys=st.lists(two_column_key, min_size=1, max_size=120),
       deletes=st.lists(st.integers(min_value=0, max_value=119),
                        max_size=40),
       order=st.integers(min_value=4, max_value=5),
       bounds=st.lists(st.tuples(prefix_bound, prefix_bound), min_size=1,
                       max_size=8))
def test_property_bounded_scans_match_sorted_reference(keys, deletes, order,
                                                       bounds):
    tree = BTree("idx", "t", ("a", "b"), unique=False, order=order)
    model = {}
    for i, key in enumerate(keys):
        tree.insert(key, (i, 0))
        model[(i, 0)] = key
    for i in deletes:
        if (i, 0) in model:       # deletes leave sparse and empty leaves
            assert tree.delete(model.pop((i, 0)), (i, 0)) is True
    reference = sorted((encode_key(key), rid) for rid, key in model.items())

    assert list(tree.scan_range(None, True, None, True)) == reference
    for lo, hi in bounds:
        expected = [entry for entry in reference
                    if _in_bounds(entry[0], lo, hi)]
        actual = list(tree.scan_range(lo and lo[0], bool(lo and lo[1]),
                                      hi and hi[0], bool(hi and hi[1])))
        assert actual == expected, (lo, hi)
        for bound in (lo, hi):
            if bound is None:
                continue
            values = bound[0]
            ebound = encode_key(values)
            after = [k for k, _ in reference if k[:len(ebound)] > ebound]
            assert tree.next_key_after(values) == (
                after[0] if after else INFINITY_KEY)
    for key in set(keys):
        assert tree.search_eq(key) == [rid for ekey, rid in reference
                                       if ekey == encode_key(key)]


def test_unique_index_sees_duplicate_in_next_leaf():
    """Separators are full (key, rid) entries and a key probe sorts below
    every entry with that key, so a probe equal to a separator's key
    descends left: its only equal entry is the first one of the next
    leaf."""
    tree = BTree("idx", "t", ("a", "b"), unique=True, order=4)
    for i in range(5):
        tree.insert((i, "x"), (i, 0))
    assert tree.nlevels == 2
    first_of_right = tree._root.children[1].entries[0]
    assert tree._root.keys == [first_of_right]
    assert tree.contains((2, "x")) and not tree.contains((2, "y"))
    with pytest.raises(DuplicateKeyError):
        tree.insert((2, "x"), (9, 0))
    assert len(tree) == 5


def _leaves_and_bounds(node, lo=None, hi=None):
    """Yield each leaf with the separator bounds its parents give it."""
    if not hasattr(node, "keys"):
        yield node, lo, hi
        return
    bounds = [lo] + node.keys + [hi]
    for i, child in enumerate(node.children):
        yield from _leaves_and_bounds(child, bounds[i], bounds[i + 1])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=160),
       st.randoms(use_true_random=False),
       st.integers(min_value=4, max_value=6))
def test_property_deletes_among_duplicates_spread_over_many_leaves(
        values, rng, order):
    """Few distinct keys, so each key's duplicates span many leaves; a
    delete descends by the full (key, rid) entry straight to its leaf."""
    tree = BTree("idx", "t", ("k",), unique=False, order=order)
    model = {}
    rids = list(range(len(values)))
    rng.shuffle(rids)
    for slot in rids:
        tree.insert((values[slot],), (slot, 0))
        model[(slot, 0)] = values[slot]
    doomed = list(model)
    rng.shuffle(doomed)
    for rid in doomed[:rng.randrange(len(doomed) + 1)]:
        value = model.pop(rid)
        assert tree.delete((value,), (rid[0] + 1000, 0)) is False  # absent
        assert tree.delete((value,), rid) is True
        assert tree.delete((value,), rid) is False                 # gone
    reference = sorted((encode_key((v,)), rid) for rid, v in model.items())
    assert list(tree.items()) == reference
    assert len(tree) == len(reference)
    # Every leaf entry lies within its parents' separators.
    for leaf, lo, hi in _leaves_and_bounds(tree._root):
        for entry in leaf.entries:
            assert lo is None or lo <= entry
            assert hi is None or entry < hi
    for value in range(4):
        expected = [rid for ekey, rid in reference
                    if ekey == encode_key((value,))]
        assert tree.search_eq((value,)) == expected
        assert tree.contains((value,)) == bool(expected)


@settings(max_examples=60, deadline=None)
@given(st.sets(two_column_key, min_size=1, max_size=36),
       st.integers(min_value=4, max_value=5))
def test_property_unique_index_rejects_every_duplicate(keys, order):
    tree = BTree("idx", "t", ("a", "b"), unique=True, order=order)
    keys = list(keys)
    for i, key in enumerate(keys):
        tree.insert(key, (i, 0))
    for key in keys:
        with pytest.raises(DuplicateKeyError):
            tree.insert(key, (99, 0))
    assert len(tree) == len(keys)
