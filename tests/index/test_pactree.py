import random

import pytest
from hypothesis import given, settings, strategies as st

from bisect import bisect_left

from repro.index.pactree import PACTree
from repro.sim.vthread import VThread
from repro.storage.nvm import NVMDevice, PersistentHeap
from tests.conftest import count_calls


@pytest.fixture
def tree(nvm):
    return PACTree(PersistentHeap(nvm), leaf_capacity=8)


def restarted(tree):
    """Power failure, then a new tree attached to the same heap."""
    tree.heap.crash()
    fresh = PACTree(tree.heap, leaf_capacity=tree.leaf_capacity)
    fresh.recover()
    return fresh


class TestBasics:
    def test_empty_lookup(self, tree):
        assert tree.lookup(b"nope") is None
        assert len(tree) == 0

    def test_insert_lookup(self, tree):
        assert tree.insert(b"key", 7)
        assert tree.lookup(b"key") == 7
        assert len(tree) == 1

    def test_overwrite(self, tree):
        tree.insert(b"key", 1)
        assert not tree.insert(b"key", 2)
        assert tree.lookup(b"key") == 2
        assert len(tree) == 1

    def test_delete(self, tree):
        tree.insert(b"key", 1)
        assert tree.delete(b"key")
        assert not tree.delete(b"key")
        assert tree.lookup(b"key") is None

    def test_leaf_capacity_validation(self, nvm):
        with pytest.raises(ValueError):
            PACTree(PersistentHeap(nvm), leaf_capacity=2)


class TestSplitsAndScan:
    def test_splits_preserve_order(self, tree):
        keys = [f"k{i:04d}".encode() for i in range(300)]
        shuffled = keys[:]
        random.Random(3).shuffle(shuffled)
        for i, k in enumerate(shuffled):
            tree.insert(k, i)
        assert tree.splits > 0
        assert [k for k, _ in tree.items()] == keys

    def test_scan_from_start(self, tree):
        for i in range(100):
            tree.insert(f"k{i:03d}".encode(), i)
        got = tree.scan(b"k050", 10)
        assert [s for _, s in got] == list(range(50, 60))

    def test_scan_past_end(self, tree):
        tree.insert(b"a", 1)
        assert tree.scan(b"z", 5) == []

    def test_scan_zero_count(self, tree):
        tree.insert(b"a", 1)
        assert tree.scan(b"a", 0) == []

    def test_scan_spans_leaves(self, tree):
        for i in range(64):
            tree.insert(f"k{i:02d}".encode(), i)
        got = tree.scan(b"k00", 64)
        assert len(got) == 64

    def test_timed_operations_advance_thread(self, tree, thread):
        tree.insert(b"k", 1, thread)
        assert thread.now > 0
        before = thread.now
        tree.lookup(b"k", thread)
        assert thread.now > before


class TestCrashRecovery:
    def test_committed_inserts_survive(self, tree):
        for i in range(100):
            tree.insert(f"k{i:03d}".encode(), i)
        used = tree.heap.device.used
        tree = restarted(tree)
        assert len(tree) == 100
        assert tree.heap.device.used == used  # attaching allocates nothing
        for i in range(100):
            assert tree.lookup(f"k{i:03d}".encode()) == i

    def test_search_layer_rebuilt(self, tree):
        for i in range(200):
            tree.insert(f"k{i:03d}".encode(), i)
        tree = restarted(tree)
        assert tree.scan(b"k100", 5) == [
            (f"k{i:03d}".encode(), i) for i in range(100, 105)
        ]

    def test_deletes_survive(self, tree):
        for i in range(50):
            tree.insert(f"k{i:02d}".encode(), i)
        tree.delete(b"k25")
        tree = restarted(tree)
        assert tree.lookup(b"k25") is None
        assert tree.lookup(b"k24") == 24

    def test_nvm_footprint_grows_with_leaves(self, tree):
        before = tree.nvm_bytes()
        for i in range(200):
            tree.insert(f"k{i:03d}".encode(), i)
        assert tree.nvm_bytes() > before


@settings(max_examples=30, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=10), st.integers(min_value=0, max_value=2**40),
        min_size=1, max_size=150,
    )
)
def test_property_matches_dict_and_survives_crash(entries):
    tree = PACTree(PersistentHeap(NVMDevice()), leaf_capacity=8)
    for k, v in entries.items():
        tree.insert(k, v)
    assert list(tree.items()) == sorted(entries.items())
    tree = restarted(tree)
    assert list(tree.items()) == sorted(entries.items())


# ---------------------------------------------------------------------------
# scan: one slice pair per leaf
# ---------------------------------------------------------------------------
def _scan_per_key(tree, start, count, thread):
    """``PACTree.scan`` as it was, one append and one ``len`` per key:
    the oracle for results and for where the next leaf is charged."""
    if count <= 0:
        return []
    handle, leaf = tree._locate(thread, start)
    out = []
    idx = bisect_left(leaf.keys, start)
    while len(out) < count:
        for i in range(idx, len(leaf.keys)):
            out.append((leaf.keys[i], leaf.slots[i]))
            if len(out) == count:
                return out
        if not leaf.next_handle:
            break
        handle = leaf.next_handle
        leaf = tree.heap.get(handle)
        tree.heap.charge_read(thread, handle)
        idx = 0
    return out


def _filled(leaf_capacity, keys):
    tree = PACTree(PersistentHeap(NVMDevice()), leaf_capacity=leaf_capacity)
    for i in range(keys):
        tree.insert(b"k%05d" % i, i)
    return tree


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=-1, max_value=130),
    count=st.integers(min_value=0, max_value=140),
)
def test_scan_matches_per_key_walk_and_its_charges(start, count):
    """Same pairs, same NVM bytes read, same thread clock — including
    a count met exactly at a leaf's last key (no next-leaf charge) and a
    range that runs off the end of the chain."""
    tree, ref = _filled(8, 120), _filled(8, 120)
    t, rt = VThread(0), VThread(0)
    key = b"k%05d" % start if start >= 0 else b"a"
    assert tree.scan(key, count, t) == _scan_per_key(ref, key, count, rt)
    assert tree.heap.device.bytes_read == ref.heap.device.bytes_read
    assert repr(t.now) == repr(rt.now)


@pytest.mark.parametrize("leaf_capacity", [8, 64])
def test_scan_call_budget_is_per_leaf(leaf_capacity):
    """12 calls plus 8 per further leaf visited, whatever the leaves
    hold: 8x the keys per leaf costs not one call more."""
    tree = _filled(leaf_capacity, leaf_capacity * 40)
    t = VThread(0)
    start = b"k%05d" % (leaf_capacity * 3)
    for leaves in (0, 3, 9, 19):
        # Leaves are half full after sequential splits.
        count = max(1, leaves * leaf_capacity // 2 + 1)
        visited = []
        charge = tree.heap.charge_read
        tree.heap.charge_read = lambda th, h: visited.append(h) or charge(th, h)
        try:
            assert len(tree.scan(start, count, t)) == count
        finally:
            del tree.heap.charge_read
        assert len(visited) >= leaves
        assert count_calls(tree.scan, start, count, t) <= 12 + 8 * len(visited)
