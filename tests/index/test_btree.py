import pytest

from repro.index.btree import BTree


@pytest.fixture
def tree():
    return BTree(order=8)


class TestBasics:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.get(b"missing") is None
        assert b"missing" not in tree

    def test_insert_get(self, tree):
        assert tree.insert(b"k", 1)
        assert tree.get(b"k") == 1
        assert b"k" in tree

    def test_overwrite_returns_false(self, tree):
        tree.insert(b"k", 1)
        assert not tree.insert(b"k", 2)
        assert tree.get(b"k") == 2
        assert len(tree) == 1

    def test_default_value(self, tree):
        assert tree.get(b"x", default="d") == "d"

    def test_delete(self, tree):
        tree.insert(b"k", 1)
        assert tree.delete(b"k")
        assert not tree.delete(b"k")
        assert tree.get(b"k") is None
        assert len(tree) == 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BTree(order=2)


class TestSplitsAndOrder:
    def test_many_inserts_stay_sorted(self, tree):
        keys = [f"k{i:04d}".encode() for i in range(500)]
        import random

        shuffled = keys[:]
        random.Random(7).shuffle(shuffled)
        for i, k in enumerate(shuffled):
            tree.insert(k, i)
        assert [k for k, _ in tree.items_from(b"")] == keys
        assert tree.height > 1

    def test_items_from_mid(self, tree):
        for i in range(100):
            tree.insert(f"k{i:03d}".encode(), i)
        got = [k for k, _ in tree.items_from(b"k050")]
        assert got[0] == b"k050"
        assert len(got) == 50

    def test_items_from_between_keys(self, tree):
        tree.insert(b"a", 1)
        tree.insert(b"c", 2)
        assert [k for k, _ in tree.items_from(b"b")] == [b"c"]


class TestFloor:
    def test_floor_exact(self, tree):
        tree.insert(b"b", 2)
        assert tree.floor_item(b"b") == (b"b", 2)

    def test_floor_between(self, tree):
        tree.insert(b"a", 1)
        tree.insert(b"c", 3)
        assert tree.floor_item(b"b") == (b"a", 1)

    def test_floor_below_minimum(self, tree):
        tree.insert(b"m", 1)
        assert tree.floor_item(b"a") is None

    def test_floor_above_maximum(self, tree):
        for i in range(100):
            tree.insert(f"k{i:03d}".encode(), i)
        assert tree.floor_item(b"zzz") == (b"k099", 99)

    def test_floor_after_deletes(self, tree):
        for i in range(64):
            tree.insert(f"k{i:02d}".encode(), i)
        for i in range(32, 64):
            tree.delete(f"k{i:02d}".encode())
        assert tree.floor_item(b"k99") == (b"k31", 31)
