"""Property-based checks: BTree behaves like a sorted dict."""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.index.btree import BTree

keys = st.binary(min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(entries=st.dictionaries(keys, st.integers(), max_size=300))
def test_matches_dict_after_bulk_insert(entries):
    tree = BTree(order=8)
    for k, v in entries.items():
        tree.insert(k, v)
    assert len(tree) == len(entries)
    assert list(tree.items_from(b"")) == sorted(entries.items())
    for k, v in entries.items():
        assert tree.get(k) == v


@settings(max_examples=60, deadline=None)
@given(
    entries=st.dictionaries(keys, st.integers(), min_size=1, max_size=200),
    start=keys,
)
def test_items_from_matches_model(entries, start):
    tree = BTree(order=8)
    for k, v in entries.items():
        tree.insert(k, v)
    expected = [(k, v) for k, v in sorted(entries.items()) if k >= start]
    assert list(tree.items_from(start)) == expected


@settings(max_examples=60, deadline=None)
@given(
    entries=st.dictionaries(keys, st.integers(), min_size=1, max_size=200),
    probe=keys,
)
def test_floor_matches_model(entries, probe):
    tree = BTree(order=8)
    for k, v in entries.items():
        tree.insert(k, v)
    candidates = [k for k in sorted(entries) if k <= probe]
    expected = (candidates[-1], entries[candidates[-1]]) if candidates else None
    assert tree.floor_item(probe) == expected


class BTreeMachine(RuleBasedStateMachine):
    """Interleaved inserts/deletes/overwrites vs a dict model."""

    def __init__(self):
        super().__init__()
        self.tree = BTree(order=8)
        self.model = {}

    @rule(key=keys, value=st.integers())
    def insert(self, key, value):
        was_new = self.tree.insert(key, value)
        assert was_new == (key not in self.model)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys)
    def lookup(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @invariant()
    def size_matches(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def iteration_sorted(self):
        assert list(self.tree.items_from(b"")) == sorted(self.model.items())


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(max_examples=30, stateful_step_count=40, deadline=None)
