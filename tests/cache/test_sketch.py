"""FrequencySketch unit tests: counting, saturation, aging, determinism,
a differential test against the list-of-lists implementation it
replaced, and the hot path's call budget."""

from __future__ import annotations

import zlib
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.sketch import _SALTS, FrequencySketch
from tests.conftest import count_calls


def test_estimate_tracks_adds():
    sketch = FrequencySketch(width=256)
    assert sketch.estimate(b"a") == 0
    for _ in range(5):
        sketch.add(b"a")
    assert sketch.estimate(b"a") == 5
    assert sketch.estimate(b"never-seen") == 0


def test_counters_saturate_at_max_count():
    sketch = FrequencySketch(width=256, max_count=15)
    for _ in range(100):
        sketch.add(b"hot")
    assert sketch.estimate(b"hot") == 15


def test_aging_halves_counts():
    # sample_size = width * factor = 16: the 16th counted add triggers
    # an aging pass that halves every counter.
    sketch = FrequencySketch(width=8, depth=1, sample_factor=2)
    for _ in range(10):
        sketch.add(b"a")
    assert sketch.estimate(b"a") == 10
    for _ in range(6):
        sketch.add(b"b")
    assert sketch.estimate(b"a") == 5
    assert sketch.size == sketch.sample_size // 2


def test_estimate_never_underestimates_single_key():
    sketch = FrequencySketch(width=1024)
    keys = [b"k%d" % i for i in range(50)]
    for key in keys:
        for _ in range(3):
            sketch.add(key)
    # Count-min may overestimate on collisions but never undercount.
    for key in keys:
        assert sketch.estimate(key) >= 3


def test_deterministic_across_instances():
    a, b = FrequencySketch(width=128), FrequencySketch(width=128)
    for key in (b"x", b"y", b"x", b"z", b"x", b"y"):
        a.add(key)
        b.add(key)
    for key in (b"x", b"y", b"z", b"w"):
        assert a.estimate(key) == b.estimate(key)


@pytest.mark.parametrize("width", [0, 1, 3, 100])
def test_width_must_be_power_of_two(width):
    with pytest.raises(ValueError):
        FrequencySketch(width=width)


def test_depth_bounds():
    with pytest.raises(ValueError):
        FrequencySketch(depth=0)
    with pytest.raises(ValueError):
        FrequencySketch(depth=5)


def test_max_count_must_fit_a_byte():
    FrequencySketch(max_count=255)
    with pytest.raises(ValueError, match="255"):
        FrequencySketch(max_count=256)
    with pytest.raises(ValueError):
        FrequencySketch(max_count=0)


class _ListOfListsSketch:
    """The implementation the flat byte table replaced, kept as the
    oracle: one Python list per row, indexes and minimum through
    comprehensions, aging one counter at a time."""

    def __init__(self, width, depth, max_count, sample_factor):
        self.depth = depth
        self.max_count = max_count
        self.sample_size = width * sample_factor
        self.size = 0
        self._mask = width - 1
        self.rows: List[List[int]] = [[0] * width for _ in range(depth)]

    def _indexes(self, key):
        mask = self._mask
        return [zlib.crc32(key, _SALTS[row]) & mask for row in range(self.depth)]

    def add(self, key):
        idxs = self._indexes(key)
        rows = self.rows
        current = min(rows[r][i] for r, i in enumerate(idxs))
        if current >= self.max_count:
            return
        for r, i in enumerate(idxs):
            if rows[r][i] == current:
                rows[r][i] = current + 1
        self.size += 1
        if self.size >= self.sample_size:
            self._age()

    def estimate(self, key):
        rows = self.rows
        return min(rows[r][i] for r, i in enumerate(self._indexes(key)))

    def _age(self):
        for row in self.rows:
            for i, value in enumerate(row):
                if value:
                    row[i] = value >> 1
        self.size >>= 1


_POOL = [b"key-%d" % i for i in range(24)]


@settings(max_examples=150, deadline=None)
@given(
    width=st.sampled_from([2, 4, 8, 16, 32, 64]),
    depth=st.integers(min_value=1, max_value=4),
    max_count=st.sampled_from([1, 3, 15, 255]),
    sample_factor=st.integers(min_value=1, max_value=3),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=len(_POOL) - 1)),
        max_size=300,
    ),
)
def test_flat_table_matches_list_of_lists(width, depth, max_count, sample_factor, steps):
    """Same salts, same indexes, same aging points: every estimate and
    ``size`` agree after every step, and ``add`` returns what a
    following ``estimate`` reads — also on the step that ages."""
    new = FrequencySketch(width, depth, max_count, sample_factor)
    old = _ListOfListsSketch(width, depth, max_count, sample_factor)
    for is_add, k in steps:
        key = _POOL[k]
        if is_add:
            old.add(key)
            assert new.add(key) == new.estimate(key)
        else:
            assert new.estimate(key) == old.estimate(key)
        assert new.size == old.size
        assert [new.estimate(p) for p in _POOL] == [old.estimate(p) for p in _POOL]
    # Row r of the old sketch is the flat table's slice at r * width.
    assert bytes(new._table) == bytes(c for row in old.rows for c in row)


def test_add_return_on_the_aging_step():
    sketch = FrequencySketch(width=2, depth=2, sample_factor=2)  # ages every 4th add
    returned = [sketch.add(b"a") for _ in range(4)]
    assert returned == [1, 2, 3, 2]  # the 4th add bumps to 4, then halves
    assert sketch.estimate(b"a") == 2 and sketch.size == 2


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_call_budget(depth):
    """One frame, one crc32 and one len at every depth — no helper,
    comprehension, generator or ``min`` on the path every read takes
    three times.  The first key of a length also computes that
    length's row deltas, once.  (1 + depth while every row took a
    crc32 of its own.)"""
    sketch = FrequencySketch(width=64, depth=depth)
    sketch.estimate(b"j")  # the deltas of one-byte keys
    assert count_calls(sketch.add, b"k") <= 3
    assert count_calls(sketch.estimate, b"k") <= 3


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=64),
    width=st.sampled_from([2, 64, 1024, 4096]),
    depth=st.integers(min_value=1, max_value=4),
)
def test_row_slots_equal_salted_crc32(key, width, depth):
    """Every row's slot is the salted-crc32 form: ``crc32(key) ^ delta``
    under the mask is ``crc32(key, salt)`` under the mask, with the
    delta taken from the key's length alone."""
    sketch = FrequencySketch(width=width, depth=depth)
    sketch.add(key)
    want = [r * width + (zlib.crc32(key, _SALTS[r]) & (width - 1)) for r in range(depth)]
    assert [i for i, count in enumerate(sketch._table) if count] == sorted(set(want))
