import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.lsm.bloom import BloomFilter


def test_no_false_negatives():
    bf = BloomFilter(expected=100)
    keys = [b"key-%d" % i for i in range(100)]
    for k in keys:
        bf.add(k)
    assert all(bf.might_contain(k) for k in keys)


def test_false_positive_rate_reasonable():
    bf = BloomFilter(expected=1000, fp_rate=0.01)
    for i in range(1000):
        bf.add(b"in-%d" % i)
    fps = sum(bf.might_contain(b"out-%d" % i) for i in range(5000))
    assert fps / 5000 < 0.05  # target 1%, generous margin


def test_empty_filter_rejects():
    bf = BloomFilter(expected=10)
    assert not bf.might_contain(b"anything")


def test_sizing_scales_with_expected():
    small = BloomFilter(expected=10)
    large = BloomFilter(expected=10_000)
    assert large.bits > small.bits


def test_invalid_fp_rate():
    with pytest.raises(ValueError):
        BloomFilter(10, fp_rate=0.0)
    with pytest.raises(ValueError):
        BloomFilter(10, fp_rate=1.0)


def test_zero_expected_clamped():
    bf = BloomFilter(expected=0)
    bf.add(b"x")
    assert bf.might_contain(b"x")


@settings(max_examples=30, deadline=None)
@given(keys=st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=100))
def test_property_membership(keys):
    bf = BloomFilter(expected=len(keys))
    for k in keys:
        bf.add(k)
    assert all(bf.might_contain(k) for k in keys)
