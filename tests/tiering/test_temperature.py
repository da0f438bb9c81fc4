"""Unit tests for the per-key temperature tracker."""

import pytest

from repro.tiering import TemperatureTracker


def test_untouched_key_is_cold():
    t = TemperatureTracker()
    assert t.frequency(42) == 0
    assert not t.is_recent(42)
    assert not t.is_hot(42)
    assert not t.should_promote(42)


def test_touch_raises_frequency():
    t = TemperatureTracker(hot_threshold=3)
    for _ in range(3):
        t.touch(7)
    assert t.frequency(7) >= 3
    assert t.is_hot(7)


def test_recency_protects_single_touch():
    t = TemperatureTracker(hot_threshold=5, recency_window=10)
    t.touch(7)
    assert t.is_recent(7)
    assert t.is_hot(7)  # recent, despite frequency 1 < 5
    assert not t.is_hot(7, pressure=True)  # pressure drops the grace


def test_recency_expires_after_window():
    t = TemperatureTracker(hot_threshold=5, recency_window=3)
    t.touch(7)
    for other in range(100, 104):
        t.touch(other)
    assert not t.is_recent(7)
    assert not t.is_hot(7)


def test_forget_clears_recency_stamp():
    t = TemperatureTracker(hot_threshold=5, recency_window=1000)
    t.touch(7)
    t.forget(7)
    assert not t.is_recent(7)


def test_promote_threshold_independent_of_hot():
    t = TemperatureTracker(hot_threshold=10, promote_threshold=2)
    t.touch(7)
    t.touch(7)
    assert t.should_promote(7)
    assert t.frequency(7) < 10


def test_crash_clears_all_state():
    from repro.core.prism import Prism
    from tests.conftest import small_prism_config

    store = Prism(small_prism_config(enable_tiering=True))
    old = store.tiering.tracker
    for _ in range(5):
        old.touch(7)
    store.tiering.enqueue_promotion(7, 0, b"v")
    store.crash()
    store.recover()
    t = store.tiering.tracker
    assert t is not old
    assert t.frequency(7) == 0
    assert not t.is_recent(7)
    assert not store.tiering.has_pending()


def test_keys_do_not_alias_trivially():
    t = TemperatureTracker()
    for _ in range(4):
        t.touch(1)
    # A count-min sketch can over-estimate, never under-estimate, and
    # distinct keys should not inherit each other's counts here.
    assert t.frequency(1) >= 4
    assert t.frequency(2) < 4


def test_validation():
    with pytest.raises(ValueError):
        TemperatureTracker(hot_threshold=0)
    with pytest.raises(ValueError):
        TemperatureTracker(promote_threshold=0)
    with pytest.raises(ValueError):
        TemperatureTracker(recency_window=-1)
