"""ReadCache unit tests: eviction, admission control, invalidation."""

from __future__ import annotations

import pytest

from repro.cache.read_cache import ReadCache
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.dram import DRAMDevice


@pytest.fixture
def thread():
    return VThread(0, VirtualClock())


def make_cache(capacity=4096, **kwargs) -> ReadCache:
    return ReadCache(DRAMDevice(), capacity, **kwargs)


def warm(cache: ReadCache, key: bytes, idx: int, value: bytes, thread, touches=3):
    """Admit ``key`` and look it up a few times so it earns sketch mass."""
    for _ in range(touches):
        cache.lookup(key, thread)
    assert cache.admit(key, idx, value, thread)


def test_hit_returns_value_and_charges_dram(thread):
    cache = make_cache()
    cache.lookup(b"k", thread)  # miss feeds the sketch
    assert cache.admit(b"k", 7, b"v" * 100, thread)
    before = thread.now
    assert cache.lookup(b"k", thread) == b"v" * 100
    assert thread.now > before  # DRAM read advanced virtual time
    assert cache.hits == 1 and cache.misses == 1


def test_capacity_eviction_lru_order(thread):
    cache = make_cache(capacity=300)
    # Three 100-byte entries fill the cache; "a" is oldest.
    for i, key in enumerate((b"a", b"b", b"c")):
        warm(cache, key, i, b"x" * 100, thread, touches=1)
    assert cache.used == 300
    # Touch "a" so "b" becomes the LRU victim.
    cache.lookup(b"a", thread)
    # A hotter newcomer displaces exactly one victim: the LRU "b".
    for _ in range(5):
        cache.lookup(b"d", thread)
    assert cache.admit(b"d", 3, b"x" * 100, thread)
    assert b"b" not in cache
    assert b"a" in cache and b"c" in cache and b"d" in cache
    assert cache.evictions == 1
    assert cache.used == 300


def test_admission_rejects_one_hit_wonder(thread):
    cache = make_cache(capacity=200)
    for i, key in enumerate((b"res1", b"res2")):
        warm(cache, key, i, b"x" * 100, thread, touches=4)
    # A key seen once (this single miss) ties/loses against residents
    # with frequency 4 — the cache keeps its established entries.
    cache.lookup(b"wonder", thread)
    assert not cache.admit(b"wonder", 9, b"x" * 100, thread)
    assert b"wonder" not in cache
    assert b"res1" in cache and b"res2" in cache
    assert cache.rejections == 1
    assert cache.evictions == 0


def test_admission_tie_keeps_resident(thread):
    cache = make_cache(capacity=100)
    warm(cache, b"res", 1, b"x" * 100, thread, touches=3)
    for _ in range(3):
        cache.lookup(b"cand", thread)
    # Equal frequency: the resident wins.
    assert not cache.admit(b"cand", 2, b"x" * 100, thread)
    assert b"res" in cache


def test_oversized_value_rejected(thread):
    cache = make_cache(capacity=100)
    assert not cache.admit(b"big", 1, b"x" * 101, thread)
    assert cache.rejections == 1
    assert len(cache) == 0


def test_invalidate_by_key_and_idx(thread):
    cache = make_cache()
    warm(cache, b"k", 42, b"v", thread, touches=1)
    assert cache.invalidate_idx(42)
    assert b"k" not in cache
    assert cache.used == 0
    assert cache.invalidations == 1
    # Idempotent: the mapping is gone too.
    assert not cache.invalidate_idx(42)
    assert not cache.invalidate(b"k")


def test_readmission_after_invalidation_remaps_idx(thread):
    cache = make_cache()
    warm(cache, b"k", 1, b"old", thread, touches=2)
    cache.invalidate_idx(1)
    cache.lookup(b"k", thread)
    assert cache.admit(b"k", 8, b"new", thread)
    # The stale idx no longer resolves; the new one does.
    assert not cache.invalidate_idx(1)
    assert cache.lookup(b"k", thread) == b"new"
    assert cache.invalidate_idx(8)


def test_refresh_in_place_adjusts_used_bytes(thread):
    cache = make_cache(capacity=1000)
    warm(cache, b"k", 1, b"x" * 100, thread, touches=1)
    assert cache.admit(b"k", 1, b"y" * 300, thread)
    assert cache.used == 300
    assert cache.lookup(b"k", thread) == b"y" * 300


def test_crash_clears_everything(thread):
    from repro.core.prism import Prism
    from tests.conftest import small_prism_config

    store = Prism(small_prism_config(enable_read_cache=True))
    store.put(b"k", b"v", thread)
    for _ in range(3):
        store.get(b"k", thread)
    old = store.read_cache
    assert len(old) == 1 and old.sketch.estimate(b"k") > 0
    store.crash()
    store.recover()
    cache = store.read_cache
    assert cache is not old
    assert len(cache) == 0
    assert cache.used == 0
    # The admission sketch lives in the same DRAM: popularity learned
    # before the power failure must not steer admission after it.
    assert cache.sketch.estimate(b"k") == 0
    assert cache.sketch.size == 0 and cache.sketch.width == old.sketch.width
    assert cache.lookup(b"k", thread) is None


def test_stats_shape():
    cache = make_cache()
    stats = cache.stats()
    assert set(stats) == {
        "rc_hits", "rc_misses", "rc_hit_ratio", "rc_admissions",
        "rc_rejections", "rc_evictions", "rc_invalidations",
        "rc_used_bytes", "rc_entries",
    }
    assert all(isinstance(v, float) for v in stats.values())


def test_capacity_validation():
    with pytest.raises(ValueError):
        make_cache(capacity=0)
