"""Read cache wired into Prism: hits, coherence, crash, stats gating."""

from __future__ import annotations

from repro.core.prism import Prism
from repro.sim.vthread import VThread
from tests.conftest import KB, MB, small_prism_config


def cached_prism(**overrides) -> Prism:
    overrides.setdefault("enable_read_cache", True)
    overrides.setdefault("read_cache_capacity", 1 * MB)
    return Prism(small_prism_config(**overrides))


def test_second_get_is_a_cache_hit():
    store = cached_prism()
    rc = store.read_cache
    store.put(b"k", b"v" * 100)
    assert store.get(b"k") == b"v" * 100  # miss; fills the cache
    assert rc.misses >= 1 and b"k" in rc
    hits_before = rc.hits
    assert store.get(b"k") == b"v" * 100
    assert rc.hits == hits_before + 1


def test_cache_hit_is_faster_than_the_miss():
    store = cached_prism()
    thread = VThread(0, store.clock)
    store.put(b"k", b"v" * KB, thread)
    t0 = thread.now
    store.get(b"k", thread)
    miss_cost = thread.now - t0
    t0 = thread.now
    store.get(b"k", thread)
    hit_cost = thread.now - t0
    assert hit_cost < miss_cost


def test_put_invalidates_cached_value():
    store = cached_prism()
    store.put(b"k", b"old")
    store.get(b"k")
    assert b"k" in store.read_cache
    inval_before = store.read_cache.invalidations
    store.put(b"k", b"new")
    assert b"k" not in store.read_cache
    assert store.read_cache.invalidations == inval_before + 1
    # The next read must see the new value, never the cached old one.
    assert store.get(b"k") == b"new"


def test_delete_invalidates_cached_value():
    store = cached_prism()
    store.put(b"k", b"v")
    store.get(b"k")
    assert b"k" in store.read_cache
    assert store.delete(b"k")
    assert b"k" not in store.read_cache
    assert store.get(b"k") is None


def test_gc_relocation_invalidates_cached_values():
    # Tiny Value Storage so overwrite churn forces GC; set A is
    # overwritten (creating garbage), set B is only ever read and
    # cached.  Any invalidation of a B key must come from the GC
    # relocation publish, since no put ever supersedes B.  A and B are
    # interleaved at load time so every chunk mixes churned A slots
    # with long-lived B slots — chunks stay half-live (a fully dead
    # chunk self-releases without GC) and the collector has to *move*
    # the B records to free space.
    store = cached_prism(
        num_ssds=1,
        ssd_spec=small_prism_config().ssd_spec.with_capacity(256 * KB),
        chunk_size=32 * KB,
        pwb_capacity=32 * KB,
        gc_free_threshold=0.6,
        read_cache_capacity=1 * MB,
    )
    value = b"x" * KB
    a_keys = [b"a%03d" % i for i in range(40)]
    b_keys = [b"b%03d" % i for i in range(40)]
    for a_key, b_key in zip(a_keys, b_keys):
        store.put(a_key, value)
        store.put(b_key, value)
    store.flush()  # drain PWBs so every record lives in Value Storage
    for key in b_keys:
        store.get(key)
    cached_b = [key for key in b_keys if key in store.read_cache]
    assert cached_b, "B set should be cache-resident before the churn"
    # Only GC rounds *after* B is cache-resident count: the load phase
    # itself may already have collected (those moves predate the cache
    # fill and cannot evict anything).
    baseline = len(store.events.of_kind("gc"))
    rounds = 0
    while not any(
        e["moved_records"] for e in store.events.of_kind("gc")[baseline:]
    ):
        rounds += 1
        assert rounds < 50, "GC with live moves never triggered"
        for key in a_keys:
            store.put(key, value)
        store.flush()
    # GC moved live records; every B record it relocated was dropped
    # from the cache at publish time.
    assert any(key not in store.read_cache for key in cached_b)
    # Correctness: reads after relocation serve the right bytes.
    for key in b_keys:
        assert store.get(key) == value


def test_crash_drops_cache_and_recover_serves_correctly():
    store = cached_prism()
    store.put(b"k", b"v" * 100)
    store.get(b"k")
    assert len(store.read_cache) > 0
    store.crash()
    store.recover()
    assert len(store.read_cache) == 0
    assert store.get(b"k") == b"v" * 100


def test_stats_keys_gated_on_cache_presence():
    plain = Prism(small_prism_config())
    cached = cached_prism()
    assert not any(k.startswith("rc_") for k in plain.stats())
    rc_keys = {k for k in cached.stats() if k.startswith("rc_")}
    assert "rc_hits" in rc_keys and "rc_hit_ratio" in rc_keys


def test_cache_off_store_has_no_cache():
    store = Prism(small_prism_config())
    assert store.read_cache is None
