import random

import pytest

from repro.baselines.kvell import KVell, KVellConfig
from repro.sim.vthread import VThread
from repro.storage.specs import FLASH_SSD_GEN4_SPEC

MB = 1024**2


def small_config(**over):
    defaults = dict(
        num_ssds=2,
        ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB),
        page_cache_bytes=256 * 1024,
    )
    defaults.update(over)
    return KVellConfig(**defaults)


@pytest.fixture
def kv():
    return KVell(small_config())


@pytest.fixture
def t(kv):
    return VThread(0, kv.clock)


class TestBasics:
    def test_put_get(self, kv, t):
        kv.put(b"k", b"v", t)
        assert kv.get(b"k", t) == b"v"

    def test_missing(self, kv, t):
        assert kv.get(b"missing", t) is None

    def test_overwrite_in_place(self, kv, t):
        kv.put(b"k", b"v1", t)
        kv.put(b"k", b"v2", t)
        assert kv.get(b"k", t) == b"v2"

    def test_delete(self, kv, t):
        kv.put(b"k", b"v", t)
        assert kv.delete(b"k", t)
        assert not kv.delete(b"k", t)
        assert kv.get(b"k", t) is None

    def test_size_class_change_reallocates(self, kv, t):
        kv.put(b"k", b"small", t)
        kv.put(b"k", b"x" * 2000, t)
        assert kv.get(b"k", t) == b"x" * 2000
        kv.put(b"k", b"tiny", t)
        assert kv.get(b"k", t) == b"tiny"

    def test_oversized_item_rejected(self, kv, t):
        with pytest.raises(ValueError):
            kv.put(b"k", b"x" * 8000, t)


class TestSharding:
    def test_keys_spread_across_workers(self, kv, t):
        for i in range(200):
            kv.put(b"s%04d" % i, b"v", t)
        populated = sum(1 for w in kv.workers if len(w.index) > 0)
        assert populated == len(kv.workers)

    def test_routing_is_deterministic(self, kv):
        assert kv._route(b"key-1") is kv._route(b"key-1")

    def test_worker_queueing_under_single_hot_key(self, kv):
        """All requests to one key serialize on one worker."""
        from repro.sim.clock import VirtualClock

        threads = [VThread(i, kv.clock) for i in range(4)]
        for _ in range(20):
            for thread in threads:
                kv.put(b"hot", b"v" * 100, thread)
        hot_worker = kv._route(b"hot")
        others = [w for w in kv.workers if w is not hot_worker]
        assert hot_worker.server.busy_time > max(w.server.busy_time for w in others)


class TestPageIO:
    def test_page_granularity_waf(self, kv, t):
        """Updating a 100B value writes a full 4KB page: WAF >> 1."""
        rng = random.Random(1)
        for i in range(300):
            kv.put(b"w%04d" % rng.randrange(300), b"x" * 100, t)
        assert kv.waf() > 5

    def test_cache_hit_avoids_read_io(self, kv, t):
        kv.put(b"k", b"v" * 100, t)
        ios = sum(s.read_ios for s in kv.ssds)
        kv.get(b"k", t)  # page just written -> cached
        assert sum(s.read_ios for s in kv.ssds) == ios

    def test_cold_read_pays_ssd_latency(self, kv):
        writer = VThread(0, kv.clock)
        for i in range(2000):
            kv.put(b"c%05d" % i, b"v" * 1000, writer)
        reader = VThread(1, kv.clock)
        reader.now = writer.now
        before = reader.now
        kv.get(b"c00000", reader)  # long evicted from the small cache
        assert reader.now - before > 40e-6


class TestScan:
    def test_scan_merges_workers_in_order(self, kv, t):
        for i in range(100):
            kv.put(b"r%03d" % i, b"v%03d" % i, t)
        result = kv.scan(b"r010", 20, t)
        assert result == [(b"r%03d" % i, b"v%03d" % i) for i in range(10, 30)]

    def test_scan_count_limit(self, kv, t):
        for i in range(50):
            kv.put(b"s%02d" % i, b"v", t)
        assert len(kv.scan(b"s00", 7, t)) == 7

    def test_scan_empty(self, kv, t):
        assert kv.scan(b"x", 5, t) == []


class TestRecoveryAndStats:
    def test_recovery_scans_used_bytes(self, kv, t):
        for i in range(500):
            kv.put(b"r%04d" % i, b"v" * 1000, t)
        assert kv.recovery_time() > 0
        assert kv.used_bytes() > 0

    def test_stats_keys(self, kv, t):
        kv.put(b"k", b"v", t)
        kv.get(b"k", t)
        stats = kv.stats()
        for key in ("puts", "gets", "cache_hits", "waf", "max_worker_busy"):
            assert key in stats


def test_randomized_model_check():
    kv = KVell(small_config())
    t = VThread(0, kv.clock)
    rng = random.Random(5)
    model = {}
    for step in range(2000):
        key = b"m%03d" % rng.randrange(200)
        op = rng.random()
        if op < 0.6:
            value = bytes([step % 256]) * rng.randrange(1, 900)
            kv.put(key, value, t)
            model[key] = value
        elif op < 0.85:
            assert kv.get(key, t) == model.get(key)
        elif op < 0.95:
            count = rng.randrange(1, 10)
            expected = sorted((k, v) for k, v in model.items() if k >= key)[:count]
            assert kv.scan(key, count, t) == expected
        else:
            assert kv.delete(key, t) == (key in model)
            model.pop(key, None)
    for key, value in model.items():
        assert kv.get(key, t) == value
