import ast
import random
from pathlib import Path

import pytest

import repro.core.prism
from repro.core.checker import audit
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.sim.vthread import VThread
from repro.storage.specs import NVM_SPEC
from tests.conftest import count_calls, small_prism_config


@pytest.fixture
def t(prism):
    return VThread(0, prism.clock)


class TestBasicOperations:
    def test_get_missing(self, prism, t):
        assert prism.get(b"nope", t) is None

    def test_put_get(self, prism, t):
        prism.put(b"k", b"v", t)
        assert prism.get(b"k", t) == b"v"
        assert len(prism) == 1

    def test_update_returns_latest(self, prism, t):
        prism.put(b"k", b"v1", t)
        prism.put(b"k", b"v2", t)
        assert prism.get(b"k", t) == b"v2"
        assert len(prism) == 1

    def test_delete(self, prism, t):
        prism.put(b"k", b"v", t)
        assert prism.delete(b"k", t)
        assert not prism.delete(b"k", t)
        assert prism.get(b"k", t) is None
        assert len(prism) == 0

    def test_reinsert_after_delete(self, prism, t):
        prism.put(b"k", b"v1", t)
        prism.delete(b"k", t)
        prism.put(b"k", b"v2", t)
        assert prism.get(b"k", t) == b"v2"

    def test_key_type_validation(self, prism, t):
        with pytest.raises(TypeError):
            prism.put("str", b"v", t)
        with pytest.raises(TypeError):
            prism.put(b"", b"v", t)
        with pytest.raises(TypeError):
            prism.put(b"k", b"", t)
        with pytest.raises(TypeError):
            prism.get("str", t)

    def test_default_thread(self, prism):
        prism.put(b"k", b"v")
        assert prism.get(b"k") == b"v"

    def test_value_sizes(self, prism, t):
        for size in (1, 100, 4096, 10_000):
            prism.put(b"k%d" % size, b"x" * size, t)
        for size in (1, 100, 4096, 10_000):
            assert prism.get(b"k%d" % size, t) == b"x" * size


class TestScan:
    def test_scan_ordered(self, prism, t):
        for i in (5, 1, 3, 2, 4):
            prism.put(b"k%d" % i, b"v%d" % i, t)
        result = prism.scan(b"k2", 3, t)
        assert result == [(b"k2", b"v2"), (b"k3", b"v3"), (b"k4", b"v4")]

    def test_scan_sees_latest_updates(self, prism, t):
        prism.put(b"a", b"old", t)
        prism.put(b"a", b"new", t)
        assert prism.scan(b"a", 1, t) == [(b"a", b"new")]

    def test_scan_mixed_media(self, prism, t):
        """Values in PWB, SVC and Value Storage in one range."""
        for i in range(60):
            prism.put(b"s%03d" % i, b"v%03d" % i, t)
        prism.flush()  # everything to Value Storage
        prism.scan(b"s000", 20, t)  # caches some in SVC
        for i in range(0, 60, 7):
            prism.put(b"s%03d" % i, b"fresh%03d" % i, t)  # back into PWB
        result = prism.scan(b"s000", 60, t)
        assert len(result) == 60
        for key, value in result:
            i = int(key[1:])
            expected = b"fresh%03d" % i if i % 7 == 0 else b"v%03d" % i
            assert value == expected

    def test_scan_empty_store(self, prism, t):
        assert prism.scan(b"a", 10, t) == []

    def test_scan_excludes_deleted(self, prism, t):
        for i in range(5):
            prism.put(b"d%d" % i, b"v", t)
        prism.delete(b"d2", t)
        keys = [k for k, _ in prism.scan(b"d0", 5, t)]
        assert b"d2" not in keys
        assert len(keys) == 4


class TestDurabilityPipeline:
    def test_values_move_pwb_to_vs_on_flush(self, prism, t):
        prism.put(b"k", b"v", t)
        loc_before = prism.hsit.read_location(prism.index.lookup(b"k"))
        assert loc_before.in_pwb
        prism.flush()
        loc_after = prism.hsit.read_location(prism.index.lookup(b"k"))
        assert loc_after.in_vs
        assert prism.get(b"k", t) == b"v"

    def test_reclamation_triggers_at_watermark(self, prism, t):
        pwb = prism.pwbs[0]
        watermark_bytes = int(pwb.capacity * prism.config.pwb_watermark)
        written = 0
        i = 0
        while written <= watermark_bytes + 4096:
            prism.put(b"w%05d" % i, b"x" * 512, t)
            written += 512 + 16
            i += 1
        assert prism.reclaims >= 1

    def test_reclamation_deduplicates_versions(self, prism, t):
        """Only the latest version of a hot key reaches the SSD."""
        for _ in range(40):
            prism.put(b"hot", b"h" * 512, t)
        prism.flush()
        # 40 x 512B written to PWB, but SSD got one live version (plus
        # chunk metadata): WAF well below 1 for this pattern.
        assert prism.ssd_bytes_written() < 40 * 512 / 2

    def test_pwb_full_falls_back_to_blocking_reclaim(self):
        config = small_prism_config(pwb_capacity=8192, num_threads=1)
        store = Prism(config)
        thread = VThread(0, store.clock)
        for i in range(100):
            store.put(b"b%03d" % i, b"y" * 700, thread)
        for i in range(100):
            assert store.get(b"b%03d" % i, thread) == b"y" * 700

    def test_flush_then_read_from_vs(self, prism, t):
        for i in range(50):
            prism.put(b"f%02d" % i, b"v%02d" % i, t)
        prism.flush()
        for i in range(50):
            assert prism.get(b"f%02d" % i, t) == b"v%02d" % i


class TestSVCIntegration:
    def test_vs_read_populates_cache(self, prism, t):
        prism.put(b"k", b"v", t)
        prism.flush()
        idx = prism.index.lookup(b"k")
        assert prism.hsit.read_svc(idx) is None
        prism.get(b"k", t)
        assert prism.hsit.read_svc(idx) is not None

    def test_second_read_is_cache_hit(self, prism, t):
        prism.put(b"k", b"v", t)
        prism.flush()
        prism.get(b"k", t)
        hits_before = prism.svc.hits
        prism.get(b"k", t)
        assert prism.svc.hits == hits_before + 1

    def test_update_invalidates_cached_copy(self, prism, t):
        prism.put(b"k", b"old", t)
        prism.flush()
        prism.get(b"k", t)  # cache it
        prism.put(b"k", b"new", t)
        assert prism.get(b"k", t) == b"new"

    def test_delete_invalidates_cached_copy(self, prism, t):
        prism.put(b"k", b"v", t)
        prism.flush()
        prism.get(b"k", t)
        prism.delete(b"k", t)
        assert prism.get(b"k", t) is None

    def test_svc_disabled(self):
        store = Prism(small_prism_config(enable_svc=False))
        thread = VThread(0, store.clock)
        store.put(b"k", b"v", thread)
        store.flush()
        assert store.get(b"k", thread) == b"v"
        assert store.svc.admissions == 0


class TestSVCRefill:
    """An update drops a cached copy; the reclaim that moves the new
    value to Value Storage caches it again."""

    def _hot(self, **overrides):
        """A key cached in the SVC, then updated: the new value is in a PWB."""
        store = Prism(small_prism_config(num_threads=1, **overrides))
        t = VThread(0, store.clock)
        store.put(b"k", b"old", t)
        store.flush()
        store.get(b"k", t)
        store.put(b"k", b"new", t)
        return store, t

    def test_update_reclaim_get_hits_the_svc(self):
        store, t = self._hot()
        store.flush()
        reads = sum(ssd.read_ios for ssd in store.ssds)
        hits = store.svc.hits
        assert store.get(b"k", t) == b"new"
        assert store.svc.hits == hits + 1
        assert sum(ssd.read_ios for ssd in store.ssds) == reads
        assert audit(store).ok

    def test_a_refresh_is_not_an_admission(self):
        store, t = self._hot()
        admissions = store.svc.admissions
        store.flush()
        assert store.svc.admissions == admissions
        assert store.stats()["svc_refreshes"] == 1
        assert [e["svc_refreshed"] for e in store.events.of_kind("reclaim")][-1] == 1

    def test_delete_before_the_reclaim_leaves_no_refill(self):
        store, t = self._hot()
        assert store.svc.refills == {store.index.lookup(b"k"): b"k"}
        store.delete(b"k", t)
        assert store.svc.refills == {}
        store.flush()
        assert store.svc.refreshes == 0
        assert audit(store).ok

    def test_crash_and_recover_empty_the_map(self):
        store, t = self._hot()
        assert store.svc.refills
        store.crash()
        store.recover()
        assert store.svc.refills == {}
        assert store.get(b"k", t) == b"new"
        assert audit(store).ok

    def test_no_refill_without_a_pwb(self):
        store, t = self._hot(enable_pwb=False)
        assert store.svc.refills == {}
        assert store.get(b"k", t) == b"new"


class TestAblationModes:
    def test_no_pwb_mode_functional(self):
        store = Prism(small_prism_config(enable_pwb=False))
        thread = VThread(0, store.clock)
        for i in range(30):
            store.put(b"n%02d" % i, b"v%02d" % i, thread)
        for i in range(30):
            assert store.get(b"n%02d" % i, thread) == b"v%02d" % i
        assert store.reclaims == 0

    def test_no_pwb_writes_pay_ssd_latency(self):
        fast = Prism(small_prism_config())
        slow = Prism(small_prism_config(enable_pwb=False))
        t1, t2 = VThread(0, fast.clock), VThread(0, slow.clock)
        fast.put(b"k", b"v" * 100, t1)
        slow.put(b"k", b"v" * 100, t2)
        assert t1.now < t2.now

    def test_sync_read_mode(self):
        store = Prism(small_prism_config(read_batching="sync"))
        thread = VThread(0, store.clock)
        store.put(b"k", b"v", thread)
        store.flush()
        assert store.get(b"k", thread) == b"v"


class TestStats:
    def test_counters(self, prism, t):
        prism.put(b"k", b"v", t)
        prism.get(b"k", t)
        prism.scan(b"k", 1, t)
        prism.delete(b"k", t)
        stats = prism.stats()
        assert stats["puts"] == 1
        assert stats["gets"] == 1
        assert stats["scans"] == 1
        assert stats["deletes"] == 1

    def test_waf_zero_when_nothing_written(self, prism):
        assert prism.waf() == 0.0

    def test_nvm_usage_grows(self, prism, t):
        before = prism.nvm_bytes_used()
        for i in range(100):
            prism.put(b"g%03d" % i, b"v", t)
        assert prism.nvm_bytes_used() >= before

    def test_hardware_cost_positive(self, prism):
        assert prism.config.hardware_cost() > 0


def timed_svc_publishes(store) -> list:
    """Spy on the HSIT's SVC-word stores: the returned list receives the
    virtual time each one costs its thread."""
    set_svc = store.hsit.set_svc
    spans = []

    def timed(idx, entry_id, thread=None):
        start = thread.now
        set_svc(idx, entry_id, thread)
        spans.append(thread.now - start)

    store.hsit.set_svc = timed
    return spans


def test_a_miss_admits_the_landed_value_without_a_copy():
    """A get that misses to flash caches the buffer the read landed:
    its ``svc_admit`` phase is the SVC-word publish alone, while the
    value's bytes still count as written to DRAM."""
    store = Prism(small_prism_config(enable_metrics=True))
    t = VThread(0, store.clock)
    value = b"v" * 1024
    store.put(b"k", value, t)
    store.flush()
    spans = timed_svc_publishes(store)
    written = store.dram.bytes_written
    assert store.get(b"k", t) == value
    admit = store.metrics.histogram("phase.get.svc_admit")
    assert admit.count == len(spans) == 1
    assert admit.total == spans[0] > 0
    assert store.dram.bytes_written - written == len(value)


def _read_decisions() -> dict:
    """Method of ``Prism`` -> the read decisions its body makes: a
    medium compared with ``MEDIUM_PWB`` / ``MEDIUM_NULL``, or a call of
    ``svc.lookup``, ``svc.admit``, ``read_repair`` or ``flash_read``."""
    tree = ast.parse(Path(repro.core.prism.__file__).read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Prism"]
    found = {}
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            what = None
            if isinstance(node, ast.Compare):
                names = {
                    side.attr for side in [node.left, *node.comparators]
                    if isinstance(side, ast.Attribute)
                }
                what = next(iter(names & {"MEDIUM_PWB", "MEDIUM_NULL"}), None)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "read_repair":
                    what = "read_repair"
                elif isinstance(func, ast.Attribute):
                    owner = func.value  # `svc` or `self.svc`, `tier`
                    owner = getattr(owner, "attr", getattr(owner, "id", None))
                    if func.attr == "flash_read" or (
                        owner == "svc" and func.attr in ("lookup", "admit")
                    ):
                        what = f"{owner}.{func.attr}"
            if what is not None:
                found.setdefault(method.name, set()).add(what)
    return found


def test_one_method_decides_how_a_value_is_read():
    """Where a value sits (PWB, nowhere, SVC, flash, a dead device) is
    decided in the read pipeline alone: no other method of Prism
    classifies a medium, looks up or admits an SVC entry, read-repairs
    or reports a flash read to tiering."""
    found = _read_decisions()
    assert set(found) == {"_fetch"}, found
    assert found["_fetch"] == {
        "MEDIUM_PWB", "MEDIUM_NULL", "svc.lookup", "svc.admit", "read_repair",
        "tier.flash_read",
    }


class TestPWBHitPrice:
    """A PWB hit loads the bytes it returns: the header, then the value
    it sizes, each an NVM load on the reader's thread.  On an idle read
    channel a load ends its transfer at line rate, so a value 15 KB
    longer costs exactly 15 KB more of NVM read bandwidth."""

    @pytest.mark.parametrize("checksums", [False, True])
    def test_longer_value_pays_its_extra_bytes(self, checksums):
        def pwb_hit(value_len):
            store = Prism(small_prism_config(enable_checksums=checksums))
            t = VThread(0, store.clock)
            store.put(b"k", b"v" * value_len, t)
            assert store.hsit.read_location(store.index.lookup(b"k")).in_pwb
            start = t.now
            store.get(b"k", t)
            return t.now - start

        extra = 15 * 1024 / NVM_SPEC.read_bandwidth
        assert pwb_hit(16 * 1024) - pwb_hit(1024) == pytest.approx(extra, rel=1e-9)


class TestDeferredFreePrice:
    """A deleted key's HSIT entry rejoins the free list two epochs
    later (§5.4), on a background thread of the store's: its free-list
    header load and its persists are NVM traffic that thread pays."""

    def test_deferred_free_advances_a_thread_on_the_nvm(self, monkeypatch):
        store = Prism(small_prism_config())
        t = VThread(0, store.clock)
        store.put(b"k", b"v" * 100, t)
        store.delete(b"k", t)
        nvm = store.nvm
        freed = []
        free = store.hsit.free

        def spy(idx, thread=None):
            moved = nvm.read_channel.bytes_moved, nvm.write_channel.bytes_moved
            start = thread.now if thread is not None else None
            free(idx, thread)
            freed.append((
                thread, start,
                nvm.read_channel.bytes_moved - moved[0],
                nvm.write_channel.bytes_moved - moved[1],
            ))

        monkeypatch.setattr(store.hsit, "free", spy)
        store.close()  # runs every retirement
        ((thread, start, loaded, persisted),) = freed
        assert thread is not None and thread.background
        assert thread.now > start
        assert loaded == 16 and persisted > 0


class TestPointCallBudget:
    """Python + C calls of one ``Prism.get`` and one ``Prism.put``
    (metrics off) on each point path, the events perfbench's
    ``host_calls_per_op`` counts.  Every key starts flushed to Value
    Storage and uncached; no counted op reclaims, and none is the op
    that advances the epoch.  The budgets are the counts on CPython
    3.11 and 3.12, whichever is higher, with no headroom."""

    VALUE = b"v" * 512
    # Measured on CPython 3.11 and 3.12, equal on both.  Every path was
    # 3 to 6 calls dearer (35, 36, 64, 49, 60, 64 and 76 below) while
    # a channel request read its bucket with dict.get and an NVM word
    # load or store found its page with dict.get.  The
    # cold get was 86 until its admission stopped waiting for a copy,
    # and 83 (82 on 3.12) until the read path lost ThreadCombiner.read,
    # the batch list and the SSD's per-page divmod/min/get; the hits 39
    # and 37 until an NVM load stopped going through _read_raw.  Every
    # path but the SVC hit was one call dearer (the put over an SVC
    # copy budgeted 62) while a record header was packed and unpacked
    # as two int.to_bytes/from_bytes, not one struct call.  Each miss
    # was three calls dearer (67, 67 and 79 below) while the SVC
    # admission took len(value) twice and ValueStorage._slot looked its
    # chunk and slot up with two dict.get.
    # The PWB hit was 32 while its value load was untimed: loading it on
    # the reader's thread adds that load's read-channel request.
    GET_PWB_HIT = 33
    # The SVC hit was 33 while a get read through its own path, which
    # looked its SVC entry up a second time inside ``svc.lookup``.
    GET_SVC_HIT = 32
    GET_SSD_MISS = 59
    PUT_FITS = 45
    PUT_OVER_SVC_COPY = 55
    # A 12 KB value: its record spans four SSD pages, as a 16 KB one
    # spans five on ycsb_c_cold (94 on 3.11 while each page cost a
    # divmod, a min and a dict.get).
    BIG = b"v" * (3 * 4096)
    GET_SSD_MISS_PAGES = 59
    # A miss on a full SVC: its admission pushes the cache over capacity
    # and _tick evicts one entry (99 on 3.11 while maintenance read the
    # clock property twice, balanced an idle active list and freed the
    # victim one call deeper).
    GET_SSD_MISS_EVICTS = 70

    def _store(self, value=VALUE, **config):
        store = Prism(small_prism_config(**config))
        t = VThread(0, store.clock)
        for i in range(8):
            store.put(b"k%d" % i, value, t)
        store.flush()
        return store, t

    def _cached(self):
        store, t = self._store()
        store.get(b"k0", t)
        assert store.hsit.read_svc(store.index.lookup(b"k0")) is not None
        return store, t

    def test_get_pwb_hit(self):
        store, t = self._store()
        store.put(b"k0", self.VALUE, t)
        assert count_calls(store.get, b"k0", t) <= self.GET_PWB_HIT

    def test_get_svc_hit(self):
        store, t = self._cached()
        assert count_calls(store.get, b"k0", t) <= self.GET_SVC_HIT

    def test_get_ssd_miss(self):
        store, t = self._store()
        assert count_calls(store.get, b"k0", t) <= self.GET_SSD_MISS

    def test_get_ssd_miss_over_pages(self):
        store, t = self._store(self.BIG, chunk_size=64 * 1024)
        loc = store.hsit.read_location(store.index.lookup(b"k0"))
        (req,) = store.storages[loc.vs_id].plan_reads([(loc.chunk_id, loc.vs_offset, None)])
        assert (req.offset + req.size - 1) // 4096 - req.offset // 4096 + 1 >= 3
        assert count_calls(store.get, b"k0", t) <= self.GET_SSD_MISS_PAGES

    def test_get_ssd_miss_that_evicts(self):
        store, t = self._store(svc_capacity=4 * len(self.VALUE))
        for i in range(1, 5):
            store.get(b"k%d" % i, t)
        svc = store.svc
        assert svc.used == svc.capacity and svc.evictions == 0
        assert count_calls(store.get, b"k0", t) <= self.GET_SSD_MISS_EVICTS
        assert svc.evictions == 1 and svc.used == svc.capacity

    def test_put_that_fits(self):
        store, t = self._store()
        reclaims = store.reclaims
        assert count_calls(store.put, b"k0", self.VALUE, t) <= self.PUT_FITS
        assert store.reclaims == reclaims

    def test_put_over_a_live_svc_copy(self):
        store, t = self._cached()
        reclaims = store.reclaims
        assert count_calls(store.put, b"k0", self.VALUE, t) <= self.PUT_OVER_SVC_COPY
        assert store.reclaims == reclaims


class TestRandomizedModelCheck:
    def test_against_dict_model(self, prism, t):
        rng = random.Random(1234)
        model = {}
        for step in range(2500):
            key = b"m%04d" % rng.randrange(300)
            op = rng.random()
            if op < 0.5:
                value = bytes([step % 256]) * rng.randrange(1, 600)
                prism.put(key, value, t)
                model[key] = value
            elif op < 0.75:
                assert prism.get(key, t) == model.get(key)
            elif op < 0.9:
                count = rng.randrange(1, 12)
                expected = sorted(
                    (k, v) for k, v in model.items() if k >= key
                )[:count]
                assert prism.scan(key, count, t) == expected
            else:
                assert prism.delete(key, t) == (key in model)
                model.pop(key, None)
        for key, value in model.items():
            assert prism.get(key, t) == value
