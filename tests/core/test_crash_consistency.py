"""Cross-media crash consistency (§5.4–5.5).

These tests exercise the exact crash windows the paper's protocol is
designed for, using the simulated NVM's lost-unflushed-lines
semantics, and verify durable linearizability: every acknowledged
write survives; un-acknowledged writes roll back to the previous
durable value.
"""

import random

import pytest

from repro.core.checker import audit
from repro.core.prism import Prism
from repro.core import pointers as ptr
from repro.sim.vthread import VThread
from tests.conftest import KB, small_prism_config


@pytest.fixture
def store():
    return Prism(small_prism_config())


@pytest.fixture
def t(store):
    return VThread(0, store.clock)


class TestBasicDurability:
    def test_acknowledged_puts_survive(self, store, t):
        for i in range(200):
            store.put(b"c%03d" % i, b"v%03d" % i, t)
        store.crash()
        report = store.recover()
        assert report.recovered_keys == 200
        for i in range(200):
            assert store.get(b"c%03d" % i, t) == b"v%03d" % i

    def test_latest_version_survives(self, store, t):
        for version in range(10):
            store.put(b"k", b"version-%d" % version, t)
        store.crash()
        store.recover()
        assert store.get(b"k", t) == b"version-9"

    def test_deletes_survive(self, store, t):
        store.put(b"keep", b"v", t)
        store.put(b"drop", b"v", t)
        store.delete(b"drop", t)
        store.crash()
        store.recover()
        assert store.get(b"keep", t) == b"v"
        assert store.get(b"drop", t) is None

    def test_values_on_ssd_survive(self, store, t):
        for i in range(100):
            store.put(b"s%03d" % i, b"v%03d" % i, t)
        store.flush()  # move to Value Storage
        store.crash()
        store.recover()
        for i in range(100):
            assert store.get(b"s%03d" % i, t) == b"v%03d" % i

    def test_operations_blocked_until_recovery(self, store, t):
        store.put(b"k", b"v", t)
        store.crash()
        with pytest.raises(RuntimeError):
            store.get(b"k", t)
        store.recover()
        assert store.get(b"k", t) == b"v"

    def test_store_usable_after_recovery(self, store, t):
        store.put(b"a", b"1", t)
        store.crash()
        store.recover()
        store.put(b"b", b"2", t)
        assert store.scan(b"a", 2, t) == [(b"a", b"1"), (b"b", b"2")]

    def test_double_crash_recover(self, store, t):
        store.put(b"k", b"v1", t)
        store.crash()
        store.recover()
        store.put(b"k", b"v2", t)
        store.crash()
        store.recover()
        assert store.get(b"k", t) == b"v2"


class TestRetirementsDieWithTheCrash:
    """Epoch retirements are DRAM closures.  One that outlived a power
    failure would free its HSIT (or SVC) entry a second time — after
    recovery reclaimed it and a later operation reused it."""

    def test_flushed_put_after_delete_crash_reuse_survives(self):
        """ROADMAP item 1's sequence: the deleted key's entry is
        reclaimed as leaked by the first recovery and reused by the
        second put; the stale retirement then freed it under that put,
        and the second recovery dropped a flushed, acked value as
        ill-coupled."""
        store = Prism(small_prism_config(num_threads=1))
        k = b"k"
        store.put(k, b"first")
        store.delete(k)
        store.crash()
        assert store.recover().leaked_entries_reclaimed == 1
        store.flush()
        store.put(k, b"second")
        store.flush()
        store.crash()
        report = store.recover()
        assert report.ill_coupled_dropped == 0
        assert report.recovered_keys == 1
        assert store.get(k) == b"second"
        assert audit(store).ok

    def test_evicted_svc_entry_does_not_free_its_ids_next_owner(self):
        """The SVC twin: an invalidated cache entry's physical free is
        still pending when the power fails; after recovery the entry id
        is handed out again, and the stale free must not take the new
        owner's copy with it."""
        store = Prism(small_prism_config(num_threads=1))
        k = b"k"
        store.put(k, b"first")
        store.flush()
        assert store.get(k) == b"first"  # admitted to the SVC
        old_id = store.hsit.read_svc(store.index.lookup(k))
        assert old_id is not None
        store.put(k, b"second")  # invalidates the copy: retirement pending
        assert store.epoch.pending >= 1
        store.crash()
        store.recover()
        store.flush()
        assert store.get(k) == b"second"  # re-admitted
        new_id = store.hsit.read_svc(store.index.lookup(k))
        assert new_id == old_id, "the id was not reused; the test proves nothing"
        for _ in range(4):
            store.epoch.try_advance()  # the stale retirement would be due
        assert new_id in store.svc.entries
        assert audit(store).ok
        assert store.get(k) == b"second"


class TestCrashWindows:
    """Inject crashes into the middle of the update protocol."""

    def test_crash_before_forward_pointer_flush(self, store, t):
        """Value persisted, HSIT store not flushed: old value wins
        (Figure 6's 'written but not reachable' case)."""
        store.put(b"k", b"old", t)
        store.flush()
        idx = store.index.lookup(b"k")
        # Manually run the first half of an update: append the new
        # value, then store (but do NOT flush) the forward pointer.
        pwb = store.pwbs[0]
        offset = pwb.append(idx, b"new", t)
        addr = store.hsit._addr(idx)
        word = ptr.set_dirty(ptr.encode_pwb(0, offset))
        store.nvm.store(None, addr, word.to_bytes(8, "little"))
        store.crash()
        store.recover()
        assert store.get(b"k", t) == b"old"

    def test_crash_after_forward_pointer_flush(self, store, t):
        """Pointer flushed with dirty bit still set: new value wins,
        recovery normalizes the dirty bit."""
        store.put(b"k", b"old", t)
        store.flush()
        idx = store.index.lookup(b"k")
        pwb = store.pwbs[0]
        offset = pwb.append(idx, b"new", t)
        addr = store.hsit._addr(idx)
        word = ptr.set_dirty(ptr.encode_pwb(0, offset))
        store.nvm.persist(None, addr, word.to_bytes(8, "little"))
        store.crash()
        store.recover()
        assert store.get(b"k", t) == b"new"

    def test_crash_between_hsit_alloc_and_index_insert_leaks_nothing(
        self, store, t
    ):
        """A crashed insert leaves an unreachable HSIT entry; recovery
        returns it to the free list."""
        store.put(b"exists", b"v", t)
        idx = store.hsit.allocate(t)  # insert began...
        pwb = store.pwbs[0]
        offset = pwb.append(idx, b"orphan", t)
        store.hsit.publish_location(idx, ptr.encode_pwb(0, offset), t)
        # ...crash before the index insert
        store.crash()
        report = store.recover()
        assert report.leaked_entries_reclaimed >= 1
        assert store.get(b"exists", t) == b"v"
        # the reclaimed entry is reusable
        store.put(b"fresh", b"v2", t)
        assert store.get(b"fresh", t) == b"v2"

    def test_svc_pointers_nullified_on_recovery(self, store, t):
        store.put(b"k", b"v", t)
        store.flush()
        store.get(b"k", t)  # cached in SVC (DRAM)
        idx = store.index.lookup(b"k")
        assert store.hsit.read_svc(idx) is not None
        store.crash()
        store.recover()
        assert store.hsit.read_svc(idx) is None
        assert store.get(b"k", t) == b"v"

    def test_validity_bitmaps_rebuilt(self, store, t):
        for i in range(60):
            store.put(b"b%02d" % i, b"x" * 200, t)
        store.flush()
        for i in range(0, 60, 2):
            store.put(b"b%02d" % i, b"y" * 200, t)  # invalidate half on SSD
        store.crash()
        report = store.recover()
        assert report.vs_records_validated > 0
        for i in range(60):
            expected = b"y" * 200 if i % 2 == 0 else b"x" * 200
            assert store.get(b"b%02d" % i, t) == expected


class TestRecoveryReport:
    def test_pwb_values_flushed_on_recovery(self, store, t):
        for i in range(20):
            store.put(b"p%02d" % i, b"v", t)
        store.crash()
        report = store.recover()
        assert report.pwb_values_flushed == 20
        # PWBs restart empty
        assert all(pwb.used == 0 for pwb in store.pwbs)

    def test_recovery_duration_positive_and_scales(self, store, t):
        for i in range(50):
            store.put(b"r%03d" % i, b"v" * 100, t)
        store.crash()
        slow = store.recover(recovery_threads=1)
        assert slow.duration > 0

    def test_recovery_thread_validation(self, store):
        store.crash()
        with pytest.raises(ValueError):
            store.recover(recovery_threads=0)

    def test_empty_store_recovery(self, store):
        store.crash()
        report = store.recover()
        assert report.recovered_keys == 0


class TestRandomizedCrashRecovery:
    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_acknowledged_state_always_recovered(self, seed):
        """Property: run random ops, crash at a random point, recover —
        the store must equal the model of acknowledged operations."""
        store = Prism(small_prism_config())
        t = VThread(0, store.clock)
        rng = random.Random(seed)
        model = {}
        for step in range(rng.randrange(200, 800)):
            key = b"x%03d" % rng.randrange(80)
            if rng.random() < 0.7:
                value = bytes([rng.randrange(256)]) * rng.randrange(1, 400)
                store.put(key, value, t)
                model[key] = value
            else:
                store.delete(key, t)
                model.pop(key, None)
        store.crash()
        report = store.recover()
        assert report.recovered_keys == len(model)
        for key, value in model.items():
            assert store.get(key, t) == value, key
        scan = store.scan(b"x", 1000, t)
        assert scan == sorted(model.items())


class TestCrashDuringRecovery:
    """Recovery itself can lose power; a second pass must succeed and
    produce the same consistent state (idempotence)."""

    @pytest.mark.parametrize(
        "label",
        [
            "recover.index_done",
            "recover.walked",
            "recover.pre_publish",
            "recover.published",
            "recover.flushed",
            "recover.done",
        ],
    )
    def test_interrupted_recovery_is_idempotent(self, label):
        from repro.core.checker import audit
        from repro.storage.crash import SimulatedCrash

        store = Prism(small_prism_config())
        t = VThread(0, store.clock)
        model = {}
        for i in range(120):
            key = b"i%03d" % (i % 40)
            value = b"v%03d" % i
            store.put(key, value, t)
            model[key] = value
        store.crash()
        store.crash_point.arm(label)
        with pytest.raises(SimulatedCrash):
            store.recover()
        report = store.recover()  # second, uninterrupted pass
        assert report.recovered_keys == len(model)
        assert audit(store).ok
        for key, value in model.items():
            assert store.get(key, t) == value


class TestCrashInsideAChainWriteBack:
    """No crash sweep's workload evicts a scattered scan chain, so the
    write-back's two crash points are armed here, on a scan-heavy store
    whose SVC and PWBs are tight."""

    @pytest.mark.parametrize("label", ["writeback.pre_publish", "writeback.published"])
    def test_recovery_keeps_every_acknowledged_write(self, label):
        from repro.storage.crash import SimulatedCrash

        store = Prism(small_prism_config(svc_capacity=24 * KB, pwb_capacity=16 * KB))
        t = VThread(0, store.clock)
        rng = random.Random(1)
        keys = [b"k%05d" % i for i in range(400)]
        model = {}
        for key in keys:
            model[key] = bytes([rng.randrange(256)]) * rng.randrange(200, 1200)
            store.put(key, model[key], t)
        store.crash_point.arm(label)
        in_doubt = {}
        with pytest.raises(SimulatedCrash):
            for op in range(2000):
                key = rng.choice(keys)
                if rng.random() < 0.7:
                    store.scan(key, rng.randrange(5, 60), t)
                else:
                    in_doubt = {key: bytes([op % 256]) * rng.randrange(200, 1200)}
                    store.put(key, in_doubt[key], t)
                    model[key] = in_doubt.pop(key)
        assert store.crash_point.fired == label
        store.recover()
        assert audit(store).ok
        for key, value in model.items():
            assert store.get(key, t) in (value, in_doubt.get(key, value))
