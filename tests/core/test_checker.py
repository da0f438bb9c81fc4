"""The consistency auditor: clean stores pass, corrupted stores fail."""

import random

import pytest

from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.hsit import FreeListError
from repro.core.prism import Prism
from repro.sim.vthread import VThread
from tests.conftest import small_prism_config


@pytest.fixture
def store():
    return Prism(small_prism_config())


@pytest.fixture
def t(store):
    return VThread(0, store.clock)


def _stress(store, t, steps=1500, seed=4):
    rng = random.Random(seed)
    for step in range(steps):
        key = b"a%03d" % rng.randrange(200)
        roll = rng.random()
        if roll < 0.55:
            store.put(key, bytes([step % 256]) * rng.randrange(1, 400), t)
        elif roll < 0.8:
            store.get(key, t)
        elif roll < 0.92:
            store.scan(key, rng.randrange(1, 10), t)
        else:
            store.delete(key, t)


class TestCleanStoresPass:
    def test_empty_store(self, store):
        assert audit(store).ok

    def test_after_stress(self, store, t):
        _stress(store, t)
        report = audit(store)
        assert report.ok, report.violations[:5]
        assert report.keys_checked > 0
        assert report.pwb_values + report.vs_values == report.keys_checked

    def test_after_flush(self, store, t):
        _stress(store, t)
        store.flush()
        report = audit(store)
        assert report.ok, report.violations[:5]
        assert report.pwb_values == 0  # everything drained to flash

    def test_after_crash_recovery(self, store, t):
        _stress(store, t)
        store.crash()
        store.recover()
        report = audit(store)
        assert report.ok, report.violations[:5]

    def test_with_gc_pressure(self):
        from repro.storage.specs import FLASH_SSD_GEN4_SPEC

        tight = Prism(
            small_prism_config(
                num_ssds=1,
                ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(512 * 1024),
                chunk_size=16 * 1024,
                pwb_capacity=32 * 1024,
                gc_free_threshold=0.4,
                svc_capacity=32 * 1024,
            )
        )
        thread = VThread(0, tight.clock)
        rng = random.Random(6)
        for step in range(2500):
            tight.put(b"g%03d" % rng.randrange(300), bytes([step % 256]) * 200, thread)
        assert sum(vs.gc_runs for vs in tight.storages) > 0
        report = audit(tight)
        assert report.ok, report.violations[:5]


class TestCorruptionDetected:
    def test_dangling_forward_pointer(self, store, t):
        store.put(b"k", b"v", t)
        store.put(b"pad", b"p", t)
        store.flush()
        idx = store.index.lookup(b"k")
        loc = store.hsit.read_location(idx)
        store.storages[loc.vs_id].invalidate(loc.chunk_id, loc.vs_offset)
        report = audit(store)
        assert not report.ok
        assert any("I4" in v for v in report.violations)

    def test_ill_coupled_record(self, store, t):
        store.put(b"k", b"v", t)
        idx = store.index.lookup(b"k")
        # Point the entry at someone else's PWB record.
        other_off = store.pwbs[0].append(9999, b"intruder", t)
        store.hsit.publish_location(idx, ptr.encode_pwb(0, other_off), t)
        report = audit(store)
        assert any("I2" in v for v in report.violations)

    def test_lingering_dirty_bit(self, store, t):
        store.put(b"k", b"v", t)
        idx = store.index.lookup(b"k")
        word = store.hsit.location_word(idx)
        addr = store.hsit._addr(idx)
        store.nvm.persist(None, addr, ptr.set_dirty(word).to_bytes(8, "little"))
        report = audit(store)
        assert any("I6" in v for v in report.violations)

    def test_stale_svc_word(self, store, t):
        store.put(b"k", b"v", t)
        store.flush()
        store.get(b"k", t)  # cache it
        idx = store.index.lookup(b"k")
        entry_id = store.hsit.read_svc(idx)
        store.svc.invalidate(entry_id, t)  # freed, word left behind
        report = audit(store)
        assert any("I5" in v for v in report.violations)

    def test_refill_of_a_value_not_in_a_pwb(self, store, t):
        store.put(b"k", b"v", t)
        store.flush()
        store.svc.refills[store.index.lookup(b"k")] = b"k"
        store.svc.refills[4321] = b"gone"
        violations = [v for v in audit(store).violations if "I5: refill" in v]
        assert len(violations) == 2

    def test_accounting_drift(self, store, t):
        store.put(b"k", b"v", t)
        store.svc.used += 1234
        report = audit(store)
        assert any("accounting drift" in v for v in report.violations)


class TestFreeListInvariant:
    """I8: a double free must be visible to the audit — and must stop
    recovery with a typed error, not send its walk round a cycle."""

    def _double_free(self, store, t):
        for key in (b"a", b"b", b"keep"):
            store.put(key, b"v", t)
        a, b = store.index.lookup(b"a"), store.index.lookup(b"b")
        store.delete(b"a", t)
        store.delete(b"b", t)
        store.epoch.drain()  # both entries join the free list...
        store.hsit.free(a)  # ...and a stale retirement frees one again
        return a

    def test_clean_free_list_passes(self, store, t):
        store.put(b"k", b"v", t)
        store.delete(b"k", t)
        store.epoch.drain()
        assert list(store.hsit.free_entries())
        assert audit(store).ok

    def test_double_free_is_reported(self, store, t):
        a = self._double_free(store, t)
        violations = audit(store).violations
        assert any(
            v.startswith("I8") and f"revisits entry {a}" in v for v in violations
        ), violations

    def test_double_free_makes_recovery_raise_not_spin(self, store, t):
        self._double_free(store, t)
        store.crash()
        with pytest.raises(FreeListError):
            store.recover()

    def test_free_entry_still_reachable_is_reported(self, store, t):
        store.put(b"k", b"v", t)
        idx = store.index.lookup(b"k")
        store.hsit.free(idx)  # freed under a live key
        violations = audit(store).violations
        assert any(
            v.startswith("I8") and "still reachable" in v for v in violations
        ), violations


class TestChunkGeometryInvariant:
    """I9: each way a write's bookkeeping (or its retraction after a
    failed IO) can slip is a violation of its own."""

    @pytest.fixture
    def flushed(self, store, t):
        for i in range(6):
            store.put(b"k%d" % i, bytes([i + 1]) * 300, t)
        store.flush()
        vs = next(vs for vs in store.storages if vs.open_chunk is not None)
        assert audit(store).ok
        return store, vs, vs._chunks[vs.open_chunk]

    def _i9(self, store):
        return [v for v in audit(store).violations if v.startswith("I9")]

    def test_overlapping_records(self, flushed):
        store, _vs, info = flushed
        first, second = sorted(info.slots)[:2]
        info.slots[first].size += second - first  # now runs into its neighbour
        info.live_bytes += second - first
        assert any("overlaps" in v for v in self._i9(store))

    def test_write_head_behind_last_record(self, flushed):
        store, _vs, info = flushed
        info.write_head -= 1
        assert any("write head" in v for v in self._i9(store))

    def test_live_accounting_drift(self, flushed):
        store, _vs, info = flushed
        info.live_bytes += 1
        assert any("valid slots sum" in v for v in self._i9(store))

    def test_log_head_not_in_use(self, flushed):
        store, vs, _info = flushed
        vs.open_chunk = max(vs._chunks) + 1
        assert any("not in use" in v for v in self._i9(store))

    def test_full_log_head(self, flushed):
        store, vs, info = flushed
        info.write_head = vs.chunk_size
        assert any("is full" in v for v in self._i9(store))


class TestChecksumInvariant:
    def _checked_store(self):
        return Prism(small_prism_config(enable_checksums=True))

    def test_clean_checked_store_passes(self, t):
        store = self._checked_store()
        store.put(b"k", b"v" * 100, t)
        store.flush()
        assert audit(store).ok

    def test_corrupt_vs_record_fails_i7(self, t):
        store = self._checked_store()
        store.put(b"k", b"v" * 100, t)
        store.flush()
        idx = store.index.lookup(b"k")
        loc = store.hsit.read_location(idx)
        vs = store.storages[loc.vs_id]
        addr = loc.chunk_id * vs.chunk_size + loc.vs_offset + vs.header_size
        raw = bytearray(vs.ssd.read_raw(addr, 1))
        raw[0] ^= 0x20
        vs.ssd.write_raw(addr, bytes(raw))
        report = audit(store)
        assert not report.ok
        assert any("I7" in v for v in report.violations)

    def test_corrupt_pwb_record_fails_i7(self, t):
        store = self._checked_store()
        store.put(b"k", b"v" * 100, t)  # still in the PWB
        idx = store.index.lookup(b"k")
        loc = store.hsit.read_location(idx)
        pwb = store.pwbs[loc.pwb_id]
        pos = pwb.base + loc.pwb_offset % pwb.capacity + pwb.header_size
        raw = bytearray(store.nvm._read_raw(pos, 1))
        raw[0] ^= 0x20
        store.nvm.write_durable(None, pos, bytes(raw))
        report = audit(store)
        assert any("I7" in v for v in report.violations)

    def test_unchecked_store_skips_i7_sweep(self, store, t):
        # Legacy framing carries no CRC: flipping a payload bit is
        # undetectable (the documented reason enable_checksums exists).
        store.put(b"k", b"v" * 100, t)
        store.flush()
        idx = store.index.lookup(b"k")
        loc = store.hsit.read_location(idx)
        vs = store.storages[loc.vs_id]
        addr = loc.chunk_id * vs.chunk_size + loc.vs_offset + vs.header_size
        raw = bytearray(vs.ssd.read_raw(addr, 1))
        raw[0] ^= 0x20
        vs.ssd.write_raw(addr, bytes(raw))
        assert audit(store).ok
