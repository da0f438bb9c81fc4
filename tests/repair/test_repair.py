"""Cross-device self-healing: mirror/PWB repair sources, read-repair,
and full dead-storage rebuild."""

import pytest

from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.prism import Prism
from repro.core.svc import ScanAwareValueCache
from repro.faults.errors import (
    CorruptionError,
    DeviceError,
    ReadDegradedError,
    UnrecoverableCorruptionError,
)
from repro.faults.injector import FaultConfig
from repro.repair import fetch_value, rebuild_storage
from repro.sim.vthread import VThread
from tests.conftest import KB, small_prism_config


def _integrity_config(**overrides):
    # No SVC so every read hits the owning medium; injector attached
    # (zero rates) so devices can be killed and bytes rotted on demand.
    defaults = dict(
        pwb_capacity=16 * KB,
        enable_svc=False,
        enable_checksums=True,
        mirror_chunks=True,
        enable_metrics=True,
        faults=FaultConfig(),
    )
    defaults.update(overrides)
    return small_prism_config(**defaults)


@pytest.fixture
def store() -> Prism:
    return Prism(_integrity_config())


def _load(store, n=80):
    for i in range(n):
        store.put(b"k%04d" % i, bytes([i % 256]) * 700)
    store.flush()


def _vs_keys(store):
    """Map vs_id -> [(key, Location)] for keys stored in Value Storage."""
    out = {vs.vs_id: [] for vs in store.storages}
    for key, idx in store.index.items():
        loc = ptr.decode(ptr.clear_dirty(store.hsit.location_word(idx)))
        if loc.in_vs:
            out[loc.vs_id].append((key, loc))
    return out


def _rot_primary(store, vs_id, loc):
    vs = store.storages[vs_id]
    store.injector.corrupt_at_rest(
        vs.ssd,
        loc.chunk_id * vs.chunk_size + loc.vs_offset,
        vs.plan_reads([(loc.chunk_id, loc.vs_offset, None)])[0].size,
    )


def _rot_mirror(store, vs_id, loc):
    vs = store.storages[vs_id]
    addr = loc.chunk_id * vs.chunk_size + loc.vs_offset + vs.header_size
    raw = bytearray(vs.mirror.read_raw(addr, 1))
    raw[0] ^= 0x10
    vs.mirror.write_raw(addr, bytes(raw))


class TestReadRepair:
    def test_corrupt_primary_heals_from_mirror(self, store):
        _load(store)
        by_vs = _vs_keys(store)
        key, loc = by_vs[0][0]
        expect = store.get(key)
        _rot_primary(store, 0, loc)
        # The corrupt primary fails its checksum; the read repairs from
        # the mirror and returns the right bytes.
        assert store.get(key) == expect
        assert store.stats()["corruption_detected"] >= 1
        assert store.events.of_kind("repair")
        # The healed record was re-published: reading again is clean.
        assert store.get(key) == expect
        assert audit(store).ok

    def test_both_copies_corrupt_is_typed_loss(self, store):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        _rot_primary(store, 0, loc)
        _rot_mirror(store, 0, loc)
        with pytest.raises(UnrecoverableCorruptionError) as err:
            store.get(key)
        assert err.value.key == key
        assert store.events.of_kind("corruption_unrecoverable")
        # Typed loss, not silent absence: the pointer stays, later
        # reads keep failing loudly.
        with pytest.raises(UnrecoverableCorruptionError):
            store.get(key)

    def test_repair_from_unreclaimed_pwb_copy(self):
        store = Prism(_integrity_config(mirror_chunks=False))
        key, value = b"pwb-key", b"p" * 500
        store.put(key, value)  # lives in the PWB
        idx = store.index.lookup(key)
        vs = store.storages[0]
        placements, done = vs.write_records(store.clock.now, [(idx, value)])
        ((c, o, _s),) = placements
        # Publish the VS location but leave the PWB window untouched —
        # the state a crash between reclaim-publish and release leaves.
        store.hsit.publish_location(idx, ptr.encode_vs(0, c, o))
        _rot = store.injector.corrupt_at_rest(
            vs.ssd, c * vs.chunk_size + o, vs.header_size + len(value)
        )
        assert store.get(key) == value  # healed from the PWB copy
        assert [e["source"] for e in store.events.of_kind("repair")] == ["pwb"]

    def test_pwb_scan_counts_each_byte_once(self):
        """A fetch that falls through to the PWBs adds each record's
        header and value to the NVM's bytes read, once."""
        store = Prism(_integrity_config(mirror_chunks=False))
        for i in range(6):
            store.put(b"p%d" % i, bytes([i + 1]) * (300 + i))
        scanned = sum(
            pwb.header_size + len(pwb.peek(offset)[1])
            for pwb in store.pwbs
            for offset in pwb._offsets
        )
        idx = store.index.lookup(b"p3")
        before = store.nvm.bytes_read
        t = VThread(0, store.clock)
        assert fetch_value(store, idx, 0, 0, 0, t) == (bytes([4]) * 303, "pwb")
        assert store.nvm.bytes_read - before == scanned

    def test_fetch_value_reports_source(self, store):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        idx = store.index.lookup(key)
        fetched = fetch_value(store, idx, 0, loc.chunk_id, loc.vs_offset, VThread(0, store.clock))
        assert fetched is not None
        value, source = fetched
        assert source == "mirror"
        assert value == store.get(key)


class TestRecoveryRepair:
    """Recovery CRC-verifies every Value Storage record it walks and
    re-materialises a rotted one from its mirror copy."""

    def test_rotted_record_heals_from_mirror(self, store):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        expect = store.get(key)
        _rot_primary(store, 0, loc)
        store.crash()
        report = store.recover()
        assert report.corrupt_records_repaired == 1
        assert store.get(key) == expect
        assert store.corruption_detected == 1
        assert audit(store).ok

    def test_rotted_size_field_heals_from_the_mirrors_own_header(self, store):
        """The primary's size field says 2 GiB: recovery cannot size the
        mirror copy from it (nor from a slot: the bitmaps are rebuilt
        after the walk), so the copy is read by its own header."""
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        expect = store.get(key)
        vs = store.storages[0]
        top = loc.chunk_id * vs.chunk_size + loc.vs_offset + 11  # size's top byte
        vs.ssd.write_raw(top, bytes([vs.ssd.read_raw(top, 1)[0] ^ 0x80]))
        store.crash()
        report = store.recover()
        assert report.corrupt_records_repaired == 1
        assert store.get(key) == expect
        assert store.corruption_detected == 1
        assert audit(store).ok

    def test_rotted_size_field_without_a_mirror_is_bounded_typed_loss(self):
        """No mirror to heal from: the lost record keeps its slot, but
        its size field says 2 GiB, so the slot ends where the next live
        record in its chunk starts — not at the chunk's end, over every
        later record (audit I9) and their bytes in ``live_bytes``."""
        store = Prism(_integrity_config(mirror_chunks=False))
        _load(store)
        entries = _vs_keys(store)[0]
        starts = {(loc.chunk_id, loc.vs_offset) for _, loc in entries}
        key, loc = next(
            (key, loc) for key, loc in entries
            if any(c == loc.chunk_id and o > loc.vs_offset for c, o in starts)
        )
        vs = store.storages[0]
        top = loc.chunk_id * vs.chunk_size + loc.vs_offset + 11  # size's top byte
        vs.ssd.write_raw(top, bytes([vs.ssd.read_raw(top, 1)[0] ^ 0x80]))
        store.crash()
        report = store.recover()
        assert report.corrupt_records_lost == 1
        # The audit still names the lost record (I7: corruption never
        # hides from it), and nothing else: no slot overlaps another.
        assert audit(store).violations == [
            f"I7: corrupt VS record for {key!r}: ssd0: checksum mismatch at "
            f"vs0 chunk {loc.chunk_id} off {loc.vs_offset}"
        ]
        assert store.storages[0]._chunks[loc.chunk_id].live_bytes < vs.chunk_size
        with pytest.raises(UnrecoverableCorruptionError):
            store.get(key)

    def test_rotted_mirror_too_is_typed_loss(self, store):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        _rot_primary(store, 0, loc)
        _rot_mirror(store, 0, loc)
        store.crash()
        report = store.recover()
        assert report.corrupt_records_lost == 1
        assert store.corruption_detected == 1
        with pytest.raises(UnrecoverableCorruptionError):
            store.get(key)


class TestDeadDevice:
    def test_dead_vs_reads_heal_from_mirror(self, store):
        _load(store)
        by_vs = _vs_keys(store)
        assert by_vs[0] and by_vs[1]
        expect = {key: store.get(key) for key, _ in by_vs[0]}
        store.injector.kill_device(store.storages[0].ssd.name)
        # Reads of the dead storage's keys repair through the mirror
        # instead of raising ReadDegradedError (PR 2 behaviour).
        for key, _loc in by_vs[0]:
            assert store.get(key) == expect[key]

    def test_get_and_scan_admit_a_dead_devices_value_alike(self, monkeypatch):
        """A value read-repaired from a dead device's mirror is a copy
        in DRAM, not a landed flash read: a get and a scan of that one
        key admit it to the SVC the same way and wait the same time."""
        admits = []
        real_admit = ScanAwareValueCache.admit

        def admit(svc, idx, key, value, thread=None, copied=False, slot=None):
            start = thread.now
            entry_id = real_admit(svc, idx, key, value, thread, copied, slot)
            admits.append((key, copied, thread.now - start))
            return entry_id

        monkeypatch.setattr(ScanAwareValueCache, "admit", admit)
        seen = []
        for read in ("get", "scan"):
            store = Prism(_integrity_config(enable_svc=True))
            _load(store)
            key, _loc = _vs_keys(store)[0][0]
            store.injector.kill_device(store.storages[0].ssd.name)
            del admits[:]
            t = VThread(0, store.clock)
            got = store.get(key, t) if read == "get" else store.scan(key, 1, t)[0][1]
            assert store.hsit.read_svc(store.index.lookup(key)) is not None
            assert store.events.of_kind("repair")
            seen.append((key, got, admits[:]))
        (key, got, ((admitted, copied, waited),)) = seen[0]
        assert got == bytes([int(key[1:]) % 256]) * 700
        assert (admitted, copied) == (key, True) and waited > 0
        assert seen[1] == seen[0]

    def test_dead_vs_without_mirror_still_degrades(self):
        store = Prism(_integrity_config(mirror_chunks=False))
        _load(store)
        by_vs = _vs_keys(store)
        store.injector.kill_device(store.storages[0].ssd.name)
        with pytest.raises(ReadDegradedError):
            store.get(by_vs[0][0][0])

    def test_rebuild_restores_every_key(self, store):
        _load(store)
        by_vs = _vs_keys(store)
        expect = {}
        for keys in by_vs.values():
            for key, _loc in keys:
                expect[key] = store.get(key)
        store.injector.kill_device(store.storages[0].ssd.name)
        report = rebuild_storage(store, 0)
        assert report.ok
        assert report.records_repaired == len(by_vs[0])
        assert report.duration > 0
        # Every pointer moved off the dead device...
        assert not _vs_keys(store)[0]
        # ...so no read is degraded and every value survives.
        degraded = 0
        for key, value in expect.items():
            try:
                assert store.get(key) == value
            except ReadDegradedError:
                degraded += 1
        assert degraded == 0
        (event,) = store.events.of_kind("rebuild")
        assert event["duration"] == report.duration
        assert audit(store).ok

    def test_rebuild_publish_failure_mid_batch_is_contained(self, store, monkeypatch):
        """A device error on the third publish of a rebuild batch: the
        records written but never published must not stay valid-and-
        unreachable (audit I4), published ones stay published, and a
        second rebuild finishes the job."""
        _load(store)
        expect = {key: store.get(key) for key, _idx in store.index.items()}
        on_dead = len(_vs_keys(store)[0])
        assert on_dead > 3
        store.injector.kill_device(store.storages[0].ssd.name)
        real = store.hsit.publish_location_word
        calls = []

        def failing(idx, word, thread=None):
            calls.append(idx)
            if len(calls) == 3:
                raise DeviceError("nvm0", "injected publish failure")
            return real(idx, word, thread)

        monkeypatch.setattr(store.hsit, "publish_location_word", failing)
        with pytest.raises(DeviceError):
            rebuild_storage(store, 0)
        monkeypatch.undo()
        assert audit(store).ok, audit(store).violations[:3]
        assert len(_vs_keys(store)[0]) == on_dead - 2
        report = rebuild_storage(store, 0)
        assert report.ok
        assert report.records_repaired == on_dead - 2
        assert not _vs_keys(store)[0]
        assert audit(store).ok
        for key, value in expect.items():
            assert store.get(key) == value

    def test_read_repair_publish_failure_is_contained(self, store, monkeypatch):
        """Same fault on the single-record path: the rewritten copy must
        not stay valid-and-unreachable, and the next read heals."""
        _load(store)
        key, _loc = _vs_keys(store)[0][0]
        expect = store.get(key)
        store.injector.kill_device(store.storages[0].ssd.name)

        def failing(idx, word, thread=None):
            raise DeviceError("nvm0", "injected publish failure")

        monkeypatch.setattr(store.hsit, "publish_location_word", failing)
        with pytest.raises(DeviceError):
            store.get(key)
        monkeypatch.undo()
        assert audit(store).ok, audit(store).violations[:3]
        assert store.get(key) == expect
        assert audit(store).ok

    def test_rebuild_counts_losses_without_mirror(self):
        store = Prism(_integrity_config(mirror_chunks=False))
        _load(store)
        by_vs = _vs_keys(store)
        store.injector.kill_device(store.storages[0].ssd.name)
        report = rebuild_storage(store, 0)
        # No mirror and no PWB copies: everything on the dead device is
        # honestly reported lost, nothing silently dropped.
        assert report.records_lost == len(by_vs[0])
        assert not report.ok


class TestRepairReadsArePriced:
    """Every read a repair makes is a load on the thread that needs the
    bytes, and that thread has the copy before it uses it."""

    @staticmethod
    def _spy_mirror_reads(store, monkeypatch):
        """(thread, completion) of every mirror read a charge books."""
        booked = []
        for vs in store.storages:
            mirror = vs.mirror

            def charge_read(thread, nbytes, real=mirror.charge_read):
                end = real(thread, nbytes)
                booked.append((thread, end))
                return end

            def charge_read_async(at, nbytes, real=mirror.charge_read_async):
                end = real(at, nbytes)
                booked.append((None, end))
                return end

            monkeypatch.setattr(mirror, "charge_read", charge_read)
            monkeypatch.setattr(mirror, "charge_read_async", charge_read_async)
        return booked

    def test_gc_heal_charges_the_mirror_and_waits(self, store, monkeypatch):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        expect = store.get(key)
        _rot_primary(store, 0, loc)
        vs = store.storages[0]
        monkeypatch.setattr(vs, "gc_victims", lambda count: [loc.chunk_id])
        booked = self._spy_mirror_reads(store, monkeypatch)
        mirror_bytes = vs.mirror.bytes_read
        store._gc(vs, store.clock.now)
        ((thread, end),) = booked
        assert thread is store._bg_gc and thread.now >= end
        assert vs.mirror.bytes_read - mirror_bytes == vs.header_size + len(expect)
        assert store.get(key) == expect

    def test_read_repair_rewrites_after_its_mirror_read(self, store, monkeypatch):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        expect = store.get(key)
        _rot_primary(store, 0, loc)
        booked = self._spy_mirror_reads(store, monkeypatch)
        writes = []
        real_write = store._retrying_write

        def retrying_write(target, at, records):
            writes.append(at)
            return real_write(target, at, records)

        monkeypatch.setattr(store, "_retrying_write", retrying_write)
        t = VThread(0, store.clock)
        t.now = store.clock.now
        assert store.get(key, t) == expect
        ((_thread, end),) = booked
        (at,) = writes
        assert at >= end

    def test_fetch_values_pwb_scan_is_charged(self):
        store = Prism(_integrity_config(mirror_chunks=False))
        for i in range(6):
            store.put(b"p%d" % i, bytes([i + 1]) * 300)
        t = VThread(0, store.clock)
        t.now = start = store.clock.now
        idx = store.index.lookup(b"p3")
        assert fetch_value(store, idx, 0, 0, 0, t) == (bytes([4]) * 300, "pwb")
        assert t.now > start

    def test_rebuild_walk_is_charged(self, store):
        """Nothing lives in Value Storage yet, so all a rebuild does is
        walk the index and the HSIT: that walk takes time."""
        for i in range(40):
            store.put(b"k%04d" % i, b"v" * 100)
        assert not any(_vs_keys(store).values())
        report = rebuild_storage(store, 0)
        assert report.records_repaired == report.records_lost == 0
        assert report.duration > 0

    def test_rebuild_reads_a_batch_in_flight_together(self, store):
        """One batch of mirror reads costs about one read's latency, not
        one per record: the rebuild waits once, for the last of them."""
        _load(store)
        n = len(_vs_keys(store)[0])
        assert n > 4
        store.injector.kill_device(store.storages[0].ssd.name)
        mirror = store.storages[0].mirror
        before = mirror.bytes_read
        report = rebuild_storage(store, 0, batch=n)
        assert report.records_repaired == n
        assert mirror.bytes_read > before
        assert report.duration < n * mirror.spec.read_latency / 2
