"""Cross-device self-healing: mirror/PWB repair sources, read-repair,
and full dead-storage rebuild."""

import pytest

from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.prism import Prism
from repro.faults.errors import (
    CorruptionError,
    DeviceError,
    ReadDegradedError,
    UnrecoverableCorruptionError,
)
from repro.faults.injector import FaultConfig
from repro.repair import fetch_value, rebuild_storage
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
    size = vs.slot_size(loc.chunk_id, loc.vs_offset)
    store.injector.corrupt_at_rest(
        vs.ssd,
        loc.chunk_id * vs.chunk_size + loc.vs_offset,
        vs.header_size + size,
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
        assert store.metrics.counter("corruption.detected").value >= 1
        assert store.metrics.counter("corruption.repaired").value >= 1
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
        assert store.metrics.counter("corruption.unrecoverable").value >= 1
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
        assert store.metrics.counter("corruption.repaired").value >= 1

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
        assert fetch_value(store, idx, 0, 0, 0) == (bytes([4]) * 303, "pwb")
        assert store.nvm.bytes_read - before == scanned

    def test_fetch_value_reports_source(self, store):
        _load(store)
        key, loc = _vs_keys(store)[0][0]
        idx = store.index.lookup(key)
        fetched = fetch_value(store, idx, 0, loc.chunk_id, loc.vs_offset)
        assert fetched is not None
        value, source = fetched
        assert source == "mirror"
        assert value == store.get(key)


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
        assert store.metrics.gauge("repair.rebuild_seconds").value == report.duration
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
