"""Background scrubber: finds and repairs seeded corruption, refreshes
rotted mirrors, and is a structural no-op when injection is off."""

import random

import pytest

from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.prism import Prism
from repro.faults.injector import FaultConfig
from repro.repair import Scrubber, rebuild_storage
from tests.repair.test_repair import _integrity_config, _load, _vs_keys


@pytest.fixture
def store() -> Prism:
    return Prism(_integrity_config())


def _rot_records(store, count, seed=11):
    """Seeded at-rest bit-rot on ``count`` distinct stored records."""
    records = []
    for vs in store.storages:
        for chunk_id, info in vs._chunks.items():
            for offset, slot in info.slots.items():
                if slot.valid:
                    records.append((vs, chunk_id, offset, slot.size))
    rng = random.Random(seed)
    picked = rng.sample(records, count)
    for vs, chunk_id, offset, size in picked:
        store.injector.corrupt_at_rest(
            vs.ssd,
            chunk_id * vs.chunk_size + offset,
            vs.header_size + size,
        )
    return picked


def test_scrub_finds_and_repairs_seeded_corruption(store):
    _load(store)
    expect = {key: store.get(key) for key, _ in store.index.items()}
    _rot_records(store, 5)
    report = Scrubber(store).scrub_once()
    assert report.corrupt_found == 5
    assert report.repaired == 5
    assert report.unrecoverable == 0
    assert report.chunks_scanned > 0
    assert report.duration > 0
    (event,) = store.events.of_kind("scrub")
    assert event["chunks"] == report.chunks_scanned
    assert store.corruption_detected == 5
    # Post-scrub the store is pristine: audit (incl. I7) is clean and
    # every value reads back.
    assert audit(store).ok
    for key, value in expect.items():
        assert store.get(key) == value


def test_scrub_respects_bandwidth_budget(store):
    _load(store)
    _rot_records(store, 1)
    fast = Scrubber(store, bandwidth=1024**3).scrub_once()
    # Fresh identical store: the budget is the only difference.
    slow_store = Prism(_integrity_config())
    _load(slow_store)
    _rot_records(slow_store, 1)
    slow = Scrubber(slow_store, bandwidth=1024**2).scrub_once()
    assert slow.bytes_read == fast.bytes_read
    assert slow.duration > fast.duration


def test_scrub_refreshes_rotted_mirror(store):
    _load(store)
    key, loc = _vs_keys(store)[0][0]
    vs = store.storages[0]
    addr = loc.chunk_id * vs.chunk_size + loc.vs_offset + vs.header_size
    raw = bytearray(vs.mirror.read_raw(addr, 1))
    raw[0] ^= 0x04
    vs.mirror.write_raw(addr, bytes(raw))
    store.injector.silent_injected += 1  # mark corruption as possible
    report = Scrubber(store).scrub_once()
    assert report.mirrors_refreshed == 1
    assert report.corrupt_found == 0
    # The mirror copy is whole again: killing the primary afterwards
    # still leaves a full rebuild possible.
    store.injector.kill_device(vs.ssd.name)
    assert rebuild_storage(store, 0).ok


def test_scrub_noop_without_corruption_possible(store):
    _load(store)
    before = store.clock.now
    reads = [vs.ssd.bytes_read for vs in store.storages]
    report = Scrubber(store).scrub_once()
    # Structural no-op: nothing scanned, no device traffic, no virtual
    # time consumed — a corruption-free store is bit-identical with or
    # without a scrubber attached.
    assert report.chunks_scanned == 0
    assert report.records_verified == 0
    assert store.clock.now == before
    assert [vs.ssd.bytes_read for vs in store.storages] == reads


def test_scrub_inactive_without_checksums():
    store = Prism(_integrity_config(enable_checksums=False, mirror_chunks=False))
    _load(store)
    scrubber = Scrubber(store)
    store.injector.silent_injected += 1
    assert not scrubber.active()  # checksums off: nothing it could verify
    assert scrubber.scrub_once().chunks_scanned == 0


@pytest.mark.slow
def test_scrub_fuzz_random_corruption_never_serves_wrong_bytes():
    rng = random.Random(7)
    for trial in range(5):
        store = Prism(_integrity_config())
        _load(store, n=60)
        expect = {key: store.get(key) for key, _ in store.index.items()}
        _rot_records(store, rng.randrange(1, 12), seed=trial)
        report = Scrubber(store).scrub_once()
        assert report.unrecoverable == 0
        for key, value in expect.items():
            assert store.get(key) == value
        assert audit(store).ok
