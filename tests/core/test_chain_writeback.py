"""The chain write-back's early return is exact.

``ScanAwareValueCache._writeback_chain`` decides from the slots a scan
recorded (``_settled``) before it loads any HSIT entry.  An oracle
around every chain eviction recomputes the decision the way the
gather-first write-back made it, from the untimed HSIT words, and
checks both directions on seeded scan-heavy mixes: every early return
is a chain that write-back would not have moved, and every chain that
is rewritten writes exactly the records that write-back would have.
"""

import random

import pytest

from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.prism import Prism
from repro.core.svc import ScanAwareValueCache
from repro.faults.injector import FaultConfig
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, QLC_SSD_SPEC
from tests.conftest import KB, MB, small_prism_config


def _gather_first_movable(store, chain, storages):
    """What the gather-first write-back moved: the members whose HSIT
    location is a valid Value Storage slot, key-sorted, unless they
    already run in order; nothing when fewer than two."""
    located = []
    for member in chain:
        loc = ptr.decode(ptr.clear_dirty(store.hsit.location_word(member.hsit_idx)))
        if loc.medium == ptr.MEDIUM_VS and storages[loc.vs_id].is_valid(
            loc.chunk_id, loc.vs_offset
        ):
            located.append((member, loc))
    located.sort(key=lambda pair: pair[0].key)
    if ScanAwareValueCache._already_contiguous([loc for _, loc in located]):
        return []
    return [member for member, _ in located] if len(located) > 1 else []


class Oracle:
    """Wraps one store's chain evictions with the gather-first decision."""

    def __init__(self, store):
        self.store = store
        self.settled = 0
        self.rewritten = 0
        svc = store.svc
        self._writeback = svc._writeback_chain
        self._settled = svc._settled
        svc._writeback_chain = self.writeback_chain
        svc._settled = self.check_settled

    def check_settled(self, chain, storages):
        """An early return: every recorded slot is its member's HSIT
        location, and the gather-first write-back would move nothing."""
        settled = self._settled(chain, storages)
        if settled:
            self.settled += 1
            for member in chain:
                word = self.store.hsit.location_word(member.hsit_idx)
                assert ptr.decode(ptr.clear_dirty(word)) == member.slot
            assert _gather_first_movable(self.store, chain, storages) == []
        return settled

    def writeback_chain(self, bg, entry, storages):
        """Any chain eviction writes what the gather-first write-back
        would have: one batch of the same records, or nothing."""
        svc = self.store.svc
        expect = [
            (m.hsit_idx, m.value)
            for m in _gather_first_movable(self.store, svc._chain_of(entry), storages)
        ]
        written = []
        real = {}
        for vs in storages:
            real[vs] = vs.write_records

            def recording(at, records, _write=vs.write_records):
                written.append(list(records))
                return _write(at, records)

            vs.write_records = recording
        try:
            self._writeback(bg, entry, storages)
        finally:
            for vs, write in real.items():
                vs.write_records = write
        assert written == ([expect] if expect else [])
        self.rewritten += bool(expect)


def _drive(store, seed, ops, keys, scans=0.6, delete_share=0.0, kill_at=None):
    """A seeded scan-heavy mix: ``scans`` of the ops are scans, a fifth
    are puts, then deletes and gets."""
    rng = random.Random(seed)
    names = [b"k%05d" % i for i in range(keys)]
    for key in names:
        store.put(key, bytes([rng.randrange(256)]) * rng.randrange(200, 1200))
    live = set(names)
    for op in range(ops):
        if op == kill_at:
            store.injector.kill_device(store.storages[1].ssd.name)
        key = rng.choice(names)
        roll = rng.random()
        if roll < scans:
            store.scan(key, rng.randrange(5, 60))
        elif roll < scans + 0.2 or key not in live:
            store.put(key, bytes([op % 256]) * rng.randrange(200, 1200))
            live.add(key)
        elif roll < scans + 0.2 + delete_share:
            store.delete(key)
            live.discard(key)
        else:
            store.get(key)


def _events(kind):
    return lambda store: len(store.events.of_kind(kind))


# name -> (config overrides, _drive arguments, what the mix must reach)
MIXES = {
    "tight_svc_and_pwb": (
        dict(svc_capacity=24 * KB, pwb_capacity=16 * KB),
        {},
        _events("reclaim"),
    ),
    "deletes": (
        dict(svc_capacity=64 * KB),
        dict(delete_share=0.15),
        lambda store: store.deletes,
    ),
    "gc_under_space_pressure": (
        dict(
            svc_capacity=48 * KB, pwb_capacity=16 * KB,
            ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(320 * KB),
            gc_free_threshold=0.3, gc_batch_chunks=1,
        ),
        dict(scans=0.4),
        _events("gc"),
    ),
    "tiered": (
        dict(
            svc_capacity=48 * KB, num_ssds=1, enable_tiering=True,
            num_cold_ssds=1,
            ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(256 * KB),
            cold_ssd_spec=QLC_SSD_SPEC.with_capacity(MB),
            tier_hot_threshold=3, tier_recency_window=32,
            gc_free_threshold=0.3,
        ),
        {},
        _events("tier_demote"),
    ),
    "killed_device_with_mirrors": (
        dict(
            svc_capacity=48 * KB, enable_checksums=True, mirror_chunks=True,
            faults=FaultConfig(),
        ),
        dict(kill_at=400),
        _events("repair"),
    ),
}


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("seed", [1, 2])
def test_early_returns_agree_with_the_gather_first_write_back(mix, seed):
    config, drive, reached = MIXES[mix]
    store = Prism(small_prism_config(**config))
    oracle = Oracle(store)
    _drive(store, seed, ops=800, keys=400, **drive)
    assert reached(store) > 0
    assert oracle.settled > 0
    assert oracle.rewritten > 0
    assert audit(store).ok



def _writeback_targets(store):
    """Record, for every chain write-back of ``store``, the storage it
    lands on and whether that storage's device was dead then."""
    targets = []
    relocate = store.svc.relocate

    def recording(target, entries, bg, label):
        if label == "writeback":
            targets.append((target, store._device_dead(target.ssd.name)))
        return relocate(target, entries, bg, label)

    store.svc.relocate = recording
    return targets


def _busiest(vs):
    """Make ``vs`` report more reads in flight than any other ring, so
    a write-back that ranks every storage by in-flight reads alone
    passes it over."""
    vs.ring.inflight_at = lambda at: 1_000


@pytest.mark.parametrize("seed", [1, 2])
def test_a_tiered_store_never_writes_a_chain_back_to_a_cold_storage(seed):
    """Under the temperature policy new data goes to the fast tier only;
    a chain write-back is new data, so it lands there too, even when
    the fast storage is the busier one."""
    config, drive, _reached = MIXES["tiered"]
    store = Prism(small_prism_config(**config))
    assert store.tiering.temperature
    targets = _writeback_targets(store)
    _busiest(store.tiering.fast[0])
    _drive(store, seed, ops=800, keys=400, **drive)
    assert targets
    assert all(vs in store.tiering.fast for vs, _dead in targets)
    assert audit(store).ok


@pytest.mark.parametrize("seed", [1, 2])
def test_a_chain_write_back_never_picks_a_killed_storage(seed):
    """Storage 1 dies at op 400 and storage 0, the one left, is the
    busier ring: every write-back after the death still lands on
    storage 0."""
    config, drive, _reached = MIXES["killed_device_with_mirrors"]
    store = Prism(small_prism_config(**config))
    targets = _writeback_targets(store)
    _busiest(store.storages[0])
    _drive(store, seed, ops=800, keys=400, **drive)
    assert store.injector.is_dead(store.storages[1].ssd.name)
    # Before the death storage 1, the idler ring, takes every one.
    assert any(vs is store.storages[0] for vs, _dead in targets)
    assert not any(dead for _vs, dead in targets)
    assert audit(store).ok
