"""White-box tests for Prism's internal mechanisms."""

import pytest

from repro.core import pointers as ptr
from repro.core.prism import Prism
from repro.sim.vthread import VThread
from tests.conftest import small_prism_config


@pytest.fixture
def store():
    return Prism(small_prism_config(num_threads=2))


@pytest.fixture
def t(store):
    return VThread(0, store.clock)


class TestStoragePicking:
    def test_prefers_idle_storage(self, store):
        # Make storage 0 busy far into the future.
        from repro.storage.iouring import IORequest

        vs0 = store.storages[0]
        vs0.ring.submit(0.0, [IORequest("read", 0, 4096)])
        # At time 0 the request is still in flight on vs0.
        picked = store._pick_storage(1e-9)
        assert picked.vs_id == 1

    def test_round_robin_when_all_idle(self, store):
        first = store._pick_storage(1e9)
        second = store._pick_storage(1e9)
        assert first.vs_id != second.vs_id


class TestMergedScanReads:
    """The scan's fetch goes through the storage's shared run planner
    (``ValueStorage.plan_reads`` / ``parse_reads``) and its combiner."""

    @staticmethod
    def _fetch(store, t, items):
        vs = store.storages[0]
        requests = vs.plan_reads(sorted(items))
        done = store.combiners[0].submit(t, requests)
        return requests, done

    def test_adjacent_records_merge_into_one_io(self, store, t):
        """After reorganization, a scan over a contiguous range costs
        one SSD IO, not one per value."""
        # Write a contiguous run directly into one Value Storage chunk.
        vs = store.storages[0]
        idxs = [store.hsit.allocate() for _ in range(10)]
        records = [(idx, b"v%02d" % i) for i, idx in enumerate(idxs)]
        placements, _ = vs.write_records(0.0, records)
        items = []
        for (idx, _v), (chunk, off, _s) in zip(records, placements):
            store.hsit.publish_location(idx, ptr.encode_vs(0, chunk, off))
            items.append((chunk, off, (idx, b"k%02d" % idx)))
        ios_before = vs.ssd.read_ios
        before = t.now
        requests, done = self._fetch(store, t, items)
        assert vs.ssd.read_ios == ios_before + 1  # single merged read
        assert len(requests) == 1
        # Submitting costs the syscall and one SQE; the wait is the
        # caller's, once, after every storage has its reads.
        assert t.now - before < 3e-6 < done - before
        out = vs.parse_reads(requests, heal=None)
        assert [v for _, _, _, v in out] == [b"v%02d" % i for i in range(10)]
        assert [tag for _, _, tag, _ in out] == [tag for _, _, tag in items]

    def test_scattered_records_need_separate_ios(self, store, t):
        vs = store.storages[0]
        idxs = [store.hsit.allocate() for _ in range(8)]
        placements, _ = vs.write_records(0.0, [(idx, b"x" * 2000) for idx in idxs])
        items = []
        # Every other record of the batch: each has a stranger between
        # it and the next, so nothing the scan wants is adjacent.
        for i in range(0, 8, 2):
            chunk, off, _ = placements[i]
            store.hsit.publish_location(idxs[i], ptr.encode_vs(0, chunk, off))
            items.append((chunk, off, (idxs[i], b"k%d" % i)))
        ios_before = vs.ssd.read_ios
        requests, _ = self._fetch(store, t, items)
        assert vs.ssd.read_ios == ios_before + 4
        out = vs.parse_reads(requests, heal=None)
        assert [v for _, _, _, v in out] == [b"x" * 2000] * 4


class TestSupersede:
    def test_vs_slot_invalidated_on_update(self, store, t):
        store.put(b"k", b"v1", t)
        store.put(b"other", b"o1", t)  # keeps the chunk partially live
        store.flush()
        idx = store.index.lookup(b"k")
        loc = store.hsit.read_location(idx)
        assert store.storages[loc.vs_id].is_valid(loc.chunk_id, loc.vs_offset)
        store.put(b"k", b"v2", t)
        assert not store.storages[loc.vs_id].is_valid(loc.chunk_id, loc.vs_offset)

    def test_pwb_version_superseded_without_vs_traffic(self, store, t):
        store.put(b"k", b"v1", t)
        ssd_before = store.ssd_bytes_written()
        store.put(b"k", b"v2", t)
        assert store.ssd_bytes_written() == ssd_before


class TestEpochIntegration:
    def test_deleted_hsit_entry_eventually_reused(self, store, t):
        store.put(b"k", b"v", t)
        idx = store.index.lookup(b"k")
        store.delete(b"k", t)
        # Drive epochs forward with unrelated operations.
        for i in range(300):
            store.get(b"nothing%d" % i, t)
        store.epoch.drain()
        allocated = store.hsit.allocate(t)
        assert allocated == idx

    def test_hsit_leak_bounded_by_pending_epochs(self, store, t):
        for i in range(50):
            store.put(b"d%02d" % i, b"v", t)
            store.delete(b"d%02d" % i, t)
        store.epoch.drain()
        assert store.hsit.allocated_entries() == 0


class TestBackgroundIsolation:
    def test_reclamation_charged_to_background(self, store, t):
        pwb = store.pwbs[0]
        # Fill past the watermark with one thread.
        i = 0
        while store.reclaims == 0:
            store.put(b"w%05d" % i, b"x" * 512, t)
            i += 1
        assert store._bg_reclaim.now > 0
        # Foreground op latency stays microsecond-scale.
        before = t.now
        store.put(b"probe", b"x" * 512, t)
        assert t.now - before < 100e-6

    def test_flush_empties_all_pwbs(self, store):
        threads = [VThread(i, store.clock) for i in range(2)]
        for i, thread in enumerate(threads * 20):
            store.put(b"m%03d" % i, b"v" * 100, thread)
        store.flush()
        assert all(pwb.used == 0 for pwb in store.pwbs)
