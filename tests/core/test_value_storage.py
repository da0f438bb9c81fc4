import tracemalloc
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.core.value_storage import RECORD_HEADER, ValueStorage
from repro.storage.base import StorageError
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice

MB = 1024**2
CHUNK = 16 * 1024


@pytest.fixture
def vs(ssd):
    return ValueStorage(0, ssd, chunk_size=CHUNK)


class TestWriteRead:
    def test_single_record_roundtrip(self, vs):
        placements, done = vs.write_records(0.0, [(7, b"hello-value")])
        assert done > 0
        ((chunk_id, offset, size),) = placements
        assert size == 11
        back, value = vs.read_record_raw(chunk_id, offset)
        assert (back, value) == (7, b"hello-value")

    def test_records_pack_into_one_chunk(self, vs):
        records = [(i, bytes([i]) * 100) for i in range(20)]
        placements, _ = vs.write_records(0.0, records)
        assert len({c for c, _, _ in placements}) == 1
        for (idx, val), (c, o, _s) in zip(records, placements):
            assert vs.read_record_raw(c, o) == (idx, val)

    def test_spill_to_second_chunk(self, vs):
        big = CHUNK // 3
        records = [(i, b"x" * big) for i in range(4)]
        placements, _ = vs.write_records(0.0, records)
        assert len({c for c, _, _ in placements}) == 2

    def test_record_too_large(self, vs):
        with pytest.raises(StorageError):
            vs.write_records(0.0, [(0, b"x" * (CHUNK + 1))])

    def test_record_request_sizes(self, vs):
        ((chunk_id, offset, _),) = vs.write_records(0.0, [(1, b"abc")])[0]
        req = vs.record_request(chunk_id, offset)
        assert req.size == 12 + 3
        assert vs.slot_size(chunk_id, offset) == 3

    def test_parse_record(self, vs):
        raw = (5).to_bytes(8, "little") + (3).to_bytes(4, "little") + b"xyz!!"
        assert vs.parse_record(raw) == (5, b"xyz")

    def test_unknown_slot_rejected(self, vs):
        with pytest.raises(StorageError):
            vs.record_request(0, 0)


class TestValidityBitmap:
    def test_new_records_valid(self, vs):
        ((c, o, _),) = vs.write_records(0.0, [(1, b"v")])[0]
        assert vs.is_valid(c, o)

    def test_invalidate(self, vs):
        placements, _ = vs.write_records(0.0, [(1, b"a"), (2, b"b")])
        c, o, _ = placements[0]
        vs.invalidate(c, o)
        assert not vs.is_valid(c, o)

    def test_chunk_freed_when_empty(self, vs):
        placements, _ = vs.write_records(0.0, [(1, b"a")])
        free_before = vs.free_chunks
        c, o, _ = placements[0]
        vs.invalidate(c, o)
        assert vs.free_chunks == free_before + 1

    def test_double_invalidate_harmless(self, vs):
        placements, _ = vs.write_records(0.0, [(1, b"a"), (2, b"b")])
        c, o, _ = placements[0]
        vs.invalidate(c, o)
        vs.invalidate(c, o)
        assert vs.used_chunks == 1


class TestGC:
    def test_victims_are_least_live(self, vs):
        p1, _ = vs.write_records(0.0, [(i, b"x" * 200) for i in range(10)])
        p2, _ = vs.write_records(0.0, [(i + 10, b"x" * 200) for i in range(10)])
        chunk1 = p1[0][0]
        chunk2 = p2[0][0]
        for c, o, _ in p1[:8]:
            vs.invalidate(c, o)
        victims = vs.gc_victims(1)
        assert victims == [chunk1]

    def test_live_records_of(self, vs):
        placements, _ = vs.write_records(0.0, [(1, b"a"), (2, b"b")])
        c, o, _ = placements[0]
        vs.invalidate(c, o)
        live = vs.live_records_of(c)
        assert len(live) == 1
        assert live[0].hsit_idx == 2

    def test_live_records_of_unknown_chunk(self, vs):
        assert vs.live_records_of(12345) == []


class TestSyncAppend:
    def test_sync_append_roundtrip(self, vs, thread):
        chunk_id, offset = vs.append_record_sync(thread, 5, b"sync-value")
        assert vs.read_record_raw(chunk_id, offset) == (5, b"sync-value")
        assert thread.now > 0

    def test_sync_appends_share_chunk(self, vs, thread):
        c1, _ = vs.append_record_sync(thread, 1, b"a" * 100)
        c2, _ = vs.append_record_sync(thread, 2, b"b" * 100)
        assert c1 == c2

    def test_sync_append_rolls_chunk_when_full(self, vs, thread):
        big = CHUNK // 2
        c1, _ = vs.append_record_sync(thread, 1, b"a" * big)
        c2, _ = vs.append_record_sync(thread, 2, b"b" * big)
        assert c1 != c2


class TestRebuild:
    def test_rebuild_from_live_map(self, vs, ssd):
        placements, _ = vs.write_records(0.0, [(1, b"aa"), (2, b"bb"), (3, b"cc")])
        live = {
            (c, o): (idx, s)
            for (idx, _v), (c, o, s) in zip([(1, b"aa"), (2, b"bb"), (3, b"cc")], placements)
            if idx != 2
        }
        vs.rebuild_from(live)
        c, o, s = placements[0]
        assert vs.is_valid(c, o)
        with pytest.raises(StorageError):
            vs.is_valid(placements[1][0], placements[1][1])
        assert vs.read_record_raw(c, o) == (1, b"aa")

    def test_rebuild_frees_unreferenced_chunks(self, vs):
        vs.write_records(0.0, [(1, b"x")])
        vs.rebuild_from({})
        assert vs.used_chunks == 0
        assert vs.free_chunks == vs.num_chunks


def test_chunk_size_validation(ssd):
    with pytest.raises(ValueError):
        ValueStorage(0, ssd, chunk_size=100)


def test_zero_chunk_device_rejected():
    tiny = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(256 * 1024))
    with pytest.raises(ValueError, match=r"262144B.*524288B"):
        ValueStorage(0, tiny)


def test_bookkeeping_is_independent_of_device_capacity():
    """Catalog-size devices (2 x 1 TB fast + 2 x 8 TB cold = 37.7 M
    chunk ids): building, crashing and recovering an empty store must
    cost what the data costs — nothing."""
    tracemalloc.start()
    try:
        store = Prism(PrismConfig(enable_tiering=True))
        store.crash()
        store.recover()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(vs.num_chunks for vs in store.storages) > 30_000_000
    assert all(vs.free_chunks == vs.num_chunks for vs in store.storages)
    assert peak < 8 * MB


def test_space_stats(vs):
    assert vs.free_fraction() == 1.0
    vs.write_records(0.0, [(1, b"x")])
    assert vs.used_bytes() == CHUNK
    assert vs.free_fraction() < 1.0


SMALL_CHUNK = 4096
FULL_VALUE = b"x" * (SMALL_CHUNK - RECORD_HEADER)  # one record = one chunk


class FreeListMachine(RuleBasedStateMachine):
    """The lazy free list against the eager ``deque(range(n))`` it
    replaced (kept here as the oracle): same allocation order and same
    ``free_chunks`` after every allocate / release / failed-write
    rollback / ``rebuild_from``."""

    @initialize(n=st.integers(min_value=1, max_value=300))
    def setup(self, n):
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(n * SMALL_CHUNK))
        self.vs = ValueStorage(0, ssd, chunk_size=SMALL_CHUNK)
        self.model = deque(range(n))
        self.used = []  # chunk ids holding one live record, oldest first

    def _write(self, count):
        return self.vs.write_records(0.0, [(7, FULL_VALUE)] * count)[0]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def allocate(self, data):
        count = data.draw(st.integers(1, min(8, len(self.model))))
        expected = [self.model.popleft() for _ in range(count)]
        assert [cid for cid, _, _ in self._write(count)] == expected
        self.used += expected

    @precondition(lambda self: not self.model)
    @rule()
    def allocate_when_full(self):
        with pytest.raises(StorageError, match="no free chunks"):
            self._write(1)

    @precondition(lambda self: self.used)
    @rule(data=st.data())
    def release(self, data):
        cid = self.used.pop(data.draw(st.integers(0, len(self.used) - 1)))
        self.vs.invalidate(cid, 0)  # last live record: the chunk is freed
        self.model.append(cid)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def failed_write(self, data):
        count = data.draw(st.integers(1, min(8, len(self.model))))
        fail_at = data.draw(st.integers(0, count - 1))
        real_write, calls = self.vs.ssd.write_async, iter(range(count))

        def failing(at, offset, payload):
            if next(calls) == fail_at:
                raise StorageError("injected write failure")
            return real_write(at, offset, payload)

        self.vs.ssd.write_async = failing
        try:
            with pytest.raises(StorageError, match="injected"):
                self._write(count)
        finally:
            del self.vs.ssd.write_async
        self.model.extend([self.model.popleft() for _ in range(count)])

    @rule(data=st.data())
    def rebuild(self, data):
        keep = data.draw(st.sets(st.sampled_from(self.used))) if self.used else set()
        live = {(cid, 0): (7, len(FULL_VALUE)) for cid in keep}
        self.vs.rebuild_from(live)
        self.model = deque(
            cid for cid in range(self.vs.num_chunks) if cid not in keep
        )
        self.used = [cid for cid in self.used if cid in keep]

    @invariant()
    def counts_match(self):
        assert self.vs.free_chunks == len(self.model)
        assert self.vs.used_chunks == len(self.used)

    def teardown(self):
        # Drain: the whole remaining order, not just the prefix the
        # rules happened to allocate.
        drained = [self.vs._allocate_chunk(None) for _ in range(len(self.model))]
        assert drained == list(self.model)
        assert self.vs.free_chunks == 0


TestFreeList = FreeListMachine.TestCase
TestFreeList.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
