import random
import tracemalloc
from collections import deque
from contextlib import contextmanager

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

from repro.core.checker import AuditReport, audit, check_chunk_geometry
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.core.record import RECORD_HEADER, parse
from repro.core.value_storage import ValueStorage
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import SimulatedCrash
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import PAGE_SIZE, SSDDevice
from tests.conftest import small_prism_config

MB = 1024**2
CHUNK = 16 * 1024
FULL_CHUNK_VALUE = b"x" * (CHUNK - RECORD_HEADER)  # one record = one chunk


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

    def test_plan_reads_sizes(self, vs):
        ((chunk_id, offset, _),) = vs.write_records(0.0, [(1, b"abc")])[0]
        (req,) = vs.plan_reads([(chunk_id, offset, None)])
        assert req.size == 12 + 3
        assert vs.live_records_of(chunk_id)[0].size == 3

    def test_parse_record(self, vs):
        raw = (5).to_bytes(8, "little") + (3).to_bytes(4, "little") + b"xyz!!"
        assert parse(raw, vs.checksums, vs.ssd.name) == (5, b"xyz")

    def test_unknown_slot_rejected(self, vs):
        with pytest.raises(StorageError):
            vs.plan_reads([(0, 0, None)])
        ((chunk_id, offset, _),) = vs.write_records(0.0, [(1, b"abc")])[0]
        with pytest.raises(StorageError):
            vs.plan_reads([(chunk_id, offset + 1, None)])


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

    def test_holds_a_valid_slot_of_that_index_only(self, vs):
        placements, _ = vs.write_records(0.0, [(1, b"a"), (2, b"b")])
        (c, o, _), (c2, o2, _) = placements
        assert vs.holds(c, o, 1) and not vs.holds(c, o, 2)
        assert not vs.holds(c, o + 1, 1) and not vs.holds(c + 1, o, 1)
        vs.invalidate(c, o)
        assert not vs.holds(c, o, 1)
        vs.invalidate(c2, o2)  # the chunk is released
        assert not vs.holds(c2, o2, 2)

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


def restarted(vs, live):
    """What a restart does to a storage: a new one over the same SSD,
    given the live map recovery found."""
    fresh = ValueStorage(
        vs.vs_id, vs.ssd, vs.chunk_size, checksums=vs.checksums, mirror=vs.mirror
    )
    fresh.rebuild_from(live)
    return fresh


class TestRebuild:
    def test_rebuild_from_live_map(self, vs, ssd):
        placements, _ = vs.write_records(0.0, [(1, b"aa"), (2, b"bb"), (3, b"cc")])
        live = {
            (c, o): (idx, s)
            for (idx, _v), (c, o, s) in zip([(1, b"aa"), (2, b"bb"), (3, b"cc")], placements)
            if idx != 2
        }
        vs = restarted(vs, live)
        c, o, s = placements[0]
        assert vs.is_valid(c, o)
        with pytest.raises(StorageError):
            vs.is_valid(placements[1][0], placements[1][1])
        assert vs.read_record_raw(c, o) == (1, b"aa")

    def test_rebuild_frees_unreferenced_chunks(self, vs):
        vs.write_records(0.0, [(1, b"x")])
        vs = restarted(vs, {})
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


def observable(vs):
    """Everything a caller can see of the storage's DRAM state."""
    return (
        {
            cid: (
                info.write_head, info.live_records, info.live_bytes,
                {o: (s.hsit_idx, s.size, s.valid) for o, s in info.slots.items()},
            )
            for cid, info in vs._chunks.items()
        },
        vs.free_chunks,
        vs.open_chunk,
    )


@contextmanager
def failing_write(ssd, fail_at):
    """The ``fail_at``-th write IO from now raises; earlier ones land."""
    real, calls = ssd.write_async, iter(range(fail_at + 1))

    def failing(at, offset, payload):
        if next(calls) == fail_at:
            raise StorageError("injected write failure")
        return real(at, offset, payload)

    ssd.write_async = failing
    try:
        yield
    finally:
        ssd.write_async = real


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
        with failing_write(self.vs.ssd, fail_at):
            with pytest.raises(StorageError, match="injected"):
                self._write(count)
        self.model.extend([self.model.popleft() for _ in range(count)])

    @rule(data=st.data())
    def rebuild(self, data):
        keep = data.draw(st.sets(st.sampled_from(self.used))) if self.used else set()
        live = {(cid, 0): (7, len(FULL_VALUE)) for cid in keep}
        self.vs = restarted(self.vs, live)
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


# ----------------------------------------------------------------------
# the log head
# ----------------------------------------------------------------------
HEAD_CHUNK = 8 * 1024  # two device pages: boundaries come up constantly
value_sizes = st.one_of(
    st.integers(1, 64), st.integers(500, 1500), st.integers(3000, 5000)
)


class LogHeadMachine(RuleBasedStateMachine):
    """Batches appended at the log head against a model of what is
    live: whatever mix of appends, invalidations, failed IOs, GC rounds
    and recoveries ran, every live record reads back, the chunk
    geometry (checker I9) holds and every IO began on a device page."""

    @initialize(n=st.integers(2, 12))
    def setup(self, n):
        self.ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(n * HEAD_CHUNK))
        self.vs = ValueStorage(0, self.ssd, chunk_size=HEAD_CHUNK)
        self.live = {}  # (chunk_id, offset) -> (hsit_idx, value)
        self.next_idx = 0
        self.io_offsets = []
        real = self.ssd.write_async

        def recording(at, offset, payload):
            self.io_offsets.append(offset)
            return real(at, offset, payload)

        self.ssd.write_async = recording

    def _batch(self, sizes):
        records = []
        for size in sizes:
            records.append((self.next_idx, bytes([self.next_idx % 251 + 1]) * size))
            self.next_idx += 1
        return records

    def _append(self, records):
        """Write if it fits; a batch that does not must change nothing."""
        before = observable(self.vs)
        if not self.vs.fits(records):
            with pytest.raises(StorageError):
                self.vs.write_records(0.0, records)
            assert observable(self.vs) == before
            return False
        placements, _ = self.vs.write_records(0.0, records)
        for record, (cid, off, size) in zip(records, placements):
            assert size == len(record[1])
            self.live[cid, off] = record
        return True

    @rule(sizes=st.lists(value_sizes, min_size=1, max_size=40))
    def append(self, sizes):
        self._append(self._batch(sizes))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def invalidate(self, data):
        place = data.draw(st.sampled_from(sorted(self.live)))
        del self.live[place]
        self.vs.invalidate(*place)

    @rule(sizes=st.lists(value_sizes, min_size=1, max_size=40), data=st.data())
    def failed_append(self, sizes, data):
        records = self._batch(sizes)
        if not self.vs.fits(records):
            return
        ios = sum(1 for count in self.vs._split(records) if count)
        before = observable(self.vs)
        with failing_write(self.ssd, data.draw(st.integers(0, ios - 1))):
            with pytest.raises(StorageError, match="injected"):
                self.vs.write_records(0.0, records)
        assert observable(self.vs) == before

    @precondition(lambda self: self.live)
    @rule(count=st.integers(1, 3))
    def collect(self, count):
        victims = self.vs.gc_victims(count)
        assert self.vs.open_chunk not in victims  # selecting the head seals it
        moves = [
            (cid, slot.offset) for cid in victims
            for slot in self.vs.live_records_of(cid)
        ]
        assert sorted(moves) == sorted(p for p in self.live if p[0] in victims)
        if self._append([self.live[place] for place in moves]):
            for place in moves:
                del self.live[place]
                self.vs.invalidate(*place)
            assert not set(victims) & set(self.vs._chunks)

    @rule()
    def rebuild(self):
        self.vs = restarted(
            self.vs,
            {place: (idx, len(value)) for place, (idx, value) in self.live.items()},
        )
        assert self.vs.open_chunk is None

    @invariant()
    def live_records_read_back(self):
        for (cid, off), record in self.live.items():
            assert self.vs.read_record_raw(cid, off) == record

    @invariant()
    def geometry_holds(self):
        report = AuditReport()
        check_chunk_geometry(self.vs, report)
        assert report.ok, report.violations
        assert sum(i.live_records for i in self.vs._chunks.values()) == len(self.live)

    @invariant()
    def ios_begin_on_a_device_page(self):
        assert all(offset % PAGE_SIZE == 0 for offset in self.io_offsets)
        self.io_offsets.clear()


TestLogHead = LogHeadMachine.TestCase
TestLogHead.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_small_batches_share_chunks(ssd):
    """200 scan-write-back-sized batches cost the flash they fill (one
    chunk each before the log head: 200 chunks)."""
    vs = ValueStorage(0, ssd, chunk_size=512 * 1024)
    batches, appended = 200, 0
    for b in range(batches):
        records = [(b * 60 + i, b"v" * 1024) for i in range(60)]
        vs.write_records(0.0, records)
        appended += sum(vs.record_bytes(len(v)) for _, v in records)
    # Each batch loses less than a page to alignment, each chunk less
    # than a record at its end.
    lost = batches * PAGE_SIZE + vs.used_chunks * vs.record_bytes(1024)
    assert vs.used_chunks <= -(-(appended + lost) // vs.chunk_size) + 1
    assert vs.chunk_writes <= batches + vs.used_chunks  # one IO per (call, chunk)


@pytest.mark.parametrize("label", ["vs.write.pre", "vs.write.done"])
def test_crash_while_appending_keeps_published_records(label):
    """A power failure in the middle of an append to a chunk that
    already holds published records loses none of them."""
    store = Prism(small_prism_config(num_ssds=1, num_threads=1))
    t = VThread(0, store.clock)
    model = {b"a%02d" % i: bytes([i + 1]) * 300 for i in range(10)}
    for key, value in model.items():
        store.put(key, value, t)
    store.flush()
    (vs,) = store.storages
    head = vs.open_chunk
    assert head is not None and vs._chunks[head].live_records == len(model)
    for i in range(10):
        store.put(b"b%02d" % i, b"w" * 300, t)  # acked: durable in the PWB
        model[b"b%02d" % i] = b"w" * 300
    store.crash_point.arm(label)
    with pytest.raises(SimulatedCrash):
        store.flush()
    store.recover()
    (vs,) = store.storages  # the restart built a new one
    assert vs.open_chunk != head  # the recovery flush took a fresh chunk
    for key, value in model.items():
        assert store.get(key, t) == value
    assert audit(store).ok


def test_released_chunk_is_trimmed():
    primary = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(MB), name="p")
    mirror = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(MB), name="m")
    vs = ValueStorage(0, primary, chunk_size=CHUNK, checksums=True, mirror=mirror)
    keep, _ = vs.write_records(0.0, [(1, b"k" * (CHUNK - 100))])  # fills chunk 0
    drop, _ = vs.write_records(0.0, [(2, b"d" * 9000)])  # three pages of chunk 1
    (chunk_id, offset, _size) = drop[0]
    pages = -(-vs.record_bytes(9000) // PAGE_SIZE)
    before = len(primary._pages), len(mirror._pages)
    vs.invalidate(chunk_id, offset)  # last live record: released
    assert (len(primary._pages), len(mirror._pages)) == (
        before[0] - pages, before[1] - pages
    )
    for device in (primary, mirror):
        assert device.read_raw(chunk_id * CHUNK, CHUNK) == bytes(CHUNK)
    assert vs.read_record_raw(*keep[0][:2]) == (1, b"k" * (CHUNK - 100))
    assert vs.read_record_mirror(*keep[0][:2], VThread(0)) == (1, b"k" * (CHUNK - 100))


def test_discard_takes_whole_pages_only(ssd):
    with pytest.raises(StorageError, match="page-aligned"):
        ssd.discard(100, PAGE_SIZE)
    with pytest.raises(StorageError, match="out of range"):
        ssd.discard(ssd.capacity, PAGE_SIZE)


@pytest.mark.parametrize("free", [0, 1, 2])
def test_fits_is_exactly_write_succeeds(free):
    """``fits`` and ``write_records`` share one packing walk: across
    open-chunk fill levels and free-chunk counts they never disagree,
    and a batch that does not fit changes nothing."""
    rng = random.Random(free)
    verdicts = set()
    for _ in range(150):
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity((free + 1) * CHUNK))
        vs = ValueStorage(0, ssd, chunk_size=CHUNK)
        fill = rng.randrange(0, CHUNK - RECORD_HEADER)
        if fill:  # an open chunk, written up to a random point
            vs.write_records(0.0, [(0, b"f" * fill)])
        else:  # no open chunk: use up the spare one instead
            vs.write_records(0.0, [(0, FULL_CHUNK_VALUE)])
        assert vs.free_chunks == free
        records = [
            (i + 1, b"r" * rng.choice((10, 700, 3000, 6000)))
            for i in range(rng.randrange(1, 12))
        ]
        before = observable(vs)
        fits = vs.fits(records)
        verdicts.add(fits)
        if fits:
            vs.write_records(0.0, records)
        else:
            with pytest.raises(StorageError, match="no free chunks"):
                vs.write_records(0.0, records)
            assert observable(vs) == before
    assert verdicts == {True, False}
    assert not vs.fits([(1, b"x" * (CHUNK + 1))])  # no chunk can hold it
