import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pwb import PersistentWriteBuffer, PWBFullError
from repro.storage.base import StorageError
from repro.storage.nvm import PAGE_SIZE, NVMDevice, RegionMismatchError


@pytest.fixture
def pwb(nvm):
    return PersistentWriteBuffer(nvm, pwb_id=0, capacity=8192)


class TestAppendRead:
    def test_roundtrip(self, pwb):
        offset = pwb.append(42, b"value-bytes")
        back, value = pwb.read(offset)
        assert back == 42
        assert value == b"value-bytes"

    def test_backptr_read(self, pwb):
        offset = pwb.append(7, b"v")
        assert pwb.read_backptr(offset) == 7

    def test_append_is_durable(self, pwb, nvm):
        offset = pwb.append(1, b"durable")
        nvm.crash()
        assert pwb.read(offset)[1] == b"durable"

    def test_empty_value_rejected(self, pwb):
        with pytest.raises(ValueError):
            pwb.append(1, b"")

    def test_offsets_monotonic(self, pwb):
        offsets = [pwb.append(i, b"x" * 10) for i in range(5)]
        assert offsets == sorted(offsets)

    def test_read_released_offset_rejected(self, pwb):
        offset = pwb.append(1, b"x")
        pwb.release_through(pwb.head)
        with pytest.raises(StorageError):
            pwb.read(offset)

    def test_oversized_value_rejected(self, pwb):
        with pytest.raises(PWBFullError):
            pwb.append(1, b"x" * 5000)

    def test_too_small_capacity(self, nvm):
        with pytest.raises(ValueError):
            PersistentWriteBuffer(nvm, 0, capacity=1024)


class TestRing:
    def test_fills_up(self, pwb):
        count = 0
        try:
            while True:
                pwb.append(count, b"y" * 100)
                count += 1
        except PWBFullError:
            pass
        assert count >= 8192 // 128 - 2

    def test_release_frees_space(self, pwb):
        while pwb.would_fit(100):
            pwb.append(0, b"y" * 100)
        pwb.release_through(pwb.head)
        assert pwb.used == 0
        pwb.append(0, b"y" * 100)  # wraps

    def test_wrap_keeps_records_contiguous(self, pwb):
        for _ in range(30):
            if not pwb.would_fit(300):
                pwb.release_through(pwb.head)
            offset = pwb.append(9, b"z" * 300)
            back, value = pwb.read(offset)
            assert (back, value) == (9, b"z" * 300)

    def test_utilization(self, pwb):
        assert pwb.utilization() == 0.0
        pwb.append(0, b"x" * 1000)
        assert 0.1 < pwb.utilization() < 0.2

    def test_release_bounds(self, pwb):
        pwb.append(0, b"x")
        with pytest.raises(ValueError):
            pwb.release_through(pwb.head + 1)


class TestPendingRelease:
    def test_poll_before_done_keeps_space_used(self, pwb):
        pwb.append(0, b"x" * 100)
        upto = pwb.head
        pwb.pending_release = (upto, 5.0)
        pwb.poll(4.9)
        assert pwb.used > 0
        pwb.poll(5.0)
        assert pwb.used == 0

    def test_reset(self, pwb, nvm):
        """A restart is what resets a buffer: one attached to the same
        region gets the same bytes, no new NVM, and no cursors."""
        pwb.append(0, b"x")
        pwb.pending_release = (pwb.head, 1.0)
        used = nvm.used
        fresh = PersistentWriteBuffer(nvm, pwb_id=0, capacity=8192)
        assert (fresh.base, nvm.used) == (pwb.base, used)
        assert fresh.used == 0
        assert fresh.pending_release is None
        assert fresh.peek(0) == (0, b"x")
        with pytest.raises(RegionMismatchError):
            PersistentWriteBuffer(nvm, pwb_id=0, capacity=4096)


class TestReclamationIteration:
    def test_gathers_read_every_record_in_order(self, pwb):
        offsets = [pwb.append(i, bytes([i]) * 50) for i in range(10)]
        got, backptrs, headers = pwb.gather_headers(None)
        assert got == offsets
        assert backptrs == list(range(10))
        assert pwb.gather_values(None, got, headers) == [
            bytes([i]) * 50 for i in range(10)
        ]

    def test_release_drops_old_offsets(self, pwb):
        pwb.append(0, b"a" * 50)
        mid = pwb.head
        pwb.append(1, b"b" * 50)
        pwb.release_through(mid)
        _offsets, backptrs, _headers = pwb.gather_headers(None)
        assert backptrs == [1]

    @pytest.mark.parametrize("checksums", [False, True])
    def test_gathers_read_what_peek_reads(self, nvm, checksums):
        """Across the wrap: the headers gather names every record of
        ``[tail, head)``, the values gather returns the values asked
        for, and the bytes counted are the headers plus those values."""
        pwb = PersistentWriteBuffer(nvm, 0, capacity=8192, checksums=checksums)
        for i in range(40):
            if not pwb.would_fit(300 + i):
                pwb.release_through(pwb._offsets[len(pwb._offsets) // 2])
            pwb.append(i, bytes([i + 1]) * (300 + i))
        records = list(pwb._offsets)
        assert min(o % pwb.capacity for o in records) < records[0] % pwb.capacity
        peeked = [pwb.peek(offset) for offset in records]
        before = nvm.bytes_read
        offsets, backptrs, headers = pwb.gather_headers(None)
        assert (offsets, backptrs) == (records, [b for b, _ in peeked])
        odd = slice(1, None, 2)
        values = pwb.gather_values(None, offsets[odd], headers[odd])
        assert values == [v for _, v in peeked][odd]
        assert nvm.bytes_read - before == len(records) * pwb.header_size + sum(
            map(len, values)
        )

    def test_values_gather_rejects_a_damaged_record(self, nvm):
        """A record that fails its CRC, or whose size runs past the
        ring's end, raises CorruptionError before anything is returned."""
        from repro.faults.errors import CorruptionError

        for at, checksums in ((20, True), (11, False)):
            pwb = PersistentWriteBuffer(nvm, 0, capacity=8192, checksums=checksums)
            offset = pwb.append(3, b"v" * 40)
            pos = pwb.base + offset % pwb.capacity + at
            nvm._write_raw(pos, bytes([nvm._read_raw(pos, 1)[0] ^ 0x40]))
            offsets, _backptrs, headers = pwb.gather_headers(None)
            with pytest.raises(CorruptionError):
                pwb.gather_values(None, offsets, headers)


def _pages_touched(pwb, lo, hi):
    """The NVM pages ring offsets ``[lo, hi)`` of ``pwb`` touch."""
    start = lo % pwb.capacity
    end = start + hi - lo
    pages = set()
    for a, b in ((start, min(end, pwb.capacity)), (0, end - pwb.capacity)):
        if b > a:
            pages.update(
                range((pwb.base + a) // PAGE_SIZE, (pwb.base + b - 1) // PAGE_SIZE + 1)
            )
    return pages


def test_released_window_gives_its_pages_back(nvm):
    """The counterpart of a TRIMmed flash chunk: across two trips round
    the ring, a release leaves resident only the pages the live window
    touches (plus at most two), and the released range reads zeros
    before the next append, except in pages it shares with live records
    or a neighbouring region."""
    nvm.persist(None, nvm.region("before", 1000), b"b" * 1000)
    pwb = PersistentWriteBuffer(nvm, 0, capacity=8 * PAGE_SIZE + 1536)
    nvm.persist(None, nvm.region("after", 1000), b"a" * 1000)
    base, capacity = pwb.base, pwb.capacity
    assert base % PAGE_SIZE and (base + capacity) % PAGE_SIZE  # unaligned ends
    edges = {base // PAGE_SIZE, (base + capacity - 1) // PAGE_SIZE}
    inside = range(base // PAGE_SIZE + 1, (base + capacity) // PAGE_SIZE)
    records = {}

    def append(size):
        value = bytes([len(records) % 251 + 1]) * size
        records[pwb.append(len(records), value)] = (len(records), value)

    releases = 0
    while pwb.tail < 2 * capacity:
        # A reclaim triggers at a quarter full and drains what it saw;
        # a few appends land before its release.
        while pwb.used < capacity // 4:
            append(100 + 37 * len(records) % 900)
        upto = pwb.head
        for _ in range(len(records) % 3):
            append(300)
        released = (pwb.tail, upto)
        pwb.release_through(upto)
        releases += 1
        live = _pages_touched(pwb, pwb.tail, pwb.head)
        resident = [idx for idx in inside if idx in nvm._pages]
        assert len(resident) <= len(live) + 2
        for idx in _pages_touched(pwb, *released) - live - edges:
            assert nvm.load(None, idx * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
        for offset in pwb._offsets:
            assert pwb.read(offset) == records[offset]
    assert releases >= 8
    assert nvm.load(None, nvm.regions["before"][0], 1000) == b"b" * 1000
    assert nvm.load(None, nvm.regions["after"][0], 1000) == b"a" * 1000


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=60)
)
def test_property_ring_roundtrip(values):
    """Appended records are readable until released, across wraps."""
    pwb = PersistentWriteBuffer(NVMDevice(), 0, capacity=8192)
    live = {}
    for i, value in enumerate(values):
        if not pwb.would_fit(len(value)):
            pwb.release_through(pwb.head)
            live.clear()
        offset = pwb.append(i, value)
        live[offset] = (i, value)
        for off, (idx, val) in live.items():
            assert pwb.read(off) == (idx, val)


# Sized so a few hundred appends force many trips around the ring.
_WRAP_CAPACITY = 4096


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 600), min_size=1, max_size=300),
    partial_release=st.booleans(),
)
def test_property_records_never_straddle_wrap(sizes, partial_release):
    """Every record's ring footprint is physically contiguous: its
    start position plus its padded size never crosses the capacity
    boundary, no matter how appends and releases interleave."""
    pwb = PersistentWriteBuffer(NVMDevice(), 0, capacity=_WRAP_CAPACITY)
    for i, size in enumerate(sizes):
        if not pwb.would_fit(size):
            if partial_release and pwb._offsets and pwb.tail < pwb._offsets[-1]:
                # Free only the older half, leaving live records behind
                # the wrap point.
                pwb.release_through(pwb._offsets[len(pwb._offsets) // 2])
            if not pwb.would_fit(size):
                pwb.release_through(pwb.head)
        offset = pwb.append(i, b"w" * size)
        pos = offset % pwb.capacity
        assert pos + pwb.record_bytes(size) <= pwb.capacity, (offset, size)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 600), min_size=1, max_size=200))
def test_property_would_fit_agrees_with_append(sizes):
    """``would_fit`` is exactly the precondition of ``append``: when it
    says yes the append succeeds, when it says no the append raises —
    including around the wrap, where the skipped tail padding makes the
    naive free-space check wrong."""
    pwb = PersistentWriteBuffer(NVMDevice(), 0, capacity=_WRAP_CAPACITY)
    for i, size in enumerate(sizes):
        fits = pwb.would_fit(size)
        if fits:
            pwb.append(i, b"f" * size)
        else:
            head, tail = pwb.head, pwb.tail
            with pytest.raises(PWBFullError):
                pwb.append(i, b"f" * size)
            assert (pwb.head, pwb.tail) == (head, tail)  # failed append is a no-op
            pwb.release_through(pwb.head)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 500), min_size=4, max_size=250))
def test_property_offsets_roundtrip_across_wraps(sizes):
    """Absolute offsets stay monotonic and resolvable across many
    wraps: each live record reads back its own payload even after the
    ring position has been reused by later generations."""
    pwb = PersistentWriteBuffer(NVMDevice(), 0, capacity=_WRAP_CAPACITY)
    last_offset = -1
    live = {}
    for i, size in enumerate(sizes):
        if not pwb.would_fit(size):
            pwb.release_through(pwb.head)
            live.clear()
        value = (i % 251).to_bytes(1, "little") * size
        offset = pwb.append(i, value)
        assert offset > last_offset  # absolute offsets never repeat
        last_offset = offset
        live[offset] = (i, value)
        for off, (idx, val) in live.items():
            assert pwb.read(off) == (idx, val)
    wraps = pwb.head // pwb.capacity
    # The generator sizes guarantee several trips around the ring.
    if sum(pwb.record_bytes(s) for s in sizes) > 3 * _WRAP_CAPACITY:
        assert wraps >= 2
