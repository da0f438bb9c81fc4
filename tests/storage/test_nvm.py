import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.vthread import VThread
from repro.storage.base import OutOfSpaceError, StorageError
from repro.storage.nvm import (
    CACHE_LINE,
    LOADS_IN_FLIGHT,
    PAGE_SIZE,
    NVMDevice,
    PersistentHeap,
)


class TestAllocation:
    def test_alloc_is_aligned(self, nvm):
        addr = nvm.alloc(100, align=256)
        assert addr % 256 == 0

    def test_alloc_monotonic(self, nvm):
        a = nvm.alloc(64)
        b = nvm.alloc(64)
        assert b >= a + 64

    def test_alloc_beyond_capacity(self):
        small = NVMDevice(NVMDevice().spec.with_capacity(4096))
        with pytest.raises(OutOfSpaceError):
            small.alloc(8192)

    def test_alloc_rejects_nonpositive(self, nvm):
        with pytest.raises(ValueError):
            nvm.alloc(0)


class TestLoadStore:
    def test_store_then_load(self, nvm, thread):
        addr = nvm.alloc(64)
        nvm.store(thread, addr, b"hello")
        assert nvm.load(thread, addr, 5) == b"hello"

    def test_load_sees_unflushed_stores(self, nvm):
        """Like a real CPU: loads read through the cache."""
        addr = nvm.alloc(64)
        nvm.store(None, addr, b"dirty")
        assert nvm.load(None, addr, 5) == b"dirty"

    def test_out_of_range_rejected(self, nvm):
        with pytest.raises(StorageError):
            nvm.load(None, nvm.capacity - 1, 2)
        with pytest.raises(StorageError):
            nvm.store(None, -1, b"x")

    @pytest.mark.parametrize("addr", [PAGE_SIZE - 4, CACHE_LINE - 4, 8 + 1])
    def test_word_ops_refuse_an_unaligned_address(self, nvm, thread, addr):
        """A word op takes one page slice and snapshots one line, which
        holds only for an aligned word; an unaligned one is refused, as
        the HSIT (every caller) never asks for one."""
        with pytest.raises(StorageError, match="unaligned"):
            nvm.store_word(thread, addr, 1)
        with pytest.raises(StorageError, match="unaligned"):
            nvm.publish_word(thread, addr & ~7, 1, 2, 0.0)
        assert nvm.bytes_read == 0 and not nvm._pages

    def test_store_crossing_page_boundary(self, nvm):
        addr = 4090  # crosses the 4096 page edge
        payload = bytes(range(12))
        nvm.store(None, addr, payload)
        nvm.flush(None, addr, 12)
        assert nvm.load(None, addr, 12) == payload


class TestCrashSemantics:
    def test_unflushed_store_lost_on_crash(self, nvm):
        addr = nvm.alloc(64)
        nvm.store(None, addr, b"gone")
        nvm.crash()
        assert nvm.load(None, addr, 4) == b"\0\0\0\0"

    def test_flushed_store_survives_crash(self, nvm):
        addr = nvm.alloc(64)
        nvm.store(None, addr, b"kept")
        nvm.flush(None, addr, 4)
        nvm.crash()
        assert nvm.load(None, addr, 4) == b"kept"

    def test_persist_is_durable(self, nvm):
        addr = nvm.alloc(64)
        nvm.persist(None, addr, b"done")
        nvm.crash()
        assert nvm.load(None, addr, 4) == b"done"

    def test_crash_rolls_back_to_last_flush(self, nvm):
        addr = nvm.alloc(64)
        nvm.persist(None, addr, b"v1")
        nvm.store(None, addr, b"v2")
        nvm.crash()
        assert nvm.load(None, addr, 2) == b"v1"

    def test_partial_line_flush_granularity(self, nvm):
        """Flushing one byte persists its whole cache line."""
        addr = nvm.alloc(CACHE_LINE * 2, align=CACHE_LINE)
        nvm.store(None, addr, b"a" * CACHE_LINE)
        nvm.flush(None, addr, 1)
        nvm.crash()
        assert nvm.load(None, addr, CACHE_LINE) == b"a" * CACHE_LINE

    def test_unrelated_line_not_flushed(self, nvm):
        addr = nvm.alloc(CACHE_LINE * 2, align=CACHE_LINE)
        nvm.store(None, addr, b"a")
        nvm.store(None, addr + CACHE_LINE, b"b")
        nvm.flush(None, addr, 1)
        nvm.crash()
        assert nvm.load(None, addr, 1) == b"a"
        assert nvm.load(None, addr + CACHE_LINE, 1) == b"\0"

    def test_write_durable_skips_cache(self, nvm):
        addr = nvm.alloc(8192, align=CACHE_LINE)
        nvm.write_durable(None, addr, b"x" * 8192)
        nvm.crash()
        assert nvm.load(None, addr, 8192) == b"x" * 8192

    def test_crash_counter(self, nvm):
        nvm.crash()
        nvm.crash()
        assert nvm.crashes == 2

    def test_unflushed_lines_tracking(self, nvm):
        addr = nvm.alloc(CACHE_LINE * 4, align=CACHE_LINE)
        nvm.store(None, addr, b"x")
        nvm.store(None, addr + CACHE_LINE, b"y")
        assert nvm.unflushed_lines() == 2
        nvm.flush(None, addr, 1)
        assert nvm.unflushed_lines() == 1

    @settings(max_examples=40, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2000),
                st.binary(min_size=1, max_size=64),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_crash_preserves_exactly_flushed_state(self, writes):
        """Property: after a crash, memory equals the model built from
        flushed stores only (at line granularity, flushed lines win)."""
        nvm = NVMDevice()
        base = nvm.alloc(4096, align=CACHE_LINE)
        durable = bytearray(4096)
        volatile = bytearray(4096)
        dirty_lines = set()
        for offset, data, flush in writes:
            nvm.store(None, base + offset, data)
            volatile[offset : offset + len(data)] = data
            for line in range(offset // CACHE_LINE, (offset + len(data) - 1) // CACHE_LINE + 1):
                dirty_lines.add(line)
            if flush:
                nvm.flush(None, base + offset, len(data))
                for line in range(
                    offset // CACHE_LINE, (offset + len(data) - 1) // CACHE_LINE + 1
                ):
                    lo, hi = line * CACHE_LINE, (line + 1) * CACHE_LINE
                    durable[lo:hi] = volatile[lo:hi]
                    dirty_lines.discard(line)
        nvm.crash()
        assert nvm.load(None, base, 4096) == bytes(durable)


class TestTiming:
    def test_store_is_cheap_flush_pays(self, nvm, thread):
        addr = nvm.alloc(64)
        nvm.store(thread, addr, b"x" * 64)
        t_after_store = thread.now
        nvm.flush(thread, addr, 64)
        assert thread.now - t_after_store > 5e-8  # flush costs real time
        assert t_after_store < 1e-7  # store is cache-speed

    def test_accounting(self, nvm, thread):
        addr = nvm.alloc(1024)
        nvm.persist(thread, addr, b"x" * 100)
        assert nvm.bytes_written >= 100
        nvm.load(thread, addr, 100)
        assert nvm.bytes_read == 100


@st.composite
def _ranges(draw):
    """An ``(addr, size)`` in one of the shapes a persist takes: inside
    one line, across lines of one page, or across a page edge."""
    shape = draw(st.sampled_from(["line", "lines", "straddle"]))
    if shape == "line":
        line = draw(st.integers(0, 3 * PAGE_SIZE // CACHE_LINE - 1))
        off = draw(st.integers(0, CACHE_LINE - 1))
        return line * CACHE_LINE + off, draw(st.integers(0, CACHE_LINE - off))
    if shape == "lines":
        page = draw(st.integers(0, 2))
        off = draw(st.integers(0, PAGE_SIZE - CACHE_LINE - 1))
        size = draw(st.integers(CACHE_LINE - off % CACHE_LINE + 1, PAGE_SIZE - off))
        return page * PAGE_SIZE + off, size
    edge = draw(st.integers(1, 2)) * PAGE_SIZE
    before = draw(st.integers(1, 600))
    return edge - before, before + draw(st.integers(1, 600))


class TestFusedPersist:
    """Unarmed, ``persist`` runs store, flush and fence as one fused
    step (every put runs it); it must be indistinguishable from the
    three steps on a twin device.  Armed, it is the three steps."""

    @staticmethod
    def _run(persist, target, earlier, start, background, injector=None):
        nvm = NVMDevice()
        if injector is not None:
            nvm.attach_injector(injector)
        channel = nvm.write_channel
        for at, nbytes in background:
            channel.request(at, nbytes, nvm.spec.write_latency)
        # Page 1 starts durable and non-zero; pages 0 and 2 start unwritten.
        nvm.write_durable(None, PAGE_SIZE, bytes(range(256)) * 16)
        thread = None
        if start is not None:
            thread = VThread(0)
            thread.spend(start)
        # Lines left dirty by earlier stores.
        for i, (addr, size) in enumerate(earlier):
            nvm.store(thread, addr, bytes([i + 1]) * size)
        addr, size = target
        data = bytes((addr + i) % 251 for i in range(size))
        if persist:
            nvm.persist(thread, addr, data)
        else:
            nvm.store(thread, addr, data)
            nvm.flush(thread, addr, size)
            nvm.fence(thread)
        volatile = {idx: bytes(page) for idx, page in nvm._pages.items()}
        observed = (
            volatile,
            nvm.unflushed_lines(),
            (nvm.flushes, nvm.bytes_flushed, nvm.bytes_written, nvm.fences),
            (
                channel.bytes_moved,
                repr(channel.busy_time),
                sorted((idx, repr(used)) for idx, used in channel._used.items()),
            ),
            None
            if thread is None
            else (repr(thread.now), repr(thread.cpu_time), repr(thread.clock.now)),
        )
        nvm.crash()
        return observed, {idx: bytes(page) for idx, page in nvm._pages.items()}

    @settings(max_examples=120, deadline=None)
    @given(
        target=_ranges(),
        earlier=st.lists(_ranges(), max_size=3),
        start=st.none() | st.floats(0.0, 30e-6),
        background=st.lists(
            st.tuples(st.floats(0.0, 40e-6), st.integers(1, 300_000)), max_size=3
        ),
    )
    def test_unarmed_persist_is_store_flush_fence(
        self, target, earlier, start, background
    ):
        assert self._run(True, target, earlier, start, background) == self._run(
            False, target, earlier, start, background
        )

    @pytest.mark.parametrize(
        "target", [(300, 8), (PAGE_SIZE + 40, 700), (2 * PAGE_SIZE - 100, 300)]
    )
    def test_armed_persist_is_store_flush_fence(self, target):
        """An injector armed by another device's death is consulted
        once per flush and changes nothing else."""
        runs = []
        for persist in (True, False):
            injector = FaultInjector(FaultConfig(seed=1))
            injector.kill_device("elsewhere")
            earlier = [(target[0] - 20, 50), (PAGE_SIZE + 1000, 8)]
            runs.append(
                (self._run(persist, target, earlier, 1e-6, [], injector), injector.consults)
            )
        assert runs[0] == runs[1]
        assert runs[0][1] == 1



class TestDiscard:
    """``discard`` drops whole pages, like ``SSDDevice.discard``: the
    range reads zeros, nothing is timed or counted, and a page that
    still holds an unflushed line stays so ``crash`` can roll it back."""

    def test_takes_whole_pages_only(self, nvm):
        with pytest.raises(StorageError, match="page-aligned"):
            nvm.discard(100, PAGE_SIZE)
        with pytest.raises(StorageError, match="page-aligned"):
            nvm.discard(PAGE_SIZE, PAGE_SIZE + 1)
        with pytest.raises(StorageError, match="out of range"):
            nvm.discard(nvm.capacity, PAGE_SIZE)
        with pytest.raises(StorageError, match="out of range"):
            nvm.discard(-PAGE_SIZE, PAGE_SIZE)

    def test_discarded_range_reads_zeros(self, nvm):
        nvm.write_durable(None, 0, b"a" * (4 * PAGE_SIZE))
        nvm.discard(PAGE_SIZE, 2 * PAGE_SIZE)
        assert sorted(nvm._pages) == [0, 3]
        assert nvm.load(None, PAGE_SIZE, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)
        assert nvm.load(None, 0, PAGE_SIZE) == b"a" * PAGE_SIZE
        assert nvm.load(None, 3 * PAGE_SIZE, PAGE_SIZE) == b"a" * PAGE_SIZE
        nvm.discard(5 * PAGE_SIZE, PAGE_SIZE)  # never written: a no-op
        assert sorted(nvm._pages) == [0, 3]

    def test_page_with_unflushed_line_survives(self, nvm):
        nvm.persist(None, 0, b"d" * (2 * PAGE_SIZE))
        nvm.store(None, PAGE_SIZE + 3 * CACHE_LINE, b"volatile")
        nvm.discard(0, 2 * PAGE_SIZE)
        assert sorted(nvm._pages) == [1]
        assert nvm.load(None, PAGE_SIZE + 3 * CACHE_LINE, 8) == b"volatile"
        nvm.crash()
        assert nvm.load(None, 0, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert nvm.load(None, PAGE_SIZE, PAGE_SIZE) == b"d" * PAGE_SIZE
        nvm.discard(PAGE_SIZE, PAGE_SIZE)  # flushed state: now it goes
        assert nvm._pages == {}

    def test_is_untimed_and_uncounted(self, nvm, thread):
        nvm.persist(thread, 0, b"x" * (3 * PAGE_SIZE))
        counters = (
            nvm.bytes_written,
            nvm.bytes_read,
            nvm.bytes_flushed,
            nvm.flushes,
            nvm.fences,
            nvm.unflushed_lines(),
        )
        now = thread.now
        nvm.discard(0, 3 * PAGE_SIZE)
        assert nvm._pages == {}
        assert counters == (
            nvm.bytes_written,
            nvm.bytes_read,
            nvm.bytes_flushed,
            nvm.flushes,
            nvm.fences,
            nvm.unflushed_lines(),
        )
        assert thread.now == now

class TestLoadGather:
    """Independent loads issued together: a wave of at most
    ``LOADS_IN_FLIGHT`` shares one latency, the thread waits once per
    wave, and the bytes are those ``load`` returns."""

    SIZE = 16

    def _addrs(self, nvm, n):
        base = nvm.alloc(n * self.SIZE, align=256)
        for i in range(n):
            nvm.store(None, base + i * self.SIZE, bytes([i + 1]) * self.SIZE)
        return [base + i * self.SIZE for i in range(n)]

    def _gathered_at(self, n):
        nvm, t = NVMDevice(), VThread(0)
        nvm.load_gather(t, self._addrs(nvm, n), self.SIZE)
        return nvm, t.now

    def test_returns_what_load_returns(self, nvm):
        addrs = self._addrs(nvm, 25)[::-1]
        assert nvm.load_gather(None, addrs, self.SIZE) == [
            nvm.load(None, addr, self.SIZE) for addr in addrs
        ]

    def test_one_address_costs_exactly_one_load(self):
        clocks = []
        for gather in (True, False):
            nvm, t = NVMDevice(), VThread(0)
            (addr,) = self._addrs(nvm, 1)
            t.spend(3.3e-6)
            if gather:
                nvm.load_gather(t, [addr], self.SIZE)
            else:
                nvm.load(t, addr, self.SIZE)
            clocks.append((repr(t.now), repr(t.clock.now), nvm.bytes_read))
        assert clocks[0] == clocks[1]

    @pytest.mark.parametrize("n", [1, 2, LOADS_IN_FLIGHT, LOADS_IN_FLIGHT + 1, 25, 64])
    def test_idle_channel_gather_pays_one_latency_per_wave(self, n):
        """ceil(n / LOADS_IN_FLIGHT) latencies plus the transfers —
        not the n latencies of n blocking loads."""
        nvm, elapsed = self._gathered_at(n)
        latency = nvm.spec.read_latency
        transfer = self.SIZE / nvm.spec.read_bandwidth
        waves = -(-n // LOADS_IN_FLIGHT)
        assert waves * (latency + transfer) <= elapsed + 1e-15
        assert elapsed <= waves * latency + n * transfer + 1e-15
        assert nvm.bytes_read == n * self.SIZE
        assert nvm.read_channel.bytes_moved == n * self.SIZE
        if n > 1:
            serial_nvm, t = NVMDevice(), VThread(0)
            for addr in self._addrs(serial_nvm, n):
                serial_nvm.load(t, addr, self.SIZE)
            assert t.now >= n * latency > elapsed

    def test_wave_is_the_channel_requests_stamped_together(self):
        """Exact clock: each wave's loads are requests on the read
        channel at the instant the previous wave came back."""
        n = 2 * LOADS_IN_FLIGHT + 3
        nvm, elapsed = self._gathered_at(n)
        twin = NVMDevice()
        now = 0.0
        for wave in range(0, n, LOADS_IN_FLIGHT):
            now = max(
                twin.read_channel.request(now, self.SIZE, twin.spec.read_latency)
                for _ in range(min(LOADS_IN_FLIGHT, n - wave))
            )
        assert repr(elapsed) == repr(now)

    def test_empty_gather_costs_nothing(self, nvm, thread):
        thread.spend(1e-6)
        before = (thread.now, thread.cpu_time, nvm.bytes_read)
        assert nvm.load_gather(thread, [], self.SIZE) == []
        assert (thread.now, thread.cpu_time, nvm.bytes_read) == before
        assert nvm.read_channel.bytes_moved == 0

    def test_untimed_gather_touches_no_channel(self, nvm):
        addrs = self._addrs(nvm, 12)
        nvm.load_gather(None, addrs, self.SIZE)
        assert nvm.bytes_read == 12 * self.SIZE
        assert nvm.read_channel.bytes_moved == 0

    def test_out_of_range_raises_before_anything_is_charged(self, nvm, thread):
        addrs = self._addrs(nvm, 3) + [nvm.capacity - 8]
        with pytest.raises(StorageError):
            nvm.load_gather(thread, addrs, self.SIZE)
        assert (thread.now, nvm.bytes_read, nvm.read_channel.bytes_moved) == (0.0, 0, 0)
        with pytest.raises(StorageError):
            nvm.load_gather(thread, addrs[:2], [self.SIZE, nvm.capacity])
        assert (thread.now, nvm.bytes_read, nvm.read_channel.bytes_moved) == (0.0, 0, 0)


def _busy_device(background):
    """A device whose read channel already carries ``background``:
    (stamp, bytes) requests from other threads."""
    nvm = NVMDevice()
    for at, nbytes in background:
        nvm.read_channel.request(at, nbytes, nvm.spec.read_latency)
    return nvm


def _channel_state(nvm):
    channel = nvm.read_channel
    return (
        nvm.bytes_read,
        channel.bytes_moved,
        repr(channel.busy_time),
        sorted((idx, repr(used)) for idx, used in channel._used.items()),
    )


_BACKGROUND = st.lists(
    st.tuples(st.floats(0.0, 40e-6), st.integers(1, 300_000)), max_size=4
)


def _waves(sizes):
    """Positions of ``sizes`` grouped as the line-fill buffers take
    them: in order, as many loads as fit in ``LOADS_IN_FLIGHT`` 64 B
    lines, or one longer load alone."""
    waves = []
    for i, size in enumerate(sizes):
        lines = -(-size // 64)
        if waves and sum(-(-sizes[j] // 64) for j in waves[-1]) + lines <= LOADS_IN_FLIGHT:
            waves[-1].append(i)
        else:
            waves.append([i])
    return waves


class TestLoadGatherSizes:
    """A size per address.  The fixed-size gather is this call with
    every size equal, and each wave is the loads a ``load`` per address
    would issue, all stamped where the previous wave came back."""

    @pytest.mark.parametrize("size", [8, 12, 16, 1000, 5000])
    def test_one_address_costs_exactly_one_load(self, size):
        runs = []
        for gather in (True, False):
            nvm, t = _busy_device([(0.0, 50_000)]), VThread(0)
            nvm.store(None, 4096, bytes(range(256)) * 20)
            t.spend(3.3e-6)
            if gather:
                (got,) = nvm.load_gather(t, [4096], [size])
            else:
                got = nvm.load(t, 4096, size)
            runs.append((got, repr(t.now), repr(t.clock.now), _channel_state(nvm)))
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 3 * LOADS_IN_FLIGHT + 2),
        size=st.sampled_from([8, 12, 16, 256, 4096]),
        background=_BACKGROUND,
    )
    def test_equal_sizes_match_the_fixed_size_gather(self, n, size, background):
        runs = []
        for sized in (True, False):
            nvm, t = _busy_device(background), VThread(0)
            addrs = [4096 + i * 5000 for i in range(n)]
            for addr in addrs:
                nvm.store(None, addr, bytes([addr % 251]) * size)
            t.spend(1.7e-6)
            if sized:
                got = nvm.load_gather(t, addrs, [size] * n)
            else:
                got = nvm.load_gather(t, addrs, size)
            runs.append((got, repr(t.now), repr(t.clock.now), _channel_state(nvm)))
        assert runs[0] == runs[1]

    def test_a_wave_holds_ten_lines(self):
        assert _waves([16] * 21) == [list(range(10)), list(range(10, 20)), [20]]
        assert _waves([64, 65, 320, 64, 64, 1]) == [[0, 1, 2, 3, 4], [5]]
        assert _waves([1024, 16, 640, 641]) == [[0], [1], [2], [3]]

    def test_loads_of_ten_lines_or_more_cost_what_serial_loads_do(self):
        """A gather of 1 KB values keeps one in flight at a time: it
        takes the channel no faster than a ``load`` after each other."""
        runs = []
        for gather in (True, False):
            nvm, t = _busy_device([(2e-6, 30_000)]), VThread(0)
            addrs = [4096 + i * 2048 for i in range(12)]
            if gather:
                got = nvm.load_gather(t, addrs, 1024)
            else:
                got = [nvm.load(t, addr, 1024) for addr in addrs]
            runs.append((got, repr(t.now), _channel_state(nvm)))
        assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(
            st.one_of(st.integers(1, 64), st.integers(65, 9000)),
            max_size=3 * LOADS_IN_FLIGHT + 2,
        ),
        start=st.floats(0.0, 30e-6),
        background=_BACKGROUND,
    )
    def test_waves_are_loads_stamped_together(self, sizes, start, background):
        """Against ``load`` itself: wave by wave (:func:`_waves`), one
        thread per address stamped at the wave's start; the gather ends
        where the last wave's slowest load does, with the same bytes and
        channel."""
        addrs, addr = [], 4096
        for size in sizes:
            addrs.append(addr)
            addr += size + 64
        gathered, t = _busy_device(background), VThread(0)
        loaded = _busy_device(background)
        for target in (gathered, loaded):
            for i, a in enumerate(addrs):
                target.store(None, a, bytes([i % 251 + 1]) * sizes[i])
        t.now = start
        got = gathered.load_gather(t, addrs, sizes)
        want, now = [], start
        for wave in _waves(sizes):
            issued = now
            for i in wave:
                reader = VThread(1)
                reader.now = issued
                want.append(loaded.load(reader, addrs[i], sizes[i]))
                now = max(now, reader.now)
        assert got == want
        assert repr(t.now) == repr(now)
        assert _channel_state(gathered) == _channel_state(loaded)


class TestPersistentHeap:
    class Node:
        persistent_fields = ("items", "label")

        def __init__(self):
            self.items = []
            self.label = "init"

    def test_commit_and_crash_roundtrip(self, nvm):
        heap = PersistentHeap(nvm)
        node = self.Node()
        handle = heap.allocate(node, 128)
        node.items.append(1)
        heap.commit(handle)
        node.items.append(2)
        node.label = "volatile"
        heap.crash()
        assert node.items == [1]
        assert node.label == "init"

    def test_uncommitted_object_vanishes(self, nvm):
        heap = PersistentHeap(nvm)
        handle = heap.allocate(self.Node(), 128)
        heap.crash()
        with pytest.raises(KeyError):
            heap.get(handle)

    def test_free(self, nvm):
        heap = PersistentHeap(nvm)
        handle = heap.allocate(self.Node(), 128)
        heap.commit(handle)
        heap.free(handle)
        with pytest.raises(KeyError):
            heap.get(handle)
        assert heap.live_objects == 0

    def test_object_without_fields_rejected(self, nvm):
        heap = PersistentHeap(nvm)
        handle = heap.allocate(self.Node(), 64)
        heap._objects[handle] = object()
        with pytest.raises(TypeError):
            heap.commit(handle)

    def test_commit_unknown_handle(self, nvm):
        with pytest.raises(KeyError):
            PersistentHeap(nvm).commit(42)

    def test_space_accounted_on_device(self, nvm):
        heap = PersistentHeap(nvm)
        before = nvm.used
        heap.allocate(self.Node(), 4096)
        assert nvm.used >= before + 4096
