import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.vthread import VThread
from repro.storage.base import OutOfSpaceError, StorageError
from repro.storage.nvm import CACHE_LINE, LOADS_IN_FLIGHT, NVMDevice, PersistentHeap


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
