import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.resources import BandwidthChannel, FIFOServer, VLock
from repro.sim.vthread import VThread


class TestFIFOServer:
    def test_serves_immediately_when_idle(self):
        server = FIFOServer()
        start, end = server.service(1.0, 0.5)
        assert (start, end) == (1.0, 1.5)

    def test_queues_behind_earlier_request(self):
        server = FIFOServer()
        server.service(0.0, 1.0)
        start, end = server.service(0.5, 1.0)
        assert (start, end) == (1.0, 2.0)

    def test_idle_gap_not_charged(self):
        server = FIFOServer()
        server.service(0.0, 1.0)
        start, _ = server.service(5.0, 1.0)
        assert start == 5.0

    def test_negative_hold_rejected(self):
        with pytest.raises(ValueError):
            FIFOServer().service(0.0, -1.0)

class TestVLock:
    def test_uncontended_acquire_is_free(self):
        lock = VLock()
        t = VThread(0)
        t.spend(1e-6)
        lock.acquire(t)
        assert t.now == pytest.approx(1e-6)
        lock.release(t)
        assert lock.contended == 0

    def test_contended_acquire_waits(self):
        clock = VirtualClock()
        a, b = VThread(0, clock), VThread(1, clock)
        lock = VLock()
        lock.acquire(a)
        a.spend(5e-6)  # critical section
        lock.release(a)
        lock.acquire(b)  # b arrives at time 0, must wait for a
        assert b.now == pytest.approx(5e-6)
        assert lock.contended == 1
        lock.release(b)

    def test_double_acquire_raises(self):
        lock = VLock()
        t = VThread(0)
        lock.acquire(t)
        with pytest.raises(RuntimeError):
            lock.acquire(t)

    def test_release_by_non_owner_raises(self):
        lock = VLock()
        a, b = VThread(0), VThread(1)
        lock.acquire(a)
        with pytest.raises(RuntimeError):
            lock.release(b)

    def test_context_manager_unsupported(self):
        with pytest.raises(TypeError):
            VLock().__enter__()


class TestBandwidthChannel:
    def test_single_transfer_line_rate(self):
        ch = BandwidthChannel(1e9)
        end = ch.request(0.0, 1000)
        assert end == pytest.approx(1e-6)

    def test_latency_is_pipelined(self):
        ch = BandwidthChannel(1e9)
        e1 = ch.request(0.0, 1000, latency=50e-6)
        e2 = ch.request(0.0, 1000, latency=50e-6)
        # Both complete ~50us after their transfer; they do not
        # serialize on the latency.
        assert e1 < 52e-6
        assert e2 < 53e-6

    def test_saturation_pushes_completions_out(self):
        ch = BandwidthChannel(1e9, bucket=10e-6)  # 10 KB per bucket
        first = ch.request(0.0, 10_000)
        second = ch.request(0.0, 10_000)
        assert second > first
        assert second == pytest.approx(20e-6)

    def test_past_request_uses_past_capacity(self):
        ch = BandwidthChannel(1e9, bucket=10e-6)
        ch.request(100e-6, 5_000)
        early = ch.request(10e-6, 5_000)
        assert early < 20e-6

    def test_zero_bytes(self):
        ch = BandwidthChannel(1e9)
        assert ch.request(1.0, 0, latency=2e-6) == pytest.approx(1.0 + 2e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            BandwidthChannel(1e9).request(0.0, -1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BandwidthChannel(0)
        with pytest.raises(ValueError):
            BandwidthChannel(1e9, lanes=0)
        with pytest.raises(ValueError):
            BandwidthChannel(1e9, bucket=0)

    def test_bytes_accounting(self):
        ch = BandwidthChannel(1e9)
        ch.request(0.0, 123)
        ch.request(0.0, 877)
        assert ch.bytes_moved == 1000

    def test_lanes_multiply_capacity(self):
        one = BandwidthChannel(1e9, lanes=1)
        two = BandwidthChannel(1e9, lanes=2)
        assert two.bandwidth == 2 * one.bandwidth

    @settings(max_examples=50, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e-2),
                st.integers(min_value=1, max_value=100_000),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_completion_never_beats_line_rate(self, requests):
        ch = BandwidthChannel(5e9)
        for at, nbytes in requests:
            end = ch.request(at, nbytes)
            assert end >= at + nbytes / ch.bandwidth - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=50_000), min_size=2, max_size=50)
    )
    def test_aggregate_throughput_bounded(self, sizes):
        """N bytes offered at t=0 cannot all finish before N/bandwidth."""
        ch = BandwidthChannel(1e9)
        last = max(ch.request(0.0, s) for s in sizes)
        total = sum(sizes)
        assert last >= total / ch.bandwidth - ch.bucket
