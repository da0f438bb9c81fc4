import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tcq import (
    FOLLOWER_HANDOFF_COST,
    MODE_SYNC,
    MODE_THREAD_COMBINING,
    MODE_TIMEOUT_ASYNC,
    ThreadCombiner,
)
from repro.faults.errors import TransientReadError
from repro.faults.retry import RetryExecutor, RetryPolicy
from repro.obs.metrics import NULL_REGISTRY
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.iouring import (
    SQE_PREP_COST,
    SUBMIT_SYSCALL_COST,
    IORequest,
    IOUring,
)
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice
from tests.conftest import count_calls

MB = 1024**2


def _ring():
    return IOUring(SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB)), 64)


@pytest.fixture
def ring():
    return _ring()


def _read(offset=0, size=1024):
    return IORequest("read", offset, size)


class TestModes:
    def test_invalid_mode(self, ring):
        with pytest.raises(ValueError):
            ThreadCombiner(ring, mode="bogus")

    def test_sync_mode_waits_whole_batch(self, ring):
        combiner = ThreadCombiner(ring, mode=MODE_SYNC)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(4)]
        done = combiner.read(t, reqs)
        assert t.now == done == max(r.completion for r in reqs)

    def test_empty_request_list(self, ring):
        combiner = ThreadCombiner(ring)
        t = VThread(0)
        assert combiner.read(t, []) == t.now


class TestCombining:
    def test_lone_reader_pays_window_plus_device(self, ring):
        combiner = ThreadCombiner(ring, combine_window=1.5e-6)
        t = VThread(0)
        combiner.read(t, [_read()])
        # window + syscall + ~50us device latency
        assert 50e-6 < t.now < 60e-6

    def test_concurrent_readers_share_batch(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        leader = VThread(0, clock)
        follower = VThread(1, clock)
        follower.now = 0.5e-6  # arrives within the window
        combiner.read(leader, [_read(0)])
        combiner.read(follower, [_read(4096)])
        assert combiner.batches == 1
        assert combiner.average_batch() == pytest.approx(2.0)

    def test_late_arrival_starts_new_batch(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=1e-6)
        a, b = VThread(0, clock), VThread(1, clock)
        b.now = 100e-6
        combiner.read(a, [_read(0)])
        combiner.read(b, [_read(4096)])
        assert combiner.batches == 2

    def test_coalescing_limit_respected(self, ring):
        combiner = ThreadCombiner(ring, combine_window=1e-3)
        threads = [VThread(i) for i in range(3)]
        # each brings 30 requests; QD 64 -> third thread overflows
        for t in threads:
            combiner.read(t, [_read(i * 4096) for i in range(30)])
        assert combiner.batches == 2

    def test_follower_cost_lower_than_leader(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=5e-6)
        leader, follower = VThread(0, clock), VThread(1, clock)
        follower.now = 1e-6
        combiner.read(leader, [_read(0)])
        combiner.read(follower, [_read(4096)])
        # follower arrived later but finishes about the same time
        assert abs(leader.now - follower.now) < 5e-6

    def test_read_one_returns_payload(self, ring):
        ring.device.write_raw(0, b"payload!")
        combiner = ThreadCombiner(ring)
        t = VThread(0)
        data = combiner.read_one(t, _read(0, 8))
        assert data == b"payload!"


class TestTimeoutStrawman:
    def test_ta_latency_includes_timeout(self, ring):
        combiner = ThreadCombiner(ring, mode=MODE_TIMEOUT_ASYNC, timeout_window=100e-6)
        t = VThread(0)
        combiner.read(t, [_read()])
        assert t.now > 100e-6

    def test_tc_beats_ta_for_lone_reader(self, ring):
        tc = ThreadCombiner(ring, mode=MODE_THREAD_COMBINING)
        ta = ThreadCombiner(_ring(), mode=MODE_TIMEOUT_ASYNC)
        t1, t2 = VThread(0), VThread(1)
        tc.read(t1, [_read()])
        ta.read(t2, [_read()])
        assert t1.now < t2.now


class TestOversizedLeader:
    def test_leader_splits_at_coalescing_limit(self, ring):
        """A leader with more requests than QD submits multiple batches,
        none above the limit."""
        combiner = ThreadCombiner(ring, combine_window=1e-3)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(150)]  # QD 64 -> 64+64+22
        combiner.read(t, reqs)
        assert combiner.batches == 3
        assert combiner.combined_requests == 150
        assert combiner.average_batch() <= combiner.ring.queue_depth
        assert all(r.completion is not None for r in reqs)

    def test_exact_multiple_leaves_no_open_window(self, ring):
        """Full batches close immediately: a follower arriving right
        after a QD-multiple submission starts its own batch."""
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=1e-3)
        a, b = VThread(0, clock), VThread(1, clock)
        combiner.read(a, [_read(i * 4096) for i in range(128)])  # 2 full batches
        b.now = 1e-7  # well inside what the window would have been
        combiner.read(b, [_read(4096)])
        assert combiner.batches == 3  # b led its own batch

    def test_average_batch_never_exceeds_limit(self, ring):
        """Acceptance criterion: no request mix can push the average
        (or any) batch above the coalescing limit."""
        import random

        rng = random.Random(42)
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        clock = VirtualClock()
        now = 0.0
        for i in range(60):
            t = VThread(i, clock)
            now += rng.choice([0.0, 0.3e-6, 5e-6])
            t.now = now
            combiner.read(t, [_read(j * 4096) for j in range(rng.randint(1, 100))])
        assert combiner.average_batch() <= combiner.ring.queue_depth

    def test_stale_batch_count_does_not_block_followers(self, ring):
        """After a batch's window expires, its count must not make the
        next window reject followers that would fit."""
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        a = VThread(0, clock)
        combiner.read(a, [_read(i * 4096) for i in range(60)])  # partial batch of 60
        # Long after the window closed, a new leader opens a window...
        b = VThread(1, clock)
        b.now = 1.0
        combiner.read(b, [_read(0)])
        # ...and a follower with 10 requests must be admitted (1 + 10 <= 64);
        # with the stale count of 60 leaking it would have been rejected.
        c = VThread(2, clock)
        c.now = 1.0 + 0.5e-6
        combiner.read(c, [_read(i * 4096) for i in range(10)])
        assert combiner.batches == 2  # 60-req leader batch, then b+c shared
        assert combiner.combined_requests == 71


def test_average_batch_empty(ring):
    assert ThreadCombiner(ring).average_batch() == 0.0


class TestReadCallBudget:
    """Python + C calls of one leader's ``ThreadCombiner.read`` (metrics
    off), fixed part and per-request part, from a read of 1 request and
    one of ``N``.  Per request: its SQE placement on the ring (reap,
    stall, the SSD's timed read and its payload).  Measured 5 + 13 per
    request on CPython 3.11 and 3.12, pinned with no headroom; 5 + 14
    while a channel request read its bucket with ``dict.get``; 15 + 16
    while a submission built a list of QD-sized batches, took a ``max``
    per completion and placed each SQE through ``_place``."""

    N = 16
    FIXED = 5
    PER_REQUEST = 13

    def test_calls_per_request(self):
        calls = {}
        for n in (1, self.N):
            combiner = ThreadCombiner(_ring())
            reqs = [_read(i * 4096) for i in range(n)]
            calls[n] = count_calls(combiner.read, VThread(0), reqs)
        per_request = (calls[self.N] - calls[1]) / (self.N - 1)
        assert per_request <= self.PER_REQUEST
        assert calls[1] - per_request <= self.FIXED


# ---------------------------------------------------------------------------
# read == submit + wait
# ---------------------------------------------------------------------------
class _Phases:
    """A metrics registry that keeps every phase sample, in order."""

    enabled = True

    def __init__(self):
        self.samples = []

    def phase(self, op, name, seconds):
        self.samples.append((op, name, seconds))


def _by_read(combiner, thread, reqs, metrics):
    return combiner.read(thread, reqs, metrics)


def _by_submit_then_wait(combiner, thread, reqs, metrics):
    done = combiner.submit(thread, reqs, metrics)
    thread.wait_until(done)
    return done


def _flaky_reads(device, failures):
    """The device's next ``failures`` reads fail transiently."""
    real = device.read_async
    left = [failures]

    def read_async(at, offset, size):
        if left[0]:
            left[0] -= 1
            raise TransientReadError(device.name, "read")
        return real(at, offset, size)

    device.read_async = read_async


# name -> (mode, failing reads, [(arrival, requests)] one thread each)
_SCRIPTS = {
    "leader": (MODE_THREAD_COMBINING, 0, [(0.0, 3)]),
    "follower": (MODE_THREAD_COMBINING, 0, [(0.0, 2), (0.5e-6, 3), (1.0e-6, 1)]),
    "qd_split": (MODE_THREAD_COMBINING, 0, [(0.0, 150), (1e-7, 2)]),
    "retry": (MODE_THREAD_COMBINING, 2, [(0.0, 3), (0.5e-6, 1)]),
    "timeout": (MODE_TIMEOUT_ASYNC, 0, [(0.0, 2), (50e-6, 2)]),
    "sync": (MODE_SYNC, 0, [(0.0, 4), (1e-6, 1)]),
}


def _play(script, issue):
    """Everything observable after running ``script`` through ``issue``."""
    mode, failures, arrivals = _SCRIPTS[script]
    ring = _ring()
    combiner = ThreadCombiner(ring, mode=mode, combine_window=2e-6)
    if failures:
        combiner.retry = RetryExecutor(RetryPolicy(max_retries=4, backoff_base=10e-6))
        _flaky_reads(ring.device, failures)
    clock = VirtualClock()
    metrics = _Phases()
    seen = []
    for tid, (arrival, count) in enumerate(arrivals):
        thread = VThread(tid, clock)
        thread.now = arrival
        reqs = [_read((tid * 200 + i) * 4096) for i in range(count)]
        done = issue(combiner, thread, reqs, metrics)
        seen.append((done, thread.now, thread.cpu_time,
                     [r.completion for r in reqs]))
    return {
        "threads": seen,
        "clock": clock.now,
        "batches": (combiner.batches, combiner.combined_requests),
        "open_window": (combiner._batch_close, combiner._batch_count),
        "phases": metrics.samples,
    }


@pytest.mark.parametrize("script", sorted(_SCRIPTS))
def test_read_is_submit_then_wait(script):
    """Same completion times, thread clocks and CPU, batch accounting,
    open-window state and phase samples, in leader, follower, QD-split,
    retried, timeout-batched and synchronous reads."""
    by_read = _play(script, _by_read)
    assert repr(by_read) == repr(_play(script, _by_submit_then_wait))
    assert by_read["phases"], "the script recorded phase samples"
    if script == "retry":
        first_done = by_read["threads"][0][0]
        assert first_done > 20e-6  # two backoffs were charged


class TestSubmitDoesNotWait:
    def test_leader_pays_only_the_submission_cpu(self, ring):
        combiner = ThreadCombiner(ring, combine_window=1.5e-6)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(150)]  # QD 64 -> 3 syscalls
        done = combiner.submit(t, reqs)
        assert t.now == pytest.approx(3 * SUBMIT_SYSCALL_COST + 150 * SQE_PREP_COST)
        assert t.cpu_time == t.now
        assert done == max(r.completion for r in reqs) > 50e-6
        assert all(r.result is not None for r in reqs)

    def test_follower_pays_only_the_handoff(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        leader, follower = VThread(0, clock), VThread(1, clock)
        follower.now = 0.5e-6
        combiner.submit(leader, [_read(0)])
        done = combiner.submit(follower, [_read(4096)])
        assert combiner.batches == 1  # joined the leader's batch
        assert follower.now == pytest.approx(0.5e-6 + FOLLOWER_HANDOFF_COST)
        assert done > 50e-6

    def test_two_rings_overlap(self):
        """What the scan does: submit to two devices, wait once.  The
        thread is done when the slower one is, not after their sum."""

        def pair():
            return ThreadCombiner(_ring()), ThreadCombiner(_ring())

        small, big = [_read(0)], [_read(0, 64 * 1024)]
        a, b = pair()
        serial = VThread(0)
        a.read(serial, small)
        b.read(serial, big)
        a, b = pair()
        alone = VThread(0)
        b.read(alone, big)
        a, b = pair()
        t = VThread(0)
        t.wait_until(max(a.submit(t, small), b.submit(t, big)))
        # Within one submission's CPU of the slower fetch on its own.
        assert alone.now <= t.now < alone.now + 3e-6
        assert t.now < serial.now - 40e-6

    def test_sync_mode_still_blocks_in_submit(self, ring):
        combiner = ThreadCombiner(ring, mode=MODE_SYNC)
        t = VThread(0)
        done = combiner.submit(t, [_read(i * 4096) for i in range(4)])
        assert t.now == done > 50e-6

    def test_empty_submit(self, ring):
        t = VThread(0)
        assert ThreadCombiner(ring).submit(t, []) == t.now == 0.0


# ---------------------------------------------------------------------------
# submit == the chunk-splitting submit it replaced
# ---------------------------------------------------------------------------
def _split_into_batches(requests, queue_depth):
    return [
        list(requests[i : i + queue_depth])
        for i in range(0, len(requests), queue_depth)
    ]


class ChunkSplittingCombiner(ThreadCombiner):
    """The combiner as it was when a leader split its requests into a
    list of QD-sized batches, each completion went through ``max`` and
    every SQE decided afresh whether to retry: the oracle for
    :meth:`ThreadCombiner.submit`'s walk by index.  Its two inlined
    ``thread.spend`` copies are written as the call, which does the
    same float additions in the same order."""

    def submit(self, thread, requests, metrics=NULL_REGISTRY):
        if not requests:
            return thread.now
        if self.mode == MODE_SYNC:
            start = thread.now
            done = self.ring.submit_and_wait(thread.now, requests)
            thread.wait_until(done)
            if metrics.enabled:
                metrics.phase("read", "ssd_wait", done - start)
            return done
        window = (
            self.combine_window
            if self.mode == MODE_THREAD_COMBINING
            else self.timeout_window
        )
        t = thread.now
        limit = self.ring.queue_depth
        if t > self._batch_close:
            self._batch_count = 0
        joins = (
            t <= self._batch_close
            and self._batch_count + len(requests) <= limit
        )
        done = t
        if joins:
            self._batch_count += len(requests)
            thread.spend(FOLLOWER_HANDOFF_COST)
            floor = self._batch_close
            self.combined_requests += len(requests)
            for req in requests:
                done = max(done, self._place(floor, req))
        else:
            chunks = _split_into_batches(requests, limit)
            floor = t
            for i, chunk in enumerate(chunks):
                last = i == len(chunks) - 1
                if last and len(chunk) < limit:
                    self._batch_close = t + window
                    self._batch_count = len(chunk)
                    floor = self._batch_close
                else:
                    floor = t
                self.batches += 1
                self.combined_requests += len(chunk)
                for req in chunk:
                    done = max(done, self._place(floor, req))
            if len(chunks[-1]) >= limit:
                self._batch_close = t
                self._batch_count = 0
            thread.spend(
                SUBMIT_SYSCALL_COST * len(chunks) + SQE_PREP_COST * len(requests)
            )
        if metrics.enabled:
            submit_at = max(min(floor, done), t)
            metrics.phase("read", "combining_wait", submit_at - t)
            metrics.phase("read", "ssd_wait", max(0.0, done - submit_at))
        return done

    def _place(self, at, req):
        retry = self.retry
        if retry is not None:
            injector = retry.injector
            if injector is None or injector.enabled:
                return retry.run_at(
                    lambda t: self.ring.submit_one(t, req),
                    at,
                    device=self.ring.device.name,
                    op="read",
                )
        return self.ring.submit_one(at, req)


_QD = 4
# Gaps between arrivals: inside the combining window (1.5 us), past it,
# inside the timeout window (100 us) and past that.
_GAPS = (0.0, 0.4e-6, 1.4e-6, 3e-6, 60e-6, 150e-6)


class TestSubmitMatchesChunkSplitting:
    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from([MODE_THREAD_COMBINING, MODE_TIMEOUT_ASYNC]),
        failures=st.sampled_from([None, 0, 2]),
        calls=st.lists(
            st.tuples(
                st.integers(0, 3),  # thread
                st.sampled_from(_GAPS),
                st.integers(1, 3 * _QD + 1),  # requests
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_same_state_after_every_call(self, mode, failures, calls):
        """Completion times, thread clocks and CPU, batch counts, the
        open window and the ring's outstanding completions match the
        chunk-splitting submit after every call: leaders of 1 to
        3·QD+1 requests, followers joining an open window or missing
        it, with no retry executor, one with nothing to retry
        (``failures`` 0) and one whose first two reads fail."""
        sides = []
        for cls in (ThreadCombiner, ChunkSplittingCombiner):
            ring = IOUring(SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB)), _QD)
            combiner = cls(ring, mode=mode)
            if failures is not None:
                combiner.retry = RetryExecutor(RetryPolicy(backoff_base=10e-6))
                _flaky_reads(ring.device, failures)
            clock = VirtualClock()
            threads = [VThread(tid, clock) for tid in range(4)]
            sides.append((combiner, threads, _Phases()))
        arrival = 0.0
        for step, (tid, gap, count) in enumerate(calls):
            arrival += gap
            seen = []
            for combiner, threads, metrics in sides:
                thread = threads[tid]
                thread.now = max(thread.now, arrival)
                reqs = [_read((step * 64 + i) * 4096) for i in range(count)]
                done = combiner.submit(thread, reqs, metrics)
                outstanding = combiner.ring._outstanding
                seen.append(repr((
                    done, thread.now, thread.cpu_time, thread.clock.now,
                    combiner.batches, combiner.combined_requests,
                    combiner._batch_close, combiner._batch_count,
                    outstanding._times[outstanding._head:],
                    [(r.completion, r.result) for r in reqs],
                    metrics.samples,
                )))
            assert seen[0] == seen[1], (step, tid, gap, count)
