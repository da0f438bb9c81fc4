"""Opportunistic thread combining for Value Storage reads (§5.3).

When concurrent threads miss the cache, one of them — the *leader*,
the first to swing the Thread Combining Queue's tail pointer — gathers
the others' read requests and submits them as a single io_uring batch.
Followers hand their request to the leader and wait only for their own
completion.  The batch closes when no more followers arrive (modelled
as a short combining window) or when the coalescing limit (the queue
depth) is reached.

The effect: IO batch size tracks concurrency.  Many concurrent readers
→ large batches → amortized syscalls and full bandwidth.  A lone
reader → batch of one → near-raw device latency.

The module also implements the paper's strawman for Figure 11,
timeout-based batching ("TA"): wait a fixed window (100 µs) for more
requests before submitting, which wrecks latency at low concurrency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.sim.vthread import VThread
from repro.storage.iouring import (
    IORequest,
    IOUring,
    SQE_PREP_COST,
    SUBMIT_SYSCALL_COST,
    split_into_batches,
)

# Leader's TCQ traversal window: the time it keeps collecting follower
# requests before submitting.  Small, so a lone reader pays little.
COMBINE_WINDOW = 1.5e-6
# Follower's cost to enqueue its request behind the leader (the atomic
# swap on the TCQ tail plus the hand-off).
FOLLOWER_HANDOFF_COST = 0.2e-6
# The strawman's wait-for-more-requests timeout (§7.6, Figure 11).
TIMEOUT_WINDOW = 100e-6

MODE_THREAD_COMBINING = "tc"
MODE_TIMEOUT_ASYNC = "ta"
MODE_SYNC = "sync"


class ThreadCombiner:
    """Batches concurrent reads against one Value Storage ring."""

    # Optional RetryExecutor (attached by the store when fault
    # injection is on): transient errors on an SQE placement re-submit
    # that request at a backed-off virtual time.  MODE_SYNC is the
    # deliberately-naive baseline and is not retried.
    retry = None

    def __init__(
        self,
        ring: IOUring,
        mode: str = MODE_THREAD_COMBINING,
        combine_window: float = COMBINE_WINDOW,
        timeout_window: float = TIMEOUT_WINDOW,
    ) -> None:
        if mode not in (MODE_THREAD_COMBINING, MODE_TIMEOUT_ASYNC, MODE_SYNC):
            raise ValueError(f"unknown read-batching mode: {mode}")
        self.ring = ring
        self.mode = mode
        self.combine_window = combine_window
        self.timeout_window = timeout_window
        self._batch_close = -1.0
        self._batch_count = 0
        self.batches = 0
        self.combined_requests = 0

    @property
    def coalescing_limit(self) -> int:
        return self.ring.queue_depth

    def submit(
        self,
        thread: VThread,
        requests: Sequence[IORequest],
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> float:
        """Put ``requests`` on the ring for one thread without waiting;
        returns the completion time of *its* requests.

        The thread pays only the CPU of submitting (the leader's
        syscall and SQEs, or the follower's hand-off), so a caller with
        reads for several Value Storages submits to each and waits once
        for the latest ``done``.  ``MODE_SYNC`` — the deliberately
        naive baseline — still blocks here.

        ``metrics`` attributes the wait the thread now owes to two
        phases: the combining wait (window close / batch hand-off) and
        the SSD wait (device service after submission).
        """
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
        limit = self.coalescing_limit
        if t > self._batch_close:
            # The open batch's window has passed: its count must not
            # leak into admission decisions for the next batch.
            self._batch_count = 0
        joins = (
            t <= self._batch_close
            and self._batch_count + len(requests) <= limit
        )
        done = t
        if joins:
            # Follower: swap into the TCQ and hand over the request.
            self._batch_count += len(requests)
            # thread.spend(FOLLOWER_HANDOFF_COST) inlined (hot path).
            now = thread.now + FOLLOWER_HANDOFF_COST
            thread.now = now
            thread.cpu_time += FOLLOWER_HANDOFF_COST
            clock = thread.clock
            if now > clock._now:
                clock._now = now
            floor = self._batch_close
            self.combined_requests += len(requests)
            for req in requests:
                done = max(done, self._place(floor, req))
        else:
            # Leader: open fresh batches.  A request list larger than
            # the coalescing limit (the queue depth) is split at QD —
            # each split is its own io_uring submission, so batch
            # accounting (Figure 11) never sees an oversized batch.
            chunks = split_into_batches(requests, limit)
            floor = t
            for i, chunk in enumerate(chunks):
                last = i == len(chunks) - 1
                if last and len(chunk) < limit:
                    # Only a partial trailing batch waits out the
                    # window for followers; full batches are closed
                    # the moment they fill and submit immediately.
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
                self._batch_close = t  # no partial batch left open
                self._batch_count = 0
            # thread.spend(...) inlined (hot path).
            cost = (
                SUBMIT_SYSCALL_COST * len(chunks)
                + SQE_PREP_COST * len(requests)
            )
            now = thread.now + cost
            thread.now = now
            thread.cpu_time += cost
            clock = thread.clock
            if now > clock._now:
                clock._now = now
        if metrics.enabled:
            submit_at = max(min(floor, done), t)
            metrics.phase("read", "combining_wait", submit_at - t)
            metrics.phase("read", "ssd_wait", max(0.0, done - submit_at))
        return done

    def read(
        self,
        thread: VThread,
        requests: Sequence[IORequest],
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> float:
        """:meth:`submit`, then wait: returns (and advances the thread
        to) the completion time of its requests."""
        done = self.submit(thread, requests, metrics)
        thread.wait_until(done)
        return done

    def _place(self, at: float, req: IORequest) -> float:
        """Put one SQE on the ring, retrying transient faults if the
        store attached a retry executor."""
        if self.retry is None:
            return self.ring.submit_one(at, req)
        return self.retry.run_at(
            lambda t: self.ring.submit_one(t, req),
            at,
            device=self.ring.device.name,
            op="read",
        )

    def read_one(
        self,
        thread: VThread,
        request: IORequest,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> bytes:
        """Convenience wrapper for a single-record read."""
        self.read(thread, [request], metrics)
        assert request.result is not None
        return request.result

    def average_batch(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.combined_requests / self.batches
