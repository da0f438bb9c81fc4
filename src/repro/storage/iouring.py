"""io_uring-style batched asynchronous IO.

The paper submits IO through Linux io_uring (§5.1, §5.3): a submission
queue (SQ) and completion queue (CQ) per Value Storage, with a queue
depth of 64.  The performance-relevant properties reproduced here:

* one submission syscall covers a whole batch (CPU cost amortizes);
* the queue depth caps *outstanding* requests — a shallow ring forces
  serialization and starves the device, a deep ring keeps it busy;
* device latency is pipelined across in-flight requests while the
  bandwidth channel enforces the transfer-rate ceiling.

Together these create the latency/bandwidth trade-off that motivates
opportunistic thread combining: more in-flight requests raise
utilization but queueing delays individual completions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.sim.resources import WaitList
from repro.storage.base import StorageError
from repro.storage.ssd import SSDDevice

# Cost of an io_uring_enter round trip (submission + later reap), paid
# once per batch by the submitting thread.
SUBMIT_SYSCALL_COST = 2.0e-6
# Per-request SQE preparation cost.
SQE_PREP_COST = 0.15e-6


@dataclass
class IORequest:
    """One submission-queue entry."""

    op: str  # "read" | "write"
    offset: int
    size: int
    data: Optional[bytes] = None
    context: object = None  # caller cookie (e.g. HSIT index)
    completion: float = field(default=0.0, compare=False)
    result: Optional[bytes] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"unknown op: {self.op}")
        if self.op == "write":
            if self.data is None:
                raise ValueError("write request needs data")
            self.size = len(self.data)


class IOUring:
    """A SQ/CQ pair bound to one SSD.

    ``queue_depth`` bounds in-flight requests: a submission finding the
    ring full stalls (in virtual time) until the earliest outstanding
    completion frees a slot, exactly like a blocked ``io_uring_enter``
    with a full SQ.
    """

    def __init__(self, device: SSDDevice, queue_depth: int = 64) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1: {queue_depth}")
        self.device = device
        self.queue_depth = queue_depth
        self.batches_submitted = 0  # submit() calls
        self.requests_submitted = 0  # SQEs, submit_one's included
        self.io_errors = 0  # CQEs that completed with an error
        self._outstanding = WaitList()  # event-ordered completion times

    def submit(self, at: float, requests: Sequence[IORequest]) -> float:
        """Submit a batch at virtual time ``at``.

        Fills in each request's ``completion`` (and ``result`` for
        reads).  Returns the time the submitting thread regains control
        — after the syscall, plus any stall for ring slots.
        """
        if not requests:
            return at
        t = at + SUBMIT_SYSCALL_COST + SQE_PREP_COST * len(requests)
        outstanding = self._outstanding
        device = self.device
        qd = self.queue_depth
        stall = outstanding.stall
        add = outstanding.add
        outstanding.reap(t)
        for req in requests:
            t = stall(t, qd)
            try:
                if req.op == "read":
                    req.completion = device.read_async(t, req.offset, req.size)
                    req.result = device.read_raw(req.offset, req.size)
                else:
                    assert req.data is not None
                    req.completion = device.write_async(t, req.offset, req.data)
            except StorageError:
                # Errored CQE: earlier requests of the batch are already
                # in flight (and, for writes, durable) — exactly the
                # io_uring contract.  The caller retries or degrades.
                self.io_errors += 1
                raise
            add(req.completion)
        self.batches_submitted += 1
        self.requests_submitted += len(requests)
        return t

    def submit_one(self, at: float, req: IORequest) -> float:
        """Place one already-prepared SQE (no per-call syscall cost).

        Used by the thread combiner, where the leader pays the syscall
        once for the whole combined batch.  Returns the completion
        time, after any stall for a free ring slot.
        """
        outstanding = self._outstanding
        outstanding.reap(at)
        t = outstanding.stall(at, self.queue_depth)
        device = self.device
        try:
            if req.op == "read":
                req.completion = device.read_async(t, req.offset, req.size)
                req.result = device.read_raw(req.offset, req.size)
            else:
                assert req.data is not None
                req.completion = device.write_async(t, req.offset, req.data)
        except StorageError:
            self.io_errors += 1
            raise
        outstanding.add(req.completion)
        self.requests_submitted += 1
        return req.completion

    def submit_and_wait(self, at: float, requests: Sequence[IORequest]) -> float:
        """Submit and wait for the whole batch; returns completion time."""
        self.submit(at, requests)
        return max(req.completion for req in requests) if requests else at

    def idle_at(self, at: float) -> bool:
        """True when no in-flight request is still being serviced.

        Prism picks an idle Value Storage when several SSDs are
        available (§5.2).
        """
        self._outstanding.reap(at)
        return not self._outstanding

    def inflight_at(self, at: float) -> int:
        self._outstanding.reap(at)
        return len(self._outstanding)

    def inflight_snapshot(self, at: float) -> int:
        """Count requests still in service at ``at`` without reaping.

        Pure observation for metrics sampling: reaping at one thread's
        (possibly ahead) clock would change stall decisions for threads
        still behind it."""
        return self._outstanding.count_after(at)


def split_into_batches(
    requests: Sequence[IORequest], queue_depth: int
) -> List[List[IORequest]]:
    """Chop an arbitrarily long request list into QD-sized batches."""
    return [
        list(requests[i : i + queue_depth])
        for i in range(0, len(requests), queue_depth)
    ]
