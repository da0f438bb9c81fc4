"""Shared resources that serialize virtual threads.

Two primitives cover everything the reproduction needs:

* :class:`FIFOServer` — a serially reusable resource.  Used for locks,
  per-worker queues (KVell), and single-request device command
  processing.  A request arriving at time ``t`` starts at
  ``max(t, free_at)`` and occupies the server for its hold time.

* :class:`BandwidthChannel` — a rate-limited resource with one or more
  parallel lanes.  Used for device bandwidth: a transfer of ``n`` bytes
  occupies a lane for ``n / bandwidth`` seconds after a fixed latency.

Both rely on the benchmark driver executing threads in ascending order
of their local clocks, which makes first-come-first-served allocation
in virtual time consistent.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from typing import DefaultDict, List, Optional, Tuple

from repro.sim.vthread import VThread


class FIFOServer:
    """A serially reusable resource in virtual time."""

    __slots__ = ("name", "free_at", "busy_time", "requests")

    def __init__(self, name: str = "server") -> None:
        self.name = name
        self.free_at = 0.0
        self.busy_time = 0.0
        self.requests = 0

    def service(self, at: float, hold: float) -> Tuple[float, float]:
        """Serve a request arriving at ``at`` for ``hold`` seconds.

        Returns ``(start, end)``.  The caller decides which thread's
        clock to advance with ``end``.
        """
        if hold < 0:
            raise ValueError(f"negative hold time: {hold}")
        start = max(at, self.free_at)
        end = start + hold
        self.free_at = end
        self.busy_time += hold
        self.requests += 1
        return start, end


class VLock:
    """A mutex in virtual time with explicit acquire/release.

    The critical-section length is whatever virtual time the owner
    spends between :meth:`acquire` and :meth:`release`; contending
    threads arriving earlier than the release are pushed behind it.
    """

    __slots__ = ("name", "free_at", "_owner", "hold_time", "acquisitions", "contended")

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.free_at = 0.0
        self._owner: Optional[VThread] = None
        self.hold_time = 0.0
        self.acquisitions = 0
        self.contended = 0

    def acquire(self, thread: VThread) -> None:
        if self._owner is thread:
            raise RuntimeError(f"{self.name}: {thread.name} already holds the lock")
        if thread.now < self.free_at:
            self.contended += 1
            thread.wait_until(self.free_at)
        self._owner = thread
        self.acquisitions += 1

    def release(self, thread: VThread) -> None:
        if self._owner is not thread:
            raise RuntimeError(f"{self.name}: released by non-owner {thread.name}")
        self.free_at = thread.now
        self._owner = None

    def __enter__(self) -> "VLock":  # pragma: no cover - convenience only
        raise TypeError("VLock needs a thread; use lock.acquire(thread)")


class WaitList:
    """Event-ordered list of pending completion times.

    Replaces the compare-and-bump pattern over a ``heapq`` min-heap
    (``while heap and heap[0] <= now: heappop``) that device rings use
    to reap finished requests and stall on a full queue.  Entries are
    kept sorted (``bisect.insort``), so expiring a batch of completions
    is a cursor advance instead of one sift-down per entry — the heap
    version dominated the ``repro.storage`` CPU rows on IO-heavy
    workloads.

    Expired entries are removed lazily: :meth:`reap` and :meth:`stall`
    only advance ``_head``; the dead prefix is sliced off once it grows
    past a threshold, keeping amortized cost O(1) per entry.

    Determinism: both structures always surface the *minimum* pending
    time, and removal order for equal floats is value-identical, so
    every stall/bump decision — and therefore every simulated clock —
    is bit-identical to the heap implementation.
    """

    __slots__ = ("_times", "_head")

    # Slice off the expired prefix once it outgrows this many entries
    # (and the live suffix): keeps compaction amortized O(1).
    _COMPACT_TRIGGER = 128

    def __init__(self) -> None:
        self._times: List[float] = []
        self._head = 0

    def add(self, when: float) -> None:
        """Insert a pending completion time."""
        insort(self._times, when, self._head)

    def reap(self, now: float) -> None:
        """Expire every entry with completion time ``<= now``."""
        times = self._times
        head = self._head
        n = len(times)
        while head < n and times[head] <= now:
            head += 1
        self._head = head
        if head > self._COMPACT_TRIGGER and head >= n - head:
            del times[:head]
            self._head = 0

    def stall(self, t: float, limit: int) -> float:
        """Expire earliest entries until fewer than ``limit`` remain.

        Returns ``t`` pushed forward past each expired completion time
        that lies beyond it — the virtual-time analogue of blocking on
        a full ring until a slot frees.
        """
        times = self._times
        head = self._head
        n = len(times)
        while n - head >= limit:
            freed = times[head]
            head += 1
            if freed > t:
                t = freed
        self._head = head
        if head > self._COMPACT_TRIGGER and head >= n - head:
            del times[:head]
            self._head = 0
        return t

    def __len__(self) -> int:
        return len(self._times) - self._head

    def count_after(self, at: float) -> int:
        """Entries still pending strictly after ``at``, without expiring.

        Pure observation: expiring at one observer's clock would change
        stall decisions for threads still behind it.
        """
        times = self._times
        # Sorted order: binary-search the first entry > at.
        lo, hi = self._head, len(times)
        while lo < hi:
            mid = (lo + hi) // 2
            if times[mid] <= at:
                lo = mid + 1
            else:
                hi = mid
        return len(times) - lo


class BandwidthChannel:
    """A rate-limited resource modelled as capacity over time.

    Time is divided into fixed buckets; each holds ``bandwidth x
    bucket`` bytes of transfer capacity.  A request drains capacity
    from its arrival bucket forward, so:

    * concurrent small requests pipeline freely (per-request
      ``latency`` delays only the completion, like an NVMe device
      overlapping in-flight commands);
    * sustained load saturates buckets and pushes completions out —
      the bandwidth ceiling;
    * a request stamped *earlier* than previously seen traffic can
      still use leftover capacity from its own time — essential
      because foreground threads and background work (reclamation,
      compaction) do not arrive in global timestamp order.
    """

    __slots__ = (
        "name",
        "bandwidth",
        "lanes",
        "bucket",
        "_used",
        "_capacity",
        "_horizon",
        "_full_floor",
        "bytes_moved",
        "busy_time",
    )

    # How far behind the newest traffic old buckets are kept (seconds).
    PRUNE_WINDOW = 0.2
    # Map size above which request() prunes.  The single-bucket path
    # tests it only when it opened a bucket (``used == 0.0``: a bucket
    # in the map always holds > 0 bytes); the multi-bucket walk can
    # open later buckets too and always tests.  That equals testing on
    # every call as long as a prune leaves at most _PRUNE_TRIGGER
    # buckets, so that only growth can cross the trigger again.  A
    # prune keeps PRUNE_WINDOW / bucket + 1 buckets up to the newest
    # index plus the backlog already booked beyond it: every channel in
    # the tree uses 10 us buckets, so 20,001 plus a backlog that would
    # have to span 455 ms of device time to reach 65,536.
    _PRUNE_TRIGGER = 1 << 16

    def __init__(
        self,
        bandwidth: float,
        lanes: int = 1,
        name: str = "bw",
        bucket: float = 10e-6,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        if lanes < 1:
            raise ValueError(f"need at least one lane: {lanes}")
        if bucket <= 0:
            raise ValueError(f"bucket must be positive: {bucket}")
        self.name = name
        self.bandwidth = float(bandwidth) * lanes
        self.lanes = lanes
        self.bucket = bucket
        # bucket index -> bytes booked.  A missing bucket reads as 0.0
        # by subscript, and request() books every bucket it reads that
        # has room, so no bucket in the map holds 0.0.
        self._used: DefaultDict[int, float] = defaultdict(float)
        self._capacity = self.bandwidth * bucket
        self._horizon = 0  # buckets below this are forgotten (treated full)
        # All buckets in [_horizon, _full_floor) are known full: lets a
        # saturated channel skip its backlog in O(1) instead of
        # re-walking every full bucket per request.
        self._full_floor = 0
        self.bytes_moved = 0
        self.busy_time = 0.0

    def request(self, at: float, nbytes: int, latency: float = 0.0) -> float:
        """Transfer ``nbytes`` starting no earlier than ``at``.

        Returns the completion time (transfer end + pipelined latency).

        Performance note: this is the single hottest function of the
        whole simulator (every timed byte of every device flows through
        it), so the common case — the arrival bucket alone absorbs the
        transfer — is special-cased ahead of the general bucket walk.
        Both paths perform the *same arithmetic in the same order* as
        the original single loop; completion times are bit-identical.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.bytes_moved += nbytes
        transfer = nbytes / self.bandwidth
        self.busy_time += transfer
        if nbytes == 0:
            return at + latency
        bucket = self.bucket
        cap = self._capacity
        used_map = self._used
        idx = int(at / bucket)
        if idx < self._horizon:
            idx = self._horizon
        full_floor = self._full_floor
        if idx < full_floor:
            idx = full_floor
            extends_floor = True
        else:
            extends_floor = idx == full_floor
        # Fast path: the whole transfer fits in the arrival bucket.
        # (int/float comparison and addition are exact here — nbytes is
        # far below 2**53 — so skipping the float() conversion keeps the
        # arithmetic bit-identical.)
        used = used_map[idx]
        free = cap - used
        if free >= nbytes:
            new_used = used + nbytes
            used_map[idx] = new_used
            end = bucket * (idx + new_used / cap)
            if extends_floor and new_used >= cap:
                self._full_floor = idx + 1
            if used == 0.0 and len(used_map) > self._PRUNE_TRIGGER:
                self._prune(idx + 1)
            floor_end = at + transfer
            # Never faster than line rate from the actual start.
            return (end if end > floor_end else floor_end) + latency
        # General case: drain capacity bucket by bucket.
        remaining = float(nbytes)
        end = at
        while remaining > 0:
            used = used_map[idx]
            free = cap - used
            if free > 0:
                take = min(free, remaining)
                new_used = used + take
                used_map[idx] = new_used
                remaining -= take
                end = bucket * (idx + new_used / cap)
                if extends_floor and new_used >= cap:
                    self._full_floor = idx + 1
                elif extends_floor:
                    extends_floor = False
            elif extends_floor:
                self._full_floor = idx + 1
            idx += 1
        if len(used_map) > self._PRUNE_TRIGGER:
            self._prune(idx)
        # Never faster than line rate from the actual start.
        floor_end = at + transfer
        return (end if end > floor_end else floor_end) + latency

    def _prune(self, newest_idx: int) -> None:
        cutoff = newest_idx - int(self.PRUNE_WINDOW / self.bucket)
        self._used = defaultdict(
            float, {i: v for i, v in self._used.items() if i >= cutoff}
        )
        if cutoff > self._horizon:
            self._horizon = cutoff
        if cutoff > self._full_floor:
            self._full_floor = cutoff
