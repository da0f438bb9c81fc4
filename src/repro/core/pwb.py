"""Persistent Write Buffer (§4.3).

One PWB per application thread, on NVM, written append-only: a write
persists ``[backward pointer][size][value]`` and returns, making the
critical path a handful of NVM stores — no SSD latency, no logging,
no write/write conflicts.

The buffer is a ring over a fixed NVM region.  Offsets handed to the
HSIT are *absolute* (monotonically increasing); the ring position is
``offset % capacity``.  Records never straddle the wrap point — the
writer skips the tail padding instead — which keeps every record
physically contiguous.

Reclamation (§5.2) drains ``[tail, head)`` in the background once
utilization crosses the watermark; the paper's well-coupledness check
(backward pointer vs forward pointer) decides which records are live.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.core.record import CHECKED_RECORD_HEADER, PLAIN, RECORD_HEADER, frame, verify
from repro.faults.errors import CorruptionError
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import NULL_CRASH_POINT
from repro.storage.nvm import PAGE_SIZE, NVMDevice

_ALIGN = 8


class PWBFullError(StorageError):
    """Raised when an append cannot fit even after reclamation."""


def holds(capacity: int, header_size: int, value_len: int) -> bool:
    """Can a PWB of ``capacity`` bytes take a value this long at all?
    One record may fill at most half the ring (the first check of
    :meth:`PersistentWriteBuffer.append`)."""
    return -(-(header_size + value_len) // _ALIGN) * _ALIGN <= capacity // 2


class PersistentWriteBuffer:
    """A per-thread append-only ring on NVM."""

    # Crash-exploration hook; the owning store swaps in its own point.
    crash_point = NULL_CRASH_POINT

    def __init__(
        self,
        nvm: NVMDevice,
        pwb_id: int,
        capacity: int,
        checksums: bool = False,
    ) -> None:
        if capacity < 4096:
            raise ValueError(f"PWB too small: {capacity}")
        self.nvm = nvm
        self.pwb_id = pwb_id
        self.capacity = capacity
        self.checksums = checksums
        self.header_size = CHECKED_RECORD_HEADER if checksums else RECORD_HEADER
        self.base = nvm.region(f"pwb{pwb_id}", capacity)
        # Absolute (monotonic) offsets; ring position = offset % capacity.
        # The cursors are DRAM: a buffer attached to a region that holds
        # records starts empty until recovery calls :meth:`adopt`.
        self.head = 0
        self.tail = 0
        # (upto, done_at): a background reclamation has drained
        # [tail, upto) and the space becomes reusable at virtual time
        # done_at.  The release is applied lazily by poll() so the
        # foreground only sees the space once the reclamation has
        # logically finished.
        self.pending_release: Optional[Tuple[int, float]] = None
        # Virtual time at which the latest reclamation finishes.
        self.reclaim_done_at = 0.0
        self.appends = 0
        self.bytes_appended = 0
        # Volatile list of record offsets, oldest first.  Reclamation
        # iterates it instead of parsing ring padding; recovery finds
        # live PWB records through the HSIT and hands them to adopt().
        self._offsets: deque = deque()

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self.head - self.tail

    def utilization(self) -> float:
        return self.used / self.capacity

    def record_bytes(self, value_len: int) -> int:
        raw = self.header_size + value_len
        return -(-raw // _ALIGN) * _ALIGN

    def _advance_over_wrap(self, offset: int, need: int) -> int:
        """Skip tail padding so the record stays contiguous."""
        pos = offset % self.capacity
        if pos + need > self.capacity:
            return offset + (self.capacity - pos)
        return offset

    def would_fit(self, value_len: int) -> bool:
        need = self.record_bytes(value_len)
        start = self._advance_over_wrap(self.head, need)
        return (start + need) - self.tail <= self.capacity

    # ------------------------------------------------------------------
    # append / read
    # ------------------------------------------------------------------
    def append(
        self, hsit_idx: int, value: bytes, thread: Optional[VThread] = None
    ) -> int:
        """Persist a record; returns its absolute offset.

        The record is durable when this returns (store + flush + fence
        on NVM) — this is what gives Prism immediate durability without
        a write-ahead log.
        """
        if not value:
            raise ValueError("PWB records must carry a non-empty value")
        # record_bytes / _advance_over_wrap inlined: one append
        # per put makes this the hottest PWB entry point.
        vlen = len(value)
        raw = self.header_size + vlen
        need = -(-raw // _ALIGN) * _ALIGN
        capacity = self.capacity
        if need > capacity // 2:
            raise PWBFullError(
                f"value of {vlen}B cannot fit a {capacity}B PWB"
            )
        head = self.head
        pos = head % capacity
        start = head + (capacity - pos) if pos + need > capacity else head
        if (start + need) - self.tail > capacity:
            raise PWBFullError(
                f"pwb {self.pwb_id}: {need}B append overflows "
                f"(used {self.used}/{capacity})"
            )
        cp = self.crash_point
        if cp.active:
            cp.maybe_crash("pwb.append.pre")
        self.head = start + need
        if self.checksums:
            record = frame(hsit_idx, value, True)
        else:
            record = PLAIN.pack(hsit_idx, vlen) + value
        self.nvm.persist(thread, self.base + start % capacity, record)
        if cp.active:
            cp.maybe_crash("pwb.append.persisted")
        self._offsets.append(start)
        self.appends += 1
        self.bytes_appended += vlen
        return start

    def read(self, offset: int, thread: Optional[VThread]) -> Tuple[int, bytes]:
        """Read (backward pointer, value) at an absolute offset: the
        header, then the value it sizes, each an NVM load on
        ``thread``."""
        if not self.tail <= offset < self.head:
            raise StorageError(
                f"pwb {self.pwb_id}: offset {offset} outside "
                f"[{self.tail}, {self.head})"
            )
        pos = self.base + offset % self.capacity
        header_size = self.header_size
        nvm = self.nvm
        header = nvm.load(thread, pos, header_size)
        back, size = PLAIN.unpack_from(header)
        value = nvm.load(thread, pos + header_size, size)
        if self.checksums:
            verify(header, value, nvm.name, f"pwb {self.pwb_id} off {offset}")
        return back, value

    def read_backptr(self, offset: int, thread: Optional[VThread] = None) -> int:
        pos = self.base + offset % self.capacity
        return int.from_bytes(self.nvm.load(thread, pos, 8), "little")

    # ------------------------------------------------------------------
    # reclamation support: what the reclaimer and repair read
    # ------------------------------------------------------------------
    def gather_headers(
        self, thread: Optional[VThread]
    ) -> Tuple[List[int], List[int], List[bytes]]:
        """The offsets, backward pointers and raw headers of every
        record in ``[tail, head)``.  The record list is DRAM, so every
        address is known up front and the headers load as one gather."""
        offsets = list(self._offsets)
        base = self.base
        capacity = self.capacity
        headers = self.nvm.load_gather(
            thread, [base + offset % capacity for offset in offsets], self.header_size
        )
        unpack = PLAIN.unpack_from
        return offsets, [unpack(header)[0] for header in headers], headers

    def gather_values(
        self,
        thread: Optional[VThread],
        offsets: Sequence[int],
        headers: Sequence[bytes],
    ) -> List[bytes]:
        """The values of the records at ``offsets``, whose ``headers``
        :meth:`gather_headers` loaded, as one gather.  With checksums
        each record is verified; a bad one raises CorruptionError, as
        does a size that would run past the ring's end (no record
        straddles it)."""
        base = self.base
        capacity = self.capacity
        end = base + capacity
        header_size = self.header_size
        addrs = [base + offset % capacity + header_size for offset in offsets]
        unpack = PLAIN.unpack_from
        sizes = [unpack(header)[1] for header in headers]
        nvm = self.nvm
        for offset, addr, size in zip(offsets, addrs, sizes):
            if addr + size > end:
                where = f"pwb {self.pwb_id} off {offset}"
                raise CorruptionError(
                    nvm.name, where, f"{nvm.name}: size at {where} runs past the ring"
                )
        values = nvm.load_gather(thread, addrs, sizes)
        if self.checksums:
            for offset, header, value in zip(offsets, headers, values):
                verify(header, value, nvm.name, f"pwb {self.pwb_id} off {offset}")
        return values

    def release_through(self, upto: int) -> None:
        """Advance the tail after a reclamation drained [tail, upto),
        and discard the NVM pages that now lie wholly in free space: a
        recycled window reads zeros, never records of its previous life
        (which a torn append could otherwise expose), and simulator
        memory follows the live window.

        Free space after the release is ring offsets ``[head -
        capacity, upto)``.  The discard takes the released window and
        the page below it, which the previous release had to keep while
        the old tail sat in it, and the page above it once nothing is
        left live."""
        head = self.head
        if not self.tail <= upto <= head:
            raise ValueError(
                f"release {upto} outside [{self.tail}, {head}]"
            )
        capacity = self.capacity
        low = max(self.tail - PAGE_SIZE, head - capacity)
        high = upto if upto < head else min(upto + PAGE_SIZE, low + capacity)
        self.tail = upto
        while self._offsets and self._offsets[0] < upto:
            self._offsets.popleft()
        # Ring positions [start, end), split at the wrap; each part
        # rounded inward to whole pages, so a page shared with live
        # records or with a neighbouring region is kept.
        start = low % capacity
        end = start + high - low
        base = self.base
        for lo, hi in ((start, min(end, capacity)), (0, end - capacity)):
            first = -(-(base + lo) // PAGE_SIZE) * PAGE_SIZE
            last = (base + hi) // PAGE_SIZE * PAGE_SIZE
            if last > first:
                self.nvm.discard(first, last - first)

    def poll(self, now: float) -> None:
        """Apply a pending release whose reclamation has finished."""
        if self.pending_release is None:
            return
        upto, done_at = self.pending_release
        if now >= done_at:
            self.pending_release = None
            self.release_through(upto)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def peek(self, offset: int) -> Tuple[int, bytes]:
        """:meth:`read` for recovery: untimed, and not confined to
        ``[tail, head)`` — a freshly attached buffer has no cursors."""
        pos = self.base + offset % self.capacity
        header = self.nvm.load(None, pos, self.header_size)
        back, size = PLAIN.unpack_from(header)
        value = self.nvm.load(None, pos + self.header_size, size)
        if self.checksums:
            verify(header, value, self.nvm.name, f"pwb {self.pwb_id} off {offset}")
        return back, value

    def adopt(self, offsets: Sequence[int]) -> None:
        """Take over the live records recovery found but could not move
        to Value Storage: ``offsets`` (ascending) become the record
        list, the lowest the tail, the end of the highest the head.
        Anything else in the region is dead and gets overwritten."""
        if offsets:
            last = offsets[-1]
            self.tail = offsets[0]
            self.head = last + self.record_bytes(len(self.peek(last)[1]))
            self._offsets = deque(offsets)
