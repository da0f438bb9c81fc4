"""Heterogeneous Storage Index Table (§4.5, §5.4).

The HSIT is an array on NVM whose 16-byte entries locate a key's value
across media: an 8-byte *location word* (PWB or Value Storage, plus the
dirty bit used by the flush-on-read protocol) and an 8-byte SVC word
(DRAM cache pointer, rebuilt empty on recovery).

Durable-linearizability protocol for the location word:

1. the writer stores ``new | DIRTY`` (atomic 8-byte CAS),
2. flushes the cache line and fences,
3. stores ``new`` with the dirty bit cleared.

A reader loads the whole entry — both words share a cache line, so it
is one NVM load (:meth:`HSIT.read_entry`), and a caller that knows
many entries up front loads them as one gather
(:meth:`HSIT.read_entries`).  A reader that observes the dirty bit
flushes on the writer's behalf before using the pointer.  A crash
between (1) and (2) rolls the word back to the old location — the new
value is simply unreachable, which is safe because the old value is
still well-coupled.  A crash after (2) leaves a persisted-but-dirty
word; recovery clears stray dirty bits.  The simulated NVM reproduces
exactly these outcomes.

Free entries form a persistent free list threaded through null
location words; deleted entries join it only after two epochs
(:mod:`repro.core.epoch`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import pointers as ptr
from repro.sim.resources import VLock
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import NULL_CRASH_POINT
from repro.storage.nvm import NVMDevice

ENTRY_BYTES = 16
_WORD_MASK = (1 << 64) - 1  # an entry's low word: the location
_CAS_COST = 25e-9


class FreeListError(StorageError):
    """The persistent free list is malformed (a double free, or a link
    outside the allocated range): walking it further would never end."""


class HSIT:
    """Array-of-entries indirection table on NVM."""

    # Crash-exploration hook; the owning store swaps in its own point.
    crash_point = NULL_CRASH_POINT

    def __init__(self, nvm: NVMDevice, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"HSIT capacity must be >= 1: {capacity}")
        self.nvm = nvm
        self.capacity = capacity
        # header: [free-list head+1 (8B)][next-unused index (8B)]
        self._header = nvm.region("hsit.header", 16)
        self._base = nvm.region("hsit.entries", capacity * ENTRY_BYTES)
        self._alloc_lock = VLock(name="hsit-alloc")
        # allocations - frees = entries in use (seeded by recovery).
        self.allocations = 0
        self.frees = 0
        self.reader_flushes = 0

    # ------------------------------------------------------------------
    # raw words
    # ------------------------------------------------------------------
    def _addr(self, idx: int) -> int:
        if not 0 <= idx < self.capacity:
            raise StorageError(f"HSIT index out of range: {idx}")
        return self._base + idx * ENTRY_BYTES

    def _load_word(self, thread: Optional[VThread], addr: int) -> int:
        return int.from_bytes(self.nvm.load(thread, addr, 8), "little")

    def _persist_word(self, thread: Optional[VThread], addr: int, word: int) -> None:
        self.nvm.persist(thread, addr, word.to_bytes(8, "little"))

    def _header_words(self, thread: Optional[VThread]) -> Tuple[int, int]:
        raw = self.nvm.load(thread, self._header, 16)
        return (
            int.from_bytes(raw[:8], "little"),
            int.from_bytes(raw[8:], "little"),
        )

    # ------------------------------------------------------------------
    # allocation / free list
    # ------------------------------------------------------------------
    def allocate(self, thread: Optional[VThread] = None) -> int:
        """Take a free entry (free list first, then fresh space)."""
        if thread is not None:
            self._alloc_lock.acquire(thread)
        try:
            head_plus1, next_unused = self._header_words(thread)
            if head_plus1:
                idx = head_plus1 - 1
                link = ptr.free_link_of(self._load_word(thread, self._addr(idx)))
                self.nvm.persist(thread, self._header, link.to_bytes(8, "little"))
            else:
                if next_unused >= self.capacity:
                    raise StorageError(
                        f"HSIT exhausted: {next_unused} of {self.capacity} used"
                    )
                idx = next_unused
                self.nvm.persist(
                    thread, self._header + 8, (next_unused + 1).to_bytes(8, "little")
                )
            self.allocations += 1
            return idx
        finally:
            if thread is not None:
                self._alloc_lock.release(thread)

    def free(self, idx: int, thread: Optional[VThread] = None) -> None:
        """Push an entry onto the persistent free list.

        Callers must only invoke this through epoch-based reclamation
        so no concurrent reader still holds the entry (§5.4).
        """
        if thread is not None:
            self._alloc_lock.acquire(thread)
        try:
            head_plus1, _ = self._header_words(thread)
            self._persist_word(
                thread, self._addr(idx), ptr.encode_free_link(head_plus1)
            )
            self.nvm.store_word(thread, self._addr(idx) + 8, 0)
            self.nvm.persist(thread, self._header, (idx + 1).to_bytes(8, "little"))
            self.frees += 1
        finally:
            if thread is not None:
                self._alloc_lock.release(thread)

    @property
    def next_unused(self) -> int:
        """First never-allocated index (untimed)."""
        return self._header_words(None)[1]

    def free_entries(self) -> Iterator[int]:
        """Walk the persistent free list (untimed), head first.

        A well-formed list names each entry once and only entries below
        ``next_unused``, so it ends within ``next_unused`` steps; a
        link that breaks either rule raises :class:`FreeListError`
        instead of sending the walker round a cycle forever.
        """
        head_plus1, next_unused = self._header_words(None)
        seen = set()
        while head_plus1:
            idx = head_plus1 - 1
            if idx >= next_unused:
                raise FreeListError(
                    f"HSIT free list links to never-allocated entry {idx} "
                    f"(next unused is {next_unused})"
                )
            if idx in seen:
                raise FreeListError(
                    f"HSIT free list revisits entry {idx} after "
                    f"{len(seen)} steps (freed twice)"
                )
            seen.add(idx)
            yield idx
            head_plus1 = ptr.free_link_of(self._load_word(None, self._addr(idx)))

    def allocated_entries(self) -> int:
        return self.next_unused - sum(1 for _ in self.free_entries())

    def nvm_bytes(self) -> int:
        return 16 + self.next_unused * ENTRY_BYTES

    # ------------------------------------------------------------------
    # the flush-on-read location protocol
    # ------------------------------------------------------------------
    def publish_location(
        self, idx: int, word: int, thread: Optional[VThread] = None
    ) -> ptr.Location:
        """Durably install a new forward pointer; returns the old location.

        This is the linearization point of every write in Prism.
        """
        return ptr.decode(self.publish_location_word(idx, word, thread)[0])

    def publish_location_word(
        self, idx: int, word: int, thread: Optional[VThread]
    ) -> Tuple[int, int]:
        """:meth:`publish_location` returning the raw old word and the
        raw SVC word (cached-copy id + 1, 0 when not cached) beside it.

        The CAS loads the whole entry, so the write path supersedes the
        old location and drops the cached copy with bit tests on the
        two words: no Location decode, no second load.
        """
        if not 0 <= idx < self.capacity:
            raise StorageError(f"HSIT index out of range: {idx}")
        addr = self._base + idx * ENTRY_BYTES
        nvm = self.nvm
        cp = self.crash_point
        cp_active = cp.active
        if thread is not None and not cp_active and not nvm.injector.enabled:
            # Fused CAS sequence (one bounds check, one page lookup);
            # bit-identical timing — see NVMDevice.publish_word.
            old, svc_word = nvm.publish_word(
                thread,
                addr,
                word | ptr.DIRTY_BIT,
                word & ~ptr.DIRTY_BIT,
                _CAS_COST,
            )
            return old & ~ptr.DIRTY_BIT, svc_word
        entry = int.from_bytes(nvm.load(thread, addr, ENTRY_BYTES), "little")
        old = entry & _WORD_MASK
        svc_word = entry >> 64
        if cp_active:
            cp.maybe_crash("hsit.publish.pre")
        # (1) atomic store of the new pointer with the dirty bit set
        nvm.store_word(thread, addr, word | ptr.DIRTY_BIT)
        if thread is not None:
            thread.spend(_CAS_COST)
        if cp_active:
            cp.maybe_crash("hsit.publish.dirty")
        # (2) flush + fence: the dirty pointer is now durable
        nvm.flush(thread, addr, 8)
        nvm.fence(thread)
        if cp_active:
            cp.maybe_crash("hsit.publish.flushed")
        # (3) clear the dirty bit (flushed lazily by readers/recovery)
        clean = word & ~ptr.DIRTY_BIT
        nvm.store_word(thread, addr, clean)
        if cp_active:
            cp.maybe_crash("hsit.publish.done")
        return old & ~ptr.DIRTY_BIT, svc_word

    def read_entry(
        self, idx: int, thread: Optional[VThread]
    ) -> Tuple[ptr.Location, Optional[int]]:
        """One 16-byte load of an entry: its forward pointer and its
        cached-copy id (None when not cached)."""
        if not 0 <= idx < self.capacity:
            raise StorageError(f"HSIT index out of range: {idx}")
        addr = self._base + idx * ENTRY_BYTES
        return self._decode_entries(
            (addr,), [self.nvm.load(thread, addr, ENTRY_BYTES)], thread
        )[0]

    def read_entries(
        self, idxs: Iterable[int], thread: Optional[VThread]
    ) -> List[Tuple[ptr.Location, Optional[int]]]:
        """:meth:`read_entry` for each of ``idxs``, loaded as one gather
        (:meth:`NVMDevice.load_gather`) instead of one round trip each."""
        base = self._base
        capacity = self.capacity
        addrs = list(idxs)
        for i, idx in enumerate(addrs):
            if not 0 <= idx < capacity:
                raise StorageError(f"HSIT index out of range: {idx}")
            addrs[i] = base + idx * ENTRY_BYTES
        return self._decode_entries(
            addrs, self.nvm.load_gather(thread, addrs, ENTRY_BYTES), thread
        )

    def location_words(self, idxs: Sequence[int], thread: VThread) -> List[int]:
        """The location words of ``idxs`` as stored (dirty bit and all),
        loaded as one gather of 8-byte loads: what the PWB reclaimer's
        well-coupledness test compares."""
        capacity = self.capacity
        outside = [idx for idx in idxs if not 0 <= idx < capacity]
        if outside:
            raise StorageError(f"HSIT index out of range: {outside[0]}")
        base = self._base
        return [
            int.from_bytes(raw, "little")
            for raw in self.nvm.load_gather(
                thread, [base + idx * ENTRY_BYTES for idx in idxs], 8
            )
        ]

    def _decode_entries(
        self, addrs: Sequence[int], raws: List[bytes], thread: Optional[VThread]
    ) -> List[Tuple[ptr.Location, Optional[int]]]:
        """Split each loaded entry (``raws[i]``, loaded from ``addrs[i]``)
        in place, flushing on the writer's behalf when the dirty bit is
        observed."""
        decode = ptr.decode
        for i, raw in enumerate(raws):
            entry = int.from_bytes(raw, "little")
            word = entry & _WORD_MASK
            if word & ptr.DIRTY_BIT:
                word &= ~ptr.DIRTY_BIT
                nvm = self.nvm
                addr = addrs[i]
                nvm.flush(thread, addr, 8)
                nvm.fence(thread)
                nvm.store_word(thread, addr, word)
                if thread is not None:
                    thread.spend(_CAS_COST)
                self.reader_flushes += 1
            svc_word = entry >> 64
            raws[i] = (decode(word), svc_word - 1 if svc_word else None)
        return raws

    def read_location(
        self, idx: int, thread: Optional[VThread] = None
    ) -> ptr.Location:
        """The forward pointer of :meth:`read_entry`."""
        return self.read_entry(idx, thread)[0]

    def location_word(self, idx: int) -> int:
        """Raw (untimed) access for recovery and tests."""
        return self._load_word(None, self._addr(idx))

    def clear_dirty_bit(self, idx: int, thread: Optional[VThread] = None) -> None:
        """Recovery helper: normalize a persisted-but-dirty word."""
        addr = self._addr(idx)
        word = self._load_word(thread, addr)
        if ptr.is_dirty(word):
            self._persist_word(thread, addr, ptr.clear_dirty(word))

    # ------------------------------------------------------------------
    # SVC word (cache pointer; meaningless after a crash)
    # ------------------------------------------------------------------
    def set_svc(self, idx: int, entry_id: int, thread: Optional[VThread]) -> None:
        """Atomically point the entry at a DRAM-cached copy (id + 1)."""
        if not 0 <= idx < self.capacity:
            raise StorageError(f"HSIT index out of range: {idx}")
        self.nvm.store_word(thread, self._base + idx * ENTRY_BYTES + 8, entry_id + 1)
        if thread is not None:
            now = thread.now + _CAS_COST
            thread.now = now
            thread.cpu_time += _CAS_COST
            clock = thread.clock
            if now > clock._now:
                clock._now = now

    def clear_svc(self, idx: int, thread: Optional[VThread] = None) -> None:
        if not 0 <= idx < self.capacity:
            raise StorageError(f"HSIT index out of range: {idx}")
        self.nvm.store_word(thread, self._base + idx * ENTRY_BYTES + 8, 0)
        if thread is not None:
            now = thread.now + _CAS_COST
            thread.now = now
            thread.cpu_time += _CAS_COST
            clock = thread.clock
            if now > clock._now:
                clock._now = now

    def read_svc(self, idx: int, thread: Optional[VThread] = None) -> Optional[int]:
        """The cached-copy id of :meth:`read_entry`."""
        return self.read_entry(idx, thread)[1]
