"""Byte-addressable persistent memory with volatile-cache semantics.

This module is the linchpin of the reproduction.  The paper's crash
consistency protocol (§5.4–5.5) exists because a store to Optane DCPMM
may linger in the volatile CPU cache: an atomic pointer update is *not*
durable until a cache-line flush reaches the DIMM.  We reproduce those
semantics exactly:

* :meth:`NVMDevice.store` updates the current (volatile) view and
  records an undo snapshot of each touched cache line;
* :meth:`NVMDevice.flush` makes the covered lines durable;
* :meth:`NVMDevice.crash` rolls every unflushed line back to its last
  durable content.

Prism's flush-on-read dirty-bit protocol, backward pointers, and
append-only PWB are all validated against these semantics by the crash
tests.

:class:`PersistentHeap` is an object-granularity convenience used by
the persistent key index.  The paper assumes the index guarantees its
own crash consistency ("We assume that the Persistent Key Index ensures
its own crash consistency", §5.5); the heap provides exactly that
contract — objects revert to their last committed snapshot on crash.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.vthread import VThread
from repro.storage.base import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,  # the simulated page: what a discard drops
    Device,
    OutOfSpaceError,
    StorageError,
    gather_many,
    gather_pages,
    scatter_pages,
)
from repro.storage.specs import NVM_SPEC, DeviceSpec

CACHE_LINE = 256  # Optane DCPMM internal access granularity (XPLine)
_LINE_SHIFT = 8  # log2(CACHE_LINE)
_LINES_PER_PAGE_SHIFT = PAGE_SHIFT - _LINE_SHIFT
# Independent loads one thread keeps in flight (a core's line-fill
# buffers): the width of one wave of NVMDevice.load_gather.  A buffer
# holds one 64 B CPU cache line, so a load longer than that takes one
# buffer per line.
LOADS_IN_FLIGHT = 10
_FILL_SHIFT = 6  # log2 of the 64 B a line-fill buffer holds


class RegionMismatchError(StorageError):
    """What is being attached does not fit the regions laid out on the
    media (another HSIT capacity, PWB size or PWB count)."""


class NVMDevice(Device):
    """Simulated Intel Optane DCPMM with explicit persistence."""

    def __init__(self, spec: Optional[DeviceSpec] = None, name: str = "nvm") -> None:
        super().__init__(spec or NVM_SPEC, name=name)
        self._pages: Dict[int, bytearray] = {}
        # line index -> durable content of that line before unflushed stores
        self._undo: Dict[int, bytes] = {}
        self._brk = 0  # bump allocator
        # Durable table of named regions, name -> (base, nbytes): how a
        # restarted process finds what an earlier one laid out.
        self.regions: Dict[str, Tuple[int, int]] = {}
        self.flushes = 0
        self.bytes_flushed = 0
        self.fences = 0
        self.crashes = 0
        # Optional RetryExecutor: when attached, failed flushes retry
        # internally, which covers every persist point (PWB headers,
        # HSIT publishes, bitmap commits) without touching call sites.
        # A flush that fails leaves its lines volatile, so retrying is
        # always safe.
        self._retry = None

    def attach_retry(self, executor) -> None:
        """Retry failed flushes through ``executor`` (idempotent op)."""
        self._retry = executor

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve a region; returns its base address."""
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive: {nbytes}")
        base = -(-self._brk // align) * align
        if base + nbytes > self.capacity:
            raise OutOfSpaceError(
                f"{self.name}: alloc {nbytes} at {base} exceeds capacity {self.capacity}"
            )
        self._brk = base + nbytes
        return base

    def region(self, name: str, nbytes: int, align: int = 256) -> int:
        """Base address of the named region: allocated the first time
        the name is asked for, the same address every time after.  A
        size other than the one it was laid out with raises."""
        known = self.regions.get(name)
        if known is None:
            known = self.regions[name] = (self.alloc(nbytes, align), nbytes)
        elif known[1] != nbytes:
            raise RegionMismatchError(
                f"{self.name}: region {name!r} is {known[1]}B, not {nbytes}B"
            )
        return known[0]

    @property
    def used(self) -> int:
        return self._brk

    # ------------------------------------------------------------------
    # raw page access
    # ------------------------------------------------------------------
    def _read_raw(self, addr: int, size: int) -> bytes:
        return gather_pages(self._pages, addr, size)

    def _lines(self, addr: int, size: int) -> range:
        first = addr >> _LINE_SHIFT
        last = (addr + max(size, 1) - 1) >> _LINE_SHIFT
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # load / store / flush / fence
    # ------------------------------------------------------------------
    def load(self, thread: Optional[VThread], addr: int, size: int) -> bytes:
        """Read ``size`` bytes (sees unflushed stores, like a real CPU)."""
        if addr < 0 or addr + size > self._capacity:
            raise StorageError(f"{self.name}: load [{addr}, {addr + size}) out of range")
        # charge_read inlined: every point read loads its HSIT entry here.
        self.bytes_read += size
        if thread is not None:
            end = self._read_request(thread.now, size, self._read_latency)
            if end > thread.now:
                thread.now = end
                clock = thread.clock
                if end > clock._now:
                    clock._now = end
        return gather_pages(self._pages, addr, size)

    def load_gather(
        self,
        thread: Optional[VThread],
        addrs: Sequence[int],
        size: Union[int, Sequence[int]],
    ) -> List[bytes]:
        """Independent loads issued together: ``size`` bytes at every
        address, or ``size[i]`` bytes at ``addrs[i]`` when ``size`` is a
        sequence.

        The addresses are known up front, so nothing serialises the
        loads: a wave goes on the read channel at the same instant and
        the thread waits once, for the last of them; the next wave
        starts there.  A wave is what the ``LOADS_IN_FLIGHT`` line-fill
        buffers hold: that many 64 B lines (ten HSIT entries, say), or
        one longer load on its own.  The channel pipelines requests
        stamped at the same time (one latency, the transfers back to
        back), which is the memory-level parallelism a lone
        :meth:`load` per address never asks for.  The buffers bound it
        too: a gather of 1 KB values is one value per round trip, not
        ten values' worth of the channel's bandwidth.  One address
        costs exactly ``load(thread, addr, size)``.
        """
        sizes = repeat(size) if size.__class__ is int else size
        capacity = self._capacity
        nbytes = 0
        for addr, size in zip(addrs, sizes):
            if addr < 0 or addr + size > capacity:
                raise StorageError(
                    f"{self.name}: load [{addr}, {addr + size}) out of range"
                )
            nbytes += size
        self.bytes_read += nbytes
        if thread is not None:
            request = self._read_request
            latency = self._read_latency
            issued = now = thread.now
            room = LOADS_IN_FLIGHT
            for _, size in zip(addrs, sizes):
                lines = (size + 63) >> _FILL_SHIFT
                if lines > room and room < LOADS_IN_FLIGHT:
                    # The wave's buffers are taken: the next wave starts
                    # when its last load is back.
                    issued = now
                    room = LOADS_IN_FLIGHT
                room -= lines
                end = request(issued, size, latency)
                if end > now:
                    now = end
            if now > thread.now:
                thread.now = now
                clock = thread.clock
                if now > clock._now:
                    clock._now = now
        return gather_many(self._pages, addrs, sizes)

    def store_word(self, thread: Optional[VThread], addr: int, word: int) -> None:
        """8-byte store: identical semantics (undo snapshot, volatile
        view, CPU cost) to ``store(thread, addr, word.to_bytes(8))``.
        ``addr`` must be 8-aligned, so the word sits in one line."""
        if addr < 0 or addr + 8 > self._capacity or addr & 7:
            raise StorageError(
                f"{self.name}: store [{addr}, {addr + 8}) out of range or unaligned"
            )
        off = addr & PAGE_MASK
        undo = self._undo
        first = addr >> _LINE_SHIFT
        page_idx = addr >> PAGE_SHIFT
        pages = self._pages
        if page_idx in pages:
            page = pages[page_idx]
        else:
            page = pages[page_idx] = bytearray(PAGE_SIZE)
        if first not in undo:
            # A 256 B line never straddles a 4 KB page, so the snapshot
            # is a single slice of the page just fetched (_read_raw
            # inlined).
            loff = (first << _LINE_SHIFT) & PAGE_MASK
            undo[first] = page[loff : loff + CACHE_LINE]
        page[off : off + 8] = word.to_bytes(8, "little")
        if thread is not None:
            now = thread.now + 5e-9
            thread.now = now
            thread.cpu_time += 5e-9
            clock = thread.clock
            if now > clock._now:
                clock._now = now

    def store(self, thread: Optional[VThread], addr: int, data: bytes) -> None:
        """Store bytes into the volatile view; durable only after flush."""
        size = len(data)
        if addr < 0 or addr + size > self._capacity:
            raise StorageError(
                f"{self.name}: store [{addr}, {addr + size}) out of range"
            )
        # Snapshot durable content of each touched line exactly once.
        undo = self._undo
        pages = self._pages
        for line in self._lines(addr, size):
            if line not in undo:
                undo[line] = gather_pages(pages, line << _LINE_SHIFT, CACHE_LINE)
        scatter_pages(pages, addr, data)
        if thread is not None:
            thread.spend(5e-9)  # stores land in the CPU cache: cheap, not free

    def _consult_flush(self, thread: Optional[VThread]) -> float:
        """Ask the armed injector about one flush, through the retry
        executor when one is attached; returns the fail-slow penalty."""
        def consult() -> float:
            return self.injector.before_flush(
                self, thread.now if thread is not None else 0.0
            )

        if self._retry is None:
            return consult()
        return self._retry.run(consult, thread=thread, device=self.name, op="flush")

    def flush(self, thread: Optional[VThread], addr: int, size: int) -> None:
        """clwb/clflushopt: persist the cache lines covering the range.

        A fault-injected flush failure surfaces *before* any line is
        persisted: the covered lines stay volatile, so the operation
        can be retried wholesale (and is, when a retry executor is
        attached).  An unarmed injector is not consulted."""
        penalty = 0.0
        if self.injector.enabled:
            penalty = self._consult_flush(thread)
        flushed = 0
        for line in self._lines(addr, size):
            if self._undo.pop(line, None) is not None:
                flushed += 1
        self.flushes += 1
        self.bytes_flushed += flushed * CACHE_LINE
        # The write to the DIMM media happens now.
        end = self.charge_write(thread, max(flushed, 1) * CACHE_LINE)
        if penalty and thread is not None:
            thread.wait_until(end + penalty)  # fail-slow inflation (gray failure)

    def fence(self, thread: Optional[VThread]) -> None:
        """sfence: ordering point; modelled as a small CPU cost."""
        self.fences += 1
        if thread is not None:
            thread.spend(10e-9)

    def persist(self, thread: Optional[VThread], addr: int, data: bytes) -> None:
        """store + flush + fence in one step.

        While the injector is armed a flush can fail between the steps,
        so they run as themselves.  Otherwise nothing can interrupt
        them, and they run fused (same charges, same order): persist()
        runs at least once per put and the call transitions were
        measurable.
        """
        if self.injector.enabled:
            self.store(thread, addr, data)
            self.flush(thread, addr, len(data))
            self.fence(thread)
            return
        # -- store --
        size = len(data)
        if addr < 0 or addr + size > self._capacity:
            raise StorageError(
                f"{self.name}: store [{addr}, {addr + size}) out of range"
            )
        # The per-line snapshot the store would take is popped unread by
        # the flush, so skip both: drop pre-existing undo entries and
        # count every line in range as flushed — what the two steps net
        # to.
        undo = self._undo
        pages = self._pages
        first = addr >> _LINE_SHIFT
        last = (addr + (size or 1) - 1) >> _LINE_SHIFT
        for line in range(first, last + 1):
            undo.pop(line, None)
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = pages.get(addr >> PAGE_SHIFT)
            if page is None:
                page = pages[addr >> PAGE_SHIFT] = bytearray(PAGE_SIZE)
            page[off : off + size] = data
        else:
            scatter_pages(pages, addr, data)
        if thread is not None:
            now = thread.now + 5e-9
            thread.now = now
            thread.cpu_time += 5e-9
            clock = thread.clock
            if now > clock._now:
                clock._now = now
        # -- flush --
        flushed = last - first + 1
        self.flushes += 1
        self.bytes_flushed += flushed * CACHE_LINE
        nbytes = (flushed if flushed > 1 else 1) * CACHE_LINE
        self.bytes_written += nbytes
        if thread is not None:
            end = self._write_request(thread.now, nbytes, self._write_latency)
            if end > thread.now:
                thread.now = end
                clock = thread.clock
                if end > clock._now:
                    clock._now = end
        # -- fence --
        self.fences += 1
        if thread is not None:
            now = thread.now + 10e-9
            thread.now = now
            thread.cpu_time += 10e-9
            clock = thread.clock
            if now > clock._now:
                clock._now = now

    def publish_word(
        self,
        thread: VThread,
        addr: int,
        dirty_word: int,
        clean_word: int,
        cas_cost: float,
    ) -> Tuple[int, int]:
        """Fused pointer-publish CAS for the HSIT hot path.

        Equivalent to ``load(addr, 16)`` + ``store_word(dirty)`` + CAS
        spend + ``flush(addr, 8)`` + ``fence`` + ``store_word(clean)``
        with one bounds check and one page lookup.  Every virtual-time
        charge is issued in the same order with the same operands, so
        completion times are bit-identical to the discrete sequence.
        Callers must gate on: a real thread, no active crash points and
        an unarmed injector — the only behaviours the discrete steps
        add beyond this fast path (an attached retry executor acts only
        on an armed injector's failures).  Returns the raw
        previous word and the word after it (one 16-byte load: an HSIT
        entry's location and SVC words).  ``addr`` must be 16-aligned,
        as HSIT entries are.
        """
        if addr < 0 or addr + 16 > self._capacity or addr & 15:
            raise StorageError(
                f"{self.name}: load [{addr}, {addr + 16}) out of range or unaligned"
            )
        off = addr & PAGE_MASK
        # -- load(addr, 16) --
        self.bytes_read += 16
        now = thread.now
        end = self._read_request(now, 16, self._read_latency)
        if end > now:
            now = end
        pages = self._pages
        page_idx = addr >> PAGE_SHIFT
        page = pages.get(page_idx)
        if page is None:
            page = pages[page_idx] = bytearray(PAGE_SIZE)
            old = neighbour = 0
        else:
            old = int.from_bytes(page[off : off + 8], "little")
            neighbour = int.from_bytes(page[off + 8 : off + 16], "little")
        # -- store_word(dirty): the snapshot this store would take is
        # deleted unread by the flush below, so only a pre-existing
        # undo entry needs dropping (done at the flush step)
        undo = self._undo
        first = addr >> _LINE_SHIFT
        loff = off & ~(CACHE_LINE - 1)
        page[off : off + 8] = dirty_word.to_bytes(8, "little")
        now = now + 5e-9
        thread.cpu_time += 5e-9
        # -- CAS cost (spent by the caller in the discrete sequence) --
        now = now + cas_cost
        thread.cpu_time += cas_cost
        # -- flush: the dirty line would always be in the undo map here
        undo.pop(first, None)
        self.flushes += 1
        self.bytes_flushed += CACHE_LINE
        self.bytes_written += CACHE_LINE
        end = self._write_request(now, CACHE_LINE, self._write_latency)
        if end > now:
            now = end
        # -- fence --
        self.fences += 1
        now = now + 10e-9
        thread.cpu_time += 10e-9
        # -- store_word(clean): the flush made the dirty word durable,
        # so the fresh snapshot is the current page content
        undo[first] = page[loff : loff + CACHE_LINE]
        page[off : off + 8] = clean_word.to_bytes(8, "little")
        now = now + 5e-9
        thread.cpu_time += 5e-9
        # Clock folding: the discrete steps update the global clock at
        # every wait/spend, but the values only grow and nothing reads
        # the clock in between — one final max is identical.
        thread.now = now
        clock = thread.clock
        if now > clock._now:
            clock._now = now
        return old, neighbour

    def write_durable(self, thread: Optional[VThread], addr: int, data: bytes) -> None:
        """Bulk non-temporal write (ntstore + sfence): bypasses the
        CPU cache, so the data is durable immediately.  Used for large
        sequential writes (SSTables, log segments) where per-line undo
        tracking would be pointless overhead."""
        if addr < 0 or addr + len(data) > self._capacity:
            raise StorageError(
                f"{self.name}: write [{addr}, {addr + len(data)}) out of range"
            )
        # Any pending cached stores to these lines are superseded.
        for line in self._lines(addr, len(data)):
            self._undo.pop(line, None)
        scatter_pages(self._pages, addr, data)
        self.charge_write(thread, len(data))

    def write_durable_async(self, at: float, addr: int, data: bytes) -> float:
        """Background-timed variant of :meth:`write_durable`."""
        for line in self._lines(addr, len(data)):
            self._undo.pop(line, None)
        scatter_pages(self._pages, addr, data)
        return self.charge_write_async(at, len(data))

    def discard(self, addr: int, size: int) -> None:
        """Drop whole pages: the range reads back as zeros afterwards.

        :meth:`SSDDevice.discard`'s contract: untimed, not fault-
        injected, no wear, flush or byte accounting, and issued only
        for space nothing points at.  A page holding a line with an
        unflushed store is kept, so :meth:`crash` never rolls that line
        back into a page whose other lines were zeroed.
        """
        if addr < 0 or addr + size > self._capacity:
            raise StorageError(
                f"{self.name}: discard [{addr}, {addr + size}) out of range"
            )
        if (addr | size) & PAGE_MASK:
            raise StorageError(
                f"{self.name}: discard [{addr}, {addr + size}) is not page-aligned"
            )
        undo = self._undo
        keep = ()
        if undo:
            # The unflushed lines inside the range, found by walking the
            # smaller of the undo map and the range's lines.
            first, end = addr >> _LINE_SHIFT, (addr + size) >> _LINE_SHIFT
            if len(undo) < end - first:
                lines = [line for line in undo if first <= line < end]
            else:
                lines = undo.keys() & range(first, end)
            keep = {line >> _LINES_PER_PAGE_SHIFT for line in lines}
        pages = self._pages
        for idx in range(addr >> PAGE_SHIFT, (addr + size) >> PAGE_SHIFT):
            if idx in pages and idx not in keep:
                del pages[idx]

    # ------------------------------------------------------------------
    # crash
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure: every unflushed line reverts to durable state
        (and the software that retried flushes is gone)."""
        for line, durable in self._undo.items():
            scatter_pages(self._pages, line * CACHE_LINE, durable)
        self._undo.clear()
        self._retry = None
        self.crashes += 1

    def unflushed_lines(self) -> int:
        return len(self._undo)


class PersistentHeap:
    """Object-granularity persistence on top of an :class:`NVMDevice`.

    Objects declare ``persistent_fields``; :meth:`commit` snapshots
    those fields (durable), and :meth:`crash` restores every live
    object to its last committed snapshot.  Space is accounted against
    the underlying device so NVM-footprint experiments include the
    index.
    """

    def __init__(self, device: NVMDevice) -> None:
        self.device = device
        self._objects: Dict[int, object] = {}
        self._snapshots: Dict[int, Dict[str, object]] = {}
        self._sizes: Dict[int, int] = {}
        self._next_handle = 1
        # Durable handle of the owner's entry object (0: none yet) —
        # what a restarted process starts walking from.
        self.root = 0

    @staticmethod
    def _copy(value: object) -> object:
        if isinstance(value, list):
            return list(value)
        if isinstance(value, dict):
            return dict(value)
        if isinstance(value, (bytearray, set)):
            return type(value)(value)
        return value

    def allocate(self, obj: object, nbytes: int, thread: Optional[VThread] = None) -> int:
        """Place an object on NVM; it is *not* durable until committed."""
        self.device.alloc(nbytes)
        handle = self._next_handle
        self._next_handle += 1
        self._objects[handle] = obj
        self._sizes[handle] = nbytes
        if thread is not None:
            thread.spend(50e-9)  # allocator metadata
        return handle

    def commit(self, handle: int, thread: Optional[VThread] = None) -> None:
        """Make the object's current field values durable."""
        obj = self._objects.get(handle)
        if obj is None:
            raise KeyError(f"no live object for handle {handle}")
        fields = getattr(obj, "persistent_fields", None)
        if not fields:
            raise TypeError(f"{type(obj).__name__} declares no persistent_fields")
        # _copy inlined: a leaf commit copies ~5 fields and runs once
        # per index mutation.
        snapshot = {}
        for name in fields:
            value = getattr(obj, name)
            if isinstance(value, list):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, (bytearray, set)):
                value = type(value)(value)
            snapshot[name] = value
        self._snapshots[handle] = snapshot
        size = self._sizes[handle]
        device = self.device
        device.bytes_written += size
        if thread is not None:
            end = device._write_request(
                thread.now, size, device._write_latency
            )
            if end > thread.now:
                thread.now = end
                clock = thread.clock
                if end > clock._now:
                    clock._now = end

    def get(self, handle: int) -> object:
        obj = self._objects.get(handle)
        if obj is None:
            raise KeyError(f"no live object for handle {handle}")
        return obj

    def free(self, handle: int) -> None:
        self._objects.pop(handle, None)
        self._snapshots.pop(handle, None)
        self._sizes.pop(handle, None)

    def charge_read(self, thread: Optional[VThread], handle: int) -> None:
        """Time an NVM read of the object (Device.charge_read inlined —
        the index pays this on every leaf traversal)."""
        size = self._sizes.get(handle, CACHE_LINE)
        device = self.device
        device.bytes_read += size
        if thread is not None:
            end = device._read_request(thread.now, size, device._read_latency)
            if end > thread.now:
                thread.now = end
                clock = thread.clock
                if end > clock._now:
                    clock._now = end

    def crash(self) -> None:
        """Restore all objects to their committed snapshots."""
        for handle in list(self._objects):
            snapshot = self._snapshots.get(handle)
            if snapshot is None:
                # Never committed: the allocation never became durable.
                self.free(handle)
                continue
            obj = self._objects[handle]
            for name, value in snapshot.items():
                setattr(obj, name, self._copy(value))

    @property
    def live_objects(self) -> int:
        return len(self._objects)
