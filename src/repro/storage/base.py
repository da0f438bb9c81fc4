"""Common device machinery: timing channels, accounting, crash hooks."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.sim.resources import BandwidthChannel
from repro.sim.vthread import VThread
from repro.storage.specs import DeviceSpec


# SSD and NVM keep their bytes as a sparse map of 4 KB pages, made at
# their first write; a page not in the map reads back as zeros.
PAGE_SIZE = 4096
PAGE_SHIFT = 12  # log2(PAGE_SIZE)
PAGE_MASK = PAGE_SIZE - 1


def gather_pages(pages: Dict[int, bytearray], addr: int, size: int) -> bytes:
    """The ``size`` bytes at ``addr`` of a page map."""
    idx = addr >> PAGE_SHIFT
    off = addr & PAGE_MASK
    if off + size <= PAGE_SIZE:  # one page: nearly every access
        if idx in pages:
            return bytes(pages[idx][off : off + size])
        return bytes(size)
    out = bytearray(size)
    pos = 0
    while pos < size:
        # A page's slice stops at the page's end or at ``size``,
        # whichever comes first, and so does its place in ``out``.
        if idx in pages:
            out[pos : pos + PAGE_SIZE - off] = pages[idx][off : off + size - pos]
        pos += PAGE_SIZE - off
        idx += 1
        off = 0
    return bytes(out)


def gather_many(
    pages: Dict[int, bytearray], addrs: List[int], sizes: Iterable[int]
) -> List[bytes]:
    """:func:`gather_pages` of each address with its size, in one frame
    for a whole gather: a load inside one present page is a slice of
    it, the rest (a page never written, a load across pages) is
    :func:`gather_pages`."""
    out = list(addrs)
    for i, (addr, size) in enumerate(zip(addrs, sizes)):
        idx = addr >> PAGE_SHIFT
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE and idx in pages:
            out[i] = bytes(pages[idx][off : off + size])
        else:
            out[i] = gather_pages(pages, addr, size)
    return out


def scatter_pages(pages: Dict[int, bytearray], addr: int, data: bytes) -> None:
    """Write ``data`` at ``addr`` into a page map, making the pages it
    reaches: the counterpart of :func:`gather_pages`."""
    size = len(data)
    idx = addr >> PAGE_SHIFT
    off = addr & PAGE_MASK
    if off + size <= PAGE_SIZE:  # one page: nearly every access
        if idx not in pages:
            pages[idx] = bytearray(PAGE_SIZE)
        pages[idx][off : off + size] = data
        return
    pos = 0
    while pos < size:
        if idx not in pages:
            pages[idx] = bytearray(PAGE_SIZE)
        pages[idx][off : off + size - pos] = data[pos : pos + PAGE_SIZE - off]
        pos += PAGE_SIZE - off
        idx += 1
        off = 0


class StorageError(Exception):
    """Base class for device-level failures."""


class OutOfSpaceError(StorageError):
    """Raised when an allocation exceeds device capacity."""


class _NullFaultInjector:
    """The default no-fault injector: never armed.

    The real injector lives in :mod:`repro.faults.injector`; devices
    hold this shared sentinel until one is attached.  Every hook site
    tests ``enabled`` (the injector's armed bit) before it consults,
    so the fault-free path costs one attribute test per IO, never a
    call, and never touches virtual time or randomness.
    """

    enabled = False


NULL_INJECTOR = _NullFaultInjector()


class Device:
    """Base class for all simulated devices.

    Timing: every transfer is served by a per-direction
    :class:`BandwidthChannel`; callers pass a :class:`VThread` whose
    clock is advanced to the completion time, or ``None`` for untimed
    (functional) access.

    Accounting: ``bytes_read`` / ``bytes_written`` feed the
    write-amplification and endurance analyses (Figure 12, §8).
    """

    def __init__(self, spec: DeviceSpec, name: Optional[str] = None) -> None:
        self.spec = spec
        self.name = name or spec.name
        self.read_channel = BandwidthChannel(
            spec.read_bandwidth, lanes=spec.lanes, name=f"{self.name}.read"
        )
        self.write_channel = BandwidthChannel(
            spec.write_bandwidth, lanes=spec.lanes, name=f"{self.name}.write"
        )
        # Latencies and bound channel methods cached off the (frozen)
        # spec/channels: the charge methods sit on the per-IO hot path
        # and a two-hop attribute chase per call adds up.
        self._read_latency = spec.read_latency
        self._write_latency = spec.write_latency
        self._capacity = spec.capacity
        self._read_request = self.read_channel.request
        self._write_request = self.write_channel.request
        self.bytes_read = 0
        self.bytes_written = 0
        # Fault injection: consulted by the timed IO paths of concrete
        # devices while it is armed (``injector.enabled``).  The shared
        # null sentinel is never armed, which keeps the default free.
        self.injector = NULL_INJECTOR

    def attach_injector(self, injector) -> None:
        """Route this device's timed IO through a fault injector."""
        self.injector = injector

    @property
    def capacity(self) -> int:
        return self._capacity

    def charge_read(self, thread: Optional[VThread], nbytes: int) -> float:
        """Account and time a read; returns the completion time."""
        self.bytes_read += nbytes
        if thread is None:
            return 0.0
        end = self.read_channel.request(thread.now, nbytes, self._read_latency)
        if end > thread.now:
            thread.now = end
            clock = thread.clock
            if end > clock._now:
                clock._now = end
        return end

    def charge_write(self, thread: Optional[VThread], nbytes: int) -> float:
        """Account and time a write; returns the completion time."""
        self.bytes_written += nbytes
        if thread is None:
            return 0.0
        end = self.write_channel.request(thread.now, nbytes, self._write_latency)
        if end > thread.now:
            thread.now = end
            clock = thread.clock
            if end > clock._now:
                clock._now = end
        return end

    def charge_write_async(self, at: float, nbytes: int) -> float:
        """Account a write without blocking any thread.

        Returns the virtual completion time; used by background writers
        that only need to know when the device finished.
        """
        self.bytes_written += nbytes
        return self.write_channel.request(at, nbytes, self._write_latency)

    def charge_read_async(self, at: float, nbytes: int) -> float:
        self.bytes_read += nbytes
        return self.read_channel.request(at, nbytes, self._read_latency)

    def endurance_consumed(self) -> float:
        """Fraction of rated lifetime writes consumed so far."""
        limit = self.spec.endurance_bytes()
        if limit == float("inf"):
            return 0.0
        return self.bytes_written / limit

    def crash(self) -> None:
        """Drop volatile state.  Nothing by default: an SSD's completed
        writes are durable.  NVM overrides."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"
