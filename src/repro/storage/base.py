"""Common device machinery: timing channels, accounting, crash hooks."""

from __future__ import annotations

from typing import Optional

from repro.sim.resources import BandwidthChannel
from repro.sim.vthread import VThread
from repro.storage.specs import DeviceSpec


class StorageError(Exception):
    """Base class for device-level failures."""


class OutOfSpaceError(StorageError):
    """Raised when an allocation exceeds device capacity."""


class _NullFaultInjector:
    """The default no-fault injector: hooks are no-ops.

    The real injector lives in :mod:`repro.faults.injector`; devices
    hold this shared sentinel until one is attached, so the fault-free
    path costs one attribute lookup and a no-op call per IO and never
    touches virtual time or randomness.
    """

    enabled = False

    # The consult hooks return the fail-slow latency penalty (extra
    # virtual seconds the device adds to the IO); the null injector
    # never delays anything.
    def before_io(self, device, op: str, at: float) -> float:
        return 0.0

    def before_flush(self, device, at: float) -> float:
        return 0.0

    def corrupt_write(self, device, at: float, offset: int, data: bytes) -> bytes:
        return data

    def is_dead(self, name: str) -> bool:
        return False

    def kill_device(self, name: str, at: float = 0.0) -> None:
        raise RuntimeError("no fault injector attached")


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
        # devices.  The shared null sentinel keeps the default free.
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
        writes are durable.  DRAM and NVM override."""

    def reset_accounting(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"
