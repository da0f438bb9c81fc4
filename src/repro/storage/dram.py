"""DRAM: fast, volatile, capacity-accounted object storage.

DRAM holds Prism's Scan-aware Value Cache and the validity bitmaps, and
the baselines' block/page caches.  Contents are ordinary Python
objects; the device tracks the *logical* bytes they occupy so cache
capacity limits and cost comparisons stay honest, and charges DRAM
access time so cache hits are not free.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.vthread import VThread
from repro.storage.base import Device, OutOfSpaceError
from repro.storage.specs import DRAM_SPEC, DeviceSpec


class DRAMDevice(Device):
    """Volatile byte-budget device."""

    def __init__(self, spec: Optional[DeviceSpec] = None, name: str = "dram") -> None:
        super().__init__(spec or DRAM_SPEC, name=name)
        self.used = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def allocate(self, nbytes: int) -> None:
        """Reserve ``nbytes`` of capacity."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.used + nbytes > self.capacity:
            raise OutOfSpaceError(
                f"{self.name}: need {nbytes}, only {self.free} of {self.capacity} free"
            )
        self.used += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of capacity."""
        if nbytes < 0:
            raise ValueError(f"negative release: {nbytes}")
        if nbytes > self.used:
            raise ValueError(f"{self.name}: releasing {nbytes} with only {self.used} used")
        self.used -= nbytes

    def would_fit(self, nbytes: int) -> bool:
        return self.used + nbytes <= self.capacity

    def read(self, thread: Optional[VThread], nbytes: int) -> None:
        """Time a DRAM read of ``nbytes``."""
        self.charge_read(thread, nbytes)

    def write(self, thread: Optional[VThread], nbytes: int) -> None:
        """Time a DRAM write of ``nbytes``."""
        self.charge_write(thread, nbytes)

    def crash(self) -> None:
        """DRAM loses everything on a crash."""
        self.used = 0
