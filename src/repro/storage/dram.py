"""DRAM: fast, volatile object storage.

DRAM holds Prism's Scan-aware Value Cache and the validity bitmaps, and
the baselines' block/page caches.  Contents are ordinary Python
objects owned by those caches, which enforce their own capacities; the
device charges DRAM access time so cache hits are not free, and counts
the bytes moved.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.vthread import VThread
from repro.storage.base import Device
from repro.storage.specs import DRAM_SPEC, DeviceSpec


class DRAMDevice(Device):
    """Volatile device: timed reads and writes."""

    def __init__(self, spec: Optional[DeviceSpec] = None, name: str = "dram") -> None:
        super().__init__(spec or DRAM_SPEC, name=name)

    def read(self, thread: Optional[VThread], nbytes: int) -> None:
        """Time a DRAM read of ``nbytes``."""
        self.charge_read(thread, nbytes)

    def write(self, thread: Optional[VThread], nbytes: int) -> None:
        """Time a DRAM write of ``nbytes``."""
        self.charge_write(thread, nbytes)
