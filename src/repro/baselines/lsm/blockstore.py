"""A file-system-ish allocator over a device, for SSTables and WALs.

LSM engines create and delete whole files (SSTables, log segments).
:class:`BlockStore` provides that on top of any simulated device —
flash (single SSD or RAID-0) or NVM — with a size-bucketed free list
so compaction churn does not leak address space.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.sim.vthread import VThread
from repro.storage.nvm import NVMDevice
from repro.storage.raid import RAID0
from repro.storage.ssd import SSDDevice

_EXTENT_ALIGN = 4096

Backing = Union[SSDDevice, RAID0, NVMDevice]


class BlockStore:
    """Allocate/free extents and do timed block IO on them."""

    def __init__(self, device: Backing, capacity: Optional[int] = None) -> None:
        self.device = device
        self.capacity = capacity if capacity is not None else device.capacity
        self._brk = 0
        # freed extents bucketed by (aligned) size for exact reuse
        self._free: Dict[int, List[int]] = {}
        self.live_bytes = 0

    @property
    def is_nvm(self) -> bool:
        return isinstance(self.device, NVMDevice)

    @staticmethod
    def _aligned(size: int) -> int:
        return -(-size // _EXTENT_ALIGN) * _EXTENT_ALIGN

    def alloc(self, size: int) -> int:
        """Reserve an extent; returns its base offset."""
        if size <= 0:
            raise ValueError(f"extent size must be positive: {size}")
        need = self._aligned(size)
        bucket = self._free.get(need)
        if bucket:
            offset = bucket.pop()
        else:
            if self._brk + need > self.capacity:
                raise MemoryError(
                    f"block store exhausted: need {need}, brk {self._brk}, "
                    f"capacity {self.capacity}"
                )
            offset = self._brk
            self._brk += need
        self.live_bytes += need
        return offset

    def free(self, offset: int, size: int) -> None:
        need = self._aligned(size)
        self._free.setdefault(need, []).append(offset)
        self.live_bytes -= need

    def used_bytes(self) -> int:
        return self.live_bytes

    # ------------------------------------------------------------------
    # timed IO (synchronous: caller waits)
    # ------------------------------------------------------------------
    def read(self, thread: Optional[VThread], offset: int, size: int) -> bytes:
        if self.is_nvm:
            return self.device.load(thread, offset, size)
        return self.device.read(thread, offset, size)

    def write(self, thread: Optional[VThread], offset: int, data: bytes) -> None:
        if self.is_nvm:
            self.device.write_durable(thread, offset, data)
        else:
            self.device.write(thread, offset, data)

    # ------------------------------------------------------------------
    # background-timed IO (returns completion, blocks nobody)
    # ------------------------------------------------------------------
    def read_async(self, at: float, offset: int, size: int) -> Tuple[bytes, float]:
        if self.is_nvm:
            data = self.device._read_raw(offset, size)
            done = self.device.charge_read_async(at, size)
            return data, done
        if isinstance(self.device, RAID0):
            return self.device.read_async(at, offset, size)
        data = self.device.read_raw(offset, size)
        return data, self.device.read_async(at, offset, size)

    def write_async(self, at: float, offset: int, data: bytes) -> float:
        if self.is_nvm:
            return self.device.write_durable_async(at, offset, data)
        return self.device.write_async(at, offset, data)
