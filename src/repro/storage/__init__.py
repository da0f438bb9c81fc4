"""Simulated heterogeneous storage devices.

The paper's testbed (Figure 1) pairs Intel Optane DCPMM with PCIe-4
flash SSDs.  This package reproduces those devices as virtual-time
models with faithful *semantics*:

* :class:`NVMDevice` is byte-addressable and persistent, but stores go
  through a simulated volatile CPU cache — data is durable only after
  an explicit ``flush``; a crash drops unflushed lines.  This is what
  makes the cross-media crash-consistency protocol testable.
* :class:`SSDDevice` is block-addressable with separate read/write
  bandwidth channels and an :class:`IOUring`-style batched async
  interface; in-flight writes are lost on crash.
* :class:`DRAMDevice` is fast, volatile, and capacity-accounted.
"""

from repro.storage.specs import (
    DEVICE_CATALOG,
    DRAM_SPEC,
    FLASH_SSD_GEN3_SPEC,
    FLASH_SSD_GEN4_SPEC,
    NVM_SPEC,
    OPTANE_SSD_SPEC,
    DeviceSpec,
)
from repro.storage.base import Device, StorageError, OutOfSpaceError
from repro.storage.dram import DRAMDevice
from repro.storage.nvm import NVMDevice, PersistentHeap, RegionMismatchError
from repro.storage.ssd import SSDDevice
from repro.storage.iouring import IORequest, IOUring
from repro.storage.raid import RAID0
from repro.storage.crash import CrashPoint, SimulatedCrash
from repro.storage.media import Media

__all__ = [
    "DeviceSpec",
    "DEVICE_CATALOG",
    "DRAM_SPEC",
    "NVM_SPEC",
    "OPTANE_SSD_SPEC",
    "FLASH_SSD_GEN4_SPEC",
    "FLASH_SSD_GEN3_SPEC",
    "Device",
    "StorageError",
    "OutOfSpaceError",
    "DRAMDevice",
    "NVMDevice",
    "PersistentHeap",
    "RegionMismatchError",
    "SSDDevice",
    "IOUring",
    "IORequest",
    "RAID0",
    "Media",
    "CrashPoint",
    "SimulatedCrash",
]
