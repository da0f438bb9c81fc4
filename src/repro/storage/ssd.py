"""Block-addressable flash SSD with async-friendly timing.

Reads and writes are served by separate bandwidth channels with the
internal parallelism of an NVMe device (``spec.lanes``).  The async
path (:mod:`repro.storage.iouring`) submits batches against the same
channels, so bandwidth contention between foreground reads and
background log writes emerges naturally.

Durability: a write is durable once its device service completes.  The
cross-media protocols under test never rely on SSD write atomicity —
Prism's commit point is the HSIT update on NVM — so the device does
not model torn block writes by default (the paper's Value Storage
assumes the same, recovering purely from HSIT).  With an armed fault
injector attached, the timed write paths additionally consult
``injector.corrupt_write``: seeded *silent* bit flips and torn writes
mutate the stored bytes while the device still reports success, so
only record checksums can catch them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.vthread import VThread
from repro.storage.base import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    Device,
    StorageError,
    gather_pages,
    scatter_pages,
)
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, DeviceSpec


class SSDDevice(Device):
    """Simulated NVMe flash SSD."""

    def __init__(self, spec: Optional[DeviceSpec] = None, name: str = "ssd") -> None:
        super().__init__(spec or FLASH_SSD_GEN4_SPEC, name=name)
        self._pages: Dict[int, bytearray] = {}
        self.read_ios = 0
        self.write_ios = 0

    # ------------------------------------------------------------------
    # raw storage
    # ------------------------------------------------------------------
    def _check(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self._capacity:
            raise StorageError(
                f"{self.name}: access [{offset}, {offset + size}) out of range"
            )

    def read_raw(self, offset: int, size: int) -> bytes:
        """Untimed data access (used by timed paths and recovery)."""
        self._check(offset, size)
        return gather_pages(self._pages, offset, size)

    def write_raw(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        scatter_pages(self._pages, offset, data)

    def discard(self, offset: int, size: int) -> None:
        """TRIM whole pages: the range reads back as zeros afterwards.

        Untimed and not fault-injected: a discard is a command the
        device only queues (no data moves, the flash erase happens in
        its own background GC), and the owner issues it for space it
        has already dropped every reference to.
        """
        self._check(offset, size)
        if (offset | size) & PAGE_MASK:
            raise StorageError(
                f"{self.name}: discard [{offset}, {offset + size}) is not "
                f"page-aligned"
            )
        pages = self._pages
        for idx in range(offset >> PAGE_SHIFT, (offset + size) >> PAGE_SHIFT):
            if idx in pages:
                del pages[idx]

    # ------------------------------------------------------------------
    # synchronous (timed) IO
    # ------------------------------------------------------------------
    def read(self, thread: Optional[VThread], offset: int, size: int) -> bytes:
        """Blocking read: the thread waits for device completion."""
        injector = self.injector
        penalty = 0.0
        if injector.enabled:
            penalty = injector.before_io(
                self, "read", thread.now if thread is not None else 0.0
            )
        data = self.read_raw(offset, size)
        self.read_ios += 1
        self.charge_read(thread, size)
        if penalty and thread is not None:
            thread.wait_until(thread.now + penalty)
        return data

    def write(self, thread: Optional[VThread], offset: int, data: bytes) -> None:
        """Blocking write."""
        injector = self.injector
        penalty = 0.0
        if injector.enabled:
            at = thread.now if thread is not None else 0.0
            penalty = injector.before_io(self, "write", at)
            # Silent-corruption hook: the stored bytes may differ from
            # the submitted ones (bit flip / torn write) while the
            # device still reports success — timing and accounting
            # cover the full size.
            data = injector.corrupt_write(self, at, offset, data)
        self.write_raw(offset, data)
        self.write_ios += 1
        self.charge_write(thread, len(data))
        if penalty and thread is not None:
            thread.wait_until(thread.now + penalty)

    # ------------------------------------------------------------------
    # asynchronous (timed) IO — building blocks for IOUring
    # ------------------------------------------------------------------
    def read_async(self, at: float, offset: int, size: int) -> float:
        """Start a read at virtual time ``at``; returns completion time."""
        injector = self.injector
        penalty = injector.before_io(self, "read", at) if injector.enabled else 0.0
        self.read_ios += 1
        end = self.charge_read_async(at, size)
        return end + penalty if penalty else end

    def write_async(self, at: float, offset: int, data: bytes) -> float:
        """Start a write at ``at``; data is durable at the returned time."""
        injector = self.injector
        penalty = 0.0
        if injector.enabled:
            penalty = injector.before_io(self, "write", at)
            data = injector.corrupt_write(self, at, offset, data)
        self.write_raw(offset, data)
        self.write_ios += 1
        end = self.charge_write_async(at, len(data))
        return end + penalty if penalty else end

    def scan_time(self, used_bytes: int) -> float:
        """Virtual seconds to sequentially scan ``used_bytes`` of the device.

        Used by the recovery-time experiment: KVell must scan the whole
        dataset on SSD, Prism does not.
        """
        return self.spec.read_latency + used_bytes / self.spec.read_bandwidth
