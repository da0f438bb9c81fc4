"""The media: everything of a store that survives a power failure.

A store is its *media* — the devices and what is laid out on them: the
NVM DIMM with its named regions (HSIT, PWBs) and the index's persistent
heap, the SSDs with their chunks — and its *engine*, every DRAM-side
object that finds its way around the media.  A power failure takes the
engine whole; a restart builds a new one over the same media
(``Prism.recover``).  Nothing here may refer to an engine object.
"""

from __future__ import annotations

from typing import List

from repro.storage.dram import DRAMDevice
from repro.storage.nvm import NVMDevice, PersistentHeap
from repro.storage.ssd import SSDDevice


class Media:
    """The devices of one machine, and the persistent heap on its NVM."""

    def __init__(
        self,
        nvm: NVMDevice,
        dram: DRAMDevice,
        ssds: List[SSDDevice],
        cold_ssds: List[SSDDevice],
        mirror_ssds: List[SSDDevice],
    ) -> None:
        self.nvm = nvm
        self.dram = dram
        self.ssds = ssds
        self.cold_ssds = cold_ssds
        self.mirror_ssds = mirror_ssds
        self.heap = PersistentHeap(nvm)

    def power_failure(self) -> None:
        """Every device at once: DRAM empties before anything persistent
        rolls back, NVM loses its unflushed lines, heap objects revert
        to their last commit, completed SSD writes stay."""
        self.dram.crash()
        self.nvm.crash()
        self.heap.crash()
        for ssd in self.ssds + self.cold_ssds + self.mirror_ssds:
            ssd.crash()
