"""Background integrity scrubber.

A virtual-time vthread walks every in-use Value Storage chunk at a
configurable bandwidth budget, re-reads each valid record, verifies its
checksum, and triggers read-repair for mismatches.  When the primary
copy is clean but the mirror copy has rotted, the mirror region is
refreshed from the primary (restoring redundancy before a second fault
makes the record unrecoverable).

What the scrubber can catch: any corruption of *stored* bytes on a
live primary (bit flips, torn chunk writes, at-rest rot) and rotted
mirror copies of clean primaries.  What it cannot: corruption on a
dead device (the rebuild path handles those records), and anything the
checksum does not cover (DRAM-side slot metadata, which is rebuilt
from the HSIT).

Determinism: a scrub pass is a structural no-op — zero device traffic,
zero clock movement, zero randomness — unless checksums are enabled
*and* an attached injector reports silent corruption is possible, so a
store without corruption injection is bit-identical with or without
scrubbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.faults.errors import CorruptionError, UnrecoverableCorruptionError
from repro.repair.repair import mirror_value, read_repair
from repro.sim.vthread import VThread
from repro.storage.base import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.prism import Prism

# Default read budget: bytes of chunk scans per virtual second.
SCRUB_BANDWIDTH = 64 * 1024 * 1024


@dataclass
class ScrubReport:
    """What one scrub pass scanned, found, and fixed."""

    chunks_scanned: int = 0
    records_verified: int = 0
    corrupt_found: int = 0
    repaired: int = 0
    unrecoverable: int = 0
    mirrors_refreshed: int = 0
    bytes_read: int = 0
    duration: float = 0.0  # virtual seconds


class Scrubber:
    """Walks chunks, verifies checksums, and repairs what it finds."""

    def __init__(self, store: "Prism", bandwidth: float = SCRUB_BANDWIDTH) -> None:
        self.store = store
        self.bandwidth = bandwidth
        if bandwidth <= 0:
            raise ValueError(f"scrub bandwidth must be positive: {bandwidth}")
        self.thread = VThread(-7, store.clock, name="scrubber", background=True)
        self.passes = 0

    def active(self) -> bool:
        """A pass can only find something when checksums are on and the
        fault schedule can (or did) silently corrupt bytes."""
        store = self.store
        if not store.config.enable_checksums:
            return False
        if store.injector is None:
            return False
        return store.injector.silent_corruption_possible()

    def scrub_once(self) -> ScrubReport:
        """One full pass over every healthy Value Storage."""
        report = ScrubReport()
        if not self.active():
            return report
        store, t = self.store, self.thread
        if t.now < store.clock.now:
            t.now = store.clock.now
        start = t.now
        for vs in store.storages:
            if store._device_dead(vs.ssd.name):
                continue  # rebuild_storage owns records on dead devices
            for chunk_id in sorted(vs._chunks):
                info = vs._chunks.get(chunk_id)
                if info is None:
                    continue  # released while we were scrubbing
                span = max(info.write_head, 1)
                io_start = t.now
                try:
                    io_done = vs.ssd.read_async(t.now, chunk_id * vs.chunk_size, span)
                except StorageError:
                    continue  # device erroring: skip the chunk this pass
                # Bandwidth budget: the pass never scans faster than
                # ``bandwidth`` bytes per virtual second.
                t.wait_until(max(io_done, io_start + span / self.bandwidth))
                report.chunks_scanned += 1
                report.bytes_read += span
                for offset, slot in list(info.slots.items()):
                    if not slot.valid:
                        continue
                    report.records_verified += 1
                    try:
                        vs.read_record_raw(chunk_id, offset)
                    except CorruptionError:
                        report.corrupt_found += 1
                        store.events.emit(
                            t.now,
                            "scrub_corruption",
                            vs_id=vs.vs_id,
                            chunk=chunk_id,
                            offset=offset,
                        )
                        try:
                            read_repair(
                                store, slot.hsit_idx, b"", vs.vs_id,
                                chunk_id, offset, t,
                            )
                            report.repaired += 1
                        except UnrecoverableCorruptionError:
                            report.unrecoverable += 1
                        continue
                    self._refresh_mirror(vs, chunk_id, slot, report)
        self.passes += 1
        report.duration = t.now - start
        store.events.emit(
            start,
            "scrub",
            chunks=report.chunks_scanned,
            records=report.records_verified,
            corrupt=report.corrupt_found,
            repaired=report.repaired,
            unrecoverable=report.unrecoverable,
            mirrors_refreshed=report.mirrors_refreshed,
            duration=report.duration,
        )
        return report

    def _refresh_mirror(self, vs, chunk_id: int, slot, report: ScrubReport) -> None:
        """Re-duplicate a clean primary record whose mirror copy rotted
        (or holds another record)."""
        store = self.store
        if vs.mirror is None or store._device_dead(vs.mirror.name):
            return
        offset = slot.offset
        if mirror_value(store, vs, chunk_id, offset, slot.hsit_idx, self.thread) is not None:
            return  # mirror copy intact
        nbytes = vs.header_size + slot.size
        addr = chunk_id * vs.chunk_size + offset
        prim = vs.ssd.read_raw(addr, nbytes)
        try:
            self.thread.wait_until(vs.mirror.write_async(self.thread.now, addr, prim))
        except StorageError:
            return  # mirror device failing; try again next pass
        report.mirrors_refreshed += 1
        store.events.emit(
            self.thread.now,
            "scrub_mirror_refresh",
            vs_id=vs.vs_id,
            chunk=chunk_id,
            offset=offset,
        )
