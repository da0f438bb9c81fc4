"""RAID-0 striping across multiple SSDs.

The paper's baselines aggregate eight SSDs with mdadm/dm-stripe RAID-0
(§7.1).  Prism itself does *not* use RAID — it manages one Value
Storage per SSD — so this module exists for the baselines (and for the
#SSD sweeps of Figures 13–14, where KVell runs on a stripe set).

Fault behaviour: every IO consults each member's armed fault injector
(an unarmed one is skipped, as the SSD's own IO paths skip it), and a
member failure surfaces as the device's own :class:`StorageError` with
``raid_member`` set to the failing member's index — RAID-0 has no
redundancy, so the stripe set cannot mask the error.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.ssd import SSDDevice


class RAID0:
    """Stripe a flat address space across member SSDs."""

    def __init__(self, devices: Sequence[SSDDevice], stripe_size: int = 512 * 1024) -> None:
        if not devices:
            raise ValueError("RAID0 needs at least one device")
        if stripe_size <= 0:
            raise ValueError(f"stripe size must be positive: {stripe_size}")
        self.devices: List[SSDDevice] = list(devices)
        self.stripe_size = stripe_size
        self.capacity = min(d.capacity for d in self.devices) * len(self.devices)

    def _extents(
        self, offset: int, size: int
    ) -> List[Tuple[int, SSDDevice, int, int]]:
        """Map a logical range to (member, device, dev_offset, length)."""
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise ValueError(f"RAID0 access [{offset}, {offset + size}) out of range")
        pieces = []
        n = len(self.devices)
        pos = offset
        remaining = size
        while remaining > 0:
            stripe_idx, stripe_off = divmod(pos, self.stripe_size)
            member = stripe_idx % n
            dev = self.devices[member]
            dev_stripe = stripe_idx // n
            take = min(self.stripe_size - stripe_off, remaining)
            pieces.append((member, dev, dev_stripe * self.stripe_size + stripe_off, take))
            pos += take
            remaining -= take
        return pieces

    @staticmethod
    def _consult(member: int, dev: SSDDevice, op: str, at: float) -> float:
        """Let the member's armed injector veto the IO; tag failures
        with the member index so callers know which leg of the stripe
        died.  Returns the member's fail-slow latency penalty (0.0
        normally, and while the injector is unarmed)."""
        injector = dev.injector
        if not injector.enabled:
            return 0.0
        try:
            return injector.before_io(dev, op, at)
        except StorageError as exc:
            exc.raid_member = member
            raise

    # ------------------------------------------------------------------
    # timed IO — pieces proceed in parallel, caller waits for the last
    # ------------------------------------------------------------------
    def read(self, thread: Optional[VThread], offset: int, size: int) -> bytes:
        chunks = []
        at = thread.now if thread is not None else 0.0
        done = at
        for member, dev, dev_off, length in self._extents(offset, size):
            penalty = self._consult(member, dev, "read", at)
            chunks.append(dev.read_raw(dev_off, length))
            dev.read_ios += 1
            if thread is not None:
                end = dev.read_channel.request(thread.now, length, dev.spec.read_latency)
                dev.bytes_read += length
                done = max(done, end + penalty if penalty else end)
            else:
                dev.bytes_read += length
        if thread is not None:
            thread.wait_until(done)
        return b"".join(chunks)

    def write(self, thread: Optional[VThread], offset: int, data: bytes) -> None:
        at = thread.now if thread is not None else 0.0
        done = at
        pos = 0
        for member, dev, dev_off, length in self._extents(offset, len(data)):
            penalty = self._consult(member, dev, "write", at)
            dev.write_raw(dev_off, data[pos : pos + length])
            dev.write_ios += 1
            pos += length
            if thread is not None:
                end = dev.write_channel.request(thread.now, length, dev.spec.write_latency)
                dev.bytes_written += length
                done = max(done, end + penalty if penalty else end)
            else:
                dev.bytes_written += length
        if thread is not None:
            thread.wait_until(done)

    # ------------------------------------------------------------------
    # async IO
    # ------------------------------------------------------------------
    def read_async(self, at: float, offset: int, size: int) -> Tuple[bytes, float]:
        chunks = []
        done = at
        for member, dev, dev_off, length in self._extents(offset, size):
            try:
                completion = dev.read_async(at, dev_off, length)
            except StorageError as exc:
                exc.raid_member = member
                raise
            chunks.append(dev.read_raw(dev_off, length))
            done = max(done, completion)
        return b"".join(chunks), done

    def write_async(self, at: float, offset: int, data: bytes) -> float:
        done = at
        pos = 0
        for member, dev, dev_off, length in self._extents(offset, len(data)):
            try:
                done = max(done, dev.write_async(at, dev_off, data[pos : pos + length]))
            except StorageError as exc:
                exc.raid_member = member
                raise
            pos += length
        return done

    # ------------------------------------------------------------------
    # accounting over members
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure reaches every member of the stripe set."""
        for dev in self.devices:
            dev.crash()

    @property
    def bytes_written(self) -> int:
        return sum(d.bytes_written for d in self.devices)

    @property
    def bytes_read(self) -> int:
        return sum(d.bytes_read for d in self.devices)

    def scan_time(self, used_bytes: int) -> float:
        """Parallel full scan across members (recovery experiment)."""
        per_device = used_bytes / len(self.devices)
        return max(d.scan_time(int(per_device)) for d in self.devices)
