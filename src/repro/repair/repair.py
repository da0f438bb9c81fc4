"""Record repair: re-materialise corrupt or dead Value Storage records.

Repair sources, in order:

1. **Mirror chunk** — when the storage was built with ``mirror_chunks``
   every chunk write was duplicated onto a dedicated mirror SSD; the
   copy (:func:`mirror_value`) is checksum-verified and
   well-coupledness-checked before use.
2. **Unreclaimed PWB copy** — a record whose reclamation published the
   Value Storage pointer but whose PWB window has not been released yet
   still has its exact bytes on NVM.  A PWB copy is accepted only when
   it is unambiguous: per buffer the *newest* well-coupled record wins
   (append order is version order within one thread), and matches from
   different buffers must agree byte-for-byte — ambiguity could serve a
   stale version, which would be silent wrongness.

A successful repair rewrites the value through the normal publish path
(chunk write on a healthy storage, HSIT pointer flip, old-slot
invalidation), so the healed record is indistinguishable from a fresh
write.  When every source fails the caller gets a typed
:class:`UnrecoverableCorruptionError` — loss is reported, never served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core import pointers as ptr
from repro.core.containment import resolve_partial_publish
from repro.faults.errors import (
    DeviceError,
    ReadDegradedError,
    UnrecoverableCorruptionError,
)
from repro.sim.vthread import VThread
from repro.storage.base import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.prism import Prism


def mirror_value(
    store: "Prism", vs, chunk_id: int, offset: int, idx: int, thread: VThread
) -> Optional[bytes]:
    """The value of ``idx``'s intact, well-coupled mirror copy at
    (chunk_id, offset), or None when the mirror is absent, dead, rotted
    or holds another record.  ``thread`` pays for the mirror read and
    waits for it (:meth:`ValueStorage.read_record_mirror`)."""
    mirror = vs.mirror
    if mirror is None or store._device_dead(mirror.name):
        return None
    try:
        back, value = vs.read_record_mirror(chunk_id, offset, thread)
    except StorageError:
        return None
    return value if back == idx else None


def fetch_value(
    store: "Prism",
    idx: int,
    vs_id: int,
    chunk_id: int,
    offset: int,
    thread: VThread,
) -> Optional[Tuple[bytes, str]]:
    """Find an intact copy of the record at (vs_id, chunk_id, offset).

    Returns ``(value, source)`` — source is ``"mirror"`` or ``"pwb"`` —
    or ``None`` when no trustworthy copy exists.  Every read is
    ``thread``'s: the mirror copy, then the gathers of each PWB's
    headers and values; it has the copy when this returns.
    """
    vs = store.storages[vs_id]
    # 1. mirror copy (checksum- and coupling-verified)
    value = mirror_value(store, vs, chunk_id, offset, idx, thread)
    if value is not None:
        return value, "mirror"
    # 2. latest unambiguous PWB copy
    candidates: List[bytes] = []
    for pwb in store.pwbs:
        best: Optional[bytes] = None
        try:
            offsets, backptrs, headers = pwb.gather_headers(thread)
            values = pwb.gather_values(thread, offsets, headers)
        except StorageError:
            continue  # corrupt PWB region: distrust this buffer entirely
        for back, value in zip(backptrs, values):
            if back == idx:
                best = value  # newest wins within one buffer
        if best is not None:
            candidates.append(best)
    if candidates and all(c == candidates[0] for c in candidates):
        return candidates[0], "pwb"
    return None


def _rewrite(store: "Prism", entries: list, thread: VThread):
    """Write re-materialised records onto a healthy storage and flip
    their pointers; returns that storage.

    Entries are ``(hsit_idx, value, old_vs, old_chunk, old_off)`` as for
    ``Prism._relocate``, which a repair does not call: its caller needs
    the typed write error, and ``_supersede_word`` retires the old copy
    (it also drops the SVC entry — a timed NVM access the movers skip).
    The containment is the same: a device error mid-batch leaves
    published records published, drops the placements that never
    published, and propagates.
    """
    target = store._pick_storage(thread.now)
    placements, done = store._retrying_write(
        target, thread.now, [(entry[0], entry[1]) for entry in entries]
    )
    thread.wait_until(done)
    batch = [
        (idx, placement, old_vs, old_chunk, old_off)
        for (idx, _v, old_vs, old_chunk, old_off), placement in zip(
            entries, placements
        )
    ]
    published = 0
    try:
        for idx, (chunk_id, offset, _sz), _vs, _chunk, _off in batch:
            old_word, svc_word = store.hsit.publish_location_word(
                idx, ptr.encode_vs(target.vs_id, chunk_id, offset), thread
            )
            store._supersede_word(idx, old_word, svc_word, thread)
            published += 1
    except DeviceError:
        resolve_partial_publish(store.hsit, target, batch, published)
        raise
    return target


def read_repair(
    store: "Prism",
    idx: int,
    key: bytes,
    vs_id: int,
    chunk_id: int,
    offset: int,
    thread: VThread,
    dead: bool = False,
) -> bytes:
    """Heal one record a read could not use: count the failure, fetch
    an intact copy, rewrite it through the normal publish path (the
    pointer flips) and return it — or raise typed loss.

    The one heal of the read path (point read, scan landing,
    scrubber).  The caller's thread pays the repair latency (this *is*
    read-repair).  A record on a ``dead`` device is no checksum failure
    and is not counted; with no mirror to read it from, its key is
    read-degraded (:class:`ReadDegradedError`).  Raises
    :class:`UnrecoverableCorruptionError` when no source has an intact
    copy.
    """
    at = thread.now
    vs = store.storages[vs_id]
    if not dead:
        store.corruption_detected += 1
    elif vs.mirror is None:
        raise ReadDegradedError(vs.ssd.name, key)
    where = f"vs{vs_id} chunk {chunk_id} off {offset}"
    fetched = fetch_value(store, idx, vs_id, chunk_id, offset, thread)
    if fetched is None:
        store.events.emit(
            at,
            "corruption_unrecoverable",
            vs_id=vs_id,
            chunk=chunk_id,
            offset=offset,
        )
        raise UnrecoverableCorruptionError(vs.ssd.name, where, key)
    value, source = fetched
    target = _rewrite(store, [(idx, value, vs, chunk_id, offset)], thread)
    store.events.emit(
        at,
        "repair",
        vs_id=vs_id,
        chunk=chunk_id,
        offset=offset,
        source=source,
        target_vs=target.vs_id,
    )
    return value


@dataclass
class RebuildReport:
    """Outcome of one full dead-storage rebuild."""

    vs_id: int
    records_repaired: int = 0
    records_lost: int = 0
    bytes_restored: int = 0
    duration: float = 0.0  # virtual seconds

    @property
    def ok(self) -> bool:
        return self.records_lost == 0


def rebuild_storage(
    store: "Prism", vs_id: int, batch: int = 64
) -> RebuildReport:
    """Re-materialise every record of one Value Storage onto the
    remaining healthy devices (background, virtual-time-charged).

    Walks the index and each key's HSIT entry on the rebuild's thread,
    finds every key whose durable copy lives on ``vs_id``, reads each
    from a source (mirror first, then PWB), and publishes the new
    locations in batches through the normal write path.  A batch's
    reads are in flight together, and the rebuild waits for the last
    of them before it writes the batch.  Records with no intact copy
    anywhere are counted as lost — their pointers stay, so reads
    surface typed errors rather than silent absence.
    """
    vs = store.storages[vs_id]
    rt = VThread(-8, store.clock, name=f"rebuild-vs{vs_id}", background=True)
    rt.now = store.clock.now
    start = rt.now
    report = RebuildReport(vs_id=vs_id)
    pending: list = []  # (hsit_idx, value, old_vs, old_chunk, old_off)
    landed: List[float] = []  # when each of the batch's reads completed

    def _flush_batch() -> None:
        rt.wait_until(max(landed, default=rt.now))
        landed.clear()
        if not pending:
            return
        _rewrite(store, pending, rt)
        report.records_repaired += len(pending)
        report.bytes_restored += sum(len(entry[1]) for entry in pending)
        pending.clear()

    for _key, idx in list(store.index.items(rt)):
        loc = store.hsit.read_location(idx, rt)
        if not loc.in_vs or loc.vs_id != vs_id:
            continue
        # Each read starts where the walk is, on a reader of its own.
        reader = VThread(rt.tid, store.clock, name=rt.name, background=True)
        reader.now = rt.now
        fetched = fetch_value(store, idx, vs_id, loc.chunk_id, loc.vs_offset, reader)
        landed.append(reader.now)
        if fetched is None:
            report.records_lost += 1
            store.events.emit(
                reader.now,
                "rebuild_lost",
                vs_id=vs_id,
                chunk=loc.chunk_id,
                offset=loc.vs_offset,
            )
            continue
        pending.append((idx, fetched[0], vs, loc.chunk_id, loc.vs_offset))
        if len(pending) >= batch:
            _flush_batch()
    _flush_batch()
    report.duration = rt.now - start
    store.events.emit(
        start,
        "rebuild",
        vs_id=vs_id,
        records=report.records_repaired,
        lost=report.records_lost,
        bytes=report.bytes_restored,
        duration=report.duration,
    )
    return report
