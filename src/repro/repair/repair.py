"""Record repair: re-materialise corrupt or dead Value Storage records.

Repair sources, in order:

1. **Mirror chunk** — when the storage was built with ``mirror_chunks``
   every chunk write was duplicated onto a dedicated mirror SSD; the
   copy is checksum-verified and well-coupledness-checked before use.
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
from repro.faults.errors import DeviceError, UnrecoverableCorruptionError
from repro.sim.vthread import VThread
from repro.storage.base import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.prism import Prism


def _mirror_dead(store: "Prism", vs) -> bool:
    return (
        vs.mirror is not None
        and store.injector is not None
        and store.injector.is_dead(vs.mirror.name)
    )


def fetch_value(
    store: "Prism",
    idx: int,
    vs_id: int,
    chunk_id: int,
    offset: int,
    at: Optional[float] = None,
) -> Optional[Tuple[bytes, str]]:
    """Find an intact copy of the record at (vs_id, chunk_id, offset).

    Returns ``(value, source)`` — source is ``"mirror"`` or ``"pwb"`` —
    or ``None`` when no trustworthy copy exists.  ``at`` (optional)
    timestamps the mirror read for bandwidth accounting.
    """
    vs = store.storages[vs_id]
    # 1. mirror copy (checksum- and coupling-verified)
    if vs.mirror is not None and not _mirror_dead(store, vs):
        try:
            nbytes = vs.header_size + vs.slot_size(chunk_id, offset)
            back, value = vs.read_record_mirror(chunk_id, offset)
            if back == idx:
                if at is not None:
                    vs.mirror.charge_read_async(at, nbytes)
                return value, "mirror"
        except StorageError:
            pass  # mirror copy rotted too (or slot gone); fall through
    # 2. latest unambiguous PWB copy
    candidates: List[bytes] = []
    for pwb in store.pwbs:
        best: Optional[bytes] = None
        try:
            offsets, backptrs, headers = pwb.gather_headers(None)
            values = pwb.gather_values(None, offsets, headers)
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
) -> bytes:
    """Heal one record in place: fetch an intact copy, rewrite it
    through the normal publish path, and flip the pointer.

    The caller's thread pays the repair latency (this *is* read-repair).
    Raises :class:`UnrecoverableCorruptionError` when no source has an
    intact copy.
    """
    at = thread.now
    vs = store.storages[vs_id]
    where = f"vs{vs_id} chunk {chunk_id} off {offset}"
    fetched = fetch_value(store, idx, vs_id, chunk_id, offset, at=at)
    if fetched is None:
        store.metrics.counter("corruption.unrecoverable").inc()
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
    store.metrics.counter("corruption.repaired").inc()
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

    Walks the index, finds every key whose durable copy lives on
    ``vs_id``, repairs each from a source (mirror first, then PWB), and
    publishes the new locations in batches through the normal write
    path.  Records with no intact copy anywhere are counted as lost —
    their pointers stay, so reads surface typed errors rather than
    silent absence.
    """
    vs = store.storages[vs_id]
    rt = VThread(-8, store.clock, name=f"rebuild-vs{vs_id}", background=True)
    rt.now = store.clock.now
    start = rt.now
    report = RebuildReport(vs_id=vs_id)
    pending: list = []  # (hsit_idx, value, old_vs, old_chunk, old_off)

    def _flush_batch() -> None:
        if not pending:
            return
        _rewrite(store, pending, rt)
        report.records_repaired += len(pending)
        report.bytes_restored += sum(len(entry[1]) for entry in pending)
        store.metrics.counter("corruption.repaired").inc(len(pending))
        pending.clear()

    for _key, idx in list(store.index.items()):
        word = store.hsit.location_word(idx)
        loc = ptr.decode(ptr.clear_dirty(word))
        if not loc.in_vs or loc.vs_id != vs_id:
            continue
        fetched = fetch_value(
            store, idx, vs_id, loc.chunk_id, loc.vs_offset, at=rt.now
        )
        if fetched is None:
            report.records_lost += 1
            store.metrics.counter("corruption.unrecoverable").inc()
            store.events.emit(
                rt.now,
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
    store.metrics.gauge("repair.rebuild_seconds").set(report.duration)
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
