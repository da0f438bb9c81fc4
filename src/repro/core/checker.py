"""Cross-media consistency auditor.

Walks a live Prism instance and verifies the invariants the design
relies on (§4.5, §5.4–5.5).  Used by the test suite after stress runs
and available to applications as a sanity check (``audit(store)``):

I1  every key in the index maps to an allocated HSIT entry, and no two
    keys share one;
I2  every reachable forward pointer is *well-coupled*: the record it
    names carries a backward pointer to that same HSIT entry;
I3  PWB pointers land inside the live window of the right buffer;
I4  Value Storage pointers name records whose validity bit is set, and
    every *valid* record is reachable (no immortal garbage);
I5  SVC words point at live cache entries for the same HSIT slot,
    cache capacity accounting matches the sum of live entries, and
    every index the SVC will refill from a reclaim has its value in a
    PWB (a refill sets an SVC word, which only a VS location may have);
I6  no forward pointer is left durably dirty outside an in-flight
    update;
I7  (with checksums enabled) every valid record's stored CRC32 matches
    its header + payload — on Value Storage and in the PWB live
    windows alike; silent corruption never hides from an audit;
I8  the persistent HSIT free list is acyclic, stays inside the
    allocated range, and names no entry the index still reaches (a
    double free would hand a live key's entry to the next insert);
I9  chunk geometry: in every in-use chunk the records are pairwise
    disjoint and end at or below the write head, which stays inside
    the chunk; the live counters equal the sums over valid records;
    and the open chunk (the log head), if any, is in use with room
    left — a slip in a failed write's retraction shows here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple, TYPE_CHECKING

from repro.core import pointers as ptr
from repro.core.hsit import FreeListError
from repro.faults.errors import CorruptionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.prism import Prism


@dataclass
class AuditReport:
    """Outcome of one consistency audit."""

    keys_checked: int = 0
    pwb_values: int = 0
    vs_values: int = 0
    svc_values: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"AuditReport({status}: {self.keys_checked} keys, "
            f"{self.pwb_values} pwb / {self.vs_values} vs / "
            f"{self.svc_values} svc)"
        )


def audit(store: "Prism") -> AuditReport:
    """Check every cross-media invariant; returns an :class:`AuditReport`."""
    report = AuditReport()
    seen_entries: Set[int] = set()
    reachable_vs: Dict[int, Set[Tuple[int, int]]] = {
        vs.vs_id: set() for vs in store.storages
    }

    for key, idx in store.index.items():
        report.keys_checked += 1
        # I1: no aliasing
        if idx in seen_entries:
            report.fail(f"I1: HSIT entry {idx} reached by two keys (dup {key!r})")
            continue
        seen_entries.add(idx)

        word = store.hsit.location_word(idx)
        # I6: durably dirty pointers only exist mid-update; at audit
        # time (quiescent) none should remain.
        if ptr.is_dirty(word):
            report.fail(f"I6: entry {idx} ({key!r}) has a lingering dirty bit")
        loc = ptr.decode(ptr.clear_dirty(word))

        if loc.is_null:
            report.fail(f"I2: reachable entry {idx} ({key!r}) has a null pointer")
        elif loc.in_pwb:
            report.pwb_values += 1
            if loc.pwb_id >= len(store.pwbs):
                report.fail(f"I3: entry {idx} names unknown PWB {loc.pwb_id}")
                continue
            pwb = store.pwbs[loc.pwb_id]
            if not pwb.tail <= loc.pwb_offset < pwb.head:
                report.fail(
                    f"I3: entry {idx} ({key!r}) points outside PWB {loc.pwb_id}'s "
                    f"live window [{pwb.tail}, {pwb.head})"
                )
                continue
            back = pwb.read_backptr(loc.pwb_offset)
            if back != idx:
                report.fail(
                    f"I2: ill-coupled PWB record for {key!r}: backward "
                    f"pointer {back} != entry {idx}"
                )
        elif loc.in_vs:
            report.vs_values += 1
            vs = store.storages[loc.vs_id]
            try:
                valid = vs.is_valid(loc.chunk_id, loc.vs_offset)
            except Exception as exc:  # chunk/slot unknown
                report.fail(f"I4: entry {idx} ({key!r}) names a dead slot: {exc}")
                continue
            if not valid:
                report.fail(
                    f"I4: entry {idx} ({key!r}) points at an invalidated record "
                    f"(chunk {loc.chunk_id} off {loc.vs_offset})"
                )
                continue
            try:
                back, _value = vs.read_record_raw(loc.chunk_id, loc.vs_offset)
            except CorruptionError as exc:
                report.fail(f"I7: corrupt VS record for {key!r}: {exc}")
            else:
                if back != idx:
                    report.fail(
                        f"I2: ill-coupled VS record for {key!r}: backward "
                        f"pointer {back} != entry {idx}"
                    )
            reachable_vs[loc.vs_id].add((loc.chunk_id, loc.vs_offset))

        entry_id = store.hsit.read_svc(idx)
        if entry_id is not None:
            report.svc_values += 1
            entry = store.svc.entries.get(entry_id)
            if entry is None or entry.freed:
                report.fail(
                    f"I5: entry {idx} ({key!r}) has an SVC word naming a "
                    f"freed cache entry {entry_id}"
                )
            elif entry.hsit_idx != idx:
                report.fail(
                    f"I5: SVC entry {entry_id} belongs to HSIT {entry.hsit_idx}, "
                    f"not {idx}"
                )
            elif not loc.in_vs:
                report.fail(
                    f"I5: entry {idx} ({key!r}) is cached but its durable copy "
                    "is not in Value Storage (SVC caches only VS reads)"
                )

    # I4 (converse): every valid Value Storage record must be reachable.
    for vs in store.storages:
        for chunk_id, info in vs._chunks.items():
            for offset, slot in info.slots.items():
                if not slot.valid:
                    continue
                if (chunk_id, offset) not in reachable_vs[vs.vs_id]:
                    report.fail(
                        f"I4: valid record vs{vs.vs_id} chunk {chunk_id} "
                        f"off {offset} (entry {slot.hsit_idx}) is unreachable"
                    )
    # I7: every valid record still passes its checksum.  Reachable VS
    # records were already verified (and reported) during the key walk;
    # this sweep covers valid-but-unreachable slots and the PWB live
    # windows.
    if store.config.enable_checksums:
        for vs in store.storages:
            for chunk_id, info in vs._chunks.items():
                for offset, slot in info.slots.items():
                    if not slot.valid:
                        continue
                    if (chunk_id, offset) in reachable_vs[vs.vs_id]:
                        continue
                    try:
                        vs.read_record_raw(chunk_id, offset)
                    except CorruptionError as exc:
                        report.fail(
                            f"I7: corrupt VS record at vs{vs.vs_id} chunk "
                            f"{chunk_id} off {offset}: {exc}"
                        )
        for pwb in store.pwbs:
            for off in list(pwb._offsets):
                if not pwb.tail <= off < pwb.head:
                    continue
                try:
                    pwb.read(off, None)
                except CorruptionError as exc:
                    report.fail(
                        f"I7: corrupt PWB record at pwb {pwb.pwb_id} "
                        f"off {off}: {exc}"
                    )
    # I8: the free list is well-formed and disjoint from live entries.
    try:
        for idx in store.hsit.free_entries():
            if idx in seen_entries:
                report.fail(f"I8: HSIT entry {idx} is on the free list but "
                            "still reachable from the index")
    except FreeListError as exc:
        report.fail(f"I8: {exc}")
    # I9: chunk geometry and live accounting.
    for vs in store.storages:
        check_chunk_geometry(vs, report)
    # I5 (capacity): accounted bytes match live entries.
    live_bytes = sum(
        e.charged for e in store.svc.entries.values() if not e.freed
    )
    if live_bytes != store.svc.used:
        report.fail(
            f"I5: SVC accounting drift: used={store.svc.used} but live "
            f"entries sum to {live_bytes}"
        )
    # I5 (refills): the reclaim that moves the value refills the cache.
    for idx, key in store.svc.refills.items():
        if idx not in seen_entries:
            report.fail(f"I5: refill of entry {idx} ({key!r}), which no key reaches")
        elif not ptr.decode(ptr.clear_dirty(store.hsit.location_word(idx))).in_pwb:
            report.fail(
                f"I5: refill of entry {idx} ({key!r}), whose value is not in a PWB"
            )
    return report


def check_chunk_geometry(vs, report: AuditReport) -> None:
    """I9 for one Value Storage."""
    where = f"I9: vs{vs.vs_id} chunk"
    for chunk_id, info in vs._chunks.items():
        end = 0
        for offset in sorted(info.slots):
            slot = info.slots[offset]
            if offset < end:
                report.fail(f"{where} {chunk_id}: record at {offset} overlaps "
                            f"the one ending at {end}")
            end = offset + vs.header_size + slot.size
        if not end <= info.write_head <= vs.chunk_size:
            report.fail(
                f"{where} {chunk_id}: records end at {end}, write head "
                f"{info.write_head}, chunk size {vs.chunk_size}"
            )
        valid = [slot.size for slot in info.slots.values() if slot.valid]
        if (info.live_records, info.live_bytes) != (len(valid), sum(valid)):
            report.fail(
                f"{where} {chunk_id}: accounts {info.live_records} live "
                f"records / {info.live_bytes}B, valid slots sum to "
                f"{len(valid)} / {sum(valid)}B"
            )
    head = vs.open_chunk
    if head is not None:
        info = vs._chunks.get(head)
        if info is None:
            report.fail(f"{where} {head} is the log head but not in use")
        elif info.write_head >= vs.chunk_size:
            report.fail(f"{where} {head} is the log head but is full")
