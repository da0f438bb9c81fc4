"""Cross-media recovery (§5.5).

After a power failure Prism owns no logs to replay.  ``Prism.recover``
has just attached a new engine to the media — empty caches, bitmaps
and cursors — and this pass fills it in from NVM and SSD:

1. the Persistent Key Index recovers itself (rebuilds its volatile
   search layer from the durable data layer);
2. a full scan of the index yields the *reachable* HSIT entries; stray
   dirty bits are normalized and SVC words nullified (DRAM is gone);
3. for entries pointing into a PWB, well-coupledness (backward pointer
   == entry index) validates the record; live PWB records are flushed
   to Value Storage so the buffers restart empty (when the flush fails
   each buffer adopts its live records instead);
4. for entries pointing into Value Storage, the validity bitmaps are
   reconstructed — the paper's reason the bitmaps may live in DRAM;
5. HSIT entries that are allocated but unreachable (a crash struck
   between entry allocation and index insertion) are returned to the
   free list, and the table's in-use count is seeded from the walk.

The recovery virtual time charges the same device traffic the paper
describes: NVM scans of index + HSIT + live PWB data, plus record
headers read from SSD (a mirror copy that heals a rotted record is
read on the recovery thread itself).  Like the paper, the scan
parallelizes over partitioned key ranges; we divide the
single-threaded virtual time by ``recovery_threads``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core import pointers as ptr
from repro.core.record import PLAIN, parse
from repro.faults.errors import CorruptionError, NoHealthyStorageError
from repro.sim.vthread import VThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.prism import Prism, RelocationEntry


@dataclass
class RecoveryReport:
    """What a recovery pass found and how long it (virtually) took."""

    recovered_keys: int
    pwb_values_flushed: int
    vs_records_validated: int
    leaked_entries_reclaimed: int
    ill_coupled_dropped: int
    duration: float  # virtual seconds
    # With checksums enabled the scan CRC-verifies every Value Storage
    # record; corrupt records are re-materialised from the mirror copy
    # (repaired) or left in place with a typed error on read (lost).
    corrupt_records_repaired: int = 0
    corrupt_records_lost: int = 0


def recover(prism: "Prism", recovery_threads: int = 4) -> RecoveryReport:
    """Bring a crashed Prism instance back to a consistent state."""
    if recovery_threads < 1:
        raise ValueError(f"recovery_threads must be >= 1: {recovery_threads}")
    from repro.repair import mirror_value

    rt = VThread(-9, prism.clock, name="recovery", background=True)
    start = rt.now = prism.clock.now

    # (1) the index restores its own invariants.
    prism.index.recover(rt)
    prism.crash_point.maybe_crash("recover.index_done")

    # (2)–(4) walk reachable entries.
    live_vs: Dict[int, Dict[Tuple[int, int], Tuple[int, int]]] = {
        vs.vs_id: {} for vs in prism.storages
    }
    pwb_flush: List[Tuple[int, int, int, bytes]] = []  # (hsit_idx, pwb_id, offset, value)
    repair_flush: List[RelocationEntry] = []  # corrupt records healed from mirror
    lost: List[Tuple[int, int, int]] = []  # (vs_id, chunk_id, offset) of lost records
    reachable = set()
    dropped: List[bytes] = []
    vs_header_bytes = 0
    for key, idx in list(prism.index.items()):
        reachable.add(idx)
        prism.hsit.clear_dirty_bit(idx)
        word = prism.hsit.location_word(idx)
        loc = ptr.decode(ptr.clear_dirty(word))
        prism.hsit.clear_svc(idx)
        if loc.in_pwb:
            pwb = prism.pwbs[loc.pwb_id]
            back = pwb.read_backptr(loc.pwb_offset)
            if back != idx:
                dropped.append(key)
                continue
            _, value = pwb.peek(loc.pwb_offset)
            pwb_flush.append((idx, loc.pwb_id, loc.pwb_offset, value))
        elif loc.in_vs:
            vs = prism.storages[loc.vs_id]
            base = loc.chunk_id * vs.chunk_size + loc.vs_offset
            header = vs.ssd.read_raw(base, vs.header_size)
            back, size = PLAIN.unpack_from(header)
            vs_header_bytes += vs.header_size
            if vs.checksums:
                # CRC-verify the full record before trusting the
                # coupling check — a corrupt header would otherwise be
                # indistinguishable from an ill-coupled stale record.
                room = vs.chunk_size - loc.vs_offset - vs.header_size
                span = max(0, min(size, room))
                payload = vs.ssd.read_raw(base + vs.header_size, span)
                vs_header_bytes += span
                try:
                    parse(header + payload, True, vs.ssd.name)
                except CorruptionError:
                    prism.corruption_detected += 1
                    # The bitmaps are not rebuilt yet: the mirror copy
                    # is sized by its own header.
                    value = mirror_value(prism, vs, loc.chunk_id, loc.vs_offset, idx, rt)
                    # Keep the slot so the pointer never dangles: reads
                    # of a lost record surface a typed error, never a
                    # silent absence.  An intact copy gives its true
                    # size; a lost one keeps the clamped stored size.
                    live_vs[loc.vs_id][(loc.chunk_id, loc.vs_offset)] = (
                        idx, span if value is None else len(value)
                    )
                    if value is not None:
                        repair_flush.append(
                            (idx, value, vs, loc.chunk_id, loc.vs_offset)
                        )
                    else:
                        lost.append((loc.vs_id, loc.chunk_id, loc.vs_offset))
                    continue
            if back != idx:
                dropped.append(key)
                continue
            live_vs[loc.vs_id][(loc.chunk_id, loc.vs_offset)] = (idx, size)
        else:
            dropped.append(key)
    for key in dropped:
        prism.index.delete(key)
    # A lost record's stored size is what rotted, perhaps: bound its
    # slot by the next live slot in its chunk, or it would cover every
    # later record and count their bytes as its own.
    for vs_id, chunk_id, offset in lost:
        vs, live = prism.storages[vs_id], live_vs[vs_id]
        end = min(
            (o for c, o in live if c == chunk_id and o > offset),
            default=vs.chunk_size,
        )
        idx, size = live[(chunk_id, offset)]
        live[(chunk_id, offset)] = (idx, min(size, end - offset - vs.header_size))
    prism.crash_point.maybe_crash("recover.walked")

    # Account the NVM scan: index leaves + one HSIT entry per key.
    scanned = prism.index.nvm_bytes() + 16 * len(reachable)
    prism.nvm.charge_read(rt, scanned)
    if vs_header_bytes:
        done = rt.now
        for vs in prism.storages:
            if prism._device_dead(vs.ssd.name):
                # Record headers on a dead device were read through the
                # simulator's omniscient view; no real IO to charge.
                continue
            share = vs_header_bytes // max(len(prism.storages), 1)
            done = max(done, vs.ssd.read_async(rt.now, 0, max(share, 1)))
        rt.wait_until(done)

    # (4) rebuild validity bitmaps from the HSIT information.
    for vs in prism.storages:
        vs.rebuild_from(live_vs[vs.vs_id])

    # (3) flush live PWB records out, leaving the buffers as they were
    # attached: empty.  The flush is one relocation (``_relocate``):
    # PWB records have no Value Storage copy to retire, repaired ones
    # retire the corrupt slot the bitmap rebuild above re-created.  If
    # it cannot complete (devices failing during recovery), the records
    # — and the HSIT pointers naming them — stay in the PWBs, which
    # adopt them: the store comes up consistent, just with non-empty
    # write buffers.
    flushed = 0
    corrupt_repaired = 0
    moves = [(idx, value, None, 0, 0) for idx, _, _, value in pwb_flush] + repair_flush
    if moves:
        nvm_reread = sum(len(value) for *_, value in pwb_flush)
        if nvm_reread:
            prism.nvm.charge_read(rt, nvm_reread)
        try:
            vs = prism._pick_storage(rt.now)
        except NoHealthyStorageError:
            phase = "write"
        else:
            phase = prism._relocate(vs, moves, rt, "recover")
        if phase is None:
            flushed = len(pwb_flush)
            corrupt_repaired = len(repair_flush)
        else:
            for pwb in prism.pwbs:
                pwb.adopt(sorted(
                    offset for _, pwb_id, offset, _ in pwb_flush if pwb_id == pwb.pwb_id
                ))
    prism.crash_point.maybe_crash("recover.flushed")

    # (5) reclaim allocated-but-unreachable entries (crashed inserts).
    leaked = _reclaim_unreachable(prism, reachable, rt)
    prism.crash_point.maybe_crash("recover.done")

    single_thread_time = rt.now - start
    duration = single_thread_time / recovery_threads
    return RecoveryReport(
        recovered_keys=len(prism.index),
        pwb_values_flushed=flushed,
        vs_records_validated=sum(len(m) for m in live_vs.values()),
        leaked_entries_reclaimed=leaked,
        ill_coupled_dropped=len(dropped),
        duration=duration,
        corrupt_records_repaired=corrupt_repaired,
        corrupt_records_lost=len(lost),
    )


def _reclaim_unreachable(prism: "Prism", reachable: set, rt: VThread) -> int:
    """Free HSIT entries no key maps to (and not already free), and
    seed the table's DRAM counters with what is left in use."""
    hsit = prism.hsit
    next_unused = hsit.next_unused
    free_set = set(hsit.free_entries())
    leaked = 0
    for idx in range(next_unused):
        if idx in reachable or idx in free_set:
            continue
        hsit.free(idx)
        leaked += 1
    hsit.allocations = hsit.frees + next_unused - len(free_set) - leaked
    prism.nvm.charge_read(rt, 16 * next_unused)
    return leaked
