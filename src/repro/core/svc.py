"""Scan-aware Value Cache on DRAM (§4.4).

Values read from Value Storage are admitted to the SVC; the cached
copy becomes reachable the moment the HSIT's SVC word is set — there
is no separate cache index.  All bookkeeping (LRU lists, eviction,
scan-range reorganization) happens off the critical path on a
background thread that drains a request queue.

Eviction uses a 2Q LRU: first-touch values sit on an *inactive* list;
a second access promotes to the *active* list; the active list's tail
demotes back when it outgrows its share; evictions come from the
inactive tail.

Scan awareness: values fetched by one scan are chained in a
doubly-linked list.  When one chain member is evicted, the whole chain
is sorted by key and written back *together* into a fresh Value
Storage chunk, restoring spatial locality that the log-structured
store destroyed — later scans over the range need far fewer SSD IOs.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.containment import resolve_partial_publish
from repro.core.epoch import EpochManager
from repro.core.hsit import HSIT
from repro.core import pointers as ptr
from repro.core.value_storage import ValueStorage
from repro.faults.errors import DeviceError
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.dram import DRAMDevice

# Fraction of cache capacity the active list may occupy.
ACTIVE_SHARE = 0.5
# Background CPU cost to process one queued cache-management request.
_BG_OP_COST = 0.3e-6


class SVCEntry:
    """One cached value."""

    __slots__ = (
        "entry_id",
        "hsit_idx",
        "key",
        "value",
        "charged",
        "list_name",
        "scan_prev",
        "scan_next",
        "freed",
    )

    def __init__(
        self, entry_id: int, hsit_idx: int, key: bytes, value: bytes, charged: int
    ) -> None:
        self.entry_id = entry_id
        self.hsit_idx = hsit_idx
        self.key = key
        self.value = value
        self.charged = charged  # bytes accounted against capacity
        self.list_name = ""  # "", "inactive", "active"
        self.scan_prev: Optional[int] = None
        self.scan_next: Optional[int] = None
        self.freed = False


class ScanAwareValueCache:
    """2Q value cache with scan-range writeback."""

    def __init__(
        self,
        dram: DRAMDevice,
        capacity: int,
        hsit: HSIT,
        epoch: EpochManager,
        scan_aware: bool = True,
        page_mode: bool = False,
        page_size: int = 4096,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"SVC capacity must be positive: {capacity}")
        self.dram = dram
        self.capacity = capacity
        self.hsit = hsit
        self.epoch = epoch
        self.scan_aware = scan_aware
        # Ablation: charge page granularity like prior-work page caches.
        self.page_mode = page_mode
        self.page_size = page_size
        self.entries: Dict[int, SVCEntry] = {}
        self._next_id = 0
        self.inactive: "OrderedDict[int, None]" = OrderedDict()
        self.active: "OrderedDict[int, None]" = OrderedDict()
        self.used = 0
        self.active_bytes = 0
        self._pending: Deque[Tuple[str, int]] = deque()
        self.hits = 0
        self.admissions = 0
        self.evictions = 0
        self.scan_writebacks = 0
        self.writeback_values = 0

    # ------------------------------------------------------------------
    # foreground path
    # ------------------------------------------------------------------
    def _charge_of(self, value: bytes) -> int:
        if self.page_mode:
            pages = -(-len(value) // self.page_size)
            return pages * self.page_size
        return len(value)

    def admit(
        self, hsit_idx: int, key: bytes, value: bytes, thread: Optional[VThread] = None
    ) -> int:
        """Cache a value just read from Value Storage.

        Makes the DRAM copy reachable immediately (HSIT SVC word), then
        queues the LRU insertion for the background thread.  Returns
        the entry id.
        """
        entry_id = self._next_id
        self._next_id += 1
        charged = self._charge_of(value)
        entry = SVCEntry(entry_id, hsit_idx, key, value, charged)
        self.entries[entry_id] = entry
        self.used += charged
        self.dram.write(thread, len(value))
        self.hsit.set_svc(hsit_idx, entry_id, thread)
        self._pending.append(("admit", entry_id))
        self.admissions += 1
        return entry_id

    def lookup(
        self,
        entry_id: int,
        thread: Optional[VThread] = None,
        entry: Optional[SVCEntry] = None,
    ) -> Optional[bytes]:
        """Fetch a cached value by entry id (None if already freed).

        ``entry`` is the live entry for ``entry_id`` when the caller
        already holds it (a scan classifies its keys before it copies),
        which skips the second dict lookup.
        """
        if entry is None:
            entry = self.entries.get(entry_id)
            if entry is None or entry.freed:
                return None
        self.dram.read(thread, len(entry.value))
        self._pending.append(("touch", entry_id))
        self.hits += 1
        return entry.value

    def invalidate(self, entry_id: int, thread: Optional[VThread] = None) -> None:
        """Logically delete a cached copy (its value changed or died).

        The caller has already cleared the HSIT SVC word; physical
        memory is reclaimed after two epochs so in-flight readers of
        the old copy stay safe (§5.4).
        """
        entry = self.entries.get(entry_id)
        if entry is None or entry.freed:
            return
        self._logical_free(entry)
        # The entries-dict slot goes once no reader can still hold it.
        self.epoch.retire(partial(self.entries.pop, entry_id, None))

    def _logical_free(self, entry: SVCEntry) -> None:
        """Disconnect an entry and release its capacity immediately.

        The *memory* (the entries-dict slot readers may still hold) is
        reclaimed only after two epochs, but the byte budget frees now —
        otherwise capacity enforcement would see a full cache and evict
        live entries in a storm while retirements age.
        """
        entry.freed = True
        self._unchain(entry)
        self.used -= entry.charged
        if entry.list_name == "active":
            self.active.pop(entry.entry_id, None)
            self.active_bytes -= entry.charged
        elif entry.list_name == "inactive":
            self.inactive.pop(entry.entry_id, None)
        entry.list_name = ""

    # ------------------------------------------------------------------
    # scan chains
    # ------------------------------------------------------------------
    def link_scan_chain(self, entry_ids: List[int]) -> None:
        """Doubly link entries fetched by the same scan (§4.4)."""
        if not self.scan_aware:
            return
        live = [
            eid
            for eid in entry_ids
            if eid in self.entries and not self.entries[eid].freed
        ]
        for prev_id, next_id in zip(live, live[1:]):
            self.entries[prev_id].scan_next = next_id
            self.entries[next_id].scan_prev = prev_id

    def _unchain(self, entry: SVCEntry) -> None:
        if entry.scan_prev is not None:
            prev = self.entries.get(entry.scan_prev)
            if prev is not None:
                prev.scan_next = entry.scan_next
        if entry.scan_next is not None:
            nxt = self.entries.get(entry.scan_next)
            if nxt is not None:
                nxt.scan_prev = entry.scan_prev
        entry.scan_prev = None
        entry.scan_next = None

    # Overlapping scans can stitch chains together; bound the traversal
    # so one eviction never walks (or rewrites) an unbounded region.
    MAX_CHAIN = 256

    def _chain_of(self, entry: SVCEntry) -> List[SVCEntry]:
        """Live chain members around ``entry``, leftmost first (bounded)."""
        first = entry
        seen = {entry.entry_id}
        while first.scan_prev is not None and len(seen) < self.MAX_CHAIN // 2:
            prev = self.entries.get(first.scan_prev)
            if prev is None or prev.freed or prev.entry_id in seen:
                break
            seen.add(prev.entry_id)
            first = prev
        chain = []
        seen = set()
        node: Optional[SVCEntry] = first
        while (
            node is not None
            and node.entry_id not in seen
            and len(chain) < self.MAX_CHAIN
        ):
            seen.add(node.entry_id)
            if not node.freed:
                chain.append(node)
            node = self.entries.get(node.scan_next) if node.scan_next is not None else None
        return chain

    # ------------------------------------------------------------------
    # background maintenance
    # ------------------------------------------------------------------
    def process_background(
        self,
        bg: VThread,
        storages: List[ValueStorage],
    ) -> None:
        """Drain the request queue and enforce capacity (off critical path)."""
        popleft = self._pending.popleft
        entries_get = self.entries.get
        if self._pending:
            # bg.spend(_BG_OP_COST) batched: the same per-request float
            # additions accumulate in locals, and the thread/clock
            # write-back happens once after the drain.  Bit-identical
            # to spending inside the loop because nothing here reads
            # bg.now or the clock until _balance_active/_evict_one.
            now = bg.now
            cpu = bg.cpu_time
            while self._pending:
                op, entry_id = popleft()
                now = now + _BG_OP_COST
                cpu += _BG_OP_COST
                entry = entries_get(entry_id)
                if entry is None or entry.freed:
                    continue
                if op == "admit":
                    if entry.list_name == "":
                        self.inactive[entry_id] = None
                        entry.list_name = "inactive"
                elif op == "touch":
                    self._touch(entry)
            bg.now = now
            bg.cpu_time = cpu
            clock = bg.clock
            if now > clock._now:
                clock._now = now
        self._balance_active()
        while self.used > self.capacity:
            if not self._evict_one(bg, storages):
                break

    def _touch(self, entry: SVCEntry) -> None:
        if entry.list_name == "inactive":
            # Second access: promote (2Q).
            self.inactive.pop(entry.entry_id, None)
            self.active[entry.entry_id] = None
            entry.list_name = "active"
            self.active_bytes += entry.charged
        elif entry.list_name == "active":
            self.active.move_to_end(entry.entry_id)

    def _balance_active(self) -> None:
        limit = self.capacity * ACTIVE_SHARE
        while self.active and self.active_bytes > limit:
            entry_id, _ = self.active.popitem(last=False)
            entry = self.entries[entry_id]
            entry.list_name = "inactive"
            self.active_bytes -= entry.charged
            self.inactive[entry_id] = None

    def _evict_one(self, bg: VThread, storages: List[ValueStorage]) -> bool:
        """Evict from the inactive tail (falling back to active)."""
        if self.inactive:
            entry_id = next(iter(self.inactive))
        elif self.active:
            entry_id = next(iter(self.active))
        else:
            return False
        entry = self.entries.get(entry_id)
        if entry is None or entry.freed:
            # Defensive: lists are cleaned at logical free, so this is
            # residue from a bug rather than normal operation.
            self.inactive.pop(entry_id, None)
            self.active.pop(entry_id, None)
            return True
        if self.scan_aware and (
            entry.scan_prev is not None or entry.scan_next is not None
        ):
            self._writeback_chain(bg, entry, storages)
        else:
            self._drop(entry, bg)
        return True

    def _drop(self, entry: SVCEntry, bg: VThread) -> None:
        """Plain eviction: the durable copy in Value Storage stands."""
        if entry.freed:
            return
        self.hsit.clear_svc(entry.hsit_idx, bg)
        self._logical_free(entry)
        self.evictions += 1
        self.epoch.retire(partial(self.entries.pop, entry.entry_id, None))

    def _locations(self, members: List[SVCEntry], bg: VThread) -> List[ptr.Location]:
        """Where each member's durable copy is: one HSIT gather."""
        idxs = [member.hsit_idx for member in members]
        return [loc for loc, _svc in self.hsit.read_entries(idxs, bg)]

    @staticmethod
    def _already_contiguous(locs: List) -> bool:
        """True when a key-sorted chain already sits in one chunk in
        ascending offset order — rewriting it would buy nothing."""
        if len(locs) < 2:
            return True
        stays = 0
        for prev, cur in zip(locs, locs[1:]):
            if (
                prev.vs_id == cur.vs_id
                and prev.chunk_id == cur.chunk_id
                and prev.vs_offset < cur.vs_offset
            ):
                stays += 1
        return stays >= 0.8 * (len(locs) - 1)

    def _writeback_chain(
        self, bg: VThread, entry: SVCEntry, storages: List[ValueStorage]
    ) -> None:
        """Sort a scan chain and rewrite it contiguously (§4.4 ➎➏)."""
        chain = self._chain_of(entry)
        # One gather serves both the filter and the contiguity test:
        # nothing runs between them that could move a member.
        located = [
            (member, loc)
            for member, loc in zip(chain, self._locations(chain, bg))
            # The medium field, not the in_vs property: a descriptor
            # call per chain member.  PWB-resident members were updated
            # since caching; their cached copy is stale bookkeeping and
            # is simply dropped.
            if loc.medium == ptr.MEDIUM_VS
            and storages[loc.vs_id].is_valid(loc.chunk_id, loc.vs_offset)
        ]
        located.sort(key=lambda pair: pair[0].key)
        movable = [member for member, _ in located]
        if self._already_contiguous([loc for _, loc in located]):
            movable = []
        if len(movable) > 1:
            target = min(storages, key=lambda vs: vs.ring.inflight_at(bg.now))
            records = [(m.hsit_idx, m.value) for m in movable]
            try:
                placements, done = target.write_records(bg.now, records)
            except StorageError:
                # Reorganization is an optimization: on device trouble
                # (or a full store) skip the rewrite — the durable
                # copies stand and eviction proceeds as a plain drop.
                placements = None
            if placements is not None:
                bg.wait_until(done)
                # Re-read: a foreground write may have landed meanwhile.
                olds = self._locations(movable, bg)
                published = 0
                try:
                    for member, old, (chunk_id, offset, size) in zip(
                        movable, olds, placements
                    ):
                        self.hsit.publish_location_word(
                            member.hsit_idx,
                            ptr.encode_vs(target.vs_id, chunk_id, offset),
                            bg,
                        )
                        published += 1
                        if old.medium == ptr.MEDIUM_VS:
                            storages[old.vs_id].invalidate(
                                old.chunk_id, old.vs_offset
                            )
                except DeviceError:
                    resolve_partial_publish(
                        self.hsit,
                        target,
                        [
                            (
                                m.hsit_idx,
                                placement,
                                storages[old.vs_id] if old.in_vs else None,
                                old.chunk_id,
                                old.vs_offset,
                            )
                            for m, old, placement in zip(movable, olds, placements)
                        ],
                        published,
                    )
                else:
                    self.scan_writebacks += 1
                    self.writeback_values += len(movable)
        # The chain's purpose — spatial locality on flash — is now
        # fulfilled, so dissolve it; only the evicted value leaves the
        # cache (Figure 3: the victim is freed, its range-mates were
        # merely rewritten together).
        for member in chain:
            self._unchain(member)
        self._drop(entry, bg)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for e in self.entries.values() if not e.freed)
