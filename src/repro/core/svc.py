"""Scan-aware Value Cache on DRAM (§4.4).

Values read from Value Storage are admitted to the SVC; the cached
copy becomes reachable the moment the HSIT's SVC word is set — there
is no separate cache index.  All bookkeeping (LRU lists, eviction,
scan-range reorganization) happens off the critical path on a
background thread that drains a request queue.

An update invalidates the cached copy, then refills it: the put that
drops a copy leaves the key in :attr:`ScanAwareValueCache.refills`,
and the PWB reclaim that moves the new value to Value Storage caches
it again, on the reclaim thread, with the value it already holds.

A freed copy (invalidated, evicted, or the victim of a chain
write-back) gives its capacity and its value bytes back at once; only
its slot in :attr:`ScanAwareValueCache.entries` waits two epochs
(§5.4), for readers that may still hold the entry id.

Eviction uses a 2Q LRU: first-touch values sit on an *inactive* list;
a second access promotes to the *active* list; the active list's tail
demotes back when it outgrows its share; evictions come from the
inactive tail.

Scan awareness: values fetched by one scan are chained in a
doubly-linked list.  When one chain member is evicted, the whole chain
is sorted by key and written back *together* into a fresh Value
Storage chunk, restoring spatial locality that the log-structured
store destroyed — later scans over the range need far fewer SSD IOs.
The cache decides what moves and where; the move itself is the
store's relocation primitive (``Prism._relocate``, handed in at
construction), so a write-back has the retry policy, the crash points
(``writeback.pre_publish``, ``writeback.published``), the containment
of a failed publish and the read-cache invalidation of every other
mover.  A write-back that fails is skipped: the durable copies stand.

The bookkeeping holds entries by reference: a chain link is the
neighbouring :class:`SVCEntry`, each LRU list maps entry id to entry,
and the request queue carries the entry.  :attr:`entries` only
resolves the HSIT SVC word (readers, the scan's classify, the
checker) and holds a freed entry's slot for its two epochs.  Links
are not always symmetric: a scan that overlaps an earlier one relinks
the members it shares, so a member's old neighbour can keep pointing
at it while it points elsewhere, and a live entry can point at a
freed one.  A walk therefore skips a freed entry and goes on through
its link while the entry's slot stands; once the slot is retired the
link ends the walk, exactly as a link by id ended when its id no
longer resolved.

Once a range has been rewritten, later chains over it already sit
together, and the write-back must not pay an HSIT gather to learn
that.  A scan records on each entry the slot its own gather (or its
flash read) found the value in; a write-back whose every slot is still
valid and tagged with its member's HSIT index, and whose slots pass the
contiguity rule in key order, unchains and drops the victim without
loading an HSIT entry.  Such a slot *is* the member's location: every
mover writes, then publishes, then invalidates the old slot.  Any other
chain — a slot stale or unknown, or the run scattered — takes the
gather and is rewritten as before.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.epoch import EpochManager
from repro.core.hsit import HSIT
from repro.core import pointers as ptr
from repro.core.value_storage import ValueStorage
from repro.faults.errors import NoHealthyStorageError
from repro.sim.vthread import VThread
from repro.storage.base import PAGE_SIZE
from repro.storage.dram import DRAMDevice

# Fraction of cache capacity the active list may occupy.
ACTIVE_SHARE = 0.5
# Background CPU cost to process one queued cache-management request.
_BG_OP_COST = 0.3e-6

# ``Prism._relocate``: (dest, entries, thread, label) -> failed phase or None.
Relocate = Callable[[ValueStorage, list, VThread, str], Optional[str]]


class SVCEntry:
    """One cached value.  ``value`` is ``None`` once the entry is
    freed: a freed entry keeps only its slot until its epochs pass."""

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
        "slot",
    )

    def __init__(
        self,
        entry_id: int,
        hsit_idx: int,
        key: bytes,
        value: bytes,
        charged: int,
        slot: Optional[ptr.Location] = None,
    ) -> None:
        self.entry_id = entry_id
        self.hsit_idx = hsit_idx
        self.key = key
        self.value: Optional[bytes] = value
        self.charged = charged  # bytes accounted against capacity
        self.list_name = ""  # "", "inactive", "active"
        self.scan_prev: Optional[SVCEntry] = None
        self.scan_next: Optional[SVCEntry] = None
        self.freed = False
        # The Value Storage slot a scan last saw the value in (None when
        # unknown).  A hint, never trusted unchecked: the chain
        # write-back uses it only while ValueStorage.holds confirms it.
        self.slot = slot


class ScanAwareValueCache:
    """2Q value cache with scan-range writeback."""

    def __init__(
        self,
        dram: DRAMDevice,
        capacity: int,
        hsit: HSIT,
        epoch: EpochManager,
        relocate: Relocate,
        scan_aware: bool = True,
        page_mode: bool = False,
        placement: Optional[Callable[[], List[ValueStorage]]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"SVC capacity must be positive: {capacity}")
        self.dram = dram
        self.capacity = capacity
        self.hsit = hsit
        self.epoch = epoch
        self.relocate = relocate
        # The owning store's live placement storages, asked only when a
        # chain is rewritten; None (no store) takes those passed in.
        self.placement = placement
        self.scan_aware = scan_aware
        # Ablation: charge page granularity like prior-work page caches.
        self.page_mode = page_mode
        self.entries: Dict[int, SVCEntry] = {}
        self._next_id = 0
        self.inactive: "OrderedDict[int, SVCEntry]" = OrderedDict()
        self.active: "OrderedDict[int, SVCEntry]" = OrderedDict()
        self.used = 0
        self.active_bytes = 0
        # ("admit" | "touch", entry) requests for the background thread.
        self._pending: List[Tuple[str, SVCEntry]] = []
        # hsit_idx -> key, for each key whose cached copy a put to a PWB
        # dropped: the reclaim that moves the new value to Value Storage
        # caches it again (:meth:`refill`).  Every index here has its
        # value in a PWB, so the map never outgrows the PWBs' records.
        self.refills: Dict[int, bytes] = {}
        self.hits = 0
        self.admissions = 0
        self.refreshes = 0
        self.evictions = 0
        self.scan_writebacks = 0
        self.writeback_values = 0

    # ------------------------------------------------------------------
    # foreground path
    # ------------------------------------------------------------------
    def admit(
        self,
        hsit_idx: int,
        key: bytes,
        value: bytes,
        thread: Optional[VThread] = None,
        copied: bool = False,
        slot: Optional[ptr.Location] = None,
    ) -> int:
        """Cache a value read from Value Storage.

        The value is the DRAM buffer a flash read has just landed, and
        it becomes the entry as it is: the device's DMA wrote those
        bytes, so they are booked on the DRAM write channel at the
        landing instant, and the thread does not wait for them (as a
        page cache fills).  ``copied`` is for a value copied into a new
        DRAM buffer instead, which the thread waits for.

        ``slot`` is where the value was read from, when the caller
        knows it (:attr:`SVCEntry.slot`).

        Makes the entry reachable immediately (HSIT SVC word), then
        queues the LRU insertion for the background thread.  Returns
        the entry id.
        """
        entry_id = self._next_id
        self._next_id = entry_id + 1
        size = charged = len(value)
        if self.page_mode:
            charged = -(-charged // PAGE_SIZE) * PAGE_SIZE
        entry = SVCEntry(entry_id, hsit_idx, key, value, charged, slot)
        self.entries[entry_id] = entry
        self.used += charged
        if copied or thread is None:
            self.dram.charge_write(thread, size)
        else:
            self.dram.charge_write_async(thread.now, size)
        self.hsit.set_svc(hsit_idx, entry_id, thread)
        self._pending.append(("admit", entry))
        self.admissions += 1
        return entry_id

    def refill(self, hsit_idx: int, value: bytes, thread: VThread) -> None:
        """Cache again the value of a key in :attr:`refills`, which the
        caller is moving to Value Storage and holds in hand.  The value
        came out of an NVM gather, so it is copied into a new DRAM
        buffer, and the caller's thread waits for that copy.

        Counted as a refresh, not an admission: an admission is a read
        that missed, and hit ratios divide by hits plus admissions.
        """
        self.admit(hsit_idx, self.refills.pop(hsit_idx), value, thread, copied=True)
        self.admissions -= 1
        self.refreshes += 1

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
        self.dram.charge_read(thread, len(entry.value))
        self._pending.append(("touch", entry))
        self.hits += 1
        return entry.value

    def invalidate(self, entry_id: int, thread: Optional[VThread] = None) -> None:
        """Logically delete a cached copy (its value changed or died).

        The caller has already cleared the HSIT SVC word.  The value
        bytes go at once; the entry's slot is reclaimed after two
        epochs, so an in-flight reader holding the old id finds a freed
        entry rather than a recycled one (§5.4).
        """
        entry = self.entries.get(entry_id)
        if entry is not None:
            self._drop(entry, thread, evicted=False)

    # ------------------------------------------------------------------
    # scan chains
    # ------------------------------------------------------------------
    def link_scan_chain(self, entry_ids: List[int]) -> None:
        """Doubly link entries fetched by the same scan (§4.4), given in
        key order."""
        if not self.scan_aware:
            return
        entries = self.entries
        live = [
            entries[eid]
            for eid in entry_ids
            if eid in entries and not entries[eid].freed
        ]
        for prev, nxt in zip(live, live[1:]):
            prev.scan_next = nxt
            nxt.scan_prev = prev

    def _unchain(self, entry: SVCEntry) -> None:
        """Join ``entry``'s neighbours to each other and clear its links.
        A neighbour may be freed, even retired: what it is given is only
        read while its slot stands (:meth:`_chain_of`)."""
        prev = entry.scan_prev
        nxt = entry.scan_next
        if prev is not None:
            prev.scan_next = nxt
        if nxt is not None:
            nxt.scan_prev = prev
        entry.scan_prev = None
        entry.scan_next = None

    # Overlapping scans can stitch chains together; bound the traversal
    # so one eviction never walks (or rewrites) an unbounded region.
    MAX_CHAIN = 256

    def _chain_of(self, entry: SVCEntry) -> List[SVCEntry]:
        """Live chain members around ``entry``, leftmost first (bounded).

        ``scan_next`` only ever points at a greater key and ``scan_prev``
        at a smaller one (:meth:`link_scan_chain` links in key order,
        :meth:`_unchain` joins a member's neighbours), so neither walk
        can cycle, and the chain comes out in key order.  The walk left
        stops at a freed entry; the walk right skips one and goes on
        through its link, unless its slot is retired.
        """
        first = entry
        for _ in range(self.MAX_CHAIN // 2 - 1):
            prev = first.scan_prev
            if prev is None or prev.freed:
                break
            first = prev
        entries = self.entries
        chain = [first]
        room = self.MAX_CHAIN - 1
        node = first.scan_next
        while node is not None and room:
            if not node.freed:
                chain.append(node)
                room -= 1
            elif node.entry_id not in entries:
                break
            node = node.scan_next
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
        pending = self._pending
        if pending:
            # bg.spend(_BG_OP_COST) batched: the same per-request float
            # additions accumulate in locals, and the thread/clock
            # write-back happens once after the drain.  Bit-identical
            # to spending inside the loop because nothing here reads
            # bg.now or the clock until _balance_active/_evict_one.
            now = bg.now
            cpu = bg.cpu_time
            inactive = self.inactive
            active = self.active
            for op, entry in pending:
                now = now + _BG_OP_COST
                cpu += _BG_OP_COST
                if entry.freed:
                    continue
                list_name = entry.list_name
                if op == "admit":
                    if list_name == "":
                        inactive[entry.entry_id] = entry
                        entry.list_name = "inactive"
                elif list_name == "inactive":
                    # Second access: promote (2Q).
                    del inactive[entry.entry_id]
                    active[entry.entry_id] = entry
                    entry.list_name = "active"
                    self.active_bytes += entry.charged
                elif list_name == "active":
                    active.move_to_end(entry.entry_id)
            pending.clear()
            bg.now = now
            bg.cpu_time = cpu
            clock = bg.clock
            if now > clock._now:
                clock._now = now
        limit = self.capacity * ACTIVE_SHARE
        if self.active_bytes > limit:
            self._balance_active(limit)
        while self.used > self.capacity:
            if not self._evict_one(bg, storages):
                break

    def _balance_active(self, limit: float) -> None:
        """Demote from the active head until it holds ``limit`` bytes."""
        while self.active and self.active_bytes > limit:
            entry_id, entry = self.active.popitem(last=False)
            entry.list_name = "inactive"
            self.active_bytes -= entry.charged
            self.inactive[entry_id] = entry

    def _evict_one(self, bg: VThread, storages: List[ValueStorage]) -> bool:
        """Evict from the inactive tail (falling back to active).  The
        victim leaves its list here; the rest of its free follows."""
        if self.inactive:
            _, entry = self.inactive.popitem(last=False)
        elif self.active:
            _, entry = self.active.popitem(last=False)
            self.active_bytes -= entry.charged
        else:
            return False
        entry.list_name = ""
        if self.scan_aware and (
            entry.scan_prev is not None or entry.scan_next is not None
        ):
            self._writeback_chain(bg, entry, storages)
        else:
            self._drop(entry, bg)
        return True

    def _drop(
        self, entry: SVCEntry, thread: Optional[VThread], evicted: bool = True
    ) -> None:
        """Disconnect an entry and release its capacity and its value
        bytes immediately; an eviction also clears its HSIT SVC word
        (the durable copy in Value Storage stands).

        Only the entries-dict slot, which readers may still hold, waits
        two epochs.  No path serves a freed entry's value, so the bytes
        go now, and so does the byte budget: otherwise capacity
        enforcement would see a full cache and evict live entries in a
        storm while retirements age.
        """
        if entry.freed:
            return
        if evicted:
            self.hsit.clear_svc(entry.hsit_idx, thread)
            self.evictions += 1
        entry.freed = True
        entry.value = None
        if entry.scan_prev is not None or entry.scan_next is not None:
            self._unchain(entry)
        self.used -= entry.charged
        if entry.list_name == "active":
            del self.active[entry.entry_id]
            self.active_bytes -= entry.charged
        elif entry.list_name == "inactive":
            del self.inactive[entry.entry_id]
        entry.list_name = ""
        self.epoch.retire(partial(self.entries.pop, entry.entry_id, None))

    def _locations(self, members: List[SVCEntry], bg: VThread) -> List[ptr.Location]:
        """Where each member's durable copy is: one HSIT gather."""
        idxs = [member.hsit_idx for member in members]
        return [loc for loc, _svc in self.hsit.read_entries(idxs, bg)]

    @staticmethod
    def _already_contiguous(locs: List[ptr.Location]) -> bool:
        """True when a key-sorted chain's locations mostly run in order
        already: at least 80 % of its neighbouring pairs sit in the same
        chunk of the same storage, the second at a higher offset.
        Rewriting such a chain would buy little."""
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

    @classmethod
    def _settled(cls, chain: List[SVCEntry], storages: List[ValueStorage]) -> bool:
        """True when the members' recorded slots show that a rewrite of
        the key-ordered ``chain`` would move nothing: every slot is
        still its member's location (:meth:`ValueStorage.holds`), and
        together they pass :meth:`_already_contiguous`.  No NVM access."""
        for member in chain:
            slot = member.slot
            if slot is None or not storages[slot.vs_id].holds(
                slot.chunk_id, slot.vs_offset, member.hsit_idx
            ):
                return False
        return cls._already_contiguous([member.slot for member in chain])

    def _writeback_chain(
        self, bg: VThread, entry: SVCEntry, storages: List[ValueStorage]
    ) -> None:
        """Evict ``entry`` and dissolve its scan chain, rewriting the
        chain sorted and contiguous first when that moves anything
        (§4.4 ➎➏).

        A chain of one, or one whose recorded slots prove it
        :meth:`_settled`, is decided without loading an HSIT entry;
        any other goes through :meth:`_rewrite`'s gather.
        """
        chain = self._chain_of(entry)
        if len(chain) > 1 and not self._settled(chain, storages):
            self._rewrite(bg, chain, storages)
        # The chain's purpose — spatial locality on flash — is now
        # fulfilled, so dissolve it; only the evicted value leaves the
        # cache (Figure 3: the victim is freed, its range-mates were
        # merely rewritten together).
        for member in chain:
            self._unchain(member)
        self._drop(entry, bg)

    def _rewrite(
        self, bg: VThread, chain: List[SVCEntry], storages: List[ValueStorage]
    ) -> None:
        """Rewrite a chain's members that still sit in Value Storage,
        key-sorted, into one batch at the log head of the placement
        storage with the fewest reads in flight (the first on a tie) —
        unless they already run in order (:meth:`_already_contiguous`).
        The move is the store's relocation primitive, labelled
        ``"writeback"``."""
        # One gather serves the filter, the contiguity test and the
        # move: an op runs atomically, so nothing moves a member between
        # this gather and the publish.
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
        # Fewer than two members count as contiguous.
        if self._already_contiguous([loc for _, loc in located]):
            return
        try:
            candidates = storages if self.placement is None else self.placement()
        except NoHealthyStorageError:
            return  # nowhere to write: eviction proceeds as a plain drop
        target = min(candidates, key=lambda vs: vs.ring.inflight_at(bg.now))
        entries = [
            (m.hsit_idx, m.value, storages[loc.vs_id], loc.chunk_id, loc.vs_offset)
            for m, loc in located
        ]
        # A failed write or publish was contained by the primitive: the
        # durable copies stand and eviction proceeds as a plain drop.
        if self.relocate(target, entries, bg, "writeback") is None:
            self.scan_writebacks += 1
            self.writeback_values += len(entries)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for e in self.entries.values() if not e.freed)
