"""PACTree-style persistent range index on NVM.

Structure (following PACTree, SOSP '21, which the paper adopts §6):

* **Data layer** — a doubly-linked list of persistent leaf nodes on
  NVM, each holding a sorted run of (key, slot) pairs.  Every mutation
  commits the affected leaf through the :class:`PersistentHeap`, so the
  index guarantees its own crash consistency, exactly the contract
  Prism assumes (§5.5).
* **Search layer** — a volatile B+-tree mapping leaf anchor keys to
  leaf handles.  It is updated *asynchronously* after splits (PACTree's
  key idea for write scalability): lookups tolerate a stale search
  layer by walking right along the data layer.  A tree attached to a
  heap that already holds one (a restart) rebuilds its search layer
  from the data layer in :meth:`PACTree.recover`.

Keys are ``bytes``; slots are small integers (HSIT indices for Prism,
arbitrary payloads for other users).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.index.btree import BTree
from repro.sim.resources import VLock
from repro.sim.vthread import VThread
from repro.storage.nvm import CACHE_LINE, PersistentHeap

LEAF_CAPACITY = 64
# Rough on-media footprint of a leaf: packed keys + slots + links.
_LEAF_BYTES = LEAF_CAPACITY * (8 + 8) + 64
# CPU cost of one search-layer level (cache-resident B+-tree node).
_SEARCH_STEP_COST = 40e-9


class _Leaf:
    """One persistent data-layer node."""

    persistent_fields = ("anchor", "keys", "slots", "next_handle", "prev_handle")

    __slots__ = ("anchor", "keys", "slots", "next_handle", "prev_handle", "lock")

    def __init__(self, anchor: bytes) -> None:
        self.anchor = anchor
        self.keys: List[bytes] = []
        self.slots: List[int] = []
        self.next_handle = 0  # 0 = none
        self.prev_handle = 0
        self.lock = VLock(name=f"leaf:{anchor!r}")


class PACTree:
    """Persistent ordered index: bytes key -> int slot."""

    def __init__(self, heap: PersistentHeap, leaf_capacity: int = LEAF_CAPACITY) -> None:
        if leaf_capacity < 4:
            raise ValueError(f"leaf capacity must be >= 4: {leaf_capacity}")
        self.heap = heap
        self.leaf_capacity = leaf_capacity
        self._search = BTree(order=64)
        self._size = 0
        self.splits = 0
        if not heap.root:
            # A blank heap: lay down the head leaf.  Otherwise the data
            # layer is already there, unknown to this tree's search
            # layer and size until recover() has walked it.
            head = heap.allocate(_Leaf(anchor=b""), _LEAF_BYTES)
            heap.commit(head)
            heap.root = head
        self._head_handle = heap.root
        self._search.insert(b"", self._head_handle)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _locate(self, thread: Optional[VThread], key: bytes) -> Tuple[int, _Leaf]:
        """Find the data-layer leaf owning ``key``.

        The search layer may lag behind splits, so after the initial
        descent we walk right along the (authoritative) data layer.
        """
        if thread is not None:
            height = self._search.height
            cost = _SEARCH_STEP_COST * (height if height > 1 else 1)
            now = thread.now + cost
            thread.now = now
            thread.cpu_time += cost
            clock = thread.clock
            if now > clock._now:
                clock._now = now
        found = self._search.floor_item(key)
        assert found is not None, "head anchor b'' always present"
        handle = found[1]
        # PersistentHeap.get/charge_read inlined: every index operation
        # descends through here, and the per-step call overhead was a
        # measurable slice of lookup cost.  Same charges, same order.
        heap = self.heap
        objects = heap._objects
        sizes = heap._sizes
        device = heap.device
        read_request = device._read_request
        read_latency = device._read_latency
        leaf = objects[handle]
        while True:
            size = sizes.get(handle, CACHE_LINE)
            device.bytes_read += size
            if thread is not None:
                end = read_request(thread.now, size, read_latency)
                if end > thread.now:
                    thread.now = end
                    clock = thread.clock
                    if end > clock._now:
                        clock._now = end
            next_handle = leaf.next_handle
            if not next_handle:
                break
            nxt = objects[next_handle]
            if key < nxt.anchor:
                break
            handle, leaf = next_handle, nxt
        return handle, leaf

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def insert(self, key: bytes, slot: int, thread: Optional[VThread] = None) -> bool:
        """Map ``key`` to ``slot``. Returns True when the key was new."""
        handle, leaf = self._locate(thread, key)
        if thread is not None:
            leaf.lock.acquire(thread)
        try:
            idx = bisect_left(leaf.keys, key)
            if idx < len(leaf.keys) and leaf.keys[idx] == key:
                leaf.slots[idx] = slot
                self.heap.commit(handle, thread)
                return False
            leaf.keys.insert(idx, key)
            leaf.slots.insert(idx, slot)
            self._size += 1
            if len(leaf.keys) > self.leaf_capacity:
                self._split(handle, leaf, thread)
            else:
                self.heap.commit(handle, thread)
            return True
        finally:
            if thread is not None:
                leaf.lock.release(thread)

    def _split(self, handle: int, leaf: _Leaf, thread: Optional[VThread]) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf(anchor=leaf.keys[mid])
        right.keys = leaf.keys[mid:]
        right.slots = leaf.slots[mid:]
        right.next_handle = leaf.next_handle
        right.prev_handle = handle
        right_handle = self.heap.allocate(right, _LEAF_BYTES, thread)
        leaf.keys = leaf.keys[:mid]
        leaf.slots = leaf.slots[:mid]
        # Durable order: new leaf first, then the link from the old one
        # (a crash between the two just leaks the new leaf).
        self.heap.commit(right_handle, thread)
        old_next = right.next_handle
        leaf.next_handle = right_handle
        self.heap.commit(handle, thread)
        if old_next:
            nxt = self.heap.get(old_next)
            nxt.prev_handle = right_handle
            self.heap.commit(old_next, thread)
        # Search-layer update is asynchronous in PACTree; the cost is
        # negligible and lookups tolerate staleness, so apply in place.
        self._search.insert(right.anchor, right_handle)
        self.splits += 1

    def lookup(self, key: bytes, thread: Optional[VThread] = None) -> Optional[int]:
        _, leaf = self._locate(thread, key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.slots[idx]
        return None

    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        handle, leaf = self._locate(thread, key)
        if thread is not None:
            leaf.lock.acquire(thread)
        try:
            idx = bisect_left(leaf.keys, key)
            if idx < len(leaf.keys) and leaf.keys[idx] == key:
                leaf.keys.pop(idx)
                leaf.slots.pop(idx)
                self._size -= 1
                self.heap.commit(handle, thread)
                return True
            return False
        finally:
            if thread is not None:
                leaf.lock.release(thread)

    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, int]]:
        """Up to ``count`` (key, slot) pairs with key >= start, in order."""
        if count <= 0:
            return []
        handle, leaf = self._locate(thread, start)
        out: List[Tuple[bytes, int]] = []
        idx = bisect_left(leaf.keys, start)
        need = count
        while True:
            # One slice pair per leaf, not one append per key.
            keys = leaf.keys[idx : idx + need]
            out.extend(zip(keys, leaf.slots[idx : idx + need]))
            need -= len(keys)
            # A count met at a leaf's last key stops here: the next
            # leaf is read (and charged) only when more is wanted.
            if need == 0 or not leaf.next_handle:
                return out
            handle = leaf.next_handle
            leaf = self.heap.get(handle)
            self.heap.charge_read(thread, handle)
            idx = 0

    def items(self) -> Iterator[Tuple[bytes, int]]:
        """All pairs in key order (untimed; used by recovery and tests)."""
        handle: Optional[int] = self._head_handle
        while handle:
            leaf = self.heap.get(handle)
            yield from zip(leaf.keys, leaf.slots)
            handle = leaf.next_handle or None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, thread: Optional[VThread] = None) -> int:
        """Rebuild everything volatile from the data layer: the search
        layer, the size, and each leaf's lock (a leaf object stands for
        NVM bytes; its lock is the DRAM beside them).

        Returns the number of live keys found.
        """
        self._search = BTree(order=64)
        self._size = 0
        handle: Optional[int] = self._head_handle
        while handle:
            leaf = self.heap.get(handle)
            leaf.lock = VLock(name=f"leaf:{leaf.anchor!r}")
            self.heap.charge_read(thread, handle)
            self._search.insert(leaf.anchor, handle)
            self._size += len(leaf.keys)
            handle = leaf.next_handle or None
        return self._size

    def nvm_bytes(self) -> int:
        """Approximate NVM footprint of the data layer."""
        return self.heap.live_objects * _LEAF_BYTES
