"""A compact in-memory B+-tree.

Keys are ``bytes`` ordered lexicographically; values are arbitrary.
Deletions are lazy (no rebalancing): leaves may underflow, which keeps
the code small without affecting correctness of lookups and scans.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple


class _Node:
    __slots__ = ("leaf", "keys", "slots", "next")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: List[bytes] = []
        # For leaves: values. For internal nodes: children (len(keys)+1).
        self.slots: List[Any] = []
        self.next: Optional["_Node"] = None


class BTree:
    """B+-tree with linked leaves for range scans."""

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise ValueError(f"order must be >= 4: {order}")
        self.order = order
        self._root = _Node(leaf=True)
        self._size = 0
        self.height = 1

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key: bytes) -> Tuple[_Node, List[_Node]]:
        """Descend to the leaf for ``key``, returning it and the path."""
        node = self._root
        path = []
        while not node.leaf:
            path.append(node)
            idx = bisect_right(node.keys, key)
            node = node.slots[idx]
        return node, path

    def get(self, key: bytes, default: Any = None) -> Any:
        leaf, _ = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.slots[idx]
        return default

    def __contains__(self, key: bytes) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def floor_item(self, key: bytes) -> Optional[Tuple[bytes, Any]]:
        """Largest (k, v) with k <= key, or None."""
        # Descend without building the _find_leaf path list — floor
        # lookups are the hottest entry point and never need it.
        leaf = self._root
        while not leaf.leaf:
            leaf = leaf.slots[bisect_right(leaf.keys, key)]
        idx = bisect_right(leaf.keys, key) - 1
        if idx >= 0:
            return leaf.keys[idx], leaf.slots[idx]
        # The leaf may be empty or key precedes all of its keys; walk
        # backwards is not supported, so fall back to a scan of the
        # leftmost spine — floor below the leaf anchor is rare and only
        # happens near the tree's minimum or after lazy deletes.
        best: Optional[Tuple[bytes, Any]] = None
        for k, v in self.items_from(b""):
            if k > key:
                break
            best = (k, v)
        return best

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: Any) -> bool:
        """Insert or overwrite. Returns True when the key was new."""
        leaf, path = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.slots[idx] = value
            return False
        leaf.keys.insert(idx, key)
        leaf.slots.insert(idx, value)
        self._size += 1
        if len(leaf.keys) >= self.order:
            self._split(leaf, path)
        return True

    def _split(self, node: _Node, path: List[_Node]) -> None:
        mid = len(node.keys) // 2
        right = _Node(leaf=node.leaf)
        if node.leaf:
            sep = node.keys[mid]
            right.keys = node.keys[mid:]
            right.slots = node.slots[mid:]
            node.keys = node.keys[:mid]
            node.slots = node.slots[:mid]
            right.next = node.next
            node.next = right
        else:
            sep = node.keys[mid]
            right.keys = node.keys[mid + 1 :]
            right.slots = node.slots[mid + 1 :]
            node.keys = node.keys[:mid]
            node.slots = node.slots[: mid + 1]
        if path:
            parent = path[-1]
            idx = bisect_right(parent.keys, sep)
            parent.keys.insert(idx, sep)
            parent.slots.insert(idx + 1, right)
            if len(parent.keys) >= self.order:
                self._split(parent, path[:-1])
        else:
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.slots = [node, right]
            self._root = new_root
            self.height += 1

    def delete(self, key: bytes) -> bool:
        """Lazy delete. Returns True when the key existed."""
        leaf, _ = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.keys.pop(idx)
            leaf.slots.pop(idx)
            self._size -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def items_from(self, start: bytes) -> Iterator[Tuple[bytes, Any]]:
        """Iterate (k, v) with k >= start in key order."""
        leaf, _ = self._find_leaf(start)
        idx = bisect_left(leaf.keys, start)
        node: Optional[_Node] = leaf
        while node is not None:
            for i in range(idx, len(node.keys)):
                yield node.keys[i], node.slots[i]
            node = node.next
            idx = 0
