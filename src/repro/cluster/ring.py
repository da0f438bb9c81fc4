"""Consistent-hash ring: stable key→shard placement under membership
change.

Each shard contributes ``vnodes`` points on a 64-bit ring (hashed from
``shard_id#replica_index`` with :func:`hashlib.blake2b`, so placement is
deterministic across processes and immune to ``PYTHONHASHSEED``).  A
key maps to the first point clockwise from its own hash; a preference
list walks further clockwise collecting *distinct* shards for
replication.

The property that makes this a ring rather than ``hash(key) % N``:
adding or removing one shard only re-maps the key ranges adjacent to
that shard's points.  Keys whose owner is unaffected keep their owner —
verified by a Hypothesis property test in
``tests/cluster/test_ring.py``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

_HASH_BYTES = 8  # 64-bit ring positions

RING_SPAN = 1 << 64  # positions live in [0, RING_SPAN)


class RingError(ValueError):
    """Base for ring membership failures (still a ValueError, so
    callers written against the old untyped raises keep working)."""


class UnknownShardError(RingError):
    """The shard id is not a member of the ring."""

    def __init__(self, shard_id: int, members: Iterable[int]) -> None:
        super().__init__(
            f"shard {shard_id} not on the ring (members: {sorted(members)})"
        )
        self.shard_id = shard_id


class DuplicateShardError(RingError):
    """The shard id is already a member of the ring."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"shard {shard_id} already on the ring")
        self.shard_id = shard_id


class LastShardError(RingError):
    """Removing this shard would leave the ring empty — every key
    would become unroutable, so the operation is refused up front."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(
            f"cannot remove shard {shard_id}: it is the last ring member"
        )
        self.shard_id = shard_id


class HashRing:
    """A consistent-hash ring over integer shard ids."""

    def __init__(
        self,
        shard_ids: Iterable[int],
        vnodes: int = 64,
        seed: int = 0,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"need at least one vnode per shard: {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._hash_key = seed.to_bytes(8, "little")  # blake2b key
        self._points: List[Tuple[int, int]] = []  # (position, shard_id)
        self._keys: List[int] = []  # positions only, for bisect
        self._shards: Set[int] = set()
        # No-exclude successor walks, (bisect index, n) -> shard ids.
        # A pure function of the points, so membership changes clear
        # it; at most len(points) + 1 entries per distinct n.
        self._successors: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Set[int]:
        return set(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def _vnode_points(self, shard_id: int) -> List[Tuple[int, int]]:
        return [
            (self.key_position(b"%d#%d" % (shard_id, v)), shard_id)
            for v in range(self.vnodes)
        ]

    def add_shard(self, shard_id: int) -> None:
        """Insert a shard's vnodes; only ranges they land in re-map."""
        if shard_id in self._shards:
            raise DuplicateShardError(shard_id)
        self._shards.add(shard_id)
        self._successors.clear()
        for point in self._vnode_points(shard_id):
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._keys.insert(idx, point[0])

    def remove_shard(self, shard_id: int) -> None:
        """Drop a shard's vnodes; only keys it owned re-map.

        Refuses (typed) to remove an id that is not a member, and to
        remove the last member — an empty ring cannot route anything,
        so the caller must know it is decommissioning the whole
        cluster rather than discover it one failed lookup at a time.
        """
        if shard_id not in self._shards:
            raise UnknownShardError(shard_id, self._shards)
        if len(self._shards) == 1:
            raise LastShardError(shard_id)
        self._shards.discard(shard_id)
        self._successors.clear()
        self._points = [p for p in self._points if p[1] != shard_id]
        self._keys = [pos for pos, _ in self._points]

    def with_shard_added(self, shard_id: int) -> "HashRing":
        """A fresh ring with ``shard_id`` added (this one untouched)."""
        return HashRing(
            sorted(self._shards | {shard_id}), vnodes=self.vnodes, seed=self.seed
        )

    def with_shard_removed(self, shard_id: int) -> "HashRing":
        """A fresh ring with ``shard_id`` removed (this one untouched)."""
        if shard_id not in self._shards:
            raise UnknownShardError(shard_id, self._shards)
        if len(self._shards) == 1:
            raise LastShardError(shard_id)
        return HashRing(
            sorted(self._shards - {shard_id}), vnodes=self.vnodes, seed=self.seed
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def key_position(self, key: bytes) -> int:
        """Where ``key`` hashes to on the ring (a vnode is the position
        of the key ``b"<shard>#<replica>"``)."""
        digest = hashlib.blake2b(
            key, digest_size=_HASH_BYTES, key=self._hash_key
        ).digest()
        return int.from_bytes(digest, "big")

    def lookup(self, key: bytes) -> int:
        """The shard owning ``key`` (its primary)."""
        if not self._points:
            raise ValueError("empty ring")
        idx = bisect.bisect_right(self._keys, self.key_position(key))
        if idx == len(self._points):
            idx = 0  # wrap past the top of the ring
        return self._points[idx][1]

    def preference_list(
        self,
        key: bytes,
        n: int,
        exclude: Optional[Set[int]] = None,
    ) -> List[int]:
        """The first ``n`` *distinct* shards clockwise from ``key``.

        Entry 0 is the primary; the rest are replica placements.
        ``exclude`` (e.g. the set of down shards) removes members from
        consideration — the walk continues past them, which is exactly
        how failover promotes the next live shard without perturbing
        the placement of keys owned by healthy shards.
        """
        if n < 1:
            raise ValueError(f"preference list needs n >= 1: {n}")
        if not self._points:
            raise ValueError("empty ring")
        start = bisect.bisect_right(self._keys, self.key_position(key))
        if exclude:
            return self._walk(start, n, exclude)
        memo = self._successors
        found = memo.get((start, n))
        if found is None:
            found = memo[(start, n)] = tuple(self._walk(start, n, frozenset()))
        return list(found)  # fresh: callers may mutate their answer

    def _walk(self, start: int, n: int, banned: AbstractSet[int]) -> List[int]:
        """Collect up to ``n`` distinct unbanned shards clockwise from
        point index ``start`` (the unmemoized preference walk)."""
        want = min(n, len(self._shards - banned))
        result: List[int] = []
        if want == 0:
            return result
        total = len(self._points)
        for step in range(total):
            shard = self._points[(start + step) % total][1]
            if shard in banned or shard in result:
                continue
            result.append(shard)
            if len(result) == want:
                break
        return result

    # ------------------------------------------------------------------
    # ranges (rebalancing works range-by-range, not key-by-key)
    # ------------------------------------------------------------------
    def owned_ranges(self, shard_id: int) -> List[Tuple[int, int]]:
        """The ring arcs whose keys ``shard_id`` owns as primary.

        Each arc is ``(lo, hi]``: positions strictly above ``lo`` up to
        and including ``hi``, where ``hi`` is one of the shard's vnode
        positions and ``lo`` is the preceding point on the ring (any
        member's).  An arc with ``lo >= hi`` wraps past the top of the
        ring.  The live-resharding migrator uses these arcs as its
        per-range cutover units.
        """
        if shard_id not in self._shards:
            raise UnknownShardError(shard_id, self._shards)
        ranges: List[Tuple[int, int]] = []
        total = len(self._points)
        for i, (pos, sid) in enumerate(self._points):
            if sid != shard_id:
                continue
            lo = self._points[i - 1][0] if total > 1 else pos
            ranges.append((lo, pos))
        return ranges

    @staticmethod
    def position_in_range(position: int, arc: Tuple[int, int]) -> bool:
        """Is a 64-bit ring position inside the ``(lo, hi]`` arc?"""
        lo, hi = arc
        if lo < hi:
            return lo < position <= hi
        # Wrapped arc (or a single-member ring, where lo == hi means
        # the whole ring): everything above lo or at-or-below hi.
        return position > lo or position <= hi

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def ownership_histogram(self, keys: Sequence[bytes]) -> Dict[int, int]:
        """How many of ``keys`` each shard owns (balance check)."""
        counts: Dict[int, int] = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts
