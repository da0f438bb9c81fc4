"""Live resharding: crash-safe key migration under traffic.

``PrismCluster.add_shard`` / ``remove_shard`` change membership while
the workload is running, and ``fail_shard`` turns a shard's death into
the same kind of change (the ring without it).  This module owns the
per-migration state machine that carries out all three:

* **planning** — the :class:`HashRing` pins down exactly the affected
  keys: :func:`plan_moves` compares old- and new-ring preference lists
  and emits a :class:`MoveSpec` only for keys whose owner set actually
  changed (minimal movement — Hypothesis-tested).  Moves are grouped
  into the changed shard's ring arcs (:meth:`HashRing.owned_ranges`),
  the per-range cutover units.
* **streaming** — a background virtual-thread migrator copies pending
  keys to their new owners under a configurable bandwidth budget
  (bytes per virtual second, the Scrubber's pacing pattern).  It is
  pumped lazily from foreground operations, so migration traffic
  genuinely interleaves with — and contends for device bandwidth
  with — the live workload.
* **dual-read window** — until a key has been handed off, reads are
  *forwarded* to its surviving old owners (counted in
  ``rebalance.forwarded_reads``); once copied, or overwritten by a
  migration-window write, reads route to the new owner.  A range whose
  last key is disposed of emits a ``range_cutover`` event — the
  per-range cutover barrier.
* **write redirection** — writes arriving mid-migration route to the
  key's *new* owners and mark the key fresh-at-target, so the migrator
  never clobbers them with a stale copy and the ``WriteLedger`` audit
  stays green across the transition (zero lost acked writes, no stale
  reads after cutover).
* **crash safety** — a shard death during migration resolves the
  migration *synchronously* inside ``fail_shard``, before the death's
  own migration starts.  Death of the shard being added aborts the
  migration: old owners are re-synced from the surviving new owners
  (migration-window writes landed there) and routing reverts to the
  old ring, which never held the joiner, so nothing more starts.  Any
  other death fast-forwards the handoff to completion (safety outranks
  the bandwidth budget once a member is gone); then a ``fail``
  migration to the ring without the dead member restores RF, paced
  like any other.  Keys whose every copy died are counted in
  ``keys_lost``.

Removal is the mirror image: the leaving shard drains (admission
rejects new writes with a typed
:class:`~repro.cluster.errors.ShardDrainingError`; reads and migration
traffic still flow), its keys stream to the surviving owners, and the
shard retires once the handoff completes.

Everything is deterministic — key enumeration is sorted, pacing is
virtual time, there is no randomness — and every hook in the router is
behind a ``migration is None`` check, so a run with no membership
change stays byte-identical to the pre-elasticity tree.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Tuple

from repro.cluster.admission import KIND_INTERNAL
from repro.cluster.ring import HashRing
from repro.faults.errors import DegradedError, DeviceError
from repro.sim.vthread import VThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.router import PrismCluster

ACTION_ADD = "add"
ACTION_REMOVE = "remove"
ACTION_FAIL = "fail"  # re-replication after a member died

MIG_COPYING = "copying"
MIG_DONE = "done"
MIG_ABORTED = "aborted"

# Moves whose key's primary arc is unchanged (only replica membership
# shifted) are accounted in this pseudo-range.
REPLICA_RANGE = -1

_MISSING = object()


class MoveSpec:
    """One key's ownership change: where it was, where it must go."""

    __slots__ = ("old_owners", "new_owners", "targets", "drop", "range_id")

    def __init__(
        self,
        old_owners: Tuple[int, ...],
        new_owners: Tuple[int, ...],
        targets: Tuple[int, ...],
        drop: Tuple[int, ...],
    ) -> None:
        self.old_owners = old_owners  # pre-migration preference list
        self.new_owners = new_owners  # post-migration preference list
        self.targets = targets  # new owners that lack the key
        self.drop = drop  # old owners that lose the key
        self.range_id = REPLICA_RANGE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MoveSpec({self.old_owners}->{self.new_owners}, "
            f"targets={self.targets}, drop={self.drop}, r={self.range_id})"
        )


def plan_moves(
    old_ring: HashRing,
    new_ring: HashRing,
    keys: Iterable[bytes],
    replication_factor: int,
) -> Dict[bytes, MoveSpec]:
    """The minimal movement plan between two ring configurations.

    A key appears in the plan exactly when its preference list changes;
    ``targets`` are the new owners that must receive a copy, ``drop``
    the old owners whose copy becomes garbage after cutover.  Keys
    whose owners are untouched by the membership change are never
    moved — the consistent-hashing contract, surfaced as data.
    """
    moves: Dict[bytes, MoveSpec] = {}
    rf = replication_factor
    for key in keys:
        old = tuple(old_ring.preference_list(key, rf))
        new = tuple(new_ring.preference_list(key, rf))
        if old == new:
            continue
        old_set = set(old)
        new_set = set(new)
        moves[key] = MoveSpec(
            old,
            new,
            tuple(sid for sid in new if sid not in old_set),
            tuple(sid for sid in old if sid not in new_set),
        )
    return moves


class Migration:
    """State machine for one membership change (add, remove or fail)."""

    def __init__(
        self,
        cluster: "PrismCluster",
        action: str,
        shard_id: int,
        new_ring: HashRing,
        bandwidth: float,
        at: float,
    ) -> None:
        if action not in (ACTION_ADD, ACTION_REMOVE, ACTION_FAIL):
            raise ValueError(f"unknown migration action: {action}")
        if bandwidth <= 0:
            raise ValueError(f"migration bandwidth must be positive: {bandwidth}")
        self.cluster = cluster
        self.action = action
        self.shard_id = shard_id  # the member joining, leaving or dead
        self.new_ring = new_ring
        self.bandwidth = bandwidth
        self.state = MIG_COPYING
        self.started_at = at
        self.finished_at: Optional[float] = None
        self.cutover_at: Optional[float] = None  # last range handed off
        self.thread = VThread(
            -70, cluster.clock, name=f"migrator-{action}{shard_id}",
            background=True,
        )
        self.thread.now = at
        self.moves: Dict[bytes, MoveSpec] = {}
        self.pending: Deque[bytes] = deque()
        self.moved: set = set()  # handed off (copied, or fresh at target)
        self.fresh: set = set()  # mutated mid-window: newest value at target
        self.keys_moved = 0
        self.keys_lost = 0
        self.keys_retired = 0
        # Per-range accounting: range id -> keys still pending.
        self.range_pending: Dict[int, int] = {}
        self.range_total: Dict[int, int] = {}
        self._arcs: List[Tuple[int, int]] = []
        self._arc_his: List[int] = []

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _range_of(self, key: bytes) -> int:
        """The arc (cutover unit) a key's position falls in, else the
        replica pseudo-range when only replica membership changed."""
        if not self._arcs:
            return REPLICA_RANGE
        pos = self.new_ring.key_position(key)
        idx = bisect.bisect_left(self._arc_his, pos)
        if idx == len(self._arc_his):
            idx = 0  # wrap past the top of the ring
        if HashRing.position_in_range(pos, self._arcs[idx]):
            return idx
        return REPLICA_RANGE

    def plan(self, rf: int) -> None:
        """Snapshot the affected keys and group them into ranges.

        Enumeration walks every serving shard's index (sorted, deduped)
        so the plan is deterministic; keys inserted after this snapshot
        are born on the new ring and never need moving.  A dead member's
        index survives in memory: walking it too plans the keys only it
        held, which the migrator then counts in ``keys_lost``.
        """
        cluster = self.cluster
        seen: set = set()
        keys: List[bytes] = []
        holders = [shard for shard in cluster.shards if shard.serving]
        if self.action == ACTION_FAIL:
            holders.append(cluster.shards[self.shard_id])
        for shard in holders:
            for key, _idx in shard.store.index.items():
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        keys.sort()
        self.moves = plan_moves(cluster.ring, self.new_ring, keys, rf)
        # Cutover ranges are the changed shard's primary arcs: on the
        # new ring for a joining member (the ranges it takes over), on
        # the old ring for a leaving or dead one (the ranges it vacates).
        arc_ring = self.new_ring if self.action == ACTION_ADD else cluster.ring
        self._arcs = arc_ring.owned_ranges(self.shard_id)
        self._arc_his = [hi for _lo, hi in self._arcs]
        for key, move in self.moves.items():
            move.range_id = self._range_of(key)
        ordered = sorted(
            self.moves, key=lambda k: (self.moves[k].range_id, k)
        )
        self.pending = deque(ordered)
        for key in ordered:
            rid = self.moves[key].range_id
            self.range_pending[rid] = self.range_pending.get(rid, 0) + 1
        self.range_total = dict(self.range_pending)

    # ------------------------------------------------------------------
    # routing queries (the router consults these while active)
    # ------------------------------------------------------------------
    def write_owners(self, key: bytes, exclude: Optional[set]) -> List[int]:
        """Writes always target the new ring's owners."""
        return self.new_ring.preference_list(
            key, self.cluster.config.replication_factor, exclude=exclude or None
        )

    def read_route(
        self, key: bytes, exclude: Optional[set]
    ) -> Tuple[List[int], bool]:
        """Owners to read from, plus whether the read is *forwarded*.

        Unmoved affected keys read from their surviving old owners (the
        dual-read window) — not the old ring's exclusion walk, which
        would name a new owner that does not hold the key yet.
        Everything else, and a key with no old owner left, reads from
        the new ring.
        """
        rf = self.cluster.config.replication_factor
        if self.state == MIG_COPYING and key in self.moves and key not in self.moved:
            ids = [
                sid for sid in self.moves[key].old_owners
                if not exclude or sid not in exclude
            ]
            if ids:
                return ids, True
        return (
            self.new_ring.preference_list(key, rf, exclude=exclude or None),
            False,
        )

    def note_write(self, key: bytes) -> None:
        """An acknowledged foreground mutation landed at the new owners
        mid-window: the target's copy is now the newest — the migrator
        must never overwrite it with the old owner's stale value."""
        if self.state != MIG_COPYING:
            return
        if key in self.moves and key not in self.moved:
            self.moved.add(key)
            self.fresh.add(key)
            self.cluster.metrics.counter("rebalance.redirected_writes").inc()

    # ------------------------------------------------------------------
    # the migrator (pumped lazily from foreground operations)
    # ------------------------------------------------------------------
    def pump(self, upto: float) -> int:
        """Copy pending keys whose turn starts at or before ``upto``.

        Mirrors the replication queue's lazy pumping: the migrator
        thread serializes copies, each paced to the bandwidth budget,
        and foreground operations at time ``t`` only observe migration
        work scheduled before ``t``.  Returns the keys disposed of.
        """
        if self.state != MIG_COPYING:
            return 0
        t = self.thread
        pending = self.pending
        disposed = 0
        while pending:
            key = pending[0]
            if key in self.moved:
                # Fresh at target (redirected write): nothing to copy.
                pending.popleft()
                self._dispose(key)
                disposed += 1
                continue
            if t.now > upto:
                break
            self._copy_key(key)
            pending.popleft()
            self.moved.add(key)
            self._dispose(key)
            disposed += 1
        if not pending:
            self._finish()
        return disposed

    def _read_first(self, key: bytes, owners: Iterable[int]) -> object:
        """``key`` as the first of ``owners`` that is up, serving and
        answers has it (None: deleted there); ``_MISSING`` if none does."""
        cluster = self.cluster
        for sid in owners:
            if sid in cluster._down or not cluster.shards[sid].serving:
                continue
            try:
                return cluster.shards[sid].store.get(key, self.thread)
            except (DeviceError, DegradedError):
                continue
        return _MISSING

    def _copy_key(self, key: bytes) -> None:
        """Stream one key to its new owners under the bandwidth budget."""
        cluster = self.cluster
        move = self.moves[key]
        if not move.targets:
            return  # replica shuffle only: every new owner already holds it
        t = self.thread
        down = cluster._down
        copy_start = t.now
        value = self._read_first(key, move.old_owners)
        if value is _MISSING:
            # No surviving source holds the key (every owner died):
            # the data is gone; count it rather than hide it.
            self.keys_lost += 1
            cluster.metrics.counter("rebalance.keys_lost").inc()
            return
        if value is None:
            return  # deleted at the source since planning; nothing to move
        for sid in move.targets:
            if sid in down or not cluster.shards[sid].serving:
                continue
            # Migration traffic is ``internal``: it passes a draining
            # shard's write gate and is never load-shed.
            cluster.shards[sid].admission.admit(t.now, KIND_INTERNAL)
            try:
                cluster.shards[sid].store.put(key, value, t)
            except (DeviceError, DegradedError):
                continue  # this target misses the copy
        # Bandwidth budget: the stream never moves faster than
        # ``bandwidth`` bytes per virtual second.
        floor = copy_start + len(value) / self.bandwidth
        if t.now < floor:
            t.now = floor
        self.keys_moved += 1
        cluster.metrics.counter("rebalance.keys_moved").inc()

    def _dispose(self, key: bytes) -> None:
        """Per-range accounting; emits the cutover event at zero."""
        rid = self.moves[key].range_id
        left = self.range_pending.get(rid)
        if left is None:
            return
        left -= 1
        self.range_pending[rid] = left
        if left == 0:
            self.cutover_at = self.thread.now
            self.cluster.events.emit(
                self.thread.now,
                "range_cutover",
                action=self.action,
                shard=self.shard_id,
                range=rid,
                keys=self.range_total.get(rid, 0),
            )

    # ------------------------------------------------------------------
    # completion, failure, abort
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Every range handed off: retire stale copies, swap the ring."""
        cluster = self.cluster
        t = self.thread
        if self.cutover_at is None:
            self.cutover_at = t.now  # nothing needed moving
        # Retire phase: drop copies from members that lost ownership.
        # The leaving shard (remove) skips per-key deletes — its whole
        # store is decommissioned below.
        for key in self.pending_retires():
            move = self.moves[key]
            for sid in move.drop:
                if self.action == ACTION_REMOVE and sid == self.shard_id:
                    continue
                if sid in cluster._down:
                    continue
                shard = cluster.shards[sid]
                if not shard.serving:
                    continue
                try:
                    if shard.store.delete(key, t):
                        self.keys_retired += 1
                        cluster.metrics.counter("rebalance.keys_retired").inc()
                except (DeviceError, DegradedError):
                    continue
        cluster.ring = self.new_ring
        if self.action == ACTION_REMOVE:
            shard = cluster.shards[self.shard_id]
            if shard.serving:
                shard.retire()
                cluster.events.emit(t.now, "shard_retired", shard=self.shard_id)
        self.state = MIG_DONE
        self.finished_at = t.now
        cluster._end_migration(self)
        cluster.metrics.gauge("rebalance.cutover_seconds").set(
            self.cutover_at - self.started_at
        )
        duration = self.finished_at - self.started_at
        cluster.metrics.gauge("rebalance.duration_seconds").set(duration)
        if self.action == ACTION_FAIL:
            # The window in which some key had fewer than RF copies.
            cluster.metrics.gauge("cluster.recovery_seconds").set(duration)
        cluster.events.emit(
            self.started_at,
            "rebalance_done",
            action=self.action,
            shard=self.shard_id,
            keys_moved=self.keys_moved,
            keys_lost=self.keys_lost,
            keys_retired=self.keys_retired,
            cutover_seconds=self.cutover_at - self.started_at,
            duration=duration,
        )

    def pending_retires(self) -> List[bytes]:
        """Moved keys with at least one copy to garbage-collect, in
        deterministic (range, key) order."""
        return [
            key
            for key in sorted(
                self.moves, key=lambda k: (self.moves[k].range_id, k)
            )
            if self.moves[key].drop and key in self.moved
        ]

    def on_shard_failed(self, shard_id: int, at: float) -> None:
        """A member died mid-migration (``fail_shard`` calls this
        *before* the death's own migration starts).  Death of the
        joining shard aborts — nothing else can complete its handoff.
        Any other death fast-forwards the migration to completion
        immediately: with a member gone, finishing the handoff (so the
        next migration starts from one consistent ring) outranks the
        bandwidth budget.
        """
        if self.state != MIG_COPYING:
            return
        if self.action == ACTION_ADD and shard_id == self.shard_id:
            self._abort(at)
        else:
            if self.thread.now < at:
                self.thread.now = at
            self.pump(float("inf"))

    def _abort(self, at: float) -> None:
        """The joining shard died: revert routing to the old ring.

        Migration-window writes were acknowledged by the *new* owners,
        so before old-ring routing resumes every fresh key is re-synced
        from a surviving new owner back to its old owners — without
        this, a replica that missed the redirected write could serve a
        stale value (a lost acked write in all but name).
        """
        cluster = self.cluster
        t = self.thread
        if t.now < at:
            t.now = at
        down = cluster._down
        resynced = 0
        for key in sorted(self.fresh):
            move = self.moves[key]
            value = self._read_first(key, move.new_owners)
            if value is _MISSING:
                continue  # no surviving new owner; the old copy stands
            for sid in move.old_owners:
                if sid in down or not cluster.shards[sid].serving:
                    continue
                store = cluster.shards[sid].store
                try:
                    if value is None:
                        store.delete(key, t)
                    else:
                        store.put(key, value, t)
                    resynced += 1
                except (DeviceError, DegradedError):
                    continue
        self.state = MIG_ABORTED
        self.finished_at = t.now
        cluster._end_migration(self)
        cluster.metrics.counter("rebalance.aborted").inc()
        cluster.events.emit(
            t.now,
            "rebalance_aborted",
            action=self.action,
            shard=self.shard_id,
            keys_resynced=resynced,
            keys_moved=self.keys_moved,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "shard": self.shard_id,
            "state": self.state,
            "keys_planned": len(self.moves),
            "keys_pending": len(self.pending),
            "keys_moved": self.keys_moved,
            "keys_lost": self.keys_lost,
            "keys_retired": self.keys_retired,
            "ranges": len(self.range_total),
            "ranges_cut": sum(
                1 for left in self.range_pending.values() if left == 0
            ),
        }
