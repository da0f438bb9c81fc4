"""Cluster membership: the one writer of who serves what.

:class:`Membership` owns the **ring**, the **down set**, each shard's
**lifecycle state** (born ``up``; ``up → draining → retired`` for a
scale-in; ``down`` from any state when it dies) and the one in-flight
:class:`~repro.cluster.rebalance.Migration`.  Its transitions are
:meth:`add`, :meth:`remove`, :meth:`fail`, and :meth:`settle`, the
migration's own last step.  The router reads these fields and never
assigns them (``tests/cluster/test_membership.py`` walks ``repro``'s
syntax for any other writer).

A draining shard needs no write gate: its ``remove`` migration routes
every write to the new ring, which does not contain it, while reads of
its unmoved keys still reach it (the dual-read window).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Set

from repro.cluster.errors import RebalanceInProgressError
from repro.cluster.rebalance import (
    ACTION_ADD,
    ACTION_FAIL,
    ACTION_REMOVE,
    DEFAULT_REBALANCE_BANDWIDTH,
    MIG_DONE,
    Migration,
)
from repro.cluster.ring import HashRing, LastShardError, UnknownShardError
from repro.cluster.shard import STATE_DOWN, STATE_DRAINING, STATE_RETIRED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.router import PrismCluster


class Membership:
    """The ring, the down set, shard lifecycle and the one migration."""

    def __init__(self, cluster: "PrismCluster", ring: HashRing) -> None:
        self.cluster = cluster
        self.ring = ring
        self.down: Set[int] = set()
        # At most one membership change in flight.  Every routing hook
        # is behind this None check, so a run with no membership change
        # stays byte-identical to the pre-elasticity tree.
        self.migration: Optional[Migration] = None

    def _idle(self) -> None:
        if self.migration is not None:
            raise RebalanceInProgressError(repr(self.migration.snapshot()))

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def add(self, factory: Callable, bandwidth: float, at: float) -> int:
        """Build member ``len(shards)`` with ``factory`` and start
        moving its keys onto it.  Returns the new shard id."""
        self._idle()
        cluster = self.cluster
        sid = len(cluster.shards)
        cluster.shards.append(cluster._new_shard(sid, factory))
        if cluster._health is not None:
            cluster._health.register(sid)
        self._start(ACTION_ADD, sid, self.ring.with_shard_added(sid), bandwidth, at)
        return sid

    def remove(self, shard_id: int, bandwidth: float, at: float) -> None:
        """Drain ``shard_id``: its keys stream to the surviving owners
        and it retires at handoff.  The ring raises the typed
        :class:`~repro.cluster.ring.LastShardError` /
        :class:`~repro.cluster.ring.UnknownShardError` before any
        state changes."""
        self._idle()
        new_ring = self.ring.with_shard_removed(shard_id)  # typed raises
        shard = self.cluster.shards[shard_id]
        if not shard.up:
            raise ValueError(
                f"cannot remove shard {shard_id}: state is {shard.state!r} "
                "(a failed shard leaves the ring by its own fail "
                "migration, not by drain)"
            )
        shard.state = STATE_DRAINING
        self.cluster.events.emit(at, "shard_draining", shard=shard_id)
        self._start(ACTION_REMOVE, shard_id, new_ring, bandwidth, at)

    def fail(self, shard_id: int, at: float) -> None:
        """Mark a shard down, drop its unsent replication backlog, and
        start the migration that restores every affected key's RF."""
        if shard_id in self.down:
            return
        cluster = self.cluster
        shard = cluster.shards[shard_id]
        shard.state = STATE_DOWN
        self.down.add(shard_id)
        dropped = shard.drop_all()
        for other in cluster.shards:
            if other.shard_id == shard_id or not other.up:
                continue
            # Apply whatever the dead primary had already shipped...
            other.pump(at)
            # ...and lose what it had not.
            dropped += other.drop_from(shard_id)
        cluster.events.emit(at, "shard_down", shard=shard_id, repl_dropped=dropped)
        mig = self.migration
        if mig is not None:
            # Resolve it first, so the re-replication starts from one
            # consistent ring: nothing but the joiner can complete an
            # add, so its death aborts; any other death fast-forwards
            # (one consistent ring outranks the bandwidth budget).
            if mig.action == ACTION_ADD and shard_id == mig.shard_id:
                mig.abort(at)
            else:
                mig.fast_forward(at)
        try:
            new_ring = self.ring.with_shard_removed(shard_id)
        except (UnknownShardError, LastShardError):
            return  # an aborted joiner, or the last member: nothing to move
        self._start(ACTION_FAIL, shard_id, new_ring, DEFAULT_REBALANCE_BANDWIDTH, at)

    def _start(
        self, action: str, shard_id: int, new_ring: HashRing, bandwidth: float, at: float
    ) -> None:
        cluster = self.cluster
        mig = Migration(self, action, shard_id, new_ring, bandwidth, at)
        mig.plan(cluster.config.replication_factor)
        self.migration = mig
        if cluster._health is not None:
            # Breakers must not trip on migration traffic: the member
            # being bulk-loaded (add), drained (remove) or re-replicated
            # (fail) is exempt from health scoring until the migration
            # resolves.
            cluster._health.set_exempt(shard_id, True)
        cluster.events.emit(
            at,
            "rebalance_started",
            action=action,
            shard=shard_id,
            keys=len(mig.moves),
            ranges=len(mig.range_total),
            bandwidth=bandwidth,
        )
        mig.pump(at)  # an empty plan resolves immediately

    def settle(self, mig: Migration) -> None:
        """The migration finished or aborted (it calls this itself):
        a finished one swaps the ring in and retires a leaving member;
        an aborted one leaves the old ring standing."""
        cluster = self.cluster
        if mig.state == MIG_DONE:
            self.ring = mig.new_ring
            shard = cluster.shards[mig.shard_id]
            if mig.action == ACTION_REMOVE and shard.serving:
                # Handoff complete: it leaves the serving set for good
                # (its store is intact, but nothing routes to it again).
                shard.state = STATE_RETIRED
                cluster.events.emit(mig.thread.now, "shard_retired", shard=mig.shard_id)
        self.migration = None
        if cluster._health is not None:
            cluster._health.set_exempt(mig.shard_id, False)
