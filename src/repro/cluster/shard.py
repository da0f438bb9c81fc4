"""One cluster member: a full Prism instance plus serving state.

A :class:`Shard` wraps the store with everything the router needs to
treat it as a node: a lifecycle state, an admission controller, and an
inbound asynchronous-replication queue.  A shard is born ``up``; every
later state is written by :class:`~repro.cluster.membership.Membership`.

The replication queue models the *primary's outbound lag* for async
replication: an acknowledged write is enqueued at its ack time and
applied to this replica by a background virtual thread that processes
the queue in FIFO order.  Items are applied lazily — :meth:`pump`
applies everything whose turn starts at or before the pumping time —
so a replica read genuinely observes staleness, and a primary that
dies with backlog still unsent loses exactly that backlog
(:meth:`drop_from`).  Under quorum replication the queue is never
used and pumping is a no-op, keeping that mode bit-identical to a
build without the queue.

Per-key ordering is preserved structurally: every mutation of a key
reaches a replica through the same primary, hence through this FIFO
queue, and keys this shard owns as primary never appear in its own
queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.cluster.admission import AdmissionController
from repro.core.prism import Prism
from repro.sim.vthread import VThread

STATE_UP = "up"
STATE_DOWN = "down"
# Live-resharding lifecycle: a DRAINING shard is healthy but being
# decommissioned (serves reads and migration traffic; no write routes
# to it); a RETIRED shard has handed off every key and left the ring
# (its store is intact but the router never touches it again).
STATE_DRAINING = "draining"
STATE_RETIRED = "retired"

# (key, value-or-None-for-delete, source shard id, enqueued at)
ReplItem = Tuple[bytes, Optional[bytes], int, float]


class Shard:
    """A Prism instance serving one ring member."""

    def __init__(
        self,
        shard_id: int,
        store: Prism,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.shard_id = shard_id
        self.store = store
        self.state = STATE_UP
        self.admission = admission or AdmissionController(shard_id)
        self.repl_thread = VThread(
            -100 - shard_id,
            store.clock,
            name=f"repl-shard{shard_id}",
            background=True,
        )
        self.queue: Deque[ReplItem] = deque()
        self.repl_applied = 0
        self.repl_dropped = 0

    @property
    def up(self) -> bool:
        return self.state == STATE_UP

    @property
    def serving(self) -> bool:
        """May this shard serve reads?  Draining members still must —
        the dual-read window reads unmoved keys from the old owner."""
        return self.state == STATE_UP or self.state == STATE_DRAINING

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard({self.shard_id}, {self.state}, queued={len(self.queue)})"

    # ------------------------------------------------------------------
    # asynchronous replication
    # ------------------------------------------------------------------
    def enqueue(
        self, key: bytes, value: Optional[bytes], source: int, at: float
    ) -> None:
        """Queue one replicated mutation (``value=None`` is a delete)."""
        self.queue.append((key, value, source, at))

    def pump(self, upto: float) -> int:
        """Apply queued mutations whose turn starts at or before ``upto``.

        The replication thread serializes applications: each item
        starts no earlier than its enqueue time and no earlier than the
        previous item's completion.  Returns the number applied.
        """
        if not self.queue:
            return 0
        rt = self.repl_thread
        applied = 0
        while self.queue:
            key, value, _source, at = self.queue[0]
            start = rt.now if rt.now > at else at
            if start > upto:
                break
            self.queue.popleft()
            rt.now = start
            if value is None:
                self.store.delete(key, rt)
            else:
                self.store.put(key, value, rt)
            applied += 1
        self.repl_applied += applied
        return applied

    def drop_from(self, source: int) -> int:
        """Discard queued items from a dead source (unsent backlog)."""
        if not self.queue:
            return 0
        kept = deque(item for item in self.queue if item[2] != source)
        dropped = len(self.queue) - len(kept)
        self.queue = kept
        self.repl_dropped += dropped
        return dropped

    def drop_all(self) -> int:
        """This shard died: whatever it had not applied dies with it."""
        dropped = len(self.queue)
        self.queue.clear()
        self.repl_dropped += dropped
        return dropped
