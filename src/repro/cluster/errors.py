"""Typed failures of the cluster serving layer.

Everything derives from :class:`ClusterError` so callers can treat the
router as one fallible component, while the leaf classes keep the
crucial distinctions visible:

* :class:`ShardOverloadedError` — *load shedding*: the target shard's
  admission control (queue-depth cap or token bucket) rejected the
  request before it touched any storage.  Nothing happened; the client
  may retry after backoff.  This is the graceful-degradation answer a
  saturated shard gives instead of queueing unboundedly.
* :class:`ShardUnavailableError` — no live owner can serve the key:
  every shard in the key's (effective) preference list is down.  With
  replication factor 1 this is typed data unavailability, analogous to
  :class:`repro.faults.errors.ReadDegradedError` at the device level.
"""

from __future__ import annotations


class ClusterError(Exception):
    """Base for cluster-layer failures."""


class ShardOverloadedError(ClusterError):
    """Admission control shed the request before any work was done.

    ``retry_after`` is the virtual seconds until the shard expects to
    have capacity again (token-bucket refill time, or 0 when the queue
    cap tripped and the caller should back off adaptively).
    """

    def __init__(self, shard_id: int, reason: str, retry_after: float = 0.0) -> None:
        super().__init__(
            f"shard {shard_id} overloaded ({reason}); "
            f"retry after {retry_after:g}s"
        )
        self.shard_id = shard_id
        self.reason = reason
        self.retry_after = retry_after


class RebalanceInProgressError(ClusterError):
    """Only one membership change may run at a time.

    ``add_shard``/``remove_shard`` during an active migration would
    need a three-ring routing rule; callers must wait for (or finish)
    the current migration first.
    """

    def __init__(self, detail: str) -> None:
        super().__init__(f"a rebalance is already in progress: {detail}")


class ShardUnavailableError(ClusterError):
    """Every owner of a key is down — the request cannot be served."""

    def __init__(self, key: bytes, shard_ids) -> None:
        super().__init__(
            f"no live shard for key {key!r}: owners {sorted(shard_ids)} all down"
        )
        self.key = key
        self.shard_ids = tuple(shard_ids)
