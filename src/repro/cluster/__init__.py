"""Sharded, replicated cluster serving layer.

Scales the single-node Prism simulation out: N independent Prism
instances (shards) share one virtual clock behind a consistent-hash
router with primary/replica replication, failover with background
re-replication, and per-shard admission control.  See
``docs/simulation-model.md`` ("Cluster model") for the semantics.
"""

from repro.cluster.admission import AdmissionController, TokenBucket
from repro.cluster.errors import (
    ClusterError,
    RebalanceInProgressError,
    ShardOverloadedError,
    ShardUnavailableError,
)
from repro.cluster.health import CircuitBreaker, HealthConfig, HealthMonitor
from repro.cluster.rebalance import Migration, MoveSpec, plan_moves
from repro.cluster.ring import (
    DuplicateShardError,
    HashRing,
    LastShardError,
    RingError,
    UnknownShardError,
)
from repro.cluster.router import (
    ClusterConfig,
    PrismCluster,
    default_shard_factory,
)
from repro.cluster.shard import Shard

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterError",
    "DuplicateShardError",
    "HashRing",
    "HealthConfig",
    "HealthMonitor",
    "LastShardError",
    "Migration",
    "MoveSpec",
    "PrismCluster",
    "RebalanceInProgressError",
    "RingError",
    "Shard",
    "ShardOverloadedError",
    "ShardUnavailableError",
    "TokenBucket",
    "UnknownShardError",
    "default_shard_factory",
    "plan_moves",
]
