"""Crash-sweep scenarios at cluster scope, and the registry of all of
them.

The engine is :class:`repro.faults.crash_sweep.CrashSweep`; this module
only says what a crash *means* once the system is a cluster.  The
failure model is harsher than on a single store — the crashed shard
never comes back — so ``on_crash`` is :meth:`PrismCluster.fail_shard`,
and the engine's contract (at replication factor ≥ 2 with quorum acks)
has to be kept by the *router*: reads route around the dead shard,
re-replication restores RF, an in-flight write is never half-replicated
into view, and a key overwritten after the failover is never served at
its pre-failover value.

:data:`SCENARIOS` lists every scenario the sweep knows — the
single-store ones defined beside the engine included — and is what the
CLI's ``--scenario``, CI and the table in ``docs/simulation-model.md``
("Crash-sweep scenarios") select from::

    PYTHONPATH=src python -m repro.faults.crash_sweep --scenario cluster
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cluster.errors import ClusterError
from repro.cluster.router import ClusterConfig, PrismCluster, default_shard_factory
from repro.core.checker import audit
from repro.faults.crash_sweep import STORE_SCENARIOS, TIGHT_STORE, Scenario
from repro.faults.errors import StorageError
from repro.storage.crash import CrashPoint


def default_cluster_factory() -> PrismCluster:
    """A 3-shard RF=2 quorum cluster of the sweep's deliberately tight
    stores, so each shard's workload slice reaches its crash labels."""
    return PrismCluster(
        ClusterConfig(num_shards=3, replication_factor=2),
        shard_factory=partial(default_shard_factory, **TIGHT_STORE),
    )


@dataclass(frozen=True)
class ClusterScenario(Scenario):
    """Shard ``watch`` (None: the member that joins mid-run) dies at
    each of its own store's crash labels; the driver — playing the
    client — fails it over and finishes the workload on the survivors.

    With ``gray_shard`` set, that shard's devices are latency-inflated
    10× (no errors) from the start of every replay — the compound
    scenario: one member fail-slow while another fail-stops
    mid-operation.  The durability contract is unchanged; gray slowness
    must never cost an acknowledged write.
    """

    factory: Callable[[], PrismCluster] = default_cluster_factory
    watch: Optional[int] = 0
    gray_shard: Optional[int] = None

    clean_errors = (ClusterError, StorageError)
    headline = (
        "cluster crash sweep: {workload} labels on shard {watched}, "
        "{crashes} shard deaths injected"
    )

    def __post_init__(self) -> None:
        if self.gray_shard is not None and self.gray_shard == self.watch:
            raise ValueError(
                f"gray shard must differ from the crash shard {self.watch}"
            )

    def build(self) -> PrismCluster:
        cluster = self.factory()
        if self.gray_shard is not None:
            cluster.slow_shard(self.gray_shard, 0.0, multiplier=10.0)
        return cluster

    def watched(self, cluster: PrismCluster) -> int:
        # add_shard numbers the joining member after the initial ones.
        return cluster.config.num_shards if self.watch is None else self.watch

    def crash_point(self, cluster: PrismCluster) -> CrashPoint:
        return cluster.shards[self.watched(cluster)].store.crash_point

    def on_crash(self, cluster: PrismCluster) -> None:
        cluster.fail_shard(self.watched(cluster))

    def settle(self, cluster: PrismCluster) -> None:
        cluster.finish_rebalance()

    def invariants(self, cluster: PrismCluster) -> List[str]:
        sid = self.watched(cluster)
        found = []
        if cluster.shards[sid].up:
            found.append(f"crashed shard {sid} never marked down")
        for shard in cluster.shards:
            if shard.up:
                found += [
                    f"shard {shard.shard_id}: {v}" for v in audit(shard.store).violations
                ]
        return found


@dataclass(frozen=True)
class RebalanceScenario(ClusterScenario):
    """Shard death at every crash label reached *during a live
    migration* — the crash-safety half of the elasticity contract.

    The membership change (``add`` a shard, or drain shard 0 when not)
    triggers a third of the way into the workload and opens the
    explored window; the window closes when the migration resolves
    (draining the copy stream at settle time is still inside it).  The
    registry's three roles cover the interesting deaths:

    * ``source`` — shard 0 (an old owner streaming keys out) dies
      while a new member is being added;
    * ``target`` — the joining shard itself dies mid-copy (the
      migration must abort and routing revert to the old ring, with
      migration-window writes resynced back);
    * ``leaving`` — scale-in: shard 0 drains out and a *surviving*
      owner (shard 1, receiving the copy stream) dies mid-migration
      (the handoff fast-forwards onto the remaining members).

    Every crash label lives on a mutation path, and no write routes to
    a draining shard — it has no torn mid-operation state to explore —
    so the scale-in role kills the member with inbound stream writes
    instead; the draining shard's own (state-less) death
    is covered by the direct kill-mid-drain tests.
    """

    role: str = "source"  # names the sweep in its report
    add: bool = True

    TRIGGER_FRACTION = 1.0 / 3.0
    BANDWIDTH = 32.0 * 1024  # 1/256 of the default: the stream outlasts the ops

    @property
    def headline(self) -> str:
        return f"[role={self.role}] {ClusterScenario.headline}"

    def at_op(self, cluster: PrismCluster, i: int, n: int) -> bool:
        trigger_at = max(1, int(n * self.TRIGGER_FRACTION))
        if i == trigger_at:
            if self.add:
                cluster.add_shard(bandwidth=self.BANDWIDTH)
            else:
                cluster.remove_shard(0, bandwidth=self.BANDWIDTH)
            return True
        return i > trigger_at and cluster.rebalancing


SCENARIOS: Dict[str, Scenario] = {
    **STORE_SCENARIOS,
    "cluster": ClusterScenario(),
    "gray": ClusterScenario(gray_shard=1),
    "rebalance-source": RebalanceScenario(role="source", watch=0),
    "rebalance-target": RebalanceScenario(role="target", watch=None),
    "rebalance-leaving": RebalanceScenario(role="leaving", watch=1, add=False),
}
