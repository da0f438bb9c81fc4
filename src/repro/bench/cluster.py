"""Cluster experiments: throughput scaling and failover under load.

Two questions the serving layer must answer:

* **scaling** — does aggregate throughput grow with shard count?
  Shards share nothing but the virtual clock, so uniform YCSB-C
  (read-only, no hot keys) should scale near-linearly; the acceptance
  gate requires 4 shards ≥ 2.5× the 1-shard aggregate.
* **failover** — with replication factor 2 and quorum acks, killing a
  shard mid-run must lose **zero** acknowledged writes, the paced
  re-replication (a ``fail`` migration) must complete (recovery time
  recorded in the metrics snapshot), and the killed leg must keep at
  least ``FAILOVER_FLOOR`` of the baseline leg's throughput.

Every cluster experiment in this package — these two, ``grayfail``,
``rebalance`` and the read cache's hot-key spread — is a handful of
*legs* (:func:`cluster_leg`): one cluster built, loaded, driven through
:func:`repro.cluster.runner.run_cluster_workload` with client counts
proportional to the cluster (``clients_per_shard`` virtual threads per
shard), and closed.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.bench.experiments import sizing
from repro.bench.runner import preload
from repro.cluster.router import (
    ClusterConfig,
    PrismCluster,
    default_shard_factory,
)
from repro.cluster.runner import ClusterRunResult, KillPlan, run_cluster_workload
from repro.parallel import parallel_map
from repro.workloads.ycsb import WorkloadSpec

# Uniform key choice isolates scaling from skew: a Zipfian hot set
# would concentrate on whichever shard owns the hot keys.
# Killed-leg throughput / baseline-leg throughput must stay at or
# above this.  Measured over seeds 1-5: 0.857-0.915 at full size
# (seed 3, the gated one: 0.857) and 1.257-1.265 at --smoke, where the
# 2-shard ring leaves nothing to copy; the unpaced copy burst this
# replaced ran at 0.14 (EXPERIMENTS.md, "Cluster failover").
FAILOVER_FLOOR = 0.8

YCSB_C_UNIFORM = WorkloadSpec(
    name="C-uniform", read=1.0, distribution="uniform",
    description="Read-only, uniform keys (scaling probe)",
)
YCSB_A_UNIFORM = WorkloadSpec(
    name="A-uniform", read=0.5, update=0.5, distribution="uniform",
    description="50/50 read/update, uniform keys (failover probe)",
)


def cluster_leg(
    config: ClusterConfig,
    spec: WorkloadSpec,
    num_keys: int,
    num_ops: int,
    clients_per_shard: int,
    seed: int,
    shard_overrides: Optional[Mapping] = None,
    preload_threads: int = 4,
    value_size: int = 1024,
    theta: float = 0.99,
    **plan,
) -> ClusterRunResult:
    """One cluster run, start to finish: build ``config``'s cluster
    (every shard the router's default store plus ``shard_overrides``,
    which are :class:`PrismConfig` fields), load ``num_keys``, run
    ``spec`` with at most one ``kill_plan`` / ``gray_plan`` /
    ``rebalance_plan``, close."""
    cluster = PrismCluster(
        config,
        shard_factory=partial(default_shard_factory, **(shard_overrides or {})),
    )
    preload(
        cluster, num_keys, value_size=value_size,
        num_threads=preload_threads, seed=1,
    )
    result = run_cluster_workload(
        cluster, spec, num_ops, num_keys,
        clients_per_shard=clients_per_shard, value_size=value_size,
        theta=theta, seed=seed, **plan,
    )
    cluster.close()
    return result


def _leg(kwargs: Dict) -> ClusterRunResult:
    return cluster_leg(**kwargs)


def run_legs(legs: Mapping[Hashable, Dict]) -> Dict[Hashable, ClusterRunResult]:
    """Run each labelled leg (the keyword arguments of one
    :func:`cluster_leg`), fanned out under ``--jobs``; results by
    label, in the order given."""
    return dict(zip(legs, parallel_map(_leg, [(leg,) for leg in legs.values()])))


def cluster_scaling(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    clients_per_shard: int = 4,
) -> Dict[int, ClusterRunResult]:
    """Aggregate YCSB-C throughput vs shard count at RF=1."""
    num_keys, num_ops = sizing(num_keys, num_ops, 20_000, 40_000)
    return run_legs({
        shards: dict(
            config=ClusterConfig(
                num_shards=shards, replication_factor=1,
                replication_mode="quorum",
            ),
            spec=YCSB_C_UNIFORM, num_keys=num_keys, num_ops=num_ops,
            clients_per_shard=clients_per_shard, seed=2,
        )
        for shards in shard_counts
    })


def cluster_failover(
    num_shards: int = 4,
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    clients_per_shard: int = 4,
    kill_shard: int = 1,
    kill_fraction: float = 0.4,
    replication_mode: str = "quorum",
) -> Tuple[ClusterRunResult, ClusterRunResult]:
    """YCSB-A at RF=2 with and without a mid-run shard death.

    Returns ``(baseline, killed)``: the same workload on identical
    clusters, one undisturbed, one losing ``kill_shard`` at
    ``kill_fraction`` of the ops.
    """
    num_keys, num_ops = sizing(num_keys, num_ops, 10_000, 20_000)
    baseline = rf2_leg(
        num_shards, replication_mode, num_keys, num_ops, clients_per_shard,
        seed=3,
    )
    kill = KillPlan(shard_id=kill_shard, at_fraction=kill_fraction)
    legs = run_legs(
        {"baseline": baseline, "killed": {**baseline, "kill_plan": kill}}
    )
    return legs["baseline"], legs["killed"]


def rf2_leg(
    num_shards: int,
    replication_mode: str,
    num_keys: int,
    num_ops: int,
    clients_per_shard: int,
    seed: int,
) -> Dict:
    """The leg failover and rebalance share: uniform YCSB-A on an RF=2
    cluster of default shards."""
    return dict(
        config=ClusterConfig(
            num_shards=num_shards, replication_factor=2,
            replication_mode=replication_mode,
        ),
        spec=YCSB_A_UNIFORM, num_keys=num_keys, num_ops=num_ops,
        clients_per_shard=clients_per_shard, seed=seed,
    )


def check_scaling(results: Dict[int, ClusterRunResult]) -> Tuple[bool, str]:
    """The acceptance gate: 4-shard aggregate ≥ 2.5× 1-shard."""
    if 1 not in results or 4 not in results:
        return True, "scaling gate skipped (need 1- and 4-shard runs)"
    base = results[1].throughput
    four = results[4].throughput
    speedup = four / base if base else 0.0
    ok = speedup >= 2.5
    return ok, f"4-shard speedup {speedup:.2f}x (gate: >= 2.5x)"


def check_failover(
    baseline: ClusterRunResult, killed: ClusterRunResult
) -> Tuple[bool, str]:
    """The acceptance gate: no acked write lost, recovery completed,
    killed/baseline throughput at or above ``FAILOVER_FLOOR``."""
    problems = []
    lost = killed.audit.get("lost_acked")
    wrong = killed.audit.get("wrong_value")
    if lost != 0:
        problems.append(f"{lost} acked writes lost")
    if wrong:
        problems.append(f"{wrong} wrong final values")
    if killed.killed_shard is None:
        problems.append("kill never triggered")
    if killed.recovery_seconds is None:
        problems.append("re-replication never ran")
    stats = killed.run.stats
    if stats.get("cluster_shards_down") != 1.0:
        problems.append("down-shard count != 1")
    ratio = killed.throughput / baseline.throughput
    if ratio < FAILOVER_FLOOR:
        problems.append(
            f"killed/baseline throughput {ratio:.3f} < {FAILOVER_FLOOR:g}"
        )
    if problems:
        return False, "; ".join(problems)
    return True, (
        f"zero lost acked writes over {killed.audit.get('keys_checked', 0)} keys; "
        f"recovery {killed.recovery_seconds:.6f}s virtual; "
        f"killed/baseline throughput {ratio:.3f} (gate: >= {FAILOVER_FLOOR:g})"
    )
