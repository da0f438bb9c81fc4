"""Gray-failure experiment: a fail-slow replica vs the defended router.

The scenario: a read-heavy uniform workload on a 3-shard RF=2 quorum
cluster; a quarter of the way in, one replica's devices go *gray* —
every IO still succeeds but takes 10× as long.  Nothing errors, so the
fail-stop machinery (retries, failover, re-replication) never reacts;
only latency tells.  Three runs answer the question:

* **healthy** — no fault; the read-tail baseline;
* **undefended** — the gray fault with health monitoring off: the read
  p99 collapses toward the inflated device latency whenever the router
  reads from the slow replica;
* **defended** — the same fault with :class:`HealthConfig` armed:
  EWMA scoring flags the outlier, its circuit breaker opens and reads
  steer to healthy replicas, and reads that do overrun the adaptive
  hedge delay race a speculative read at the next healthy replica.

Stores are deliberately tight (tiny Scan-aware Value Cache and PWB) so
reads actually reach the SSDs — with the default 32 MB SVC the whole
working set is served from DRAM and device-level gray failures never
touch the read tail.

Acceptance gates:

* **tail** — the defended gray read p99 stays within ``2×`` the
  healthy baseline's (undefended it is ~10× here);
* **overhead** — hedging stays cheap: wasted hedges (speculative reads
  that lost the race) are under 10% of all reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.cluster import run_legs
from repro.bench.experiments import sizing
from repro.bench.report import Gate
from repro.cluster.health import HealthConfig
from repro.cluster.router import ClusterConfig
from repro.cluster.runner import ClusterRunResult, GrayPlan
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.workloads.ycsb import WorkloadSpec

KB = 1024

READ_HEAVY_UNIFORM = WorkloadSpec(
    name="gray-read-heavy", read=0.95, update=0.05, distribution="uniform",
    description="95/5 read/update, uniform keys (gray-failure probe)",
)

GRAY_SHARD = 1
GRAY_MULTIPLIER = 10.0
GRAY_AT_FRACTION = 0.25

TAIL_GATE = 2.0  # defended p99 must stay within this × healthy p99
OVERHEAD_GATE = 0.10  # wasted hedges / reads must stay under this

# A store whose reads hit the SSDs: tiny SVC and PWB, so values
# live on flash and device latency inflation is visible end to end.
TIGHT_SHARD = dict(
    num_threads=2,
    num_ssds=2,
    ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(4 * 1024 * KB),
    chunk_size=64 * KB,
    pwb_capacity=64 * KB,
    svc_capacity=64 * KB,
    hsit_capacity=50_000,
)


def gray_leg(
    health: Optional[HealthConfig], num_keys: int, num_ops: int, **plan
) -> Dict:
    """One leg's :func:`~repro.bench.cluster.cluster_leg` arguments: the
    3-shard RF=2 quorum cluster of tight shards, defended by ``health``
    (None: health monitoring off)."""
    return dict(
        config=ClusterConfig(
            num_shards=3,
            replication_factor=2,
            health=health,
        ),
        spec=READ_HEAVY_UNIFORM, num_keys=num_keys, num_ops=num_ops,
        clients_per_shard=2, seed=5,
        shard_overrides=TIGHT_SHARD, preload_threads=2, **plan,
    )


def grayfail_comparison(
    num_keys: Optional[int] = None, num_ops: Optional[int] = None
) -> Dict[str, ClusterRunResult]:
    """The three runs: healthy, undefended gray, defended gray."""
    num_keys, num_ops = sizing(num_keys, num_ops, 2_000, 8_000)
    plan = GrayPlan(
        shard_id=GRAY_SHARD,
        at_fraction=GRAY_AT_FRACTION,
        multiplier=GRAY_MULTIPLIER,
    )
    sizes = dict(num_keys=num_keys, num_ops=num_ops)
    return run_legs({
        "healthy": gray_leg(None, **sizes),
        "undefended": gray_leg(None, gray_plan=plan, **sizes),
        "defended": gray_leg(health=HealthConfig(), gray_plan=plan, **sizes),
    })


def read_p99(result: ClusterRunResult) -> float:
    """Read-only p99 in microseconds (the tail the gates judge)."""
    reads = result.run.per_kind.get("read")
    return reads.p99() if reads is not None else 0.0


def event_count(result: ClusterRunResult, kind: str) -> int:
    """How many ``kind`` events the run's window logged."""
    return len((result.run.metrics or {}).get("events", {}).get(kind, ()))


def check_grayfail(results: Dict[str, ClusterRunResult]) -> List[Gate]:
    """The acceptance gates: hedging + breaker keep the defended gray
    read p99 near the healthy baseline's, and speculation stays cheap —
    wasted hedges under 10% of the defended run's reads."""
    defended = results["defended"]
    base = read_p99(results["healthy"])
    got = read_p99(defended)
    if base <= 0.0:
        tail = False, "healthy baseline recorded no reads"
    else:
        ratio = got / base
        tail = ratio <= TAIL_GATE, (
            f"defended read p99 {got:.1f}us = {ratio:.2f}x healthy "
            f"{base:.1f}us (gate: <= {TAIL_GATE:.1f}x)"
        )
    wasted = event_count(defended, "hedge_wasted")
    reads = defended.run.per_kind.get("read")
    total = len(reads) if reads is not None else 0
    if total == 0:
        overhead = False, "defended run recorded no reads"
    else:
        frac = wasted / total
        overhead = frac <= OVERHEAD_GATE, (
            f"{wasted} wasted hedges over {total} reads = {frac:.1%} "
            f"(gate: <= {OVERHEAD_GATE:.0%})"
        )
    return [("  tail gate", *tail), ("  overhead gate", *overhead)]
