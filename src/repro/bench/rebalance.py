"""Elasticity experiment: scale out (and in) under live traffic.

The question this answers: can the cluster change membership *while
serving* without breaking its consistency contract or its tail?

Two runs on identically preloaded RF=2 quorum clusters driving
uniform YCSB-A:

* **scale-out** — a fourth shard joins at 25% of the ops; the
  background migrator streams the affected keys to it under the
  bandwidth budget while the workload keeps running;
* **scale-in** — shard 1 drains and retires at 25% of the ops, its
  keys streaming to the survivors.

Acceptance gates (:func:`check_rebalance`):

* **zero lost acked writes and zero stale reads after cutover** — the
  :class:`~repro.faults.ledger.WriteLedger` audit must come back
  clean (``lost_acked == 0 and wrong_value == 0``);
* **bounded blip** — read p99 *during* the migration window must stay
  within ``blip_factor`` (default 2×) of the steady-state read p99 of
  the same run;
* **time-to-rebalance recorded** — the migration must complete and
  report its cutover/duration in the metrics JSON
  (``rebalance.time_to_rebalance_seconds``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bench.cluster import rf2_leg, run_legs
from repro.bench.experiments import sizing
from repro.cluster.runner import ClusterRunResult, RebalancePlan

# The per-run migration budget: small enough that the copy stream
# genuinely overlaps with client traffic (the dual-read window is
# exercised), large enough that the run finishes it.
REBALANCE_BANDWIDTH = 256.0 * 1024


def cluster_rebalance(
    num_shards: int = 3,
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    clients_per_shard: int = 4,
    at_fraction: float = 0.25,
    bandwidth: float = REBALANCE_BANDWIDTH,
    replication_mode: str = "quorum",
) -> Dict[str, ClusterRunResult]:
    """YCSB-A with a mid-run scale-out and a mid-run scale-in.

    Returns ``{"scale_out": ..., "scale_in": ...}`` — each an audited
    :class:`ClusterRunResult` whose ``rebalance`` dict carries the
    migration outcome and phase-split read p99s.
    """
    num_keys, num_ops = sizing(num_keys, num_ops, 8_000, 16_000)
    leg = rf2_leg(
        num_shards, replication_mode, num_keys, num_ops, clients_per_shard,
        seed=5,
    )
    plans = {
        "scale_out": RebalancePlan(
            action="add", at_fraction=at_fraction, bandwidth=bandwidth
        ),
        "scale_in": RebalancePlan(
            action="remove",
            shard_id=1,
            at_fraction=at_fraction,
            bandwidth=bandwidth,
        ),
    }
    return run_legs(
        {label: {**leg, "rebalance_plan": plan} for label, plan in plans.items()}
    )


def check_rebalance(
    result: ClusterRunResult, blip_factor: float = 2.0
) -> Tuple[bool, str]:
    """The elasticity acceptance gate for one rebalance run."""
    problems = []
    reb = result.rebalance
    if not reb:
        return False, "rebalance never triggered"
    lost = result.audit.get("lost_acked")
    wrong = result.audit.get("wrong_value")
    if lost != 0:
        problems.append(f"{lost} acked writes lost")
    if wrong:
        problems.append(f"{wrong} stale/wrong final values")
    if not reb.get("completed"):
        problems.append("migration never completed")
    if reb.get("aborted"):
        problems.append("migration aborted")
    if reb.get("keys_lost"):
        problems.append(f"{reb['keys_lost']} keys lost in migration")
    steady = float(reb.get("read_p99_steady", 0.0))
    migr = float(reb.get("read_p99_migrating", 0.0))
    if reb.get("reads_migrating", 0) and steady > 0.0:
        ratio = migr / steady
        if ratio > blip_factor:
            problems.append(
                f"read p99 blip {ratio:.2f}x exceeds {blip_factor:g}x"
            )
    else:
        ratio = 0.0
    ttr = reb.get("time_to_rebalance")
    if ttr is None:
        problems.append("time-to-rebalance not recorded")
    if problems:
        return False, "; ".join(problems)
    return True, (
        f"{reb['action']}: zero lost acked writes over "
        f"{result.audit.get('keys_checked', 0)} keys; "
        f"{reb.get('keys_moved', 0)} keys moved in {float(ttr):.6f}s virtual; "
        f"migration-window read p99 {ratio:.2f}x steady (gate: <= {blip_factor:g}x)"
    )
