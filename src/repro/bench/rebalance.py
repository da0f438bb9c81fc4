"""Elasticity experiment: scale out (and in) under live traffic.

The question this answers: can the cluster change membership *while
serving* without breaking its consistency contract or its tail?

Three runs on identically preloaded RF=2 quorum clusters driving
uniform YCSB-A:

* **scale-out** — a fourth shard joins at 25% of the ops; the
  background migrator streams the affected keys to it under the
  bandwidth budget while the workload keeps running;
* **scale-in** — shard 1 drains and retires at 25% of the ops, its
  keys streaming to the survivors;
* **control** — no membership change.  Up to the 25% op it is the
  same run as the other two, so it is their like-for-like baseline.

Acceptance gates (:func:`check_rebalance`):

* **zero lost acked writes and zero stale reads after cutover** — the
  :class:`~repro.faults.ledger.WriteLedger` audit must come back
  clean (``lost_acked == 0 and wrong_value == 0``);
* **bounded blip** — read p99 *during* the migration window must stay
  within ``BLIP_FACTOR`` (2×) of the control run's read p99
  over the same virtual-time window.  The reads before the migration
  are no baseline: none of them reaches flash, because the first PWB
  reclaim lands inside the window whether or not anything migrates;
* **time-to-rebalance recorded** — the migration must complete and
  report its cutover/duration in the metrics JSON
  (``rebalance.time_to_rebalance_seconds``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.cluster import rf2_leg, run_legs
from repro.bench.experiments import sizing
from repro.bench.report import Gate
from repro.cluster.runner import ClusterRunResult, RebalancePlan
from repro.sim.stats import LatencyRecorder

# The per-run migration budget: small enough that the copy stream
# genuinely overlaps with client traffic (the dual-read window is
# exercised).  It is too small for the client window to see the
# migration through: the copy outlives the last op, and
# ``finish_rebalance`` drains the rest after it, so the blip gate judges
# only the part of the migration the window covers (ROADMAP item 1).
REBALANCE_BANDWIDTH = 256.0 * 1024

# Migration-window read p99 / the control's must stay at or below this.
BLIP_FACTOR = 2.0

# The leg with no membership change.
CONTROL = "control"


def cluster_rebalance(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    clients_per_shard: int = 4,
    bandwidth: float = REBALANCE_BANDWIDTH,
) -> Dict[str, ClusterRunResult]:
    """YCSB-A with a mid-run scale-out, a mid-run scale-in, and neither.

    Returns ``{"control": ..., "scale_out": ..., "scale_in": ...}`` —
    each an audited :class:`ClusterRunResult`; a rebalance leg's
    ``rebalance`` dict carries the migration outcome and phase-split
    read p99s, the control's ``read_log`` its reads by start time.
    """
    num_keys, num_ops = sizing(num_keys, num_ops, 8_000, 16_000)
    leg = rf2_leg(3, num_keys, num_ops, clients_per_shard, seed=5)
    plans = {
        "scale_out": RebalancePlan(
            action="add", at_fraction=0.25, bandwidth=bandwidth
        ),
        "scale_in": RebalancePlan(
            action="remove", shard_id=1, at_fraction=0.25, bandwidth=bandwidth
        ),
    }
    legs = {CONTROL: {**leg, "log_reads": True}}
    legs.update(
        (label, {**leg, "rebalance_plan": plan}) for label, plan in plans.items()
    )
    return run_legs(legs)


def control_read_p99(result: ClusterRunResult, control: ClusterRunResult) -> float:
    """The control run's read p99 (µs) over the virtual-time window in
    which ``result``'s migration was in flight."""
    reb = result.rebalance
    lo = reb["started_at"]
    hi = lo + reb.get("time_to_rebalance", float("inf"))
    window = LatencyRecorder("control_window")
    for at, latencies in control.read_log.items():
        if lo <= at < hi:
            window.samples.extend(latencies)
    return window.p99()


def check_rebalance(results: Dict[str, ClusterRunResult]) -> List[Gate]:
    """The elasticity acceptance gate for each rebalance leg, judged
    against the control leg's same window."""
    control = results[CONTROL]
    return [
        _leg_gate(f"  {label} gate", result, control)
        for label, result in results.items()
        if label != CONTROL
    ]


def _leg_gate(
    label: str, result: ClusterRunResult, control: ClusterRunResult
) -> Gate:
    problems = []
    reb = result.rebalance
    if not reb:
        return label, False, "rebalance never triggered"
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
    base = control_read_p99(result, control)
    migr = float(reb.get("read_p99_migrating", 0.0))
    if reb.get("reads_migrating", 0) and base > 0.0:
        ratio = migr / base
        if ratio > BLIP_FACTOR:
            problems.append(
                f"read p99 blip {ratio:.2f}x exceeds {BLIP_FACTOR:g}x"
            )
    else:
        ratio = 0.0
    ttr = reb.get("time_to_rebalance")
    if ttr is None:
        problems.append("time-to-rebalance not recorded")
    if problems:
        return label, False, "; ".join(problems)
    return label, True, (
        f"{reb['action']}: zero lost acked writes over "
        f"{result.audit.get('keys_checked', 0)} keys; "
        f"{reb.get('keys_moved', 0)} keys moved in {float(ttr):.6f}s virtual; "
        f"migration-window read p99 {ratio:.2f}x the control's "
        f"(gate: <= {BLIP_FACTOR:g}x)"
    )
