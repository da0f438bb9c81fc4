"""Cluster workload execution: YCSB through the router, with an
acked-write ledger and optional mid-run shard failure, gray failure
and membership change.

:func:`run_cluster_workload` is a caller of the one closed loop,
:func:`repro.bench.runner.closed_loop`, as
:func:`repro.bench.runner.run_workload` is.  It drives the same
:class:`OpStream` mixes through :class:`PrismCluster` with
``clients_per_shard`` virtual client threads per shard (client
parallelism scales with the cluster), and hands the loop what the
single-store driver has no use for:

* a :class:`~repro.faults.ledger.WriteLedger` recording every write
  as a virtual-time interval ``(start, end, value)`` — acknowledged,
  or *interrupted* (raised mid-operation: may or may not have
  applied) — and the error classes to count rather than raise.  After
  the run :func:`audit_ledger` reads every key back and judges it by
  the ledger's one rule; an acked write that disappears entirely is
  ``lost_acked`` — the number the RF≥2 quorum acceptance gate requires
  to be zero;
* mid-run actions: a :class:`KillPlan`, :class:`GrayPlan` or
  :class:`RebalancePlan` is a fraction of the ops and what to call on
  the cluster once that many have executed.

Ledger bookkeeping never reads or advances the virtual clock beyond
what the operations themselves do, so a ledgered run is bit-identical
to an unledgered one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.bench.runner import (
    Action,
    RunResult,
    closed_loop,
    finish_run,
    make_threads,
    op_streams,
    split_ops,
    window_events,
)
from repro.cluster.errors import ClusterError, ShardOverloadedError
from repro.cluster.rebalance import ACTION_FAIL
from repro.cluster.router import DEFAULT_REBALANCE_BANDWIDTH, PrismCluster
from repro.faults.errors import StorageError
from repro.faults.ledger import WriteLedger
from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import LatencyRecorder
from repro.sim.vthread import VThread
from repro.storage.crash import SimulatedCrash
from repro.workloads.ycsb import WorkloadSpec


@dataclass
class KillPlan:
    """Fail ``shard_id`` after ``at_fraction`` of the ops have run."""

    shard_id: int
    at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ValueError(
                f"kill fraction must be in (0, 1): {self.at_fraction}"
            )

    def fire(self, cluster: PrismCluster, thread: VThread) -> None:
        cluster.kill_shard(self.shard_id, thread.now)


@dataclass
class GrayPlan:
    """Gray-fail ``shard_id`` mid-run: latency-inflate its devices
    (no errors) after ``at_fraction`` of the ops have run."""

    shard_id: int
    at_fraction: float = 0.25
    multiplier: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction < 1.0:
            raise ValueError(
                f"gray fraction must be in [0, 1): {self.at_fraction}"
            )

    def fire(self, cluster: PrismCluster, thread: VThread) -> None:
        cluster.slow_shard(self.shard_id, thread.now, multiplier=self.multiplier)


@dataclass
class RebalancePlan:
    """Change membership mid-run: grow by one shard (``action="add"``)
    or drain and retire ``shard_id`` (``action="remove"``) once
    ``at_fraction`` of the operations have executed.  The migration
    streams at ``bandwidth`` bytes of value payload per virtual second
    while the remaining operations keep running against the router."""

    action: str = "add"
    shard_id: Optional[int] = None  # required for "remove"
    at_fraction: float = 0.25
    bandwidth: float = DEFAULT_REBALANCE_BANDWIDTH

    def __post_init__(self) -> None:
        if self.action not in ("add", "remove"):
            raise ValueError(f"unknown rebalance action: {self.action}")
        if self.action == "remove" and self.shard_id is None:
            raise ValueError("remove needs the shard_id to drain")
        if not 0.0 < self.at_fraction < 1.0:
            raise ValueError(
                f"rebalance fraction must be in (0, 1): {self.at_fraction}"
            )

    def fire(self, cluster: PrismCluster, thread: VThread) -> None:
        if self.action == "add":
            cluster.add_shard(at=thread.now, bandwidth=self.bandwidth)
        else:
            cluster.remove_shard(
                self.shard_id, at=thread.now, bandwidth=self.bandwidth
            )


def audit_ledger(
    ledger: WriteLedger, cluster: PrismCluster, thread: VThread
) -> Dict[str, object]:
    """Read every written key back through the router and judge the
    final values; an unreadable key counts as absent."""

    def read(key: bytes) -> Optional[bytes]:
        try:
            return cluster.get(key, thread)
        except (ClusterError, StorageError):
            return None

    illegal = list(ledger.illegal_finals(read))
    lost = [key for key, final, _legal in illegal if final is None]
    return {
        "keys_checked": len(ledger.keys()),
        "lost_acked": len(lost),
        "wrong_value": len(illegal) - len(lost),  # stale or foreign
        "lost_keys_sample": [k.decode("latin-1") for k in lost[:5]],
    }


@dataclass
class ClusterRunResult:
    """A normal :class:`RunResult` plus cluster-layer outcomes."""

    run: RunResult
    ops_ok: int = 0
    ops_shed: int = 0
    ops_failed: int = 0
    audit: Dict[str, object] = field(default_factory=dict)
    recovery_seconds: Optional[float] = None
    killed_shard: Optional[int] = None
    # Live-resharding outcomes (RebalancePlan runs only).
    rebalanced_shard: Optional[int] = None
    rebalance: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.run.throughput


def _slow_injections(cluster: PrismCluster) -> int:
    return sum(
        s.store.injector.slow_injections
        for s in cluster.shards
        if s.store.injector is not None
    )


def run_cluster_workload(
    cluster: PrismCluster,
    spec: WorkloadSpec,
    num_ops: int,
    num_keys: int,
    clients_per_shard: int = 4,
    value_size: int = 1024,
    theta: float = 0.99,
    seed: int = 2,
    kill_plan: Optional[KillPlan] = None,
    gray_plan: Optional[GrayPlan] = None,
    rebalance_plan: Optional[RebalancePlan] = None,
    collect_metrics: bool = True,
    audit: bool = True,
) -> ClusterRunResult:
    """Execute ``num_ops`` of ``spec`` against a preloaded cluster.

    Client threads number ``clients_per_shard × num_shards`` and all
    drive the router (hashing spreads their keys over every shard).
    Failed operations (shard overloaded / unavailable mid-failover)
    are counted, not raised; the run continues, as real clients would.
    Plans due at the same op fire kill, then gray, then rebalance.
    """
    if num_ops < 1:
        raise ValueError(f"need at least one op: {num_ops}")
    num_threads = clients_per_shard * len(cluster.shards)
    threads = make_threads(cluster, num_threads, "client")
    streams = op_streams(spec, num_keys, num_threads, value_size, theta, seed)
    actions: List[Action] = [
        (int(num_ops * plan.at_fraction), partial(plan.fire, cluster))
        for plan in (kill_plan, gray_plan, rebalance_plan)
        if plan is not None
    ]
    read_split = None
    if kill_plan is not None or rebalance_plan is not None:
        # Due at the op count, so after the last op: drain the remaining
        # copy stream (still at the bandwidth budget) inside the window,
        # while the run's metrics registry is installed, so the
        # recovery/cutover/duration gauges land in this run's JSON.
        actions.append((num_ops, lambda _thread: cluster.finish_rebalance()))
    if rebalance_plan is not None:
        # Phase-split read latencies for the elasticity gate: reads while
        # the migration is in flight vs. steady-state reads around it.
        reads = {
            False: LatencyRecorder("read_steady"),
            True: LatencyRecorder("read_migrating"),
        }
        read_split = lambda: reads[cluster.rebalancing].samples
    registry: Optional[MetricsRegistry] = None
    restore = None
    if collect_metrics:
        registry = MetricsRegistry()
        restore = cluster.metrics
        cluster.metrics = registry
        if cluster._health is not None:
            # The monitor's breakers hold their own registry reference;
            # keep them writing into this run's registry, and pre-touch
            # the defense counters so they appear in the metrics JSON
            # even when a healthy run never fires them.
            cluster._health.set_metrics(registry)
            for name in (
                "hedge.fired", "hedge.won", "hedge.wasted",
                "breaker.opened", "breaker.closed",
            ):
                registry.counter(name).inc(0)
        if gray_plan is not None:
            registry.counter("fault.slow_injections").inc(0)
    slow_before = _slow_injections(cluster) if gray_plan is not None else 0
    ledger = WriteLedger()
    try:
        window = closed_loop(
            cluster,
            threads,
            split_ops(streams, num_ops),
            registry=registry,
            actions=actions,
            shed_errors=(ShardOverloadedError,),
            failed_errors=(ClusterError, StorageError, SimulatedCrash),
            ledger=ledger,
            read_split=read_split,
        )
    finally:
        if restore is not None:
            cluster.metrics = restore
            if cluster._health is not None:
                cluster._health.set_metrics(restore)
    events = window_events(cluster, window.start)

    def last(kind: str, action: str) -> Optional[Dict[str, object]]:
        """The window's last ``kind`` event of migration ``action``."""
        found = [e for e in events if e["kind"] == kind and e["action"] == action]
        return found[-1] if found else None

    ok = window.ops - window.shed - window.failed
    gauges: Dict[str, float] = {
        "ops_ok": ok, "ops_shed": window.shed, "ops_failed": window.failed,
    }
    # The fail migration's finish set ``cluster.recovery_seconds``.
    recovered = last("rebalance_done", ACTION_FAIL)
    recovery = float(recovered["duration"]) if recovered else None
    reb_shard: Optional[int] = None
    reb_report: Dict[str, object] = {}
    if rebalance_plan is not None:
        action = rebalance_plan.action
        reb_shard = last("rebalance_started", action)["shard"]
        done = last("rebalance_done", action)
        reb_report = {
            "action": action,
            "shard": reb_shard,
            "completed": done is not None,
            "aborted": last("rebalance_aborted", action) is not None,
            "read_p99_steady": reads[False].p99(),
            "read_p99_migrating": reads[True].p99(),
            "reads_migrating": len(reads[True].samples),
        }
        gauges["rebalance.read_p99_steady_us"] = reads[False].p99()
        gauges["rebalance.read_p99_migrating_us"] = reads[True].p99()
        if done:
            reb_report["keys_moved"] = int(done["keys_moved"])
            reb_report["keys_lost"] = int(done["keys_lost"])
            reb_report["cutover_seconds"] = float(done["cutover_seconds"])
            reb_report["time_to_rebalance"] = float(done["duration"])
            gauges["rebalance.time_to_rebalance_seconds"] = float(done["duration"])
    audit_report: Dict[str, object] = {}
    if audit:
        # Converge first (drain async replication), then read back on a
        # fresh thread starting after every client finished — at the
        # last client's own clock: start + duration can round one ulp
        # below it, where a queue-depth cap still sees that op in flight.
        cluster.flush()
        audit_thread = VThread(num_threads, cluster.clock, name="auditor")
        audit_thread.now = max([t.now for t in threads])
        audit_report = audit_ledger(ledger, cluster, audit_thread)
        for key, value in audit_report.items():
            if isinstance(value, (int, float)):
                gauges[f"audit.{key}"] = float(value)
    if registry is not None and gray_plan is not None:
        registry.counter("fault.slow_injections").inc(
            _slow_injections(cluster) - slow_before
        )
    return ClusterRunResult(
        run=finish_run(cluster, spec.name, window, registry, gauges),
        ops_ok=ok,
        ops_shed=window.shed,
        ops_failed=window.failed,
        audit=audit_report,
        recovery_seconds=recovery,
        killed_shard=kill_plan.shard_id if kill_plan else None,
        rebalanced_shard=reb_shard,
        rebalance=reb_report,
    )
