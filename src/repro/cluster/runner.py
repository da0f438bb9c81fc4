"""Cluster workload execution: YCSB through the router, with an
acked-write ledger and optional mid-run shard failure.

:func:`run_cluster_workload` is the cluster-aware sibling of
:func:`repro.bench.runner.run_workload`.  It drives the same
:class:`OpStream` mixes through :class:`PrismCluster` with
``clients_per_shard`` virtual client threads per shard (client
parallelism scales with the cluster), and adds two things the
single-store driver has no use for:

* a :class:`~repro.faults.ledger.WriteLedger` recording every write
  as a virtual-time interval ``(start, end, value)`` — acknowledged,
  or *interrupted* (raised mid-operation: may or may not have
  applied).  After the run :func:`audit_ledger` reads every key back
  and judges it by the ledger's one rule; an acked write that
  disappears entirely is ``lost_acked`` — the number the RF≥2 quorum
  acceptance gate requires to be zero;
* a :class:`KillPlan` that fails a chosen shard once a chosen fraction
  of operations has executed, exercising failover under load.

Ledger bookkeeping never reads or advances the virtual clock beyond
what the operations themselves do, so a ledgered run is bit-identical
to an unledgered one.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.runner import RunResult
from repro.cluster.errors import ClusterError, ShardOverloadedError
from repro.cluster.router import DEFAULT_REBALANCE_BANDWIDTH, PrismCluster
from repro.faults.errors import StorageError
from repro.faults.ledger import WriteLedger
from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import LatencyRecorder, Timeline
from repro.sim.vthread import VThread
from repro.storage.crash import SimulatedCrash
from repro.workloads.generator import OpStream
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


@dataclass
class GrayPlan:
    """Gray-fail ``shard_id`` mid-run: latency-inflate its devices
    (no errors) after ``at_fraction`` of the ops have run."""

    shard_id: int
    at_fraction: float = 0.25
    multiplier: float = 10.0
    add_latency: float = 0.0
    duration: float = float("inf")
    stall_interval: float = 0.0
    stall_duration: float = 0.0
    stall_penalty: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction < 1.0:
            raise ValueError(
                f"gray fraction must be in [0, 1): {self.at_fraction}"
            )


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

    def summary(self) -> str:
        extra = ""
        if self.killed_shard is not None:
            extra = (
                f"  [killed shard {self.killed_shard}; "
                f"recovery {self.recovery_seconds or 0.0:.6f}s; "
                f"lost acked {self.audit.get('lost_acked', '?')}]"
            )
        return self.run.summary() + extra


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
    timeline_bucket: Optional[float] = None,
    collect_metrics: bool = True,
    audit: bool = True,
) -> ClusterRunResult:
    """Execute ``num_ops`` of ``spec`` against a preloaded cluster.

    Client threads number ``clients_per_shard × num_shards`` and all
    drive the router (hashing spreads their keys over every shard).
    Failed operations (shard overloaded / unavailable mid-failover)
    are counted, not raised; the run continues, as real clients would.
    """
    if num_ops < 1:
        raise ValueError(f"need at least one op: {num_ops}")
    num_threads = clients_per_shard * len(cluster.shards)
    now = cluster.clock.now
    threads: List[VThread] = []
    for tid in range(num_threads):
        thread = VThread(tid, cluster.clock, name=f"client-{tid}")
        thread.now = now
        threads.append(thread)
    mixed_seed = zlib.crc32(f"{seed}:{spec.name}".encode())
    streams = [
        OpStream(spec, num_keys, value_size=value_size, theta=theta,
                 seed=mixed_seed + i)
        for i in range(num_threads)
    ]
    base = num_ops // num_threads
    extra = num_ops % num_threads
    iters = [
        streams[i].ops(base + (1 if i < extra else 0)) for i in range(num_threads)
    ]
    latency = LatencyRecorder("all")
    per_kind: Dict[str, LatencyRecorder] = {}
    timeline = Timeline(timeline_bucket) if timeline_bucket else None
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
    ledger = WriteLedger()
    kill_at = int(num_ops * kill_plan.at_fraction) if kill_plan else None
    killed = False
    gray_at = int(num_ops * gray_plan.at_fraction) if gray_plan else None
    grayed = False
    reb_at = int(num_ops * rebalance_plan.at_fraction) if rebalance_plan else None
    rebalanced = False
    reb_shard: Optional[int] = None
    # Phase-split read latencies for the elasticity gate: reads while
    # the migration is in flight vs. steady-state reads around it.
    reads_steady = LatencyRecorder("read_steady") if rebalance_plan else None
    reads_migrating = LatencyRecorder("read_migrating") if rebalance_plan else None
    slow_before = sum(
        s.store.injector.slow_injections
        for s in cluster.shards
        if s.store.injector is not None
    )
    ok = shed = failed = 0
    start = max(t.now for t in threads)
    ssd_before = cluster.ssd_bytes_written()
    put_before = cluster.bytes_put
    executed = 0
    # Per-op metric sinks resolved once: ``registry.histogram(...)`` is
    # a prefix concat + get-or-create lookup, and the per-kind label an
    # f-string — per-op that was a visible repro.obs CPU row.
    hist_all = registry.histogram("op.all") if registry is not None else None
    kind_hists: Dict[str, object] = {}
    heap = [(t.now, i) for i, t in enumerate(threads)]
    heapq.heapify(heap)
    live = set(range(num_threads))
    try:
        while live:
            _, i = heapq.heappop(heap)
            if i not in live:
                continue
            thread = threads[i]
            op = next(iters[i], None)
            if op is None:
                live.discard(i)
                continue
            if kill_at is not None and not killed and executed >= kill_at:
                killed = True
                cluster.kill_shard(kill_plan.shard_id, thread.now)
            if gray_at is not None and not grayed and executed >= gray_at:
                grayed = True
                cluster.slow_shard(
                    gray_plan.shard_id,
                    thread.now,
                    multiplier=gray_plan.multiplier,
                    add_latency=gray_plan.add_latency,
                    duration=gray_plan.duration,
                    stall_interval=gray_plan.stall_interval,
                    stall_duration=gray_plan.stall_duration,
                    stall_penalty=gray_plan.stall_penalty,
                )
            if reb_at is not None and not rebalanced and executed >= reb_at:
                rebalanced = True
                if rebalance_plan.action == "add":
                    reb_shard = cluster.add_shard(
                        at=thread.now, bandwidth=rebalance_plan.bandwidth
                    )
                else:
                    reb_shard = rebalance_plan.shard_id
                    cluster.remove_shard(
                        reb_shard,
                        at=thread.now,
                        bandwidth=rebalance_plan.bandwidth,
                    )
            before = thread.now
            migrating = cluster.rebalancing
            is_write = op.kind in ("update", "insert", "delete")
            value = op.value if op.kind in ("update", "insert") else None
            try:
                if op.kind == "read":
                    cluster.get(op.key, thread)
                elif op.kind in ("update", "insert"):
                    cluster.put(op.key, op.value, thread)
                elif op.kind == "scan":
                    cluster.scan(op.key, op.scan_length, thread)
                elif op.kind == "delete":
                    cluster.delete(op.key, thread)
                else:
                    raise ValueError(f"unknown op kind: {op.kind}")
            except ShardOverloadedError:
                # Shed before any work: definitively not applied, so a
                # shed write is neither acked nor in doubt.
                shed += 1
            except (ClusterError, StorageError, SimulatedCrash):
                failed += 1
                if is_write:
                    ledger.interrupt(op.key, before, thread.now, value)
            else:
                ok += 1
                if is_write:
                    ledger.ack(op.key, before, thread.now, value)
            elapsed = thread.now - before
            latency.record(elapsed)
            kind_rec = per_kind.get(op.kind)
            if kind_rec is None:
                kind_rec = per_kind[op.kind] = LatencyRecorder(op.kind)
            kind_rec.record(elapsed)
            if reads_steady is not None and op.kind == "read":
                (reads_migrating if migrating else reads_steady).record(elapsed)
            if hist_all is not None:
                hist_all.record(elapsed)
                kind_hist = kind_hists.get(op.kind)
                if kind_hist is None:
                    kind_hist = kind_hists[op.kind] = registry.histogram(
                        f"op.{op.kind}"
                    )
                kind_hist.record(elapsed)
            if timeline is not None:
                timeline.record(thread.now - start)
            executed += 1
            heapq.heappush(heap, (thread.now, i))
        if rebalanced:
            # Drain the remaining copy stream (still at the bandwidth
            # budget) while the run's metrics registry is installed, so
            # the cutover/duration gauges land in this run's JSON.
            cluster.finish_rebalance()
    finally:
        if restore is not None:
            cluster.metrics = restore
            if cluster._health is not None:
                cluster._health.set_metrics(restore)
    duration = max(t.now for t in threads) - start
    new_put = cluster.bytes_put - put_before
    new_ssd = cluster.ssd_bytes_written() - ssd_before
    waf = (new_ssd / new_put) if new_put else 0.0
    recovery: Optional[float] = None
    rebuilds = cluster.events.of_kind("rebuild")
    if rebuilds:
        recovery = float(rebuilds[-1]["duration"])
    reb_report: Dict[str, object] = {}
    if rebalanced:
        done = [
            e for e in cluster.events.of_kind("rebalance_done")
            if e["at"] >= start
        ]
        aborted = [
            e for e in cluster.events.of_kind("rebalance_aborted")
            if e["at"] >= start
        ]
        reb_report = {
            "action": rebalance_plan.action,
            "shard": reb_shard,
            "completed": bool(done),
            "aborted": bool(aborted),
            "read_p99_steady": reads_steady.p99(),
            "read_p99_migrating": reads_migrating.p99(),
            "reads_migrating": len(reads_migrating.samples),
        }
        if done:
            reb_report["keys_moved"] = int(done[-1]["keys_moved"])
            reb_report["keys_lost"] = int(done[-1]["keys_lost"])
            reb_report["cutover_seconds"] = float(done[-1]["cutover_seconds"])
            reb_report["time_to_rebalance"] = float(done[-1]["duration"])
    audit_report: Dict[str, object] = {}
    if audit:
        # Converge first (drain async replication), then read back on a
        # fresh thread starting after every client finished.
        cluster.flush()
        audit_thread = VThread(num_threads, cluster.clock, name="auditor")
        audit_thread.now = start + duration
        audit_report = audit_ledger(ledger, cluster, audit_thread)
    metrics_dict: Optional[Dict[str, object]] = None
    if registry is not None:
        if gray_plan is not None:
            slow_after = sum(
                s.store.injector.slow_injections
                for s in cluster.shards
                if s.store.injector is not None
            )
            registry.counter("fault.slow_injections").inc(
                slow_after - slow_before
            )
        registry.gauge("ops").set(executed)
        registry.gauge("duration_s").set(duration)
        if duration > 0:
            registry.gauge("throughput_ops").set(executed / duration)
        registry.gauge("waf").set(waf)
        registry.gauge("ops_ok").set(ok)
        registry.gauge("ops_shed").set(shed)
        registry.gauge("ops_failed").set(failed)
        if recovery is not None:
            registry.gauge("cluster.recovery_seconds").set(recovery)
        if rebalanced:
            registry.gauge("rebalance.read_p99_steady_us").set(
                reads_steady.p99()
            )
            registry.gauge("rebalance.read_p99_migrating_us").set(
                reads_migrating.p99()
            )
            if "time_to_rebalance" in reb_report:
                registry.gauge("rebalance.time_to_rebalance_seconds").set(
                    float(reb_report["time_to_rebalance"])
                )
        for key, value in audit_report.items():
            if isinstance(value, (int, float)):
                registry.gauge(f"audit.{key}").set(float(value))
        for key, value in cluster.stats().items():
            registry.gauge(f"stats.{key}").set(value)
        for event in cluster.events:
            if event["at"] >= start:
                registry.events(str(event["kind"])).events.append(dict(event))
        metrics_dict = registry.to_dict()
    run = RunResult(
        store_name=cluster.name,
        workload=spec.name,
        ops=executed,
        duration=duration,
        latency=latency,
        per_kind=per_kind,
        waf=waf,
        stats=cluster.stats(),
        timeline=timeline,
        metrics=metrics_dict,
    )
    return ClusterRunResult(
        run=run,
        ops_ok=ok,
        ops_shed=shed,
        ops_failed=failed,
        audit=audit_report,
        recovery_seconds=recovery,
        killed_shard=kill_plan.shard_id if (kill_plan and killed) else None,
        rebalanced_shard=reb_shard,
        rebalance=reb_report,
    )
