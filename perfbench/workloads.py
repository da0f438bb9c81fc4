"""The four workloads: what each one loads, and how it is built,
preloaded, driven and checked through the program's public entry
points.  perfbench/README.md gives the reason for every choice.

Op counts here are the full-size ones (``--scale 1``).  The driver's
operating point, ``--seconds 10``, is scale 1/3 — see ``cli.scale_for``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import build_prism
from repro.cluster.router import ClusterConfig, PrismCluster
from repro.cluster.runner import run_cluster_workload
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.faults.injector import FaultConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim.vthread import VThread
from repro.workloads.generator import InsertSequence, make_key
from repro.workloads.ycsb import WORKLOADS as YCSB, WorkloadSpec

MB = 1024 * 1024
PRELOAD_SEED = 1
PRELOAD_THREADS = 4
NUM_SHARDS = 4

# Read-only with uniform keys: every key is equally likely, so the
# hit ratio is the cache:dataset ratio and nothing else.
READ_ONLY_UNIFORM = WorkloadSpec(
    name="C-uniform", read=1.0, distribution="uniform",
    description="Read-only, uniform keys",
)


@dataclass(frozen=True)
class Workload:
    name: str
    keys: int
    value_size: int
    vthreads: int  # closed-loop virtual clients
    spec: WorkloadSpec
    ops: int  # measured window at --scale 1
    warmup_ops: int  # unrecorded, before the window, at --scale 1
    build: Callable[[bool], object]  # phase metrics on? -> empty store
    cluster: bool = False
    theta: float = 0.99
    profile_share: int = 6  # the profiled window runs ops / profile_share


def _build_ycsb_a_gc(metrics: bool) -> Prism:
    # The Fig. 17 configuration: Value Storage squeezed to 2x the
    # dataset per SSD and an early GC trigger, so GC has to run.
    data = 20_000 * 1024
    return build_prism(
        num_threads=4, num_ssds=2, dataset_bytes=data, expected_keys=20_000,
        ssd_capacity=2 * data, gc_free_threshold=0.3, enable_metrics=metrics,
    )


def _build_ycsb_c_cold(metrics: bool) -> Prism:
    # One SSD so 32 readers saturate a single read channel.
    return build_prism(
        num_threads=32, num_ssds=1, dataset_bytes=4_000 * 16 * 1024,
        expected_keys=4_000, enable_metrics=metrics,
    )


def _build_ycsb_e_scan(metrics: bool) -> Prism:
    return build_prism(
        num_threads=4, dataset_bytes=20_000 * 1024, expected_keys=20_000,
        enable_metrics=metrics,
    )


def _build_cluster_b_rf2(metrics: bool) -> PrismCluster:
    def shard(shard_id: int, clock) -> Prism:
        # The router's default shard (default PrismConfig, zero-rate
        # fault injector) plus the DRAM read cache.
        config = PrismConfig(
            faults=FaultConfig(seed=9000 + shard_id),
            enable_read_cache=True,
            read_cache_capacity=8 * MB,
        )
        registry = MetricsRegistry(prefix=f"shard{shard_id}/") if metrics else None
        return Prism(config, metrics=registry, clock=clock)

    return PrismCluster(
        ClusterConfig(
            num_shards=NUM_SHARDS, replication_factor=2,
            replication_mode="quorum", read_policy="spread",
            hot_key_threshold=8, max_queue_depth=64,
        ),
        shard_factory=shard,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # Warm-up runs past GC onset (~72k ops into YCSB-A at this
        # capacity), so the window sees levelled write amplification.
        Workload("ycsb_a_gc", 20_000, 1024, 4, YCSB["A"], 300_000, 240_000,
                 _build_ycsb_a_gc),
        Workload("ycsb_c_cold", 4_000, 16 * 1024, 32, READ_ONLY_UNIFORM,
                 200_000, 12_000, _build_ycsb_c_cold),
        # Few, long ops whose cost follows the scan length drawn: calls
        # per op need a larger share of them to average out.
        Workload("ycsb_e_scan", 20_000, 1024, 4, YCSB["E"], 12_000, 1_200,
                 _build_ycsb_e_scan, profile_share=4),
        Workload("cluster_b_rf2", 20_000, 1024, 8, YCSB["B"], 200_000, 60_000,
                 _build_cluster_b_rf2, cluster=True),
    )
}


def load(w: Workload, store) -> None:
    """The LOAD phase: every key once, in shuffled order."""
    preload(store, w.keys, w.value_size, num_threads=PRELOAD_THREADS,
            seed=PRELOAD_SEED)


@dataclass
class Window:
    run: RunResult
    failed_ops: int = 0  # raised or shed
    audit_failures: int = 0  # acked writes lost or read back wrong


def drive(
    w: Workload, store, ops: int, seed: int,
    collect_metrics: bool = False, audit: bool = False,
) -> Window:
    """``ops`` operations through the program's own closed-loop driver."""
    if not w.cluster:
        # The single-store driver lets an op's exception propagate: a
        # failed op ends the benchmark run.
        return Window(run_workload(
            store, w.spec, ops, w.keys, w.vthreads, w.value_size, w.theta,
            seed=seed, collect_metrics=collect_metrics,
        ))
    result = run_cluster_workload(
        store, w.spec, ops, w.keys,
        clients_per_shard=w.vthreads // NUM_SHARDS, value_size=w.value_size,
        theta=w.theta, seed=seed, collect_metrics=collect_metrics, audit=audit,
    )
    report = result.audit
    return Window(
        result.run,
        failed_ops=result.ops_shed + result.ops_failed,
        audit_failures=int(report.get("lost_acked", 0))
        + int(report.get("wrong_value", 0)),
    )


def preloaded_keys(w: Workload) -> List[bytes]:
    """The keys :func:`load` inserted, from the same seeded sequence.

    ``preload`` shuffles in windows of 4,096 and stops after ``keys``
    inserts, so when ``keys`` is not a multiple of 4,096 the loaded set
    is not ``make_key(0..keys-1)``: part of the last window is missing
    and part of it lies beyond ``keys`` (README, findings).
    """
    seq = InsertSequence(0, shuffle_span=min(w.keys, 4096), seed=PRELOAD_SEED)
    return [make_key(seq.next()) for _ in range(w.keys)]


def read_back(w: Workload, store) -> Tuple[int, int]:
    """Read every preloaded key; returns ``(checked, bad)``.

    An update's version is drawn by the generator, so the exact bytes
    are not known here; what every ``make_value`` output has is the
    right length and one 4-byte unit repeated, and a lost, torn,
    truncated or misdirected record breaks one of the two.
    """
    thread = VThread(0, store.clock, name="perfbench-verify")
    thread.now = store.clock.now
    reps = -(-w.value_size // 4)
    bad = 0
    for key in preloaded_keys(w):
        value = store.get(key, thread)
        if (
            value is None
            or len(value) != w.value_size
            or bytes(value) != (bytes(value[:4]) * reps)[: w.value_size]
        ):
            bad += 1
    return w.keys, bad
