"""Canonical experiment definitions: one function per paper figure/table.

Each function builds the stores at the paper's cost-parity
configuration (scaled), runs the workloads, and returns a structured
result; the ``benchmarks/`` suite calls these and prints paper-style
tables next to the values the paper reports.

Scale: ``REPRO_SCALE`` (env var, default 1.0) multiplies dataset and
op counts.  Results are virtual-time metrics, so ratios — not absolute
Kops — are the comparable quantities.

How to add an experiment: write one *unit* — a module-level function
of picklable arguments that builds its own store and returns one
point's result (:func:`mix_unit` already is that for "these workloads
on this store"); one public *run* function that takes its sizes from
:func:`sizing`, fans the unit out over its points with :func:`sweep`
and returns the nested dict; and one row in ``EXPERIMENTS``
(``repro/bench/__main__.py``) naming the run function, its ``--smoke``
sizing, a printer and the gates.  The CLI, ``figs``, ``list``, CI's
``bench-smoke`` job and the digest tests all read that row.
"""

from __future__ import annotations

import os
from itertools import product
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import build_kvell, build_prism, build_store
from repro.core.prism import Prism
from repro.parallel import parallel_map
from repro.workloads import NUTANIX, WORKLOADS, WorkloadSpec

UPDATE_ONLY = WorkloadSpec(name="UPDATE", update=1.0)

MB = 1024**2


def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(64, int(n * scale()))


# Default experiment sizing (multiplied by REPRO_SCALE).
NUM_KEYS = 12_000
NUM_OPS = 12_000
NUM_THREADS = 8
VALUE_SIZE = 1024
SCAN_OPS_DIVISOR = 5  # scans touch ~50 values each; fewer ops suffice

# Fig. 7's four stores, in the figure's order.
STANDARD_STORES = ("Prism", "KVell", "MatrixKV", "RocksDB-NVM")


def sizing(
    num_keys: Optional[int],
    num_ops: Optional[int],
    keys: int = NUM_KEYS,
    ops: int = NUM_OPS,
) -> Tuple[int, int]:
    """``(num_keys, num_ops)``: a size the caller gave stands; ``None``
    takes the experiment's default (``keys`` / ``ops``) times
    ``REPRO_SCALE``."""
    return (
        scaled(keys) if num_keys is None else num_keys,
        scaled(ops) if num_ops is None else num_ops,
    )


def sweep(
    unit: Callable,
    points: Iterable[tuple],
    fixed: tuple = (),
    pivot: bool = False,
) -> Dict:
    """Run ``unit(*point, *fixed)`` at every point — one
    :func:`parallel_map`, so ``--jobs`` spreads the points over worker
    processes — and nest the results by the point's elements, in point
    order: ``out[a][b] = unit(a, b, *fixed)``.  A grid is
    ``itertools.product`` of its axes.

    ``unit`` must be a module-level function and every argument
    picklable.  With ``pivot``, the unit returns a dict (one entry per
    workload) and that level goes above the last axis:
    ``out[a][workload][b]``, the shape of a figure with one curve per
    (store, workload) along ``b``.
    """
    points = [tuple(point) for point in points]
    results = parallel_map(unit, [point + tuple(fixed) for point in points])
    out: Dict = {}
    for point, result in zip(points, results):
        cells = [(point, result)]
        if pivot:
            cells = [
                (point[:-1] + (key, point[-1]), value)
                for key, value in result.items()
            ]
        for path, value in cells:
            node = out
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
    return out


def mix_unit(
    name: str,
    workloads: Sequence[str],
    num_keys: int,
    num_ops: int,
    num_threads: int,
    theta: float = 0.99,
    dataset_bytes: Optional[int] = None,
    num_ssds: int = 2,
    **prism_overrides,
) -> Dict[str, RunResult]:
    """The workload-series unit (spawn-safe): a fresh store built by
    name (:func:`~repro.bench.stores.build_store`) at cost parity for
    the dataset, the dataset loaded — as a measured LOAD run when the
    series asks for one, unrecorded otherwise — then the other
    workloads in order on that one store, each after a warm-up of half
    its length."""
    if dataset_bytes is None:
        dataset_bytes = num_keys * VALUE_SIZE
    prism_overrides.setdefault("expected_keys", num_keys * 3)
    store = build_store(
        name, dataset_bytes, num_threads, num_ssds, **prism_overrides
    )
    if name == "SLM-DB":
        num_threads = 1  # single-threaded, like open-source SLM-DB (§7.4)
    results: Dict[str, RunResult] = {}
    if "LOAD" in workloads:
        results["LOAD"] = run_workload(
            store, WORKLOADS["LOAD"], num_keys, num_keys, num_threads,
            VALUE_SIZE, theta,
        )
    else:
        preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    for workload in workloads:
        if workload == "LOAD":
            continue
        spec = WORKLOADS[workload]
        ops = num_ops if spec.scan == 0 else max(200, num_ops // SCAN_OPS_DIVISOR)
        results[workload] = run_workload(
            store,
            spec,
            ops,
            num_keys,
            num_threads,
            VALUE_SIZE,
            theta,
            warmup_ops=ops // 2,
        )
    return results


# ----------------------------------------------------------------------
# Figure 7 + Table 3: YCSB throughput and latency, four stores
# ----------------------------------------------------------------------
def ycsb_comparison(
    workloads: Sequence[str] = ("LOAD", "A", "B", "C", "D", "E"),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
    stores: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Fig. 7 / Table 3: Prism vs KVell vs MatrixKV vs RocksDB-NVM."""
    num_keys, num_ops = sizing(num_keys, num_ops)
    names = [k for k in STANDARD_STORES if stores is None or k in stores]
    return sweep(
        mix_unit,
        product(names),
        (tuple(workloads), num_keys, num_ops, num_threads),
    )


# ----------------------------------------------------------------------
# Figure 8 + Table 4: Prism vs SLM-DB, single thread
# ----------------------------------------------------------------------
def slmdb_comparison(
    workloads: Sequence[str] = ("LOAD", "A", "B", "C", "D", "E"),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Fig. 8 / Table 4.  The paper gives both stores 64 MB buffers and
    8 M keys; scaled here, single-threaded like open-source SLM-DB."""
    num_keys, num_ops = sizing(num_keys, num_ops, 8_000, 6_000)
    return sweep(
        _slmdb_unit,
        product(("Prism", "SLM-DB")),
        (tuple(workloads), num_keys, num_ops),
    )


def _slmdb_unit(
    name: str, workloads: Tuple[str, ...], num_keys: int, num_ops: int
) -> Dict[str, RunResult]:
    return mix_unit(
        name, workloads, num_keys, num_ops, 1,
        svc_capacity=1 * MB, pwb_total=1 * MB,
    )


# ----------------------------------------------------------------------
# Figure 9: skew sensitivity
# ----------------------------------------------------------------------
def skew_sweep(
    thetas: Sequence[float] = (0.5, 0.9, 0.99, 1.2, 1.5),
    workloads: Sequence[str] = ("A", "B", "C", "D", "E"),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
    stores: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, Dict[float, RunResult]]]:
    """Fig. 9: relative throughput vs Zipfian coefficient.

    Returns results[store][workload][theta]; normalize to theta=0.99
    like the paper."""
    num_keys, num_ops = sizing(num_keys, num_ops, 8_000, 8_000)
    names = [
        k for k in STANDARD_STORES + ("SLM-DB",)
        if stores is None or k in stores
    ]
    return sweep(
        _skew_unit,
        product(names, thetas),
        (tuple(workloads), num_keys, num_ops, num_threads),
        pivot=True,
    )


def _skew_unit(name: str, theta: float, *series) -> Dict[str, RunResult]:
    """One (store, theta) cell of the skew sweep (fresh store)."""
    return mix_unit(name, *series, theta=theta)


# ----------------------------------------------------------------------
# Figure 10: large dataset + Nutanix production mix
# ----------------------------------------------------------------------
def large_dataset(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, Dict[str, RunResult]]:
    """Fig. 10a: the 1-billion-pair run, scaled 10x over the default
    dataset so cache:data ratios shrink the way the paper's did."""
    num_keys, num_ops = sizing(num_keys, num_ops, 40_000, 10_000)
    # Cache budgets stay at the default (small) dataset's size: the
    # dataset outgrew the hardware, exactly like 1 TB vs 36 GB.
    small = scaled(NUM_KEYS) * VALUE_SIZE
    return sweep(
        _large_dataset_unit,
        product(("Prism", "KVell")),
        (small, num_keys, num_ops, num_threads),
    )


def _large_dataset_unit(
    name: str, small: int, num_keys: int, num_ops: int, num_threads: int
) -> Dict[str, RunResult]:
    return mix_unit(
        name, ("A", "B", "C", "D", "E"), num_keys, num_ops, num_threads,
        dataset_bytes=small, expected_keys=num_keys * 2,
    )


def nutanix_run(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, RunResult]:
    """Fig. 10b: the Nutanix production mix, Prism vs KVell."""
    num_keys, num_ops = sizing(num_keys, num_ops)
    return sweep(
        _nutanix_unit,
        product(("Prism", "KVell")),
        (num_keys, num_ops, num_threads),
    )


def _nutanix_unit(
    name: str, num_keys: int, num_ops: int, num_threads: int
) -> RunResult:
    store = build_store(
        name, num_keys * VALUE_SIZE, num_threads, expected_keys=num_keys * 3
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    return run_workload(
        store,
        NUTANIX,
        num_ops,
        num_keys,
        num_threads,
        VALUE_SIZE,
        warmup_ops=num_ops // 2,
    )


# ----------------------------------------------------------------------
# Figure 11: thread combining vs timeout-based async IO
# ----------------------------------------------------------------------
def thread_combining_sweep(
    queue_depths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, Dict[int, RunResult]]:
    """Fig. 11: YCSB-C throughput/latency vs queue depth, for
    opportunistic thread combining (TC) and the 100 us timeout
    strawman (TA)."""
    num_keys, num_ops = sizing(num_keys, num_ops, ops=8_000)
    return sweep(
        _combining_unit,
        product(("TC", "TA"), queue_depths),
        (num_keys, num_ops, num_threads),
    )


def _combining_unit(
    mode: str, qd: int, num_keys: int, num_ops: int, num_threads: int
) -> RunResult:
    store = build_prism(
        num_threads=num_threads,
        dataset_bytes=num_keys * VALUE_SIZE,
        expected_keys=num_keys * 2,
        read_batching=mode.lower(),
        queue_depth=qd,
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    return run_workload(
        store,
        WORKLOADS["C"],
        num_ops,
        num_keys,
        num_threads,
        VALUE_SIZE,
        warmup_ops=num_ops // 4,
    )


# ----------------------------------------------------------------------
# Figure 12: SSD-level write amplification vs skew
# ----------------------------------------------------------------------
def waf_sweep(
    thetas: Sequence[float] = (0.5, 0.99, 1.2),
    value_sizes: Sequence[int] = (512, 1024),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[int, Dict[str, Dict[float, float]]]:
    """Fig. 12: update-only WAF for Prism / KVell / MatrixKV."""
    num_keys, num_ops = sizing(num_keys, num_ops, 8_000, 16_000)
    return sweep(
        _waf_unit,
        product(value_sizes, ("Prism", "KVell", "MatrixKV"), thetas),
        (num_keys, num_ops, num_threads),
    )


def _waf_unit(
    value_size: int,
    name: str,
    theta: float,
    num_keys: int,
    num_ops: int,
    num_threads: int,
) -> float:
    store = build_store(
        name, num_keys * value_size, num_threads, expected_keys=num_keys * 2
    )
    preload(store, num_keys, value_size, num_threads=num_threads)
    ssd_before = store.ssd_bytes_written()
    put_before = store.bytes_put
    run_workload(
        store,
        UPDATE_ONLY,
        num_ops,
        num_keys,
        num_threads,
        value_size,
        theta=theta,
    )
    # Include the drain: buffered data eventually reaches flash (and
    # triggers the compactions the paper's long-running measurement
    # captured).
    store.flush()
    app = store.bytes_put - put_before
    ssd = store.ssd_bytes_written() - ssd_before
    return ssd / app if app else 0.0


# ----------------------------------------------------------------------
# Figures 13–14: number of SSDs
# ----------------------------------------------------------------------
def ssd_scaling(
    ssd_counts: Sequence[int] = (1, 2, 4, 8),
    workloads: Sequence[str] = ("A", "C"),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, Dict[str, Dict[int, RunResult]]]:
    """Figs. 13–14: throughput and latency vs aggregated SSDs."""
    num_keys, num_ops = sizing(num_keys, num_ops, ops=8_000)
    return sweep(
        _ssd_scaling_unit,
        product(("Prism", "KVell"), ssd_counts),
        (tuple(workloads), num_keys, num_ops, num_threads),
        pivot=True,
    )


def _ssd_scaling_unit(
    name: str,
    n: int,
    workloads: Tuple[str, ...],
    num_keys: int,
    num_ops: int,
    num_threads: int,
) -> Dict[str, RunResult]:
    return mix_unit(
        name, workloads, num_keys, num_ops, num_threads,
        num_ssds=n, expected_keys=num_keys * 2,
    )


# ----------------------------------------------------------------------
# Figure 15: PWB and SVC sizing
# ----------------------------------------------------------------------
def buffer_size_sweep(
    pwb_sizes: Sequence[int] = (1 * MB, 2 * MB, 4 * MB, 8 * MB, 16 * MB),
    svc_sizes: Sequence[int] = (1 * MB, 2 * MB, 4 * MB, 8 * MB, 12 * MB),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, Dict[int, Dict[str, RunResult]]]:
    """Fig. 15: (a) LOAD/A vs PWB size, (b) C/E vs SVC size."""
    num_keys, num_ops = sizing(num_keys, num_ops, ops=8_000)
    return sweep(
        _buffer_unit,
        [("pwb", size) for size in pwb_sizes]
        + [("svc", size) for size in svc_sizes],
        (num_keys, num_ops, num_threads),
    )


def _buffer_unit(
    kind: str, size: int, num_keys: int, num_ops: int, num_threads: int
) -> Dict[str, RunResult]:
    if kind == "pwb":
        store = build_prism(
            num_threads=num_threads,
            pwb_total=size,
            expected_keys=num_keys * 3,
        )
        load = run_workload(
            store, WORKLOADS["LOAD"], num_keys, num_keys, num_threads, VALUE_SIZE
        )
        a = run_workload(
            store, WORKLOADS["A"], num_ops, num_keys, num_threads, VALUE_SIZE
        )
        return {"LOAD": load, "A": a}
    store = build_prism(
        num_threads=num_threads,
        svc_capacity=size,
        expected_keys=num_keys * 3,
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    c = run_workload(
        store,
        WORKLOADS["C"],
        num_ops,
        num_keys,
        num_threads,
        VALUE_SIZE,
        warmup_ops=num_ops // 2,
    )
    e = run_workload(
        store,
        WORKLOADS["E"],
        max(200, num_ops // SCAN_OPS_DIVISOR),
        num_keys,
        num_threads,
        VALUE_SIZE,
        warmup_ops=num_ops // 10,
    )
    return {"C": c, "E": e}


# ----------------------------------------------------------------------
# Figure 16: multicore scalability
# ----------------------------------------------------------------------
def multicore_scalability(
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16),
    workloads: Sequence[str] = ("A", "C", "E"),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[int, RunResult]]]:
    """Fig. 16: throughput vs core count — Prism, KVell (QD 64 and
    QD 1), MatrixKV."""
    num_keys, num_ops = sizing(num_keys, num_ops, 8_000, 8_000)
    return sweep(
        _multicore_unit,
        product(
            ("Prism", "KVell(QD64)", "KVell(QD1)", "MatrixKV"), thread_counts
        ),
        (tuple(workloads), num_keys, num_ops),
        pivot=True,
    )


def _multicore_unit(
    name: str, t: int, workloads: Tuple[str, ...], num_keys: int, num_ops: int
) -> Dict[str, RunResult]:
    return mix_unit(
        name, workloads, num_keys, num_ops, t, expected_keys=num_keys * 2
    )


# ----------------------------------------------------------------------
# Figure 17: garbage-collection timeline
# ----------------------------------------------------------------------
def gc_timeline(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Tuple[RunResult, Prism]:
    """Fig. 17: YCSB-A throughput over time on a space-constrained
    Value Storage, with GC events marked."""
    num_keys, num_ops = sizing(num_keys, num_ops, 6_000, 30_000)
    data = num_keys * VALUE_SIZE
    # Squeeze Value Storage so GC must run: each of the two stores gets
    # 1.5x the whole dataset (3x its own half).  The updates of the run
    # then fill it to the GC threshold about halfway through — the
    # paper's GC also begins mid-run.
    store = build_prism(
        num_threads=num_threads,
        num_ssds=2,
        dataset_bytes=data,
        expected_keys=num_keys * 2,
        ssd_capacity=max(8 * MB, 3 * data // 2),
        gc_free_threshold=0.3,
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    # An unrecorded warm-up fills the SVC first, so the timeline's slow
    # buckets are GC's to explain, not a cache still filling.
    result = run_workload(
        store,
        WORKLOADS["A"],
        num_ops,
        num_keys,
        num_threads,
        VALUE_SIZE,
        timeline_bucket=2e-3,
        warmup_ops=num_ops // 4,
    )
    return result, store


# ----------------------------------------------------------------------
# §7.6 ablations: the impact of individual techniques
# ----------------------------------------------------------------------
# variant -> the PrismConfig fields that switch one technique off.
ABLATIONS: Dict[str, Dict] = {
    "full": {},
    "no-pwb": {"enable_pwb": False},
    "sync-read": {"read_batching": "sync", "queue_depth": 1},
    "no-svc": {"enable_svc": False},
    "no-scan-aware": {"svc_scan_aware": False},
    "page-granule-svc": {"svc_page_mode": True},
}


def ablations(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, Dict[str, RunResult]]:
    """Per-technique ablation matrix (§7.6 "Impact of individual
    techniques"): async bandwidth-optimized writes (PWB), thread
    combining, SVC, scan-aware eviction."""
    num_keys, num_ops = sizing(num_keys, num_ops, ops=8_000)
    return sweep(
        _ablation_unit, product(ABLATIONS), (num_keys, num_ops, num_threads)
    )


def _ablation_unit(variant: str, *sizes) -> Dict[str, RunResult]:
    return mix_unit("Prism", ("A", "C", "E"), *sizes, **ABLATIONS[variant])


# ----------------------------------------------------------------------
# §7.6: NVM space and recovery time
# ----------------------------------------------------------------------
def nvm_space(num_keys: Optional[int] = None) -> Dict[str, float]:
    """NVM footprint per key (the paper: ~5.4 GB per 100 M pairs,
    i.e. ~54 B/key for HSIT + key index)."""
    num_keys, _ = sizing(num_keys, None, keys=20_000)
    store = build_prism(num_threads=4, expected_keys=num_keys * 2)
    preload(store, num_keys, VALUE_SIZE, num_threads=4)
    store.flush()
    hsit = store.hsit.nvm_bytes()
    index = store.index.nvm_bytes()
    return {
        "keys": float(num_keys),
        "hsit_bytes": float(hsit),
        "index_bytes": float(index),
        "bytes_per_key": (hsit + index) / num_keys,
    }


def recovery_comparison(
    num_keys: Optional[int] = None, num_threads: int = NUM_THREADS
) -> Dict[str, float]:
    """Recovery time: Prism (index+HSIT scan on NVM) vs KVell (full
    SSD scan).  The paper: 6.9 s vs 10.4 s for 100 GB."""
    num_keys, _ = sizing(num_keys, None)
    data = num_keys * VALUE_SIZE
    prism = build_prism(
        num_threads=num_threads, dataset_bytes=data, expected_keys=num_keys * 2
    )
    preload(prism, num_keys, VALUE_SIZE, num_threads=num_threads)
    prism.crash()
    report = prism.recover(recovery_threads=num_threads)
    kvell = build_kvell(dataset_bytes=data)
    preload(kvell, num_keys, VALUE_SIZE, num_threads=num_threads)
    return {
        "prism_seconds": report.duration,
        "prism_keys": float(report.recovered_keys),
        "kvell_seconds": kvell.recovery_time(),
    }


# ----------------------------------------------------------------------
# Robustness: throughput under injected faults + recovery after crash
# ----------------------------------------------------------------------
def fault_recovery(
    error_rates: Sequence[float] = (0.0, 1e-3, 5e-3),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, object]:
    """YCSB-A under seeded transient device faults.

    For each error rate: run, report throughput degradation relative
    to the fault-free baseline plus retry/injection counters, audit
    the store (zero invariant violations expected despite faults),
    then crash + recover and report the recovery virtual time.
    """
    num_keys, num_ops = sizing(num_keys, num_ops)
    units = sweep(
        _fault_unit, product(error_rates), (num_keys, num_ops, num_threads)
    )
    return _by_rate(units, "faults")


def _by_rate(units: Dict[float, Tuple[RunResult, Dict]], stats_key: str) -> Dict:
    """Split a rate sweep's ``(run, stats)`` pairs into two dicts keyed
    by the rate's label."""
    out: Dict[str, Dict] = {"runs": {}, stats_key: {}}
    for rate, (result, stats) in units.items():
        label = f"rate={rate:g}"
        out["runs"][label] = result
        out[stats_key][label] = stats
    return out


def check_faults(results: Dict[str, object]) -> Tuple[bool, str]:
    """The gate :func:`fault_recovery` describes: at every error rate
    the audit finds no violation and recovery brings keys back."""
    bad = [
        label
        for label, stats in results["faults"].items()
        if stats["audit_violations"] or not stats["recovered_keys"] > 0
    ]
    if bad:
        return False, "audit violations or nothing recovered at " + ", ".join(bad)
    return True, (
        f"no audit violation and keys recovered at all "
        f"{len(results['faults'])} error rates"
    )


def _fault_unit(
    rate: float, num_keys: int, num_ops: int, num_threads: int
) -> Tuple[RunResult, Dict[str, float]]:
    from repro.core.checker import audit
    from repro.faults.injector import FaultConfig

    faults = None
    if rate > 0.0:
        faults = FaultConfig(
            seed=13,
            read_error_rate=rate,
            write_error_rate=rate,
            flush_error_rate=rate / 10,
            stuck_rate=rate / 10,
        )
    store = build_prism(
        num_threads=num_threads,
        dataset_bytes=num_keys * VALUE_SIZE,
        expected_keys=num_keys * 3,
        faults=faults,
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    result = run_workload(
        store,
        WORKLOADS["A"],
        num_ops,
        num_keys,
        num_threads,
        VALUE_SIZE,
        warmup_ops=num_ops // 4,
    )
    report = audit(store)
    # The restart builds a new executor: the run's retries, then recovery's.
    retries = store.retry_exec.retries
    store.crash()
    recovery = store.recover(recovery_threads=num_threads)
    stats = {
        "injected": float(store.injector.total_injected) if store.injector else 0.0,
        "retries": float(retries + store.retry_exec.retries),
        "audit_violations": float(len(report.violations)),
        "recovered_keys": float(recovery.recovered_keys),
        "recovery_seconds": recovery.duration,
    }
    return result, stats


# ----------------------------------------------------------------------
# Integrity: YCSB-A under silent corruption + scrub/repair/rebuild
# ----------------------------------------------------------------------
def scrub_sweep(
    bitflip_rates: Sequence[float] = (0.0, 1e-3, 1e-2),
    corrupt_fraction: float = 0.01,
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, object]:
    """End-to-end integrity sweep (checksums + mirroring enabled).

    For each write-path bit-flip rate: run YCSB-A, then (1) corrupt
    ``corrupt_fraction`` of the stored records at rest, (2) run one
    background scrub pass (detect + repair), (3) kill one Value
    Storage device and rebuild it onto the survivors, and (4) re-read
    every key against a pre-corruption snapshot.  The store must end
    with zero wrong values and zero degraded reads — every corrupted
    record either repaired or reported as a typed unrecoverable loss.
    """
    num_keys, num_ops = sizing(num_keys, num_ops)
    units = sweep(
        _scrub_unit,
        product(bitflip_rates),
        (corrupt_fraction, num_keys, num_ops, num_threads),
    )
    return _by_rate(units, "scrub")


def check_scrub(results: Dict[str, object]) -> Tuple[bool, str]:
    """The gate :func:`scrub_sweep` describes: no wrong value and no
    degraded read at any bit-flip rate.  No message: the table above
    the verdict already shows both columns per rate."""
    ok = not any(
        stats["wrong_values"] or stats["degraded_reads"]
        for stats in results["scrub"].values()
    )
    return ok, ""


def _scrub_unit(
    rate: float,
    corrupt_fraction: float,
    num_keys: int,
    num_ops: int,
    num_threads: int,
) -> Tuple[RunResult, Dict[str, float]]:
    import random as _random

    from repro.faults.errors import ReadDegradedError, UnrecoverableCorruptionError
    from repro.faults.injector import FaultConfig
    from repro.repair import Scrubber, rebuild_storage

    counter_names = (
        "corruption.detected",
        "corruption.repaired",
        "corruption.unrecoverable",
        "scrub.chunks_scanned",
        "scrub.mirrors_refreshed",
    )
    # The injector is always attached here: even the rate-0 leg needs
    # it for at-rest corruption and the device kill.
    faults = FaultConfig(seed=29, bitflip_rate=rate, torn_write_rate=rate / 10)
    store = build_prism(
        num_threads=num_threads,
        dataset_bytes=num_keys * VALUE_SIZE,
        expected_keys=num_keys * 3,
        faults=faults,
        enable_checksums=True,
        mirror_chunks=True,
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=num_threads)
    result = run_workload(
        store,
        WORKLOADS["A"],
        num_ops,
        num_keys,
        num_threads,
        VALUE_SIZE,
        warmup_ops=num_ops // 4,
    )
    # Snapshot every key before injecting at-rest damage; these reads
    # are checksum-verified (and may already heal write-path bit
    # flips), so the snapshot is trustworthy.
    expected: Dict[bytes, bytes] = {}
    lost_before = 0
    for key, _idx in list(store.index.items()):
        try:
            value = store.get(key)
        except UnrecoverableCorruptionError:
            lost_before += 1
            continue
        if value is not None:
            expected[key] = value
    # (1) seeded bit-rot on a fraction of the stored records.
    records = []
    for vs in store.storages:
        for chunk_id, info in vs._chunks.items():
            for offset, slot in info.slots.items():
                if slot.valid:
                    records.append((vs, chunk_id, offset, slot.size))
    rng = _random.Random(31)
    n_corrupt = int(len(records) * corrupt_fraction)
    for vs, chunk_id, offset, size in rng.sample(records, n_corrupt):
        store.injector.corrupt_at_rest(
            vs.ssd,
            chunk_id * vs.chunk_size + offset,
            vs.header_size + size,
            at=store.clock.now,
        )
    # (2) one background scrub pass.
    scrub = Scrubber(store).scrub_once()
    # (3) lose a whole Value Storage, rebuild it onto survivors.
    victim = store.storages[0]
    store.injector.kill_device(victim.ssd.name, store.clock.now)
    rebuild = rebuild_storage(store, victim.vs_id)
    # (4) verify every snapshotted key.
    wrong = degraded = unrecoverable = 0
    for key, value in expected.items():
        try:
            got = store.get(key)
        except ReadDegradedError:
            degraded += 1
        except UnrecoverableCorruptionError:
            unrecoverable += 1
        else:
            if got != value:
                wrong += 1
    # Fold the integrity counters into the run's metrics snapshot
    # (scrub and rebuild happen after the workload's registry swap).
    if result.metrics is not None:
        counters = result.metrics.setdefault("counters", {})
        for name in counter_names:
            counters[name] = float(counters.get(name, 0)) + float(
                store.metrics.counter(name).value
            )
        result.metrics.setdefault("gauges", {})["repair.rebuild_seconds"] = (
            store.metrics.gauge("repair.rebuild_seconds").value
        )
    combined = result.metrics["counters"] if result.metrics else {}
    stats = {
        "silent_injected": float(store.injector.silent_injected),
        "at_rest_corrupted": float(n_corrupt),
        "detected": float(combined.get("corruption.detected", 0.0)),
        "repaired": float(combined.get("corruption.repaired", 0.0)),
        "unrecoverable": float(combined.get("corruption.unrecoverable", 0.0)),
        "chunks_scanned": float(scrub.chunks_scanned),
        "scrub_repaired": float(scrub.repaired),
        "mirrors_refreshed": float(scrub.mirrors_refreshed),
        "rebuild_records": float(rebuild.records_repaired),
        "rebuild_lost": float(rebuild.records_lost),
        "rebuild_seconds": rebuild.duration,
        "wrong_values": float(wrong),
        "degraded_reads": float(degraded),
        "unrecoverable_reads": float(unrecoverable),
        "lost_before_snapshot": float(lost_before),
    }
    return result, stats
