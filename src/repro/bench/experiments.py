"""Canonical experiment definitions: one function per paper figure/table.

Each function builds the stores at the paper's cost-parity
configuration (scaled), runs the workloads, and returns a structured
result; next to it, a ``check_*`` function turns the figure's shape
claims (who wins, by what ratio) into gates, quoting the paper's
number where it gives one.

Scale: ``REPRO_SCALE`` (env var, default 1.0) multiplies dataset and
op counts.  Results are virtual-time metrics, so ratios — not absolute
Kops — are the comparable quantities.

How to add an experiment: in one module, write one *unit* — a
module-level function of picklable arguments that builds its own store
and returns one point's result (:func:`mix_unit` already is that for
"these workloads on this store"); beside it one public *run* function
that fans the unit out over its points with :func:`sweep` and returns
the results dict, taking as parameters only the sizes a ``--smoke``
row or a test sets (every other size is a constant, times
``REPRO_SCALE`` through :func:`scaled`); and beside that a
``check_*(results) -> List[Gate]`` with one labelled gate per claim.
Then add one row to ``EXPERIMENTS`` (``repro/bench/__main__.py``)
naming the run and the check, its ``--smoke`` sizing, a printer and
which gates hold only at full size.  The CLI, ``figs``, ``list``, CI's
``bench-smoke`` and ``figs`` jobs and the digest tests all read that
row.
"""

from __future__ import annotations

import os
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.report import Gate, ratio_gate
from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import build_kvell, build_prism, build_store
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
LSM_STORES = ("MatrixKV", "RocksDB-NVM")


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


def check_ycsb(results: Dict[str, Dict[str, RunResult]]) -> List[Gate]:
    """Fig. 7 / Table 3: Prism out-runs every store on LOAD, B and C, the
    LSM stores by over 2x on A; on D, where an LSM's memtable holds the
    hot set too, it keeps within 10 % of them.  Microsecond medians, a
    tail within 5 % of KVell's, a lower write average than the LSMs."""
    prism, kvell = results["Prism"], results["KVell"]

    def vs(wl: str, store: str) -> float:
        return prism[wl].throughput / results[store][wl].throughput

    return [ratio_gate(*row) for row in (
        *((f"  {wl} Prism/{store}", vs(wl, store), ">", 1.0)
          for wl in ("LOAD", "B", "C") for store in STANDARD_STORES[1:]),
        *((f"  {wl} Prism/KVell", vs(wl, "KVell"), ">", 1.0, paper)
          for wl, paper in (("A", "1.3x"), ("D", ""), ("E", "2.3x"))),
        ("  E Prism/MatrixKV", vs("E", "MatrixKV"), ">", 1.0),
        *((f"  A Prism/{store}", vs("A", store), ">", 2.0, "up to 13.1x")
          for store in LSM_STORES),
        *((f"  D Prism/{store}", vs("D", store), ">", 0.9) for store in LSM_STORES),
        *((f"  {wl} Prism median us", prism[wl].latency.median(), "<", 10, paper)
          for wl, paper in (("A", "2 us"), ("C", "1 us"))),
        *((f"  {wl} p99 Prism/KVell",
           prism[wl].latency.p99() / kvell[wl].latency.p99(), "<=", 1.05, paper)
          for wl, paper in (("A", "1/8.7"), ("C", ""))),
        *((f"  A avg latency Prism/{store}",
           prism["A"].latency.average() / results[store]["A"].latency.average(),
           "<", 1.0) for store in LSM_STORES),
    )]


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


def check_slmdb(results: Dict[str, Dict[str, RunResult]]) -> List[Gate]:
    """Fig. 8 / Table 4: Prism out-writes and out-scans single-threaded
    SLM-DB, whose flush stalls give it the worse write tail."""
    prism, slmdb = results["Prism"], results["SLM-DB"]
    return [
        *(ratio_gate(f"  {wl} Prism/SLM-DB",
                     prism[wl].throughput / slmdb[wl].throughput, ">", 1.0, paper)
          for wl, paper in (("LOAD", ""), ("A", "up to 22.7x"), ("E", "2.5x"))),
        ratio_gate("  A p99 SLM-DB/Prism",
                   slmdb["A"].latency.p99() / prism["A"].latency.p99(), ">", 1.0,
                   "1363/90 us"),
    ]


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


def check_skew(results: Dict) -> List[Gate]:
    """Fig. 9: Prism speeds up with skew on A, B and C (Zipfian 1.5 over
    1.2 over 0.5) and gains more from it on A than KVell, whose hot
    keys become hot workers; the LSM stores speed up on B."""
    def gain(store: str, wl: str, hi: float, lo: float) -> float:
        return results[store][wl][hi].throughput / results[store][wl][lo].throughput

    return [ratio_gate(*row) for row in (
        *((f"  {wl} Prism {hi}/{lo}", gain("Prism", wl, hi, lo), ">", 1.0,
           "rises with skew")
          for wl in ("A", "B", "C") for hi, lo in ((1.5, 1.2), (1.2, 0.5))),
        ("  A 1.5/0.5 gain Prism/KVell",
         gain("Prism", "A", 1.5, 0.5) / gain("KVell", "A", 1.5, 0.5), ">", 1.0),
        *((f"  B {store} 1.5/0.5", gain(store, "B", 1.5, 0.5), ">", 1.0)
          for store in LSM_STORES),
    )]


# ----------------------------------------------------------------------
# Figure 10: large dataset + Nutanix production mix
# ----------------------------------------------------------------------
def large_dataset() -> Dict[str, Dict]:
    """Fig. 10, Prism vs KVell: (a) ``large``, the 1-billion-pair run,
    scaled 10x over the default dataset so cache:data ratios shrink the
    way the paper's did; (b) ``nutanix``, the Nutanix production mix."""
    # Cache budgets stay at the default (small) dataset's size: the
    # dataset outgrew the hardware, exactly like 1 TB vs 36 GB.
    small = scaled(NUM_KEYS) * VALUE_SIZE
    stores = [("Prism",), ("KVell",)]
    return {
        "large": sweep(
            _large_dataset_unit, stores, (small, scaled(40_000), scaled(10_000))
        ),
        "nutanix": sweep(_nutanix_unit, stores, (scaled(NUM_KEYS), scaled(NUM_OPS))),
    }


def _large_dataset_unit(
    name: str, small: int, num_keys: int, num_ops: int
) -> Dict[str, RunResult]:
    return mix_unit(
        name, ("A", "B", "C", "D", "E"), num_keys, num_ops, NUM_THREADS,
        dataset_bytes=small, expected_keys=num_keys * 2,
    )


def _nutanix_unit(name: str, num_keys: int, num_ops: int) -> RunResult:
    store = build_store(
        name, num_keys * VALUE_SIZE, NUM_THREADS, expected_keys=num_keys * 3
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=NUM_THREADS)
    return run_workload(
        store,
        NUTANIX,
        num_ops,
        num_keys,
        NUM_THREADS,
        VALUE_SIZE,
        warmup_ops=num_ops // 2,
    )


def check_large(results: Dict[str, Dict]) -> List[Gate]:
    """Fig. 10: with the caches dwarfed Prism still beats KVell on at
    least four of the five workloads, and on the Nutanix mix."""
    big, nutanix = results["large"], results["nutanix"]
    wins = sum(run.throughput > big["KVell"][wl].throughput
               for wl, run in big["Prism"].items())
    return [
        ratio_gate("  large: workloads Prism wins", wins, ">=", 4, "5 of 5"),
        ratio_gate("  Nutanix Prism/KVell",
                   nutanix["Prism"].throughput / nutanix["KVell"].throughput,
                   ">", 1.0, "1.44x"),
    ]


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


def check_combining(results: Dict[str, Dict[int, RunResult]]) -> List[Gate]:
    """Fig. 11: thread combining keeps up with the 100 us timeout
    strawman at every depth and gains over 1.5x from the shallowest
    queue to the deepest, where the strawman pays its window in
    latency; the gap does not close with depth."""
    tc, ta = results["TC"], results["TA"]
    lo, hi = min(tc), max(tc)

    def gap(qd: int) -> float:
        return tc[qd].throughput / ta[qd].throughput

    return [ratio_gate(*row) for row in (
        *((f"  QD {qd} TC/TA", gap(qd), ">=", 1.0) for qd in sorted(tc)),
        (f"  TC QD {hi}/QD {lo}", tc[hi].throughput / tc[lo].throughput,
         ">", 1.5, "11.7x"),
        (f"  QD {hi} avg latency TA/TC",
         ta[hi].latency.average() / tc[hi].latency.average(), ">", 1.0),
        (f"  TC/TA QD {hi} over QD {lo}", gap(hi) / gap(lo), ">=", 0.9),
    )]


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


# Fig. 12's WAF at Zipfian 0.5, 0.99 and 1.2, per value size.
PAPER_WAF = {
    512: {"Prism": (0.7, 0.3, 0.1), "KVell": (2.7, 1.6, 1.3),
          "MatrixKV": (3.0, 5.3, 16.2)},
    1024: {"Prism": (0.9, 0.4, 0.1), "KVell": (1.2, 0.9, 0.5),
           "MatrixKV": (2.5, 4.6, 13.3)},
}


def check_waf(results: Dict) -> List[Gate]:
    """Fig. 12: Prism writes the least to flash at every skew and value
    size, and under 1.5 bytes per byte put at 0.99; skew lowers Prism's
    and KVell's WAF (rewrites of hot keys coalesce before flash)."""
    gates = []
    for size, waf in results.items():
        paper = PAPER_WAF[size]
        gates += [
            *(ratio_gate(f"  {size} B z{theta} WAF Prism vs {store}",
                         waf["Prism"][theta], "<=", waf[store][theta],
                         f"{paper['Prism'][i]} vs {paper[store][i]}")
              for i, theta in enumerate((0.5, 0.99, 1.2))
              for store in ("KVell", "MatrixKV")),
            *(ratio_gate(f"  {size} B {store} WAF z1.2 vs z0.5",
                         waf[store][1.2], op, waf[store][0.5],
                         f"{paper[store][2]} vs {paper[store][0]}")
              for store, op in (("Prism", "<"), ("KVell", "<="))),
            ratio_gate(f"  {size} B z0.99 WAF Prism", waf["Prism"][0.99], "<",
                       1.5, str(paper["Prism"][1])),
        ]
    return gates


# ----------------------------------------------------------------------
# Figures 13–14: number of SSDs
# ----------------------------------------------------------------------
def ssd_scaling() -> Dict[str, Dict[str, Dict[int, RunResult]]]:
    """Figs. 13–14: YCSB A and C throughput and latency over 1–8
    aggregated SSDs."""
    return sweep(
        _ssd_scaling_unit,
        product(("Prism", "KVell"), (1, 2, 4, 8)),
        (scaled(NUM_KEYS), scaled(8_000)),
        pivot=True,
    )


def _ssd_scaling_unit(
    name: str, n: int, num_keys: int, num_ops: int
) -> Dict[str, RunResult]:
    return mix_unit(
        name, ("A", "C"), num_keys, num_ops, NUM_THREADS,
        num_ssds=n, expected_keys=num_keys * 2,
    )


def check_ssd_scaling(results: Dict) -> List[Gate]:
    """Figs. 13–14: Prism out-writes KVell at every SSD count, and its
    average YCSB-C latency stays within 1.2x of KVell's (the paper:
    always lower)."""
    prism, kvell = results["Prism"], results["KVell"]
    return [
        *(ratio_gate(f"  A {n} SSDs Prism/KVell",
                     prism["A"][n].throughput / kvell["A"][n].throughput, ">", 1.0)
          for n in sorted(prism["A"])),
        *(ratio_gate(f"  C {n} SSDs avg latency Prism/KVell",
                     prism["C"][n].latency.average()
                     / kvell["C"][n].latency.average(), "<=", 1.2, "below 1")
          for n in sorted(prism["C"])),
    ]


# ----------------------------------------------------------------------
# Figure 15: PWB and SVC sizing
# ----------------------------------------------------------------------
def buffer_size_sweep() -> Dict[str, Dict[int, Dict[str, RunResult]]]:
    """Fig. 15: (a) LOAD/A over PWB sizes 1–16 MB, (b) C/E over SVC
    sizes 1–12 MB."""
    return sweep(
        _buffer_unit,
        [("pwb", size * MB) for size in (1, 2, 4, 8, 16)]
        + [("svc", size * MB) for size in (1, 2, 4, 8, 12)],
        (scaled(NUM_KEYS), scaled(8_000)),
    )


def _buffer_unit(
    kind: str, size: int, num_keys: int, num_ops: int
) -> Dict[str, RunResult]:
    if kind == "pwb":
        store = build_prism(
            num_threads=NUM_THREADS,
            pwb_total=size,
            expected_keys=num_keys * 3,
        )
        load = run_workload(
            store, WORKLOADS["LOAD"], num_keys, num_keys, NUM_THREADS, VALUE_SIZE
        )
        a = run_workload(
            store, WORKLOADS["A"], num_ops, num_keys, NUM_THREADS, VALUE_SIZE
        )
        return {"LOAD": load, "A": a}
    store = build_prism(
        num_threads=NUM_THREADS,
        svc_capacity=size,
        expected_keys=num_keys * 3,
    )
    preload(store, num_keys, VALUE_SIZE, num_threads=NUM_THREADS)
    c = run_workload(
        store,
        WORKLOADS["C"],
        num_ops,
        num_keys,
        NUM_THREADS,
        VALUE_SIZE,
        warmup_ops=num_ops // 2,
    )
    e = run_workload(
        store,
        WORKLOADS["E"],
        max(200, num_ops // SCAN_OPS_DIVISOR),
        num_keys,
        NUM_THREADS,
        VALUE_SIZE,
        warmup_ops=num_ops // 10,
    )
    return {"C": c, "E": e}


def check_buffers(results: Dict) -> List[Gate]:
    """Fig. 15: LOAD stays within 2x across PWB sizes (background
    reclaim keeps up), A does not fall by over 5 % with the largest PWB,
    and C rises with the largest SVC."""
    loads = [runs["LOAD"].throughput for runs in results["pwb"].values()]

    def largest_over_smallest(kind: str, wl: str) -> Tuple[str, float]:
        by_size = results[kind]
        lo, hi = min(by_size), max(by_size)
        label = f"  {wl} {kind.upper()} {hi >> 20}MB/{lo >> 20}MB"
        return label, by_size[hi][wl].throughput / by_size[lo][wl].throughput

    return [
        ratio_gate("  LOAD min/max over PWB sizes", min(loads) / max(loads),
                   ">", 0.5, "flat"),
        ratio_gate(*largest_over_smallest("pwb", "A"), ">=", 0.95, "rises"),
        ratio_gate(*largest_over_smallest("svc", "C"), ">", 1.0, "rises"),
    ]


# ----------------------------------------------------------------------
# Figure 16: multicore scalability
# ----------------------------------------------------------------------
def multicore_scalability() -> Dict[str, Dict[str, Dict[int, RunResult]]]:
    """Fig. 16: YCSB A/C/E throughput over 1–16 threads — Prism, KVell
    (QD 64 and QD 1), MatrixKV."""
    return sweep(
        _multicore_unit,
        product(
            ("Prism", "KVell(QD64)", "KVell(QD1)", "MatrixKV"), (1, 2, 4, 8, 16)
        ),
        (scaled(8_000), scaled(8_000)),
        pivot=True,
    )


def _multicore_unit(
    name: str, t: int, num_keys: int, num_ops: int
) -> Dict[str, RunResult]:
    return mix_unit(
        name, ("A", "C", "E"), num_keys, num_ops, t, expected_keys=num_keys * 2
    )


def check_scalability(results: Dict) -> List[Gate]:
    """Fig. 16: from 1 thread to the most, Prism scales over 5x on A, C
    and E and ends ahead of MatrixKV, whose compaction debt caps its A
    speedup under 10x; KVell at QD 64 out-reads KVell at QD 1."""
    def kops(store: str, wl: str, threads: int) -> float:
        return results[store][wl][threads].throughput

    lo, hi = min(results["Prism"]["A"]), max(results["Prism"]["A"])
    return [ratio_gate(*row) for row in (
        *((f"  {wl} Prism {hi}/{lo} threads",
           kops("Prism", wl, hi) / kops("Prism", wl, lo), ">", 5, "near linear")
          for wl in results["Prism"]),
        *((f"  {wl} {hi} threads Prism/MatrixKV",
           kops("Prism", wl, hi) / kops("MatrixKV", wl, hi), ">", 1.0)
          for wl in results["Prism"]),
        (f"  C {hi} threads KVell QD64/QD1",
         kops("KVell(QD64)", "C", hi) / kops("KVell(QD1)", "C", hi), ">", 1.0),
        (f"  A MatrixKV {hi}/{lo} threads",
         kops("MatrixKV", "A", hi) / kops("MatrixKV", "A", lo), "<", 10),
    )]


# ----------------------------------------------------------------------
# Figure 17: garbage-collection timeline
# ----------------------------------------------------------------------
def gc_timeline(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, object]:
    """Fig. 17: YCSB-A throughput over time on a space-constrained
    Value Storage, with GC events marked: the run as ``timeline``, the
    store it ran on as ``store``."""
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
    return {"timeline": result, "store": store}


def _well_formed_gc(event: Dict) -> bool:
    """Which Value Storage ran, what it moved and read, how long it took."""
    return (
        event["kind"] == "gc"
        and min(event[k] for k in ("at", "vs_id", "duration", "moved_records")) >= 0
        and event["read_bytes"] >= event["moved_bytes"]
    )


def check_gc_timeline(results: Dict) -> List[Gate]:
    """Fig. 17: GC runs during the window and the slowest bucket keeps
    over 0.79 of the fastest (the paper: flat).  The run's metrics carry
    every round as a well-formed ``gc`` event, each one also in the
    store's log, and the store still holds its data."""
    result, store = results["timeline"], results["store"]
    events = result.metrics["events"].get("gc", [])
    malformed = sum(not _well_formed_gc(e) for e in events)
    logged = len(store.events.of_kind("gc"))
    return [
        ratio_gate("  GC rounds", sum(vs.gc_runs for vs in store.storages),
                   ">", 0, "begins mid-run"),
        ratio_gate("  throughput min/max", result.timeline.min_over_max(),
                   ">", 0.79, "flat"),
        ratio_gate("  ops measured", result.ops, ">", 0),
        ratio_gate("  keys stored", len(store), ">", 0),
        ("  gc events", bool(events) and not malformed and logged >= len(events),
         f"{len(events)} in the run, {malformed} malformed, {logged} in the "
         f"store's log (gate: > 0, none malformed, all logged)"),
    ]


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


def ablations() -> Dict[str, Dict[str, RunResult]]:
    """Per-technique ablation matrix (§7.6 "Impact of individual
    techniques"): async bandwidth-optimized writes (PWB), thread
    combining, SVC, scan-aware eviction."""
    return sweep(
        _ablation_unit,
        product(ABLATIONS),
        (scaled(NUM_KEYS), scaled(8_000), NUM_THREADS),
    )


def _ablation_unit(variant: str, *sizes) -> Dict[str, RunResult]:
    return mix_unit("Prism", ("A", "C", "E"), *sizes, **ABLATIONS[variant])


def check_ablations(results: Dict[str, Dict[str, RunResult]]) -> List[Gate]:
    """§7.6: each technique pays for itself where the paper says — the
    PWB on A, the SVC on C and E, scan-aware eviction on E,
    value-granule caching and thread combining on C."""
    return [
        ratio_gate(f"  {wl} full/{variant}",
                   results["full"][wl].throughput / results[variant][wl].throughput,
                   ">", 1.0, paper)
        for variant, wl, paper in (
            ("no-pwb", "A", "1.23x"), ("no-svc", "C", "9.6x"),
            ("no-svc", "E", "4.4x"), ("no-scan-aware", "E", "~1.1x"),
            ("page-granule-svc", "C", ""), ("sync-read", "C", "up to 11.7x"),
        )
    ]


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


def scalars() -> Dict[str, Dict[str, float]]:
    """§7.6's two scalars: :func:`nvm_space` and
    :func:`recovery_comparison`."""
    return {"nvm_space": nvm_space(), "recovery": recovery_comparison()}


def check_scalars(results: Dict[str, Dict[str, float]]) -> List[Gate]:
    """§7.6: HSIT plus key index cost tens of NVM bytes per key, and
    Prism recovers from NVM metadata faster than KVell scans its SSDs."""
    per_key, rec = results["nvm_space"]["bytes_per_key"], results["recovery"]
    return [
        ratio_gate("  NVM bytes/key", per_key, ">", 10, "~54"),
        ratio_gate("  NVM bytes/key", per_key, "<", 200, "~54"),
        ratio_gate("  recovery Prism/KVell",
                   rec["prism_seconds"] / rec["kvell_seconds"], "<", 1.0,
                   "6.9 s/10.4 s"),
    ]


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


def check_faults(results: Dict[str, object]) -> List[Gate]:
    """The gate :func:`fault_recovery` describes: at every error rate
    the audit finds no violation and recovery brings keys back."""
    bad = [
        label
        for label, stats in results["faults"].items()
        if stats["audit_violations"] or not stats["recovered_keys"] > 0
    ]
    if bad:
        message = "audit violations or nothing recovered at " + ", ".join(bad)
    else:
        message = (
            f"no audit violation and keys recovered at all "
            f"{len(results['faults'])} error rates"
        )
    return [("robustness check", not bad, message)]


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
# The share of stored records :func:`scrub_sweep` corrupts at rest.
CORRUPT_FRACTION = 0.01


def scrub_sweep(
    bitflip_rates: Sequence[float] = (0.0, 1e-3, 1e-2),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, object]:
    """End-to-end integrity sweep (checksums + mirroring enabled).

    For each write-path bit-flip rate: run YCSB-A, then (1) corrupt
    ``CORRUPT_FRACTION`` of the stored records at rest, (2) run one
    background scrub pass (detect + repair), (3) kill one Value
    Storage device and rebuild it onto the survivors, and (4) re-read
    every key against a pre-corruption snapshot.  The store must end
    with zero wrong values and zero degraded reads — every corrupted
    record either repaired or reported as a typed unrecoverable loss.
    """
    num_keys, num_ops = sizing(num_keys, num_ops)
    units = sweep(
        _scrub_unit, product(bitflip_rates), (num_keys, num_ops, num_threads)
    )
    return _by_rate(units, "scrub")


def check_scrub(results: Dict[str, object]) -> List[Gate]:
    """The gate :func:`scrub_sweep` describes: no wrong value and no
    degraded read at any bit-flip rate.  No message: the table above
    the verdict already shows both columns per rate."""
    ok = not any(
        stats["wrong_values"] or stats["degraded_reads"]
        for stats in results["scrub"].values()
    )
    return [("integrity check", ok, "")]


def _scrub_unit(
    rate: float, num_keys: int, num_ops: int, num_threads: int
) -> Tuple[RunResult, Dict[str, float]]:
    import random as _random

    from repro.faults.errors import ReadDegradedError, UnrecoverableCorruptionError
    from repro.faults.injector import FaultConfig
    from repro.repair import Scrubber, rebuild_storage

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
    n_corrupt = int(len(records) * CORRUPT_FRACTION)
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
    # Read-repairs are events; the rebuild counts its own records.
    events = store.events
    stats = {
        "silent_injected": float(store.injector.silent_injected),
        "at_rest_corrupted": float(n_corrupt),
        "detected": float(store.corruption_detected),
        "repaired": float(len(events.of_kind("repair")) + rebuild.records_repaired),
        "unrecoverable": float(
            len(events.of_kind("corruption_unrecoverable")) + rebuild.records_lost
        ),
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
