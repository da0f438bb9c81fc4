"""One pass over one workload, in a process of its own.

``python3 -m perfbench`` starts this module once per pass so that
peak RSS, import state and allocator history belong to that pass
alone.  The last line of standard output is one JSON object.

Passes (``--mode``):

``untraced``  build + preload + warm-up (timed as set-up), the measured
              window (timed), peak RSS; then a second window at 1/6 of
              the ops (1/4 for scans) under cProfile on the same, warm store (Python
              calls per op, in total and per ``repro`` subpackage);
              then the output check.
``traced``    the tracer's class patches go in first; the store is
              built with phase metrics on; a window of 1/4 of the ops
              is recorded span by span; single stores are then crashed,
              recovered and read back again.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.cluster.router import PrismCluster
from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import LatencyRecorder

from perfbench import counters
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, Window, Workload, drive, load, read_back

# Distinct op streams for the unrecorded warm-up, the measured window
# (``--seed`` itself) and the profiled window: the driver derives a
# stream from (seed, mix name), so equal seeds would replay the same
# keys and make every cache look perfect.
WARMUP_SEED_OFFSET = 1_000_003
PROFILE_SEED_OFFSET = 2_000_003
# The traced window runs a share of the window's ops (so does the
# profiled one, ``Workload.profile_share``): both slow the interpreter
# severalfold.
TRACE_SHARE = 4
TAIL_SHARE = 100  # vt_tail_us averages the slowest 1/TAIL_SHARE of ops
# cProfile buckets: the program's subpackages, by file path.
MODULES = ("core", "storage", "sim", "index", "cluster", "cache",
           "workloads", "obs", "faults")
PHASE_WAITS = {
    "core.pwb.space_wait_vt_p99_us": "phase.put.pwb_space_wait",
    "core.tcq.combining_wait_vt_p99_us": "phase.read.combining_wait",
    "storage.ssd.ssd_wait_vt_p99_us": "phase.read.ssd_wait",
}


def scaled(count: int, scale: float, divisor: int = 1) -> int:
    return max(1, round(count * scale) // divisor)


@contextlib.contextmanager
def _ends_at_flush(on_flush: Callable[[], None]) -> Iterator[None]:
    """Let a cluster window end where the driver's audit begins.

    ``run_cluster_workload`` audits its write ledger before returning,
    and the ledger is local to that call, so the audit cannot be run
    from here afterwards.  The audit's first act is ``cluster.flush()``;
    nothing before that call belongs to the audit and nothing after it
    belongs to the window.
    """
    original = PrismCluster.flush

    def flush(self, *args, **kwargs):
        on_flush()
        return original(self, *args, **kwargs)

    PrismCluster.flush = flush
    try:
        yield
    finally:
        PrismCluster.flush = original


class Measured:
    """One driven window with its wall time and counter snapshots."""

    def __init__(
        self, w: Workload, store, ops: int, seed: int,
        collect_metrics: bool = False,
        start: Callable[[], None] = lambda: None,
        stop: Callable[[], None] = lambda: None,
    ) -> None:
        self.before = counters.snapshot(store)
        self.after: Dict[str, float] = {}
        self.wall_s = 0.0

        def end() -> None:
            if not self.after:
                self.wall_s = time.perf_counter() - t0
                stop()
                self.after = counters.snapshot(store)

        with _ends_at_flush(end):
            start()
            t0 = time.perf_counter()
            self.window: Window = drive(
                w, store, ops, seed, collect_metrics=collect_metrics, audit=True
            )
            end()
        run = self.window.run
        self.ops = run.ops
        self.failed = self.window.failed_ops + self.window.audit_failures
        kinds = run.per_kind
        self.client_puts = sum(
            len(kinds[k].samples) for k in ("update", "insert") if k in kinds
        )

    def layer_counters(self, w: Workload) -> Dict[str, float]:
        return counters.window_metrics(
            self.before, self.after, self.ops, self.client_puts,
            w.value_size, self.window.run.duration,
        )


def _setup(w: Workload, scale: float, seed: int, metrics: bool):
    t0 = time.perf_counter()
    store = w.build(metrics)
    load(w, store)
    warm = drive(w, store, scaled(w.warmup_ops, scale), seed + WARMUP_SEED_OFFSET)
    return store, time.perf_counter() - t0, warm.failed_ops


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quantiles(name: str, samples: List[float]) -> Dict[str, float]:
    """Exact p50/p99 in microseconds, by the program's own definition
    (linear interpolation between order statistics); 0 with no samples."""
    recorder = LatencyRecorder(name)
    recorder.samples = samples
    return {
        f"vt_{name}_p50_us": recorder.percentile(50),
        f"vt_{name}_p99_us": recorder.percentile(99),
    }


def _vt_results(w: Workload, store, m: Measured) -> Dict[str, float]:
    """Everything of the window that lives on the virtual clock or is a
    byte count: identical on every run of the same code and seed."""
    run = m.window.run
    ordered = sorted(run.latency.samples)
    tail = ordered[-max(1, len(ordered) // TAIL_SHARE):]
    out = {
        "vt_kops": run.kops,
        "vt_tail_us": sum(tail) / len(tail) * 1e6,
        # Since the store was built: preload and warm-up included, so
        # it is defined (and constant) on a read-only window.
        "waf": m.after["ssd.bytes_written"] / m.after["bytes_put"],
        "waf_window": run.waf,
        "space_amp": counters.space_amp(m.after, len(store), w.value_size),
        "failed": float(m.failed),
    }

    def samples(*kinds: str) -> List[float]:
        return [s for k in kinds if k in run.per_kind for s in run.per_kind[k].samples]

    out.update(_quantiles("read", samples("read")))
    # Updates and inserts are the same put; the driver splits them.
    out.update(_quantiles("write", samples("update", "insert")))
    out.update(_quantiles("scan", samples("scan")))
    return out


def vt_digest(vt: Dict[str, float]) -> str:
    text = ";".join(f"{k}={vt[k]!r}" for k in sorted(vt))
    return hashlib.sha256(text.encode()).hexdigest()


def _module_of(filename: str) -> Optional[str]:
    marker = f"{os.sep}repro{os.sep}"
    pos = filename.rfind(marker)
    if pos < 0:
        return None
    top = filename[pos + len(marker):].split(os.sep, 1)[0]
    return top[:-3] if top.endswith(".py") else top


def _profile_window(w: Workload, store, scale: float, seed: int) -> Dict[str, object]:
    profile = cProfile.Profile()
    m = Measured(
        w, store, scaled(w.ops, scale, w.profile_share), seed + PROFILE_SEED_OFFSET,
        start=profile.enable, stop=profile.disable,
    )
    by_module = dict.fromkeys(MODULES, 0)
    total = 0
    # Raw entries, one per code object.  pstats keys entries by (file,
    # line, name) and lets a later one overwrite an earlier one, so the
    # two dataclass ``__init__``s generated at ``<string>:2`` collide
    # and its total depends on memory addresses.
    for entry in profile.getstats():
        total += entry.callcount
        module = _module_of(getattr(entry.code, "co_filename", ""))
        if module in by_module:
            by_module[module] += entry.callcount
    return {
        "ops": m.ops,
        "failed": m.failed,
        "host_calls_per_op": total / m.ops,
        "by_module": {k: v / m.ops for k, v in by_module.items()},
    }


def run_untraced(w: Workload, scale: float, seed: int) -> Dict[str, object]:
    store, setup_s, warm_failed = _setup(w, scale, seed, metrics=False)
    m = Measured(w, store, scaled(w.ops, scale), seed)
    out: Dict[str, object] = {
        "setup_s": setup_s,
        "window_s": m.wall_s,
        "ops": m.ops,
        "peak_rss_mib": _peak_rss_mib(),
    }
    vt = _vt_results(w, store, m)
    out["vt"] = vt
    out["vt_digest"] = vt_digest(vt)
    out["layers"] = m.layer_counters(w)
    prof = _profile_window(w, store, scale, seed)
    out["profile"] = prof
    checked, bad = read_back(w, store)
    out["attempted"] = m.ops + prof["ops"] + checked
    out["failed"] = m.failed + warm_failed + prof["failed"] + bad
    return out


def _fresh_shard_registries(store) -> None:
    """Shard registries have recorded preload and warm-up phases; the
    single-store driver swaps in a per-run registry, the cluster driver
    does not, so do the same swap for each shard here."""
    for shard in store.shards:
        shard.store.metrics = MetricsRegistry(prefix=shard.store.metrics.prefix)


def _crash_and_recover(w: Workload, store) -> Dict[str, float]:
    """Durability: power-fail the store, recover from what was flushed,
    and every preloaded key must still read back."""
    store.crash()
    t0 = time.perf_counter()
    report = store.recover()
    host_s = time.perf_counter() - t0
    _checked, lost = read_back(w, store)
    return {"vt_ms": report.duration * 1e3, "host_s": host_s,
            "lost_keys": float(lost)}


def run_traced(
    w: Workload, scale: float, seed: int, out_dir: Optional[str]
) -> Dict[str, object]:
    tracer = Tracer()
    tracer.install()
    try:
        store, _setup_s, warm_failed = _setup(w, scale, seed, metrics=True)
        if w.cluster:
            _fresh_shard_registries(store)

        def start() -> None:
            tracer.on = True

        def stop() -> None:
            tracer.on = False

        m = Measured(
            w, store, scaled(w.ops, scale, TRACE_SHARE), seed,
            collect_metrics=True, start=start, stop=stop,
        )
    finally:
        tracer.uninstall()
    run = m.window.run
    ops = m.ops
    layers: Dict[str, float] = {}
    for layer, (calls, host_s, vt_s) in tracer.layer_totals().items():
        layers[f"{layer}.calls_per_op"] = calls / ops
        layers[f"{layer}.host_self_us_per_op"] = host_s * 1e6 / ops
        layers[f"{layer}.vt_self_us_per_op"] = vt_s * 1e6 / ops
    # The root spans must be the op latencies the driver recorded.
    roots: List[float] = tracer.op_latencies()
    recorded = run.latency.samples
    layers["trace.vt_root_mismatch"] = float(
        abs(len(roots) - len(recorded))
        + sum(1 for a, b in zip(roots, recorded) if a != b)
    )
    # Waits no public boundary exposes: the program's phase histograms.
    if w.cluster:
        merged = store.merged_shard_metrics()
        hists = {k: h.to_dict() for k, h in merged.histograms.items()}
        count = {k: c.value for k, c in merged.counters.items()}
    else:
        hists = run.metrics["histograms"]
        count = run.metrics["counters"]
    for metric, hist in PHASE_WAITS.items():
        layers[metric] = hists[hist]["p99_us"] if hist in hists else 0.0
    reads = len(run.per_kind["read"].samples) if "read" in run.per_kind else 0
    layers["core.pwb.read_hit_ratio"] = (
        count.get("read.pwb_hits", 0) / reads if reads else 0.0
    )
    checked, bad = read_back(w, store)
    attempted, failed = ops + checked, m.failed + warm_failed + bad
    recovery = {"vt_ms": 0.0, "host_s": 0.0, "lost_keys": 0.0}
    if not w.cluster:
        recovery = _crash_and_recover(w, store)
        attempted += w.keys
        failed += int(recovery["lost_keys"])
    for key, value in recovery.items():
        layers[f"core.recovery.{key}"] = value
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"{w.name}.spans.jsonl"))
    return {
        "ops": ops,
        "window_s": m.wall_s,
        "layers": layers,
        "spans": tracer.n,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("untraced", "traced"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.mode == "traced":
        result = run_traced(w, args.scale, args.seed, args.out)
    else:
        result = run_untraced(w, args.scale, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
