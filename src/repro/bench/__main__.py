"""Command-line front end for the experiment suite.

Examples::

    python -m repro.bench list
    python -m repro.bench fig7
    python -m repro.bench fig12 --scale 0.5
    python -m repro.bench ablations
    python -m repro.bench tiering --smoke

Every experiment is one row of :data:`EXPERIMENTS`; ``main`` runs it,
prints it, judges its gates (exit status 1 if any fails) and writes its
metrics JSON.  ``figs``, ``list``, CI's ``bench-smoke`` job and the
digest tests read the same table.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.bench import cache as ca
from repro.bench import cluster as cl
from repro.bench import experiments as ex
from repro.bench import grayfail as gf
from repro.bench import rebalance as rb
from repro.bench import tiering as ti
from repro.bench.extensions import check_media, media_matrix
from repro.bench.report import (
    Gate,
    latency_table,
    metrics_payload,
    throughput_table,
    write_metrics_json,
)
from repro.bench.stores import MB
from repro.parallel import set_jobs

# What --smoke multiplies every default size by; an experiment's own
# ``smoke`` arguments, where it has them, replace the sizes outright.
SMOKE_SCALE = 0.05


@dataclass(frozen=True)
class Experiment:
    """One ``python -m repro.bench <name>``.

    ``run(**sizes)`` does the simulation and returns the results dict
    (every :class:`RunResult` in it lands in the metrics JSON under its
    path); ``render(results)`` prints it and ``gates(results)``, the
    ``check_*`` beside ``run`` in the experiment's module, judges it,
    neither touching the simulator.  Gate lines follow the output;
    a render that prints several tables may ``yield`` where the next
    one belongs instead.  ``full_size_only`` maps the label of a gate
    that holds only at full size (``REPRO_SCALE`` 1 or more) to why;
    below it that gate prints ``SKIP`` and is not judged.  ``smoke`` is
    the literal ``--smoke`` sizing, passed to ``run`` on top of
    ``SMOKE_SCALE``; ``figure`` puts the experiment in the ``figs``
    suite.
    """

    run: Callable[..., Dict]
    render: Callable[[Dict], Optional[Iterator[None]]]
    gates: Callable[[Dict], List[Gate]]
    full_size_only: Mapping[str, str] = field(default_factory=dict)
    smoke: Mapping[str, object] = field(default_factory=dict)
    figure: bool = False


# ----------------------------------------------------------------------
# The paper's figures and tables
# ----------------------------------------------------------------------
def _fig7(results):
    print(throughput_table("Figure 7 — YCSB throughput", results,
                           ("LOAD", "A", "B", "C", "D", "E")))
    print()
    print(latency_table("Table 3 — latency (us)", results, ("A", "C", "E")))


def _fig8(results):
    print(throughput_table("Figure 8 — Prism vs SLM-DB", results,
                           ("LOAD", "A", "B", "C", "D", "E")))
    print()
    print(latency_table("Table 4 — latency (us)", results, ("A", "C", "E")))


def _fig9(results):
    thetas = sorted(next(iter(next(iter(results.values())).values())))
    print("Figure 9 — relative throughput vs Zipfian coefficient")
    for store, by_wl in results.items():
        for wl, series in by_wl.items():
            base = series[0.99].throughput
            rel = " ".join(f"{t}:{series[t].throughput / base:5.2f}" for t in thetas)
            print(f"  {store:14} {wl:3} {rel}")


def _fig10(results):
    print(throughput_table("Figure 10a — large dataset", results["large"],
                           ("A", "B", "C", "D", "E")))
    print("\nFigure 10b — Nutanix mix")
    for name, result in results["nutanix"].items():
        print(f"  {name:8} {result.kops:10.1f} Kops/s")


def _fig11(results):
    print("Figure 11 — TC vs TA (YCSB-C)")
    print(f"{'QD':>4} {'TC Kops':>10} {'TA Kops':>10} {'TC avg':>8} {'TA avg':>8}")
    for qd in sorted(results["TC"]):
        tc, ta = results["TC"][qd], results["TA"][qd]
        print(f"{qd:>4} {tc.kops:>10.1f} {ta.kops:>10.1f} "
              f"{tc.latency.average():>8.1f} {ta.latency.average():>8.1f}")


def _fig12(results):
    print("Figure 12 — SSD-level WAF vs skew")
    for size, by_store in results.items():
        print(f"\n value size {size} B")
        for store, series in by_store.items():
            row = " ".join(f"{t}:{w:5.2f}" for t, w in sorted(series.items()))
            print(f"  {store:10} {row}")


def _fig13(results):
    print("Figures 13–14 — #SSD scaling")
    for store, by_wl in results.items():
        for wl, series in by_wl.items():
            row = " ".join(f"{n}:{r.kops:7.1f}" for n, r in sorted(series.items()))
            print(f"  {store:8} {wl:3} {row}  Kops")


def _fig15(results):
    print("Figure 15 — buffer sizing")
    for size, runs in sorted(results["pwb"].items()):
        print(f"  PWB {size >> 20:3}MB  LOAD {runs['LOAD'].kops:8.1f}  "
              f"A {runs['A'].kops:8.1f} Kops")
    for size, runs in sorted(results["svc"].items()):
        print(f"  SVC {size >> 20:3}MB  C {runs['C'].kops:8.1f}  "
              f"E {runs['E'].kops:8.1f} Kops")


def _fig16(results):
    print("Figure 16 — multicore scalability (Kops)")
    for store, by_wl in results.items():
        for wl, series in by_wl.items():
            row = " ".join(f"{t}:{r.kops:7.1f}" for t, r in sorted(series.items()))
            print(f"  {store:14} {wl:3} {row}")


def _fig17(results):
    result, store = results["timeline"], results["store"]
    print("Figure 17 — throughput timeline under GC")
    series = result.timeline.series()
    peak = max(series) if series else 1
    for i, rate in enumerate(series):
        marks = " <- GC" if i in result.timeline.events else ""
        print(f"  {i:4} {'#' * int(40 * rate / peak)}{marks}")
    print(f"  GC runs: {sum(vs.gc_runs for vs in store.storages)}")


def _ablations(results):
    print("§7.6 — ablations (Kops)")
    for variant, runs in results.items():
        row = " ".join(f"{wl}:{runs[wl].kops:8.1f}" for wl in ("A", "C", "E"))
        print(f"  {variant:18} {row}")


def _media(results):
    print("Extension — emerging media (Kops)")
    for label, runs in results.items():
        row = " ".join(f"{wl}:{runs[wl].kops:8.1f}" for wl in ("A", "C", "E"))
        print(f"  {label:22} {row}")


def _scalars(results):
    space, rec = results["nvm_space"], results["recovery"]
    print(f"NVM bytes/key: {space['bytes_per_key']:.1f} (paper ~54)")
    print(f"recovery: Prism {rec['prism_seconds'] * 1e3:.3f} ms "
          f"vs KVell {rec['kvell_seconds'] * 1e3:.3f} ms")


# ----------------------------------------------------------------------
# Robustness and integrity
# ----------------------------------------------------------------------
def _faults(results):
    print("Robustness — YCSB-A under injected transient faults")
    print(f"{'rate':>10} {'Kops':>9} {'injected':>9} {'retries':>8} "
          f"{'audit':>6} {'recover(ms)':>12}")
    for label, run in results["runs"].items():
        stats = results["faults"][label]
        print(f"{label:>10} {run.kops:>9.1f} {stats['injected']:>9.0f} "
              f"{stats['retries']:>8.0f} {stats['audit_violations']:>6.0f} "
              f"{stats['recovery_seconds'] * 1e3:>12.3f}")


def _scrub(results):
    print("Integrity — YCSB-A with checksums, mirroring, scrub + rebuild")
    print(f"{'rate':>12} {'Kops':>8} {'injected':>9} {'detected':>9} "
          f"{'repaired':>9} {'unrec':>6} {'wrong':>6} {'degraded':>9} "
          f"{'rebuild(ms)':>12}")
    for label, run in results["runs"].items():
        stats = results["scrub"][label]
        print(f"{label:>12} {run.kops:>8.1f} {stats['silent_injected']:>9.0f} "
              f"{stats['detected']:>9.0f} {stats['repaired']:>9.0f} "
              f"{stats['unrecoverable']:>6.0f} {stats['wrong_values']:>6.0f} "
              f"{stats['degraded_reads']:>9.0f} "
              f"{stats['rebuild_seconds'] * 1e3:>12.3f}")


# ----------------------------------------------------------------------
# The serving layer
# ----------------------------------------------------------------------
def _cluster(results):
    scaling, failover = results["scaling"], results["failover"]
    print("Cluster — aggregate throughput vs shard count (YCSB-C uniform, RF=1)")
    base = scaling[min(scaling)].throughput
    for shards, res in sorted(scaling.items()):
        print(f"  {shards:2} shards {res.run.kops:10.1f} Kops/s  "
              f"({res.throughput / base:4.2f}x)  "
              f"p99 {res.run.latency.p99():6.1f}us")
    yield  # the scaling gate
    print("\nCluster — failover under load (YCSB-A uniform, RF=2, quorum)")
    for label, res in failover.items():
        print(f"  {label:8} {res.run.kops:10.1f} Kops/s  "
              f"ok/shed/failed {res.ops_ok}/{res.ops_shed}/{res.ops_failed}")


def _grayfail(results):
    print("Gray failure — fail-slow replica (10x), read-heavy uniform, "
          "RF=2 quorum")
    for label in ("healthy", "undefended", "defended"):
        res = results[label]
        reads = res.run.per_kind["read"]
        hedges = ""
        if label == "defended":
            won, wasted, opened = (
                gf.event_count(res, kind)
                for kind in ("hedge_won", "hedge_wasted", "breaker_open")
            )
            hedges = (f"  hedges {won + wasted} fired / {won} won / "
                      f"{wasted} wasted; breaker opened {opened}x")
        print(f"  {label:10} read p50 {reads.median():7.1f}us  "
              f"p99 {reads.p99():7.1f}us{hedges}")
    print()


def _rebalance(results):
    print("Elasticity — live resharding under load (YCSB-A uniform, "
          "RF=2, quorum)")
    control = results[rb.CONTROL]
    for label, res in results.items():
        line = (f"  {label:9} {res.run.kops:9.1f} Kops/s  "
                f"ok/shed/failed {res.ops_ok}/{res.ops_shed}/{res.ops_failed}")
        if label == rb.CONTROL:
            print(line + "  no membership change")
            continue
        reb = res.rebalance
        print(f"{line}  moved {reb.get('keys_moved', 0)} keys  "
              f"migration-window read p99 {reb.get('read_p99_migrating', 0.0):6.1f}us "
              f"vs control {rb.control_read_p99(res, control):6.1f}us")
        yield  # this leg's gate


def _cache(results):
    print("Read cache — hot-key storm, cache off vs on")
    for label, run in results["storm"].items():
        reads = run.per_kind["read"]
        print(f"  cache {label:3} {run.kops:10.1f} Kops/s  "
              f"read p50 {reads.median():7.2f}us  "
              f"p99 {reads.p99():7.2f}us  "
              f"hit ratio {ca.hit_ratio(run):6.1%}")
    print("\nRead cache — hit ratio vs capacity vs skew")
    for theta_label, row in results["sweep"].items():
        cells = " ".join(
            f"{size}:{ca.hit_ratio(r):6.1%}" for size, r in row.items()
        )
        print(f"  {theta_label:12} {cells}")
    if "cluster" in results:
        print("\nCluster — storm reads, primary vs hot-key spread (RF=2)")
        for label, res in results["cluster"].items():
            reads = res.run.per_kind["read"]
            print(f"  {label:8} {res.run.kops:10.1f} Kops/s  "
                  f"read p50 {reads.median():6.2f}us  "
                  f"p99 {reads.p99():7.2f}us")
    print()


def _tiering(results):
    print("Tiering — Zipfian YCSB-B, working set 2x the fast tier "
          f"(seed {ti.GATE_SEEDS[0]})")
    for label in ti.MODES:
        run = results[label]
        reads = run.per_kind["read"]
        print(f"  {label:8} {run.kops:9.1f} Kops/s  "
              f"read p50 {reads.median():7.1f}us  "
              f"p99 {reads.p99():8.1f}us  "
              f"waf {run.waf:5.2f}  "
              f"${ti.cost_per_mop(run):8.2f}/Mops")
    stats = results["tiered"].stats
    print(f"\n  tiered placement: {stats.get('tier_demotions', 0):.0f} GC "
          f"demotions + {stats.get('tier_cold_reclaims', 0):.0f} cold "
          f"reclaims, {stats.get('tier_promotions', 0):.0f} promotions "
          f"({stats.get('tier_promotions_stale', 0):.0f} stale-dropped)")
    print(f"  demotion WAF {stats.get('tier_demotion_waf', 0.0):.3f}  "
          f"fast occupancy {stats.get('tier_fast_occupancy', 0.0):5.1%}  "
          f"cold occupancy {stats.get('tier_cold_occupancy', 0.0):5.1%}")
    print()


# The figure suite's entries come first, heavier sweeps leading so that
# ``figs --jobs N`` drains its pool evenly (fig14 shares fig13's sweep;
# no fig14 command exists).
EXPERIMENTS: Dict[str, Experiment] = {
    "fig9": Experiment(
        ex.skew_sweep, _fig9, ex.check_skew, figure=True,
        full_size_only=dict.fromkeys(
            ("  B Prism 1.5/1.2", "  C Prism 1.5/1.2"),
            "below it a thread runs ~50 ops (400 at --smoke) in ~300 us, so "
            "one more 50 us flash miss on the slowest thread moves "
            "throughput more than skew does between 1.2 and 1.5",
        ),
    ),
    "fig16": Experiment(
        ex.multicore_scalability, _fig16, ex.check_scalability, figure=True
    ),
    "fig12": Experiment(ex.waf_sweep, _fig12, ex.check_waf, figure=True),
    "fig13": Experiment(
        ex.ssd_scaling, _fig13, ex.check_ssd_scaling, figure=True
    ),
    "fig7": Experiment(ex.ycsb_comparison, _fig7, ex.check_ycsb, figure=True),
    "fig8": Experiment(
        ex.slmdb_comparison, _fig8, ex.check_slmdb, figure=True,
        full_size_only=dict.fromkeys(
            ("  A Prism/SLM-DB", "  E Prism/SLM-DB", "  A p99 SLM-DB/Prism"),
            "below it SLM-DB's 1 MB memtable never fills, so it never "
            "flushes or compacts and serves A and E from DRAM",
        ),
    ),
    "fig10": Experiment(ex.large_dataset, _fig10, ex.check_large, figure=True),
    "fig11": Experiment(
        ex.thread_combining_sweep, _fig11, ex.check_combining, figure=True
    ),
    "fig15": Experiment(
        ex.buffer_size_sweep, _fig15, ex.check_buffers, figure=True,
        full_size_only={
            "  C SVC 12MB/1MB": "below it the dataset (600 KB at --smoke) "
            "fits the smallest SVC, so no SVC size misses more than another",
        },
    ),
    "fig17": Experiment(
        ex.gc_timeline, _fig17, ex.check_gc_timeline, figure=True,
        full_size_only=dict.fromkeys(
            ("  GC rounds", "  gc events"),
            "below it Value Storage keeps its 8 MB floor (300 KB of data "
            "at --smoke), so no GC round runs",
        ),
    ),
    "ablations": Experiment(
        ex.ablations, _ablations, ex.check_ablations, figure=True
    ),
    "media": Experiment(media_matrix, _media, check_media, figure=True),
    "scalars": Experiment(ex.scalars, _scalars, ex.check_scalars, figure=True),
    "faults": Experiment(ex.fault_recovery, _faults, ex.check_faults),
    "scrub": Experiment(
        ex.scrub_sweep, _scrub, ex.check_scrub,
        smoke=dict(
            bitflip_rates=(0.0, 1e-3), num_keys=600, num_ops=600, num_threads=2
        ),
    ),
    "cluster": Experiment(
        cl.cluster_run, _cluster, cl.check_cluster,
        smoke=dict(
            scaling=dict(
                shard_counts=(1, 4), num_keys=2000, num_ops=4000,
                clients_per_shard=2,
            ),
            failover=dict(
                num_shards=2, num_keys=1500, num_ops=3000, clients_per_shard=2,
            ),
        ),
    ),
    "grayfail": Experiment(
        gf.grayfail_comparison, _grayfail, gf.check_grayfail,
        smoke=dict(num_keys=1200, num_ops=4000),
    ),
    "rebalance": Experiment(
        rb.cluster_rebalance, _rebalance, rb.check_rebalance,
        smoke=dict(
            num_keys=1200, num_ops=3000, clients_per_shard=2,
            bandwidth=64.0 * 1024,
        ),
    ),
    "cache": Experiment(
        ca.cache_run, _cache, ca.check_cache,
        smoke=dict(
            storm=dict(num_keys=2500, num_ops=5000),
            sweep=dict(
                capacities=(64 * 1024, 1 * MB), thetas=(1.3,),
                num_keys=2500, num_ops=2500, num_threads=2,
            ),
            hot_spread=None,  # the cluster leg is full mode only
        ),
    ),
    "tiering": Experiment(
        ti.tiering_comparison, _tiering, ti.check_tiering,
        smoke=dict(num_keys=1000, num_ops=6000),
    ),
}
COMMANDS = EXPERIMENTS  # the name tests/bench/test_cli.py iterates


@contextlib.contextmanager
def _restoring(name: str) -> Iterator[None]:
    """Put ``os.environ[name]`` back on exit: a flag exported for the
    worker processes must not outlive the command in this one."""
    old = os.environ.get(name)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def _print_gates(group: List[Gate], skip: Mapping[str, str]) -> bool:
    """One aligned PASS/FAIL line per gate, or SKIP with the reason for
    one ``skip`` names; True if every judged gate passed."""
    width = max((len(label) for label, _ok, _msg in group), default=0) + 1
    for label, ok, message in group:
        if label in skip:
            verdict, message = "SKIP", f"full size only: {skip[label]}"
        else:
            verdict = "PASS" if ok else "FAIL"
        detail = f" — {message}" if message else ""
        print(f"{label + ':':<{width}} {verdict}{detail}")
    return all(ok for label, ok, _msg in group if label not in skip)


def run_experiment(
    name: str, scale: Optional[float], smoke: bool
) -> Tuple[Dict, bool]:
    """Run → render → print gates.  Returns the results and whether
    every judged gate passed (below full size, the row's
    ``full_size_only`` gates are not judged)."""
    entry = EXPERIMENTS[name]
    with _restoring("REPRO_SCALE"):
        if smoke:
            scale = SMOKE_SCALE
        if scale is not None:
            os.environ["REPRO_SCALE"] = str(scale)
        results = entry.run(**(entry.smoke if smoke else {}))
        skip = entry.full_size_only if ex.scale() < 1.0 else {}
    verdicts = iter(entry.gates(results))
    ok = True
    for _ in entry.render(results) or ():
        ok &= _print_gates([next(verdicts)], skip)
    ok &= _print_gates(list(verdicts), skip)
    return results, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["figs", "list"]
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset/op multiplier (sets REPRO_SCALE)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="metrics JSON destination (default <experiment>.metrics.json; "
             "'none' disables)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fast configuration of any experiment (CI runs them "
             f"all): --scale {SMOKE_SCALE}, or the experiment's own smoke "
             "sizing where the table gives one; overrides --scale",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent runs out across N worker processes "
             "(default: $REPRO_JOBS or 1); all output is byte-identical "
             "to --jobs 1",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the experiment in cProfile and write a pstats dump "
             "next to the metrics JSON (profiles this process; with "
             "--jobs > 1 worker simulation time runs out of view)",
    )
    args = parser.parse_args(argv)
    name = args.experiment
    if name == "list":
        print("\n".join(sorted(EXPERIMENTS)))
        return 0

    with _restoring("REPRO_JOBS"):
        if args.jobs is not None:
            set_jobs(args.jobs)
        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        results = None
        if name == "figs":
            from repro.bench.figs import run_figs

            ok = run_figs(scale=args.scale, smoke=args.smoke,
                          write_metrics=args.metrics_out != "none")
        else:
            results, ok = run_experiment(name, args.scale, args.smoke)
        if profiler is not None:
            profiler.disable()
    if not ok:
        raise SystemExit(1)
    if results is not None and args.metrics_out != "none":
        out = args.metrics_out or f"{name}.metrics.json"
        payload = metrics_payload(name, results)
        write_metrics_json(out, payload)
        print(f"\nmetrics: {out} ({len(payload['runs'])} runs)")
    if profiler is not None:
        _dump_profile(profiler, args, name)
    return 0


def _dump_profile(profiler, args, experiment: str) -> None:
    """Write the cProfile dump next to the metrics JSON."""
    base = args.metrics_out
    if base in (None, "none"):
        base = f"{experiment}.metrics.json"
    out = os.path.join(
        os.path.dirname(base) or ".", f"{experiment}.profile.pstats"
    )
    profiler.dump_stats(out)
    print(f"profile: {out} (inspect with python -m pstats)")


if __name__ == "__main__":
    sys.exit(main())
