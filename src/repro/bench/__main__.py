"""Command-line front end for the experiment suite.

Examples::

    python -m repro.bench list
    python -m repro.bench fig7
    python -m repro.bench fig12 --scale 0.5
    python -m repro.bench ablations
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench import experiments as ex
from repro.bench.extensions import media_matrix
from repro.bench.report import (
    latency_table,
    metrics_payload,
    throughput_table,
    write_metrics_json,
)


def _fig7(args):
    results = ex.ycsb_comparison()
    print(throughput_table("Figure 7 — YCSB throughput", results,
                           ("LOAD", "A", "B", "C", "D", "E")))
    print()
    print(latency_table("Table 3 — latency (us)", results, ("A", "C", "E")))
    return results


def _fig8(args):
    results = ex.slmdb_comparison()
    print(throughput_table("Figure 8 — Prism vs SLM-DB", results,
                           ("LOAD", "A", "B", "C", "D", "E")))
    print()
    print(latency_table("Table 4 — latency (us)", results, ("A", "C", "E")))
    return results


def _fig9(args):
    results = ex.skew_sweep()
    thetas = sorted(next(iter(next(iter(results.values())).values())))
    print("Figure 9 — relative throughput vs Zipfian coefficient")
    for store, by_wl in results.items():
        for wl, series in by_wl.items():
            base = series[0.99].throughput
            rel = " ".join(f"{t}:{series[t].throughput / base:5.2f}" for t in thetas)
            print(f"  {store:14} {wl:3} {rel}")
    return results


def _fig10(args):
    big = ex.large_dataset()
    print(throughput_table("Figure 10a — large dataset", big,
                           ("A", "B", "C", "D", "E")))
    nutanix = ex.nutanix_run()
    print("\nFigure 10b — Nutanix mix")
    for name, result in nutanix.items():
        print(f"  {name:8} {result.kops:10.1f} Kops/s")
    return {"large": big, "nutanix": nutanix}


def _fig11(args):
    results = ex.thread_combining_sweep()
    print("Figure 11 — TC vs TA (YCSB-C)")
    print(f"{'QD':>4} {'TC Kops':>10} {'TA Kops':>10} {'TC avg':>8} {'TA avg':>8}")
    for qd in sorted(results["TC"]):
        tc, ta = results["TC"][qd], results["TA"][qd]
        print(f"{qd:>4} {tc.kops:>10.1f} {ta.kops:>10.1f} "
              f"{tc.latency.average():>8.1f} {ta.latency.average():>8.1f}")
    return results


def _fig12(args):
    results = ex.waf_sweep()
    print("Figure 12 — SSD-level WAF vs skew")
    for size, by_store in results.items():
        print(f"\n value size {size} B")
        for store, series in by_store.items():
            row = " ".join(f"{t}:{w:5.2f}" for t, w in sorted(series.items()))
            print(f"  {store:10} {row}")
    return results


def _fig13(args):
    results = ex.ssd_scaling()
    print("Figures 13–14 — #SSD scaling")
    for store, by_wl in results.items():
        for wl, series in by_wl.items():
            row = " ".join(f"{n}:{r.kops:7.1f}" for n, r in sorted(series.items()))
            print(f"  {store:8} {wl:3} {row}  Kops")
    return results


def _fig15(args):
    results = ex.buffer_size_sweep()
    print("Figure 15 — buffer sizing")
    for size, runs in sorted(results["pwb"].items()):
        print(f"  PWB {size >> 20:3}MB  LOAD {runs['LOAD'].kops:8.1f}  "
              f"A {runs['A'].kops:8.1f} Kops")
    for size, runs in sorted(results["svc"].items()):
        print(f"  SVC {size >> 20:3}MB  C {runs['C'].kops:8.1f}  "
              f"E {runs['E'].kops:8.1f} Kops")
    return results


def _fig16(args):
    results = ex.multicore_scalability()
    print("Figure 16 — multicore scalability (Kops)")
    for store, by_wl in results.items():
        for wl, series in by_wl.items():
            row = " ".join(f"{t}:{r.kops:7.1f}" for t, r in sorted(series.items()))
            print(f"  {store:14} {wl:3} {row}")
    return results


def _fig17(args):
    result, store = ex.gc_timeline()
    print("Figure 17 — throughput timeline under GC")
    series = result.timeline.series()
    peak = max(series) if series else 1
    for i, rate in enumerate(series):
        marks = " <- GC" if i in result.timeline.events else ""
        print(f"  {i:4} {'#' * int(40 * rate / peak)}{marks}")
    print(f"  GC runs: {sum(vs.gc_runs for vs in store.storages)}")
    return {"timeline": result}


def _ablations(args):
    results = ex.ablations()
    print("§7.6 — ablations (Kops)")
    for variant, runs in results.items():
        row = " ".join(f"{wl}:{runs[wl].kops:8.1f}" for wl in ("A", "C", "E"))
        print(f"  {variant:18} {row}")
    return results


def _scalars(args):
    space = ex.nvm_space()
    print(f"NVM bytes/key: {space['bytes_per_key']:.1f} (paper ~54)")
    rec = ex.recovery_comparison()
    print(f"recovery: Prism {rec['prism_seconds'] * 1e3:.3f} ms "
          f"vs KVell {rec['kvell_seconds'] * 1e3:.3f} ms")
    return {"nvm_space": space, "recovery": rec}


def _faults(args):
    results = ex.fault_recovery()
    print("Robustness — YCSB-A under injected transient faults")
    print(f"{'rate':>10} {'Kops':>9} {'injected':>9} {'retries':>8} "
          f"{'audit':>6} {'recover(ms)':>12}")
    for label, run in results["runs"].items():
        stats = results["faults"][label]
        print(f"{label:>10} {run.kops:>9.1f} {stats['injected']:>9.0f} "
              f"{stats['retries']:>8.0f} {stats['audit_violations']:>6.0f} "
              f"{stats['recovery_seconds'] * 1e3:>12.3f}")
    return results


def _scrub(args):
    if getattr(args, "smoke", False):
        results = ex.scrub_sweep(
            bitflip_rates=(0.0, 1e-3), num_keys=600, num_ops=600, num_threads=2
        )
    else:
        results = ex.scrub_sweep()
    print("Integrity — YCSB-A with checksums, mirroring, scrub + rebuild")
    print(f"{'rate':>12} {'Kops':>8} {'injected':>9} {'detected':>9} "
          f"{'repaired':>9} {'unrec':>6} {'wrong':>6} {'degraded':>9} "
          f"{'rebuild(ms)':>12}")
    ok = True
    for label, run in results["runs"].items():
        stats = results["scrub"][label]
        print(f"{label:>12} {run.kops:>8.1f} {stats['silent_injected']:>9.0f} "
              f"{stats['detected']:>9.0f} {stats['repaired']:>9.0f} "
              f"{stats['unrecoverable']:>6.0f} {stats['wrong_values']:>6.0f} "
              f"{stats['degraded_reads']:>9.0f} "
              f"{stats['rebuild_seconds'] * 1e3:>12.3f}")
        if stats["wrong_values"] or stats["degraded_reads"]:
            ok = False
    print("integrity check:", "PASS" if ok else "FAIL")
    if not ok:
        raise SystemExit(1)
    return results


def _cluster(args):
    from repro.bench import cluster as cl

    if getattr(args, "smoke", False):
        scaling = cl.cluster_scaling(
            shard_counts=(1, 4), num_keys=2000, num_ops=4000,
            clients_per_shard=2,
        )
        baseline, killed = cl.cluster_failover(
            num_shards=2, num_keys=1500, num_ops=3000, clients_per_shard=2,
        )
    else:
        scaling = cl.cluster_scaling()
        baseline, killed = cl.cluster_failover()
    print("Cluster — aggregate throughput vs shard count (YCSB-C uniform, RF=1)")
    base = scaling[min(scaling)].throughput
    for shards, res in sorted(scaling.items()):
        print(f"  {shards:2} shards {res.run.kops:10.1f} Kops/s  "
              f"({res.throughput / base:4.2f}x)  "
              f"p99 {res.run.latency.p99():6.1f}us")
    ok_scale, scale_msg = cl.check_scaling(scaling)
    print(f"  scaling gate: {'PASS' if ok_scale else 'FAIL'} — {scale_msg}")
    print("\nCluster — failover under load (YCSB-A uniform, RF=2, quorum)")
    print(f"  baseline {baseline.run.kops:10.1f} Kops/s  "
          f"ok/shed/failed {baseline.ops_ok}/{baseline.ops_shed}/"
          f"{baseline.ops_failed}")
    print(f"  killed   {killed.run.kops:10.1f} Kops/s  "
          f"ok/shed/failed {killed.ops_ok}/{killed.ops_shed}/"
          f"{killed.ops_failed}")
    ok_fail, fail_msg = cl.check_failover(killed)
    print(f"  failover gate: {'PASS' if ok_fail else 'FAIL'} — {fail_msg}")
    if not (ok_scale and ok_fail):
        raise SystemExit(1)
    return {
        "scaling": {n: r.run for n, r in scaling.items()},
        "failover": {"baseline": baseline.run, "killed": killed.run},
    }


def _grayfail(args):
    from repro.bench import grayfail as gf

    if getattr(args, "smoke", False):
        results = gf.grayfail_comparison(num_keys=1200, num_ops=4000)
    else:
        results = gf.grayfail_comparison()
    print("Gray failure — fail-slow replica (10x), read-heavy uniform, "
          "RF=2 quorum")
    for label in ("healthy", "undefended", "defended"):
        res = results[label]
        reads = res.run.per_kind["read"]
        counters = (res.run.metrics or {}).get("counters", {})
        hedges = ""
        if label == "defended":
            hedges = (f"  hedges {counters.get('hedge.fired', 0)} fired / "
                      f"{counters.get('hedge.won', 0)} won / "
                      f"{counters.get('hedge.wasted', 0)} wasted; "
                      f"breaker opened {counters.get('breaker.opened', 0)}x")
        print(f"  {label:10} read p50 {reads.median():7.1f}us  "
              f"p99 {reads.p99():7.1f}us{hedges}")
    ok_tail, tail_msg = gf.check_tail(results["healthy"], results["defended"])
    ok_cost, cost_msg = gf.check_overhead(results["defended"])
    print(f"\n  tail gate:     {'PASS' if ok_tail else 'FAIL'} — {tail_msg}")
    print(f"  overhead gate: {'PASS' if ok_cost else 'FAIL'} — {cost_msg}")
    if not (ok_tail and ok_cost):
        raise SystemExit(1)
    return {label: res.run for label, res in results.items()}


def _rebalance(args):
    from repro.bench import rebalance as rb

    if getattr(args, "smoke", False):
        results = rb.cluster_rebalance(
            num_keys=1200, num_ops=3000, clients_per_shard=2,
            bandwidth=64.0 * 1024,
        )
    else:
        results = rb.cluster_rebalance()
    print("Elasticity — live resharding under load (YCSB-A uniform, "
          "RF=2, quorum)")
    all_ok = True
    for label in ("scale_out", "scale_in"):
        res = results[label]
        reb = res.rebalance
        print(f"  {label:9} {res.run.kops:9.1f} Kops/s  "
              f"ok/shed/failed {res.ops_ok}/{res.ops_shed}/{res.ops_failed}  "
              f"moved {reb.get('keys_moved', 0)} keys  "
              f"forwarded-read p99 window {reb.get('read_p99_migrating', 0.0):6.1f}us "
              f"vs steady {reb.get('read_p99_steady', 0.0):6.1f}us")
        ok, msg = rb.check_rebalance(res)
        print(f"  {label} gate: {'PASS' if ok else 'FAIL'} — {msg}")
        all_ok = all_ok and ok
    if not all_ok:
        raise SystemExit(1)
    return {label: res.run for label, res in results.items()}


def _cache(args):
    from repro.bench import cache as ca
    from repro.bench.stores import MB

    smoke = getattr(args, "smoke", False)
    if smoke:
        off, on = ca.storm_comparison(num_keys=2500, num_ops=5000)
        sweep = ca.cache_sweep(
            capacities=(64 * 1024, 1 * MB), thetas=(1.3,),
            num_keys=2500, num_ops=2500, num_threads=2,
        )
        cluster_runs = None
    else:
        off, on = ca.storm_comparison()
        sweep = ca.cache_sweep()
        cluster_runs = ca.cluster_hot_spread()
    print("Read cache — hot-key storm, cache off vs on")
    for label, run in (("off", off), ("on", on)):
        reads = run.per_kind["read"]
        print(f"  cache {label:3} {run.kops:10.1f} Kops/s  "
              f"read p50 {reads.median():7.2f}us  "
              f"p99 {reads.p99():7.2f}us  "
              f"hit ratio {ca.hit_ratio(run):6.1%}")
    print("\nRead cache — hit ratio vs capacity vs skew")
    for theta_label, row in sweep.items():
        cells = " ".join(
            f"{size}:{ca.hit_ratio(r):6.1%}" for size, r in row.items()
        )
        print(f"  {theta_label:12} {cells}")
    if cluster_runs is not None:
        primary, spread = cluster_runs
        print("\nCluster — storm reads, primary vs hot-key spread (RF=2)")
        for label, res in (("primary", primary), ("spread", spread)):
            reads = res.run.per_kind["read"]
            print(f"  {label:8} {res.run.kops:10.1f} Kops/s  "
                  f"read p50 {reads.median():6.2f}us  "
                  f"p99 {reads.p99():7.2f}us")
    ok_hits, hits_msg = ca.check_hit_ratio(on)
    ok_p99, p99_msg = ca.check_read_p99(off, on)
    print(f"\n  hit-ratio gate: {'PASS' if ok_hits else 'FAIL'} — {hits_msg}")
    print(f"  p99 gate:       {'PASS' if ok_p99 else 'FAIL'} — {p99_msg}")
    if not (ok_hits and ok_p99):
        raise SystemExit(1)
    results = {"storm": {"off": off, "on": on}, "sweep": sweep}
    if cluster_runs is not None:
        results["cluster"] = {
            "primary": cluster_runs[0].run, "spread": cluster_runs[1].run,
        }
    return results


def _tiering(args):
    from repro.bench import tiering as ti

    if getattr(args, "smoke", False):
        tiered, spread, allfast, ratios = ti.tiering_comparison(
            num_keys=1000, num_ops=6000
        )
    else:
        tiered, spread, allfast, ratios = ti.tiering_comparison()
    print("Tiering — Zipfian YCSB-B, working set 2x the fast tier "
          f"(seed {ti.GATE_SEEDS[0]})")
    for label, run in (("tiered", tiered), ("spread", spread),
                       ("allfast", allfast)):
        reads = run.per_kind["read"]
        print(f"  {label:8} {run.kops:9.1f} Kops/s  "
              f"read p50 {reads.median():7.1f}us  "
              f"p99 {reads.p99():8.1f}us  "
              f"waf {run.waf:5.2f}  "
              f"${ti.cost_per_mop(run):8.2f}/Mops")
    stats = tiered.stats
    print(f"\n  tiered placement: {stats.get('tier_demotions', 0):.0f} GC "
          f"demotions + {stats.get('tier_cold_reclaims', 0):.0f} cold "
          f"reclaims, {stats.get('tier_promotions', 0):.0f} promotions "
          f"({stats.get('tier_promotions_stale', 0):.0f} stale-dropped)")
    print(f"  demotion WAF {stats.get('tier_demotion_waf', 0.0):.3f}  "
          f"fast occupancy {stats.get('tier_fast_occupancy', 0.0):5.1%}  "
          f"cold occupancy {stats.get('tier_cold_occupancy', 0.0):5.1%}")
    ok_p99, p99_msg = ti.check_read_p99(ratios)
    ok_cost, cost_msg = ti.check_cost_per_op(tiered, allfast)
    ok_waf, waf_msg = ti.check_demotion_waf(tiered)
    print(f"\n  p99 gate:  {'PASS' if ok_p99 else 'FAIL'} — {p99_msg}")
    print(f"  cost gate: {'PASS' if ok_cost else 'FAIL'} — {cost_msg}")
    print(f"  waf gate:  {'PASS' if ok_waf else 'FAIL'} — {waf_msg}")
    if not (ok_p99 and ok_cost and ok_waf):
        raise SystemExit(1)
    return {"tiered": tiered, "spread": spread, "allfast": allfast}


def _media(args):
    results = media_matrix()
    print("Extension — emerging media (Kops)")
    for label, runs in results.items():
        row = " ".join(f"{wl}:{runs[wl].kops:8.1f}" for wl in ("A", "C", "E"))
        print(f"  {label:22} {row}")
    return results


COMMANDS = {
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "ablations": _ablations,
    "cache": _cache,
    "cluster": _cluster,
    "faults": _faults,
    "grayfail": _grayfail,
    "rebalance": _rebalance,
    "scalars": _scalars,
    "scrub": _scrub,
    "tiering": _tiering,
    "media": _media,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "experiment", choices=sorted(COMMANDS) + ["figs", "list"]
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
        help="tiny fast configuration (CI smoke; cache, cluster, grayfail, "
             "rebalance, scrub, and tiering)",
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
    if args.experiment == "list":
        for name in sorted(COMMANDS):
            print(name)
        return 0
    if args.jobs is not None:
        from repro.parallel import set_jobs

        set_jobs(args.jobs)
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    if args.experiment == "figs":
        from repro.bench.figs import run_figs

        if profiler is not None:
            profiler.enable()
        rc = run_figs(scale=args.scale, smoke=args.smoke,
                      write_metrics=args.metrics_out != "none")
        if profiler is not None:
            profiler.disable()
            _dump_profile(profiler, args, "figs")
        return rc

    if profiler is not None:
        profiler.enable()
    results = COMMANDS[args.experiment](args)
    if profiler is not None:
        profiler.disable()
    if results is not None and args.metrics_out != "none":
        out = args.metrics_out or f"{args.experiment}.metrics.json"
        payload = metrics_payload(args.experiment, results)
        write_metrics_json(out, payload)
        print(f"\nmetrics: {out} ({len(payload['runs'])} runs)")
    if profiler is not None:
        _dump_profile(profiler, args, args.experiment)
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
