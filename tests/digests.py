"""Bit-identity anchors: seeded scenarios and their committed digests.

``tests/digests.json`` maps a scenario name to the sha256 of its
deterministic metrics view (``json.dumps(metrics, sort_keys=True,
indent=1)`` plus a trailing newline) and the ``repr`` of its final
virtual clock.  The ``test_bit_identity.py`` files under ``tests/cache``,
``tests/cluster`` and ``tests/tiering`` re-run a scenario and compare.

The manifest pins the tree as of PR 12: the per-feature golden JSON
blobs PRs 6-9 compared against were never committed (``.gitignore``'s
``*.metrics.json`` rule kept them out), so it was generated on that PR's
parent commit.  The final-vtime reprs equal the ones those PRs pinned.
The mover scenarios (``ycsb_a_gc``, ``tiered_gc``) were added by PR 13
and generated on its parent commit, before the relocation paths were
merged into one; they also digest the mover event log and a
crash-label census.

The scan scenario (``ycsb_e_scan``) was added by PR 18 and recorded
*after* that PR made scans fetch from every SSD at once — the change
was meant to move it, and no earlier scenario reached a multi-SSD scan.

PR 19 gave Value Storage a log head (batches append to the open chunk
instead of each taking a fresh one), a deliberate change of simulated
output wherever a batch is smaller than a chunk: ``ycsb_a``,
``ycsb_a_gc``, ``tiered_gc`` and ``ycsb_e_scan`` were regenerated,
``cluster_a`` (which never writes a chunk) did not move.  With chunks
no longer half empty a fast tier at half the dataset stopped spilling,
so ``tiered_gc`` squeezes it to a third.

The ``bench/<name>`` entries were added by PR 20 and generated on its
parent commit, before ``repro.bench`` became one experiment table: per
experiment, the sha256 of what ``python -m repro.bench <name>`` prints
(minus the ``metrics: <path>`` line) and of the metrics JSON it writes.
One of them moved in that PR, on purpose: ``bench/faults`` prints a gate
line it did not have (its metrics digest is the parent's).

The routed scenarios (``cluster_scan_failover``, ``cluster_async_spread``,
``cluster_gray_rebalance``) were added by PR 22 and generated on its
parent commit, before the router's five spellings of a routed attempt
became one: between them they reach the scan fan-out across a failover,
the async pump with spread reads and shedding, and hedges, breakers and
a migration window in one run — paths ``cluster_a`` never enters.

The restart scenario (``store_crash_resume``) was added by PR 23 and
generated on its parent commit, before ``Prism.recover`` became a
reconstruction (a new engine over the surviving media) and the
per-component ``crash()`` resets were deleted.  It was re-recorded once
in that PR; the parent-versus-change difference was bisected by letting
one pre-crash object at a time outlive the restart, and is exactly two
survivors that no longer survive (``recovery_sha256`` did not move):

* the placement rotor (``Prism._rr_storage``) used to carry on from
  where the dead process left it; it now starts at 0, so the storages
  the post-restart reclaims pick rotate differently — that alone moves
  ``metrics``, ``latencies``, ``events`` and the final vtime (put the
  old rotor back and all four equal the parent's);
* component counters are DRAM: ``stats()`` reported ``gc_runs``,
  ``svc_hits``, ``svc_admissions`` and ``svc_evictions`` since the
  store was built and now reports them since the restart (``puts``,
  ``gets``, ``reclaims`` and ``bytes_put`` are the store's lifetime
  ledger beside the device byte counters, and still span it).

Everything else ISSUE 23 found crossing a power failure (stale ring
completions, a pre-crash combining window, PWB cursors, lock times,
background clocks, the epoch tick) moved no byte of this scenario, nor
of ``bench/scalars`` and ``bench/faults``, the two older entries with a
crash in them.

When a GC round stopped reading one whole chunk per victim and started
reading only its victims' live records, as runs on the storage's ring,
exactly the entries whose scenario runs a GC round were re-recorded:
``ycsb_a_gc``, ``tiered_gc``, ``store_crash_resume`` (its tight store
collects early) and ``bench/tiering``; the crash-label censuses did not
move.  ``bench/fig17`` did not move either: at its smoke size no round
runs.

When a PWB reclaim stopped booking its whole window as one NVM read
and started reading headers, forward pointers and moved values as
gathers, every entry whose scenario reclaims was re-recorded: 26 of
29.  They were recorded again when a gather wave became ten 64 B line
fills instead of ten loads of any size, which moved the same 26.  ``bench/cluster``, ``bench/rebalance`` and ``bench/scalars`` did
not move, and neither did the crash-label censuses of ``ycsb_a_gc``
and ``tiered_gc``.

When an update stopped costing a key its SVC slot (the PWB reclaim
refills the cache for keys an update dropped from it), every entry but
``bench/fig12`` and ``bench/scalars`` was re-recorded.  Sixteen of the
tier-1 entries, and ``bench/ablations``, ``fig9``, ``fig16`` and
``tiering``, moved in simulated behaviour; ``bench/cluster``,
``fig8``, ``fig11``, ``fig15``, ``rebalance``, ``ycsb_a`` and
``cluster_a`` moved only because ``stats()`` gained ``svc_refreshes``
and the ``reclaim`` event ``svc_refreshed``.  The crash-label censuses
did not move.

When a value a flash read lands became the SVC entry without a DRAM
copy the reader waits for, every entry but ``bench/cluster``,
``fig12``, ``rebalance`` and ``scalars`` was re-recorded, each for
the path its scenario misses on: ``ycsb_e_scan`` for the scan's land
step alone; ``bench/ablations``, ``fig7``, ``fig8``, ``fig9``,
``fig10``, ``fig16``, ``media`` and ``cluster_scan_failover`` for both
that and the point-read miss; every other for the point-read miss
alone.  ``tiered_gc`` also moved because the ``gc_failed`` event gained
``read_bytes``.  The crash-label censuses and the recovery report did
not move.

When a shard's death became a paced ``fail`` migration (the live
resharding migrator) instead of an instant unbudgeted re-replication,
exactly the two entries whose scenario kills a shard were re-recorded:
``bench/cluster`` (its failover leg; stdout also gained the
killed/baseline throughput gate) and ``cluster_scan_failover``.

When the paper's figure rows got gates (each prints its shape claims
as ``PASS``/``FAIL``/``SKIP`` lines after its tables), exactly the
thirteen figure entries were re-recorded, and only their
``stdout_sha256``: ``bench/ablations``, ``fig7``, ``fig8``, ``fig9``,
``fig10``, ``fig11``, ``fig12``, ``fig13``, ``fig15``, ``fig16``,
``fig17``, ``media`` and ``scalars`` print gate lines they did not
have.  Every ``metrics_sha256`` and every other entry did not move.

When a cluster run came to take its ``stats.*`` where its window ends,
as it already took its events, instead of after the audit's
``cluster.flush()`` and read-back, exactly the seven entries whose
scenario audits a cluster run were re-recorded, and only their
``metrics_sha256``: ``cluster_a``, ``cluster_scan_failover``,
``cluster_async_spread``, ``cluster_gray_rebalance``, ``bench/cluster``,
``bench/grayfail`` and ``bench/rebalance``.  Only ``stats.*`` gauges
moved (EXPERIMENTS.md has them key by key); no stdout, event or final
vtime did.  ``bench/cache`` did not move: its runs use the single-store
driver.

When a scan chain whose recorded slots prove that a rewrite would move
nothing came to be evicted without its HSIT gather, exactly the
entries whose scenario evicts scan chains were re-recorded: the
gather's NVM loads no longer advance the cache's background thread.
``ycsb_e_scan`` (its ``final_vtime`` too), ``cluster_scan_failover``
and ``bench/fig7`` moved their metrics JSON; ``bench/ablations``,
``fig9``, ``fig10``, ``fig16`` and ``media`` their stdout as well.
Each of these runs YCSB-E; no other entry moved.

When recovery's PWB flush became a call of the relocation primitive
(``Prism._relocate``), nothing simulated moved: only the
``crash_labels_sha256`` of ``ycsb_a_gc`` and ``tiered_gc``, whose
censuses now count the flush's ``recover.pre_publish`` and
``recover.published``.  When the SVC's chain write-back became one too,
exactly the entries whose scenario rewrites scan chains were
re-recorded, the same set as above: the write-back no longer loads
every member's HSIT entry a second time after its batch write, so the
cache's background thread spends less virtual time on each rewrite.
``ycsb_e_scan`` (its ``final_vtime`` too), ``cluster_scan_failover``,
``bench/fig9`` and ``media`` moved their metrics JSON;
``bench/ablations``, ``fig7``, ``fig10`` and ``fig16`` their stdout as
well.  No other entry moved.

A deliberate behaviour change regenerates it, and the diff of
``digests.json`` is the one place to review it::

    PYTHONPATH=src python -m tests.digests
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.bench.__main__ import EXPERIMENTS, SMOKE_SCALE
from repro.bench.__main__ import main as bench_main
from repro.bench.cluster import YCSB_A_UNIFORM
from repro.bench.grayfail import TIGHT_SHARD
from repro.bench.runner import preload, run_workload
from repro.bench.stores import build_prism
from repro.cluster.health import HealthConfig
from repro.cluster.router import ClusterConfig, PrismCluster, default_shard_factory
from repro.cluster.runner import (
    GrayPlan,
    KillPlan,
    RebalancePlan,
    run_cluster_workload,
)
from repro.core.prism import Prism
from repro.faults.crash_sweep import (
    STORE_SCENARIOS,
    CrashSweep,
    default_ops,
    tight_store_config,
)
from repro.sim.vthread import VThread
from repro.storage.specs import QLC_SSD_SPEC
from repro.workloads.generator import OpStream
from repro.workloads.ycsb import WORKLOADS

MANIFEST = Path(__file__).with_name("digests.json")
KB = 1024


def _digest(store, metrics: dict) -> Dict[str, str]:
    payload = json.dumps(metrics, sort_keys=True, indent=1) + "\n"
    return {
        "metrics_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "final_vtime": repr(store.clock.now),
    }


def _require_exercised(counts: Dict[str, float]) -> None:
    """An anchor must not silently stop exercising the path it guards."""
    idle = [name for name, count in counts.items() if not count > 0]
    if idle:
        raise AssertionError(f"scenario no longer exercises: {idle}")


# Event kinds the data movers emit (plus every ``*_failed``).
MOVER_EVENTS = ("reclaim", "gc", "tier_demote", "tier_promote")


def _mover_digest(store, metrics: dict, scenario: str, covered) -> Dict[str, str]:
    """:func:`_digest` plus what the data movers did: the event log of
    every reclaim / GC / tier move / failure, and the crash-label
    census of the named sweep scenario under the default workload.

    ``covered`` names the ``stats()`` counters that must be non-zero.
    """
    stats = store.stats()
    _require_exercised({name: stats[name] for name in covered})
    events = [
        [e["kind"], sorted(e.items())]
        for e in store.events
        if e["kind"] in MOVER_EVENTS or e["kind"].endswith("_failed")
    ]
    census = CrashSweep(STORE_SCENARIOS[scenario], default_ops()).discover()
    digest = _digest(store, metrics)
    for name, view in (("events", events), ("crash_labels", census)):
        payload = json.dumps(view, sort_keys=True)
        digest[f"{name}_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    return digest


def ycsb_a() -> Tuple[object, Dict[str, str]]:
    """Single store, every optional subsystem off, seeded YCSB-A.

    Like every scenario, returns the store (for the caller's own
    assertions on its configuration) and the run's digest.
    """
    store = build_prism(num_threads=4)
    preload(store, 1500, num_threads=4)
    result = run_workload(store, WORKLOADS["A"], 3000, 1500, 4)
    return store, _digest(store, result.metrics)


def ycsb_a_gc() -> Tuple[object, Dict[str, str]]:
    """Space-squeezed store (Fig. 17 shape, small): Value Storage is 2x
    the dataset and GC triggers early, so reclaim and local GC both run."""
    keys = 1500
    store = build_prism(
        num_threads=4, num_ssds=2, dataset_bytes=keys * KB, expected_keys=keys,
        ssd_capacity=keys * KB, chunk_size=64 * KB, gc_free_threshold=0.3,
    )
    preload(store, keys, num_threads=4)
    result = run_workload(store, WORKLOADS["A"], 4000, keys, 4)
    return store, _mover_digest(
        store, result.metrics, "store", ("reclaims", "gc_runs")
    )


def tiered_gc() -> Tuple[object, Dict[str, str]]:
    """Temperature tiering with the fast tier at a third of the dataset:
    one fast + one cold SSD sized so reclaim-cold, GC demotion, spill, and
    read- and GC-triggered promotion all fire (and, with the fast tier
    this tight, some GC rounds fail for lack of room)."""
    keys = 600
    store = build_prism(
        num_threads=4, num_ssds=1, dataset_bytes=keys * KB, expected_keys=keys,
        ssd_capacity=keys * KB // 3, chunk_size=16 * KB, gc_free_threshold=0.3,
        enable_tiering=True, num_cold_ssds=1,
        cold_ssd_spec=QLC_SSD_SPEC.with_capacity(2 * keys * KB),
        tier_hot_threshold=3, tier_promote_threshold=2, tier_recency_window=64,
    )
    preload(store, keys, num_threads=4)
    result = run_workload(store, WORKLOADS["A"], 6000, keys, 4)
    triggers = {e["trigger"] for e in store.events.of_kind("tier_promote")}
    if triggers != {"read", "gc"}:
        raise AssertionError(f"promotion triggers exercised: {triggers}")
    return store, _mover_digest(
        store, result.metrics, "tiered",
        ("reclaims", "gc_runs", "tier_demotions", "tier_promotions",
         "tier_spills", "tier_cold_reclaims"),
    )


def ycsb_e_scan() -> Tuple[object, Dict[str, str]]:
    """YCSB-E on two SSDs with the SVC at a fifth of the dataset, so
    scans miss, fetch from both Value Storages at once, chain what they
    fetched, and evictions write chains back."""
    keys = 1500
    store = build_prism(
        num_threads=4, num_ssds=2, dataset_bytes=keys * KB, expected_keys=keys
    )
    preload(store, keys, num_threads=4)
    # Which scans submit to more than one storage: ``store.scans`` only
    # moves when a scan returns, so it names the scan a submission
    # belongs to.
    submissions: Dict[int, int] = {}

    def counting(plan):
        def plan_reads(records):
            submissions[store.scans] = submissions.get(store.scans, 0) + 1
            return plan(records)

        return plan_reads

    for vs in store.storages:
        vs.plan_reads = counting(vs.plan_reads)
    result = run_workload(store, WORKLOADS["E"], 800, keys, 4)
    _require_exercised({
        "two-storage scans": sum(1 for n in submissions.values() if n > 1),
        "scan write-backs": store.stats()["scan_writebacks"],
    })
    return store, _digest(store, result.metrics)


def store_crash_resume() -> Tuple[object, Dict[str, str]]:
    """The crash sweep's tight store (two PWBs, two SSDs, checksums, GC
    early), YCSB-A from two clients; the power fails half way, the store
    recovers, and the same clients carry on down the same streams.
    Digests the store's own registry and, each under its own key, every
    op's latency, the recovery report, ``stats()`` and the whole event
    log."""
    keys, ops, value_size = 300, 2400, 1024
    store = Prism(tight_store_config(enable_metrics=True))
    preload(store, keys, value_size, num_threads=2)
    threads = [VThread(tid, store.clock, name=f"app-{tid}") for tid in range(2)]
    streams = [
        OpStream(WORKLOADS["A"], keys, value_size=value_size, seed=11 + tid).ops(ops)
        for tid in range(2)
    ]
    latencies: List[float] = []

    def drive(count: int) -> None:
        for _ in range(count):
            thread = min(threads, key=lambda t: (t.now, t.tid))
            op = next(streams[thread.tid])
            before = thread.now
            if op.kind == "read":
                store.get(op.key, thread)
            else:
                store.put(op.key, op.value, thread)
            latencies.append(thread.now - before)

    drive(ops // 2)
    before = len(store.events)
    store.crash()
    report = store.recover(recovery_threads=2)
    drive(ops // 2)
    stats = store.stats()
    after = {e["kind"] for e in store.events.events[before:]}
    _require_exercised({
        "values flushed out of the PWBs by recovery": report.pwb_values_flushed,
        "reclaims": stats["reclaims"],
        "gc runs": stats["gc_runs"],
        "reclaims after the restart": "reclaim" in after,
        "gc after the restart": "gc" in after,
    })
    digest = _digest(store, store.metrics.to_dict())
    for name, view in (
        ("latencies", latencies),
        ("recovery", dataclasses.asdict(report)),
        ("stats", stats),
        ("events", [sorted(e.items()) for e in store.events]),
    ):
        payload = json.dumps(view, sort_keys=True)
        digest[f"{name}_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    return store, digest


def cluster_a() -> Tuple[object, Dict[str, str]]:
    """2-shard RF=2 quorum cluster, health off, seeded uniform YCSB-A."""
    cluster = PrismCluster(
        ClusterConfig(
            num_shards=2, replication_factor=2, replication_mode="quorum"
        )
    )
    preload(cluster, 800, num_threads=2, seed=1)
    result = run_cluster_workload(
        cluster, YCSB_A_UNIFORM, 1600, 800, clients_per_shard=2, seed=3
    )
    return cluster, _digest(cluster, result.run.metrics)


def _routed(config: ClusterConfig, spec, keys: int, ops: int, **plan):
    """A seeded run through the router over tight shards (values on
    flash); returns the cluster, the run and the window's events."""
    cluster = PrismCluster(
        config, shard_factory=partial(default_shard_factory, **TIGHT_SHARD)
    )
    preload(cluster, keys, num_threads=2, seed=1)
    result = run_cluster_workload(
        cluster, spec, ops, keys, clients_per_shard=2, seed=3, **plan
    )
    return cluster, result, result.run.metrics["events"]


def cluster_scan_failover() -> Tuple[object, Dict[str, str]]:
    """YCSB-E through a 3-shard RF=2 quorum cluster that loses shard 1
    half way: the scan fan-out and merge, before and after failover."""
    cluster, result, events = _routed(
        ClusterConfig(num_shards=3, replication_factor=2),
        WORKLOADS["E"], 600, 400, kill_plan=KillPlan(1, 0.5),
    )
    _require_exercised({
        "scans": len(result.run.per_kind["scan"].samples),
        "failovers": len(events.get("shard_down", ())),
    })
    return cluster, _digest(cluster, result.run.metrics)


def cluster_async_spread() -> Tuple[object, Dict[str, str]]:
    """Async replication, the hot-key spread read policy, a queue-depth
    cap and a rate limit tight enough to shed: the backlog pump,
    ``_pick_reader`` and the shed counts."""
    cluster, result, _events = _routed(
        ClusterConfig(
            num_shards=3, replication_factor=2, replication_mode="async",
            read_policy="spread", hot_key_threshold=4,
            max_queue_depth=3, rate_limit_ops=400_000.0, rate_burst=16.0,
        ),
        WORKLOADS["B"], 600, 2000,
    )
    _require_exercised({
        "ops_shed": result.ops_shed,
        "cluster shed": result.run.stats["cluster_shed"],
        "hot spread reads": cluster.hot_spread_reads,
        "async applies": sum(s.repl_applied for s in cluster.shards),
    })
    return cluster, _digest(cluster, result.run.metrics)


def cluster_gray_rebalance() -> Tuple[object, Dict[str, str]]:
    """Health scoring and hedging armed, one shard gray-failed, and a
    member added in the same run: breaker steering, the hedge, and the
    migration window's bypass of both."""
    cluster, result, events = _routed(
        ClusterConfig(num_shards=3, replication_factor=2, health=HealthConfig()),
        WORKLOADS["B"], 600, 2400,
        gray_plan=GrayPlan(shard_id=1, at_fraction=0.2, multiplier=10.0),
        rebalance_plan=RebalancePlan("add", at_fraction=0.6),
    )
    _require_exercised({
        "hedges": len(events.get("hedge_won", ())) + len(events.get("hedge_wasted", ())),
        "breaker trips": len(events.get("breaker_open", ())),
        "forwarded reads": cluster.forwarded_reads,
        "keys moved": sum(e["keys_moved"] for e in events.get("rebalance_done", ())),
    })
    return cluster, _digest(cluster, result.run.metrics)


SCENARIOS: Dict[str, Callable[[], Tuple[object, Dict[str, str]]]] = {
    "ycsb_a": ycsb_a,
    "ycsb_a_gc": ycsb_a_gc,
    "tiered_gc": tiered_gc,
    "ycsb_e_scan": ycsb_e_scan,
    "store_crash_resume": store_crash_resume,
    "cluster_a": cluster_a,
    "cluster_scan_failover": cluster_scan_failover,
    "cluster_async_spread": cluster_async_spread,
    "cluster_gray_rebalance": cluster_gray_rebalance,
}


def bench_argv(name: str) -> List[str]:
    """What a ``bench/<name>`` entry is recorded at: ``--smoke`` for the
    experiments whose table row has a literal smoke sizing, and for the
    rest ``--scale 0.05`` — the only small sizing the parent of PR 20
    had for them.  ``tests/bench/test_cli.py`` runs all of them at
    ``--smoke``, so equal digests also pin that ``--smoke`` *is*
    ``--scale 0.05`` there."""
    if EXPERIMENTS[name].smoke:
        return [name, "--smoke"]
    return [name, "--scale", str(SMOKE_SCALE)]


def bench_digest(argv: List[str]) -> Dict[str, str]:
    """Run the bench CLI in-process; digest its stdout and metrics JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "metrics.json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            bench_main([*argv, "--metrics-out", str(out)])  # a failed gate raises
        printed = "".join(
            line
            for line in buf.getvalue().splitlines(keepends=True)
            if not line.startswith("metrics: ")
        )
        return {
            "stdout_sha256": hashlib.sha256(printed.encode()).hexdigest(),
            "metrics_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        }


def expected(name: str) -> Dict[str, str]:
    return json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    manifest = {name: run()[1] for name, run in SCENARIOS.items()}
    for name in EXPERIMENTS:
        manifest[f"bench/{name}"] = bench_digest(bench_argv(name))
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"wrote {MANIFEST}")
