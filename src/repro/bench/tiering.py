"""Tiered-placement experiments: working set 2× the fast tier.

The capacity story behind ISSUE 9: a dataset twice the size of the
fast flash tier, served three ways on seeded, identical workloads —

* **tiered** — one fast Gen4 SSD plus a pool of cheap QLC cold SSDs,
  temperature placement on.  Hot data (the Zipfian head) lives fast;
  GC/reclaim demote the cold tail; re-access promotes back.
* **spread** — the no-tiering baseline on *identical hardware*: new
  data round-robins across every device, so ~3/4 of reads land on the
  SATA-bound QLC pool and queue behind its bandwidth channel — the
  tail the gate compares against.
* **all-fast** — equal *total* capacity built purely from Gen4 flash:
  the performance ceiling, at more than twice the SSD dollars.

Gates: tiered read p99 <= 0.6x spread (the median of that ratio over
``GATE_SEEDS``), tiered cost-per-op below all-fast, and demotion WAF
(extra cold-tier writes from GC demotions, per application byte)
accounted in the metrics JSON.

All runs are seeded and virtual-time deterministic.
"""

from __future__ import annotations

from itertools import product
from statistics import median
from typing import List, Optional, Tuple

from repro.bench.experiments import sizing, sweep
from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import build_prism
from repro.core.config import TIER_SPREAD, TIER_TEMPERATURE
from repro.storage.specs import QLC_SSD_SPEC
from repro.workloads.ycsb import YCSB_B

# 32 KB values for the same reason the cache storm uses them: transfers
# long enough that closed-loop readers queue on a saturated bandwidth
# channel.  On the 0.56 GB/s QLC tier that queueing is the whole
# experiment — spilled reads take milliseconds while unqueued fast
# reads stay near device latency.
TIER_VALUE_SIZE = 48 * 1024
TIER_THREADS = 16
DEFAULT_THETA = 1.2
NUM_FAST_SSDS = 2
NUM_COLD_SSDS = 4
MODES = ("tiered", "spread", "allfast")
# The p99 gate compares two closed-loop tails, and one seed's ratio is
# a reading of that seed: over seeds 1-16 it ranges 0.52-0.66 (0.41-0.62
# at --smoke size) around a median of 0.588 (0.515).  The QLC read
# channel runs at ~0.9 utilisation here, so whatever the 16 clients gain
# on the fast path they spend offering it more cold reads.  Five seeds
# were too few: their median moved by a few hundredths whenever mover
# timing did, with the tiered p99 itself unchanged.  The gate is the
# median over these seeds; the rows printed, and the other two gates,
# are the first one's.
GATE_SEEDS = tuple(range(1, 17))


def _build(mode: str, num_keys: int, num_threads: int, value_size: int):
    """One preloaded store; the dataset is 2x the fast-tier capacity.

    tiered/spread share hardware exactly (1 fast + 3 cold QLC);
    allfast matches their *total* capacity with 4 fast SSDs.
    """
    dataset = num_keys * value_size
    fast_capacity = dataset // 2  # dataset = 2x the fast tier
    # Every config gets 2.5x the dataset in total capacity, with the
    # cold pool supplying 2x of it.  Cheap capacity is the entire
    # point of a QLC tier: sized tightly it would sit under the GC
    # threshold and compact itself forever, and every cold read would
    # queue behind that churn.
    cold_capacity = (dataset * 2) // NUM_COLD_SSDS
    total_capacity = fast_capacity + NUM_COLD_SSDS * cold_capacity
    common = dict(
        num_threads=num_threads,
        dataset_bytes=dataset,
        # A deliberately thin DRAM cache (1% of the dataset): the
        # experiment is about device placement, and a dataset-sized
        # SVC would serve the hot set from DRAM in every config.
        svc_capacity=max(64 * 1024, dataset // 100),
        expected_keys=num_keys,
        # A GC round rewrites its victims' survivors before it frees
        # them, and with values this large the survivors of eight
        # chunks are megabytes: the default 15% threshold leaves too
        # few free chunks to relocate into once the PWBs drain
        # concurrently.  Reserve the customary log-structured 30%.
        gc_free_threshold=0.3,
        # Sized to the 48 KB values.  A record never straddles chunks,
        # so what does not fit behind the last one is lost for the
        # chunk's lifetime whatever the batch size: five records pack
        # into 256 KB with ~6% of it lost (128 KB would fit only two,
        # losing a quarter of every chunk and tripling GC churn).
        chunk_size=256 * 1024,
    )
    num_devices = NUM_FAST_SSDS + NUM_COLD_SSDS
    if mode == "allfast":
        store = build_prism(
            num_ssds=num_devices,
            ssd_capacity=total_capacity // num_devices,
            **common,
        )
    else:
        store = build_prism(
            num_ssds=NUM_FAST_SSDS,
            ssd_capacity=fast_capacity // NUM_FAST_SSDS,
            enable_tiering=True,
            num_cold_ssds=NUM_COLD_SSDS,
            cold_ssd_spec=QLC_SSD_SPEC.with_capacity(cold_capacity),
            tier_policy=TIER_TEMPERATURE if mode == "tiered" else TIER_SPREAD,
            # Promote only into real slack: with the working set at 2x
            # the fast tier, a thin headroom floor lets promotions pin
            # occupancy against the GC threshold and thrash
            # (promote -> demote -> promote) on every Zipf-tail read.
            tier_fast_headroom=0.15,
            # A Zipf tail key crosses frequency 2 within a few thousand
            # ops; promoting at that bar cycles the whole tail through
            # the fast tier (promote -> demote -> promote).  Demand
            # real reheat before paying the migration write.
            tier_hot_threshold=3,
            tier_promote_threshold=3,
            **common,
        )
    preload(store, num_keys, value_size=value_size, num_threads=num_threads)
    return store


def tier_run(
    seed: int,
    mode: str,
    num_keys: int,
    num_ops: int,
    num_threads: int = TIER_THREADS,
    theta: float = DEFAULT_THETA,
    value_size: int = TIER_VALUE_SIZE,
) -> RunResult:
    """One seeded Zipfian read-heavy run (YCSB-B mix) in one mode."""
    if mode not in MODES:
        raise ValueError(f"unknown tiering mode: {mode}")
    store = _build(mode, num_keys, num_threads, value_size)
    result = run_workload(
        store, YCSB_B, num_ops, num_keys,
        num_threads=num_threads, value_size=value_size, theta=theta,
        seed=seed, warmup_ops=num_ops // 4,
    )
    # Dollars of storage per million ops/s of delivered throughput —
    # the capacity story in one number.  Only the SSDs are priced
    # (DeviceSpec.cost()): the DRAM cache and NVM buffer budgets are
    # identical across the three configs, so they would only dilute
    # the variable under test.
    result.stats["ssd_cost"] = sum(
        ssd.spec.cost() for ssd in store.ssds + store.cold_ssds
    )
    result.stats["hardware_cost"] = store.config.hardware_cost()
    return result


def tiering_comparison(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = TIER_THREADS,
    theta: float = DEFAULT_THETA,
) -> Tuple[RunResult, RunResult, RunResult, List[float]]:
    """The same workload, tiered vs spread vs all-fast.

    Returns ``(tiered, spread, allfast, ratios)``: the three runs at
    ``GATE_SEEDS[0]`` and the tiered/spread read-p99 ratio at every
    gate seed, in ``GATE_SEEDS`` order.
    """
    num_keys, num_ops = sizing(num_keys, num_ops, 3_000, 12_000)
    runs = sweep(
        tier_run,
        list(product(GATE_SEEDS, ("tiered", "spread")))
        + [(GATE_SEEDS[0], "allfast")],
        (num_keys, num_ops, num_threads, theta),
    )
    ratios = [
        runs[seed]["tiered"].per_kind["read"].p99()
        / runs[seed]["spread"].per_kind["read"].p99()
        for seed in GATE_SEEDS
    ]
    first = runs[GATE_SEEDS[0]]
    return first["tiered"], first["spread"], first["allfast"], ratios


def cost_per_mop(result: RunResult) -> float:
    """SSD dollars per million ops/s of delivered throughput."""
    if result.throughput <= 0:
        return float("inf")
    return result.stats["ssd_cost"] / (result.throughput / 1e6)


def check_read_p99(ratios: List[float], limit: float = 0.6) -> Tuple[bool, str]:
    """Acceptance gate: tiered read p99 <= limit x the spread baseline,
    judged on the median of the per-seed ratios."""
    mid = median(ratios)
    shown = ", ".join(
        f"{seed}: {ratio:.3f}" for seed, ratio in zip(GATE_SEEDS, ratios)
    )
    return mid <= limit, (
        f"read p99 tiered / spread, median over seeds = {mid:.3f} "
        f"({shown}; gate: <= {limit:.1f}x)"
    )


def check_cost_per_op(
    tiered: RunResult, allfast: RunResult
) -> Tuple[bool, str]:
    """Acceptance gate: tiered $/Mop/s below the all-fast build of
    equal total capacity."""
    c_tiered = cost_per_mop(tiered)
    c_allfast = cost_per_mop(allfast)
    ok = c_tiered < c_allfast
    return ok, (
        f"cost ${c_tiered:.2f}/Mops tiered vs ${c_allfast:.2f}/Mops "
        f"all-fast (gate: lower)"
    )


def check_demotion_waf(tiered: RunResult) -> Tuple[bool, str]:
    """Acceptance gate: demotion traffic is accounted — the tier
    moved data cold and reports the extra writes per application byte."""
    waf = tiered.stats.get("tier_demotion_waf")
    demoted = tiered.stats.get("tier_demotions", 0)
    ok = waf is not None and waf > 0 and demoted > 0
    shown = "absent" if waf is None else f"{waf:.3f}"
    return ok, (
        f"demotion WAF {shown} ({int(demoted)} GC demotions; "
        f"gate: present and > 0)"
    )
