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
from typing import Dict, List, Optional

from repro.bench.experiments import sizing, sweep
from repro.bench.report import Gate
from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import build_prism, pwb_capacity
from repro.core import pwb
from repro.core.config import TIER_SPREAD, TIER_TEMPERATURE
from repro.core.record import RECORD_HEADER
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
# Tiered read p99 / spread read p99 (the seed median) must stay at or
# below this.
P99_LIMIT = 0.6
# The default sizing, multiplied by REPRO_SCALE.
NUM_KEYS, NUM_OPS = 3_000, 12_000


class PWBTooSmallError(ValueError):
    """The run is too small for one value to fit a thread's PWB: each
    of the ``TIER_THREADS`` buffers is a share of 16% of the dataset,
    so too few keys leave each too small for one record."""


def _thread_pwb(num_keys: int) -> int:
    """A thread's PWB capacity as :func:`build_prism` derives it."""
    return pwb_capacity(num_keys * TIER_VALUE_SIZE, TIER_THREADS)


def check_pwb_fits(num_keys: int) -> None:
    """Raise :class:`PWBTooSmallError` unless one ``TIER_VALUE_SIZE``
    record fits a thread's PWB at ``num_keys`` keys, naming the
    smallest key count and ``REPRO_SCALE`` at which it does."""
    capacity = _thread_pwb(num_keys)
    if pwb.holds(capacity, RECORD_HEADER, TIER_VALUE_SIZE):
        return
    least = num_keys + 1
    while not pwb.holds(_thread_pwb(least), RECORD_HEADER, TIER_VALUE_SIZE):
        least += 1
    least_scale = -(-least * 1000 // NUM_KEYS) / 1000
    raise PWBTooSmallError(
        f"tiering at {num_keys} keys: a {TIER_VALUE_SIZE}B value does "
        f"not fit a thread's PWB of {capacity}B ({TIER_THREADS} threads "
        f"share 16% of the dataset, and one record may fill at most half "
        f"a PWB); it fits from {least} keys, scale {least_scale:g} or more"
    )


def _build(mode: str, num_keys: int):
    """One preloaded store; the dataset is 2x the fast-tier capacity.

    tiered/spread share hardware exactly (1 fast + 3 cold QLC);
    allfast matches their *total* capacity with 4 fast SSDs.
    """
    dataset = num_keys * TIER_VALUE_SIZE
    fast_capacity = dataset // 2  # dataset = 2x the fast tier
    # Every config gets 2.5x the dataset in total capacity, with the
    # cold pool supplying 2x of it.  Cheap capacity is the entire
    # point of a QLC tier: sized tightly it would sit under the GC
    # threshold and compact itself forever, and every cold read would
    # queue behind that churn.
    cold_capacity = (dataset * 2) // NUM_COLD_SSDS
    total_capacity = fast_capacity + NUM_COLD_SSDS * cold_capacity
    common = dict(
        num_threads=TIER_THREADS,
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
    preload(
        store, num_keys, value_size=TIER_VALUE_SIZE, num_threads=TIER_THREADS
    )
    return store


def tier_run(seed: int, mode: str, num_keys: int, num_ops: int) -> RunResult:
    """One seeded Zipfian read-heavy run (YCSB-B mix) in one mode."""
    if mode not in MODES:
        raise ValueError(f"unknown tiering mode: {mode}")
    store = _build(mode, num_keys)
    result = run_workload(
        store, YCSB_B, num_ops, num_keys,
        num_threads=TIER_THREADS, value_size=TIER_VALUE_SIZE,
        theta=DEFAULT_THETA, seed=seed, warmup_ops=num_ops // 4,
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
    num_keys: Optional[int] = None, num_ops: Optional[int] = None
) -> Dict[str, object]:
    """The same workload, tiered vs spread vs all-fast.

    Returns the three runs at ``GATE_SEEDS[0]`` by mode, and as
    ``ratios`` the tiered/spread read-p99 ratio at every gate seed, in
    ``GATE_SEEDS`` order.
    """
    num_keys, num_ops = sizing(num_keys, num_ops, NUM_KEYS, NUM_OPS)
    check_pwb_fits(num_keys)
    runs = sweep(
        tier_run,
        list(product(GATE_SEEDS, ("tiered", "spread")))
        + [(GATE_SEEDS[0], "allfast")],
        (num_keys, num_ops),
    )
    ratios = [
        runs[seed]["tiered"].per_kind["read"].p99()
        / runs[seed]["spread"].per_kind["read"].p99()
        for seed in GATE_SEEDS
    ]
    return {**runs[GATE_SEEDS[0]], "ratios": ratios}


def cost_per_mop(result: RunResult) -> float:
    """SSD dollars per million ops/s of delivered throughput."""
    if result.throughput <= 0:
        return float("inf")
    return result.stats["ssd_cost"] / (result.throughput / 1e6)


def check_tiering(results: Dict[str, object]) -> List[Gate]:
    """The acceptance gates: tiered read p99 <= ``P99_LIMIT`` x the
    spread baseline, judged on the median of the per-seed ratios;
    tiered $/Mop/s below the all-fast build of equal total capacity;
    and demotion traffic accounted — the tier moved data cold and
    reports the extra writes per application byte."""
    ratios, tiered = results["ratios"], results["tiered"]
    mid = median(ratios)
    shown = ", ".join(
        f"{seed}: {ratio:.3f}" for seed, ratio in zip(GATE_SEEDS, ratios)
    )
    c_tiered = cost_per_mop(tiered)
    c_allfast = cost_per_mop(results["allfast"])
    waf = tiered.stats.get("tier_demotion_waf")
    demoted = tiered.stats.get("tier_demotions", 0)
    shown_waf = "absent" if waf is None else f"{waf:.3f}"
    return [
        ("  p99 gate", mid <= P99_LIMIT, (
            f"read p99 tiered / spread, median over seeds = {mid:.3f} "
            f"({shown}; gate: <= {P99_LIMIT:.1f}x)"
        )),
        ("  cost gate", c_tiered < c_allfast, (
            f"cost ${c_tiered:.2f}/Mops tiered vs ${c_allfast:.2f}/Mops "
            f"all-fast (gate: lower)"
        )),
        ("  waf gate", waf is not None and waf > 0 and demoted > 0, (
            f"demotion WAF {shown_waf} ({int(demoted)} GC demotions; "
            f"gate: present and > 0)"
        )),
    ]
