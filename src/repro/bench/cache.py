"""Read-cache experiments: hit ratio, tail latency, hot-key defense.

Three questions the DRAM value cache must answer:

* **storm** — under a hot-key storm (theta >= 1.2 with a handful of
  celebrity keys taking >30% of reads), does the cache absorb the hot
  set?  The acceptance gates require a >= 50% hit ratio and a read
  p99 below the identical cache-off run's, once the cache-on run is
  charged the copy-in its misses pay (:func:`check_cache`).
* **sweep** — how does hit ratio trade against cache size and skew?
  A grid of storm runs over (capacity, theta).
* **cluster** — with per-shard caches and the router's hot-key
  defense (``read_policy="spread"`` + ``hot_key_threshold``), do
  replicated reads relieve the celebrity shard versus primary-only
  reads?  (Full mode only; smoke skips it.)

All runs are seeded and virtual-time deterministic.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bench.cluster import run_legs
from repro.bench.experiments import sizing, sweep
from repro.bench.report import Gate
from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import MB, build_prism
from repro.cluster.router import ClusterConfig
from repro.cluster.runner import ClusterRunResult
from repro.workloads.ycsb import WorkloadSpec

# The storm mix: read-heavy, Zipfian tail at extreme skew, with five
# celebrity keys taking 35% of the traffic on top (HotKeyStormGenerator
# defaults).  95/5 read/update keeps invalidation in the picture —
# cached celebrities are periodically overwritten and must re-admit.
STORM = WorkloadSpec(
    name="STORM", read=0.95, update=0.05, distribution="hotstorm",
    description="Hot-key storm: 95% reads, celebrity-skewed",
)

DEFAULT_THETA = 1.3
# Large objects on a single SSD: the configuration where a hot-key
# storm actually hurts.  32 KB values make SSD transfers long enough
# (32 KB / 7 GBps ≈ 4.6 us) that eight closed-loop readers can queue
# on the device's bandwidth channel.  Small values at these op rates
# never saturate the channel.  Even here the p99 read is close to a
# bare 32 KB device read, with or without the cache (EXPERIMENTS.md).
STORM_VALUE_SIZE = 32 * 1024
STORM_THREADS = 8
STORM_SSDS = 1
DEFAULT_CACHE_CAPACITY = 16 * MB
# The storm's cache-on hit ratio must reach this.
MIN_HIT_RATIO = 0.5


def storm_run(
    theta: float,
    cache_capacity: int,
    num_keys: int,
    num_ops: int,
    num_threads: int,
    value_size: int = STORM_VALUE_SIZE,
    num_ssds: int = STORM_SSDS,
) -> RunResult:
    """One seeded hot-key-storm run on a freshly preloaded Prism at the
    given cache capacity; ``cache_capacity == 0`` disables the cache.

    Storm runs shrink the SVC to 5% of the dataset (from the cost-parity
    default of 20%): the experiment measures the *read-cache* tier, so
    the layer below it must feel the storm — with the default SVC the
    hot set fits there too and both runs serve p99 from DRAM.
    """
    dataset = num_keys * value_size
    store = build_prism(
        num_threads=num_threads,
        num_ssds=num_ssds,
        dataset_bytes=dataset,
        svc_capacity=max(64 * 1024, dataset // 20),
        enable_read_cache=cache_capacity > 0,
        read_cache_capacity=cache_capacity or 8 * MB,
    )
    preload(store, num_keys, value_size=value_size, num_threads=num_threads)
    return run_workload(
        store, STORM, num_ops, num_keys,
        num_threads=num_threads, value_size=value_size, theta=theta,
        seed=2, warmup_ops=num_ops // 5,
    )


def storm_comparison(
    num_keys: Optional[int] = None, num_ops: Optional[int] = None
) -> Dict[str, RunResult]:
    """The same storm, cache off vs on (identical seeds and sizing):
    ``{"off": ..., "on": ...}``."""
    num_keys, num_ops = sizing(num_keys, num_ops, 4_000, 16_000)
    runs = sweep(
        storm_run,
        [(DEFAULT_THETA, 0), (DEFAULT_THETA, DEFAULT_CACHE_CAPACITY)],
        (num_keys, num_ops, STORM_THREADS),
    )[DEFAULT_THETA]
    return {"off": runs[0], "on": runs[DEFAULT_CACHE_CAPACITY]}


def cache_sweep(
    capacities: Sequence[int] = (256 * 1024, 1 * MB, 4 * MB),
    thetas: Sequence[float] = (0.99, 1.2, 1.4),
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    num_threads: int = 4,
) -> Dict[str, Dict[str, RunResult]]:
    """Hit ratio vs cache size vs skew: a (theta, capacity) grid of
    storm runs with the cache on (1 KB values — the grid is about
    coverage, not device queueing)."""
    num_keys, num_ops = sizing(num_keys, num_ops, 20_000, 20_000)
    grid = sweep(
        storm_run,
        product(thetas, capacities),
        (num_keys, num_ops, num_threads, 1024, 2),
    )
    return {
        f"theta={theta}": {_size_label(cap): run for cap, run in row.items()}
        for theta, row in grid.items()
    }


def _size_label(size: int) -> str:
    return f"{size // MB}MB" if size >= MB else f"{size // 1024}KB"


def hit_ratio(result: RunResult) -> float:
    """Cache hit ratio from a run's store stats (0.0 when cache off)."""
    hits = result.stats.get("rc_hits", 0.0)
    misses = result.stats.get("rc_misses", 0.0)
    total = hits + misses
    return hits / total if total else 0.0


def check_cache(results: Dict) -> List[Gate]:
    """The storm's acceptance gates: the cache-on hit ratio reaches
    ``MIN_HIT_RATIO``, and the cache-on run beats the cache-off run on
    read p99 and on throughput."""
    off, on = results["storm"]["off"], results["storm"]["on"]
    ratio = hit_ratio(on)
    p_off = off.per_kind["read"].p99()
    p_on = on.per_kind["read"].p99()
    return [
        ("  hit-ratio gate", ratio >= MIN_HIT_RATIO,
         f"storm hit ratio {ratio:.1%} (gate: >= {MIN_HIT_RATIO:.0%})"),
        ("  p99 gate", p_on < p_off,
         f"read p99 {p_on:.1f}us with cache vs {p_off:.1f}us without (gate: lower)"),
        ("  throughput gate", on.kops > off.kops,
         f"{on.kops:.1f} Kops/s with cache vs {off.kops:.1f} without (gate: higher)"),
    ]


# ----------------------------------------------------------------------
# Cluster hot-key defense (full mode only)
# ----------------------------------------------------------------------
def cluster_hot_spread(
    num_keys: Optional[int] = None,
    num_ops: Optional[int] = None,
    clients_per_shard: int = 4,
) -> Dict[str, ClusterRunResult]:
    """Storm on a 4-shard replicated cluster: primary reads vs hot-key
    spread.

    Both clusters run RF=2 with per-shard read caches; the second adds
    the router's hot-key defense (a key is hot once its recent read
    count in the router's sketch reaches 8) so celebrity reads
    round-robin across replicas instead of hammering one shard.
    Storm-sized (32 KB) values make the celebrity shard's DRAM channel
    the bottleneck — the serving capacity the spread doubles.  Returns
    ``{"primary": ..., "spread": ...}``.
    """
    num_keys, num_ops = sizing(num_keys, num_ops, 2_000, 16_000)
    return run_legs({
        read_policy: dict(
            config=ClusterConfig(
                num_shards=4,
                replication_factor=2,
                read_policy=read_policy,
                hot_key_threshold=threshold,
            ),
            spec=STORM, num_keys=num_keys, num_ops=num_ops,
            clients_per_shard=clients_per_shard, seed=3,
            # Like the default shard, plus a per-shard read cache.
            shard_overrides=dict(
                enable_read_cache=True,
                read_cache_capacity=DEFAULT_CACHE_CAPACITY,
            ),
            value_size=STORM_VALUE_SIZE, theta=DEFAULT_THETA,
        )
        for read_policy, threshold in (("primary", None), ("spread", 8))
    })


def cache_run(
    storm: Mapping = {}, sweep: Mapping = {}, hot_spread: Optional[Mapping] = {}
) -> Dict:
    """The ``cache`` experiment: :func:`storm_comparison`,
    :func:`cache_sweep` and, unless ``hot_spread`` is None,
    :func:`cluster_hot_spread`, each with its own sizes."""
    results = {"storm": storm_comparison(**storm), "sweep": cache_sweep(**sweep)}
    if hot_spread is not None:
        results["cluster"] = cluster_hot_spread(**hot_spread)
    return results
