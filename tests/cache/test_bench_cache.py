"""Full read-cache bench gates (``slow``: excluded from tier-1).

Tier-1 covers the cache's unit behavior; these run the actual storm
and sweep experiments at near-CI-smoke scale and assert the two bench
gates CI's `bench-smoke` job enforces.
"""

from __future__ import annotations

import pytest

import repro.bench.cache as ca


pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def storm():
    return ca.storm_comparison(num_keys=2500, num_ops=5000)


def test_storm_hit_ratio_gate(storm):
    _, on = storm
    ok, detail = ca.check_hit_ratio(on, minimum=0.5)
    assert ok, detail


def test_storm_read_p99_gate(storm):
    off, on = storm
    ok, detail = ca.check_read_p99(off, on)
    assert ok, detail


def test_sweep_hit_ratio_grows_with_capacity():
    grid = ca.cache_sweep(
        capacities=(64 * 1024, 4 * 1024 * 1024),
        thetas=(1.3,),
        num_keys=4000,
        num_ops=4000,
        num_threads=2,
    )
    (row,) = grid.values()
    ratios = [ca.hit_ratio(res) for res in row.values()]
    assert ratios[0] < ratios[1], f"64KB {ratios[0]:.1%} !< 4MB {ratios[1]:.1%}"


def test_cluster_hot_spread_serves_hot_keys_from_replicas():
    primary, spread = ca.cluster_hot_spread(
        num_keys=800, num_ops=4000, clients_per_shard=2
    )
    spread_reads = spread.run.metrics.get("counters", {}).get(
        "cluster.hot_spread_reads", 0
    )
    assert spread_reads > 0, "hot-key detector never routed a spread read"
    assert primary.run.metrics.get("counters", {}).get(
        "cluster.hot_spread_reads", 0
    ) == 0
