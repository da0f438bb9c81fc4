"""Full read-cache bench gates (``slow``: excluded from tier-1).

Tier-1 covers the cache's unit behavior; these run the actual storm
and sweep experiments at near-CI-smoke scale and assert the three bench
gates CI's `bench-smoke` job enforces.
"""

from __future__ import annotations

import pytest

import repro.bench.cache as ca


pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def storm():
    return ca.storm_comparison(num_keys=2500, num_ops=5000)


def _gate(storm, label):
    """One of the storm's gates (its label, stripped) as (ok, message)."""
    gates = ca.check_cache({"storm": storm})
    return {name.strip(): (ok, msg) for name, ok, msg in gates}[label]


def test_storm_hit_ratio_gate(storm):
    ok, detail = _gate(storm, "hit-ratio gate")
    assert ok, detail


def test_storm_read_p99_gate(storm):
    ok, detail = _gate(storm, "p99 gate")
    assert ok, detail


def test_storm_throughput_gate(storm):
    ok, detail = _gate(storm, "throughput gate")
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
    legs = ca.cluster_hot_spread(num_keys=800, num_ops=4000, clients_per_shard=2)
    primary, spread = legs["primary"], legs["spread"]
    spread_reads = spread.run.stats["cluster_hot_spread_reads"]
    assert spread_reads > 0, "hot-key detector never routed a spread read"
    assert primary.run.stats["cluster_hot_spread_reads"] == 0
