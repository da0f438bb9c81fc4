"""Health-off bit-identity against the committed digest manifest.

With ``ClusterConfig.health=None`` (the default) and no slow faults
configured, the penalty-returning injector hooks, the split read path,
and the runner's gray-plan plumbing must all leave a seeded cluster
YCSB-A run byte-identical — same metrics JSON, same final virtual
time, bit for bit.  The digest in ``tests/digests.json`` pins the tree
as of PR 12 (the pre-health golden blob this test used to read was
never committed; see ``tests/digests.py``).
"""

from __future__ import annotations

import pytest

from tests import digests


def test_health_off_cluster_run_is_byte_identical_to_seed():
    cluster, digest = digests.cluster_a()
    assert cluster.config.health is None
    assert digest == digests.expected("cluster_a")


@pytest.mark.parametrize(
    "scenario",
    ["cluster_scan_failover", "cluster_async_spread", "cluster_gray_rebalance"],
)
def test_routed_paths_are_byte_identical_to_pr22_parent(scenario):
    """Scan fan-out across a failover, async pump + spread reads +
    shedding, and hedging + breakers + a migration window in one run:
    recorded on PR 22's parent, before the router's routed paths became
    one ``_attempt`` (each scenario asserts it still reaches its path)."""
    _cluster, digest = digests.SCENARIOS[scenario]()
    assert digest == digests.expected(scenario)
