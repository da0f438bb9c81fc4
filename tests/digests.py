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

A deliberate behaviour change regenerates it, and the diff of
``digests.json`` is the one place to review it::

    PYTHONPATH=src python -m tests.digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.bench.cluster import YCSB_A_UNIFORM
from repro.bench.runner import preload, run_workload
from repro.bench.stores import build_prism
from repro.cluster.router import ClusterConfig, PrismCluster
from repro.cluster.runner import run_cluster_workload
from repro.workloads.ycsb import WORKLOADS

MANIFEST = Path(__file__).with_name("digests.json")


def _digest(store, metrics: dict) -> Dict[str, str]:
    payload = json.dumps(metrics, sort_keys=True, indent=1) + "\n"
    return {
        "metrics_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "final_vtime": repr(store.clock.now),
    }


def ycsb_a() -> Tuple[object, Dict[str, str]]:
    """Single store, every optional subsystem off, seeded YCSB-A.

    Like every scenario, returns the store (for the caller's own
    assertions on its configuration) and the run's digest.
    """
    store = build_prism(num_threads=4)
    preload(store, 1500, num_threads=4)
    result = run_workload(store, WORKLOADS["A"], 3000, 1500, 4)
    return store, _digest(store, result.metrics)


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


SCENARIOS: Dict[str, Callable[[], Tuple[object, Dict[str, str]]]] = {
    "ycsb_a": ycsb_a,
    "cluster_a": cluster_a,
}


def expected(name: str) -> Dict[str, str]:
    return json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    manifest = {name: run()[1] for name, run in SCENARIOS.items()}
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"wrote {MANIFEST}")
