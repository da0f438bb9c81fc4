"""Cluster-scope crash sweep: discovery on the watched shard.  (The
sweep itself — a shard death at every discovered label — runs for
every cluster scenario in tests/faults/test_crash_sweep.py.)"""

import pytest

from repro.cluster.crash_sweep import SCENARIOS
from repro.faults.crash_sweep import CrashSweep, default_ops


@pytest.fixture(scope="module")
def sweep() -> CrashSweep:
    return CrashSweep(SCENARIOS["cluster"], default_ops(num_ops=160, num_keys=32))


@pytest.fixture(scope="module")
def labels(sweep):
    found, during_failover = sweep.discover()
    assert found, "workload reached no crash points on shard 0"
    # fail_shard never touches the dead member's store again
    assert during_failover == {}
    return found


class TestDiscovery:
    def test_discovery_is_deterministic(self, sweep, labels):
        assert sweep.discover()[0] == labels

    def test_labels_cover_write_path(self, labels):
        # The tight shard config must at least reach PWB writeback.
        assert any("pwb" in label or "log" in label for label in labels), labels


class TestShardDeathAtLabel:
    def test_unreachable_occurrence_reports_not_fired(self, sweep, labels):
        label = sorted(labels)[0]
        outcome = sweep.verify(label, occurrence=10_000)
        assert not outcome.fired
        assert not outcome.ok
