"""End-to-end gray failure: injection through the router's defenses.

Tier-1 runs a small smoke configuration (cheap enough for every CI
run); the full-size bench gates are marked ``slow``.
"""

import json
from dataclasses import replace

import pytest

from repro.bench import grayfail as gf
from repro.cluster.crash_sweep import SCENARIOS, ClusterScenario
from repro.cluster.health import HealthConfig
from repro.cluster.runner import GrayPlan
from repro.faults.crash_sweep import CrashSweep, default_ops

SMOKE = dict(num_keys=800, num_ops=2500)


def _gates(results):
    """The row's gates by label (stripped), each as (ok, message)."""
    gates = gf.check_grayfail(results)
    return {label.strip(): (ok, msg) for label, ok, msg in gates}


@pytest.fixture(scope="module")
def smoke_runs():
    return gf.grayfail_comparison(**SMOKE)


class TestGrayPlan:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            GrayPlan(shard_id=0, at_fraction=1.0)

    def test_gray_shard_is_injected_and_run_stays_green(self, smoke_runs):
        undefended = smoke_runs["undefended"]
        assert undefended.run.stats["slow_injections"] > 0
        assert gf.event_count(undefended, "shard_gray_injected") == 1
        # Gray failure is silent: nothing errors, nothing is lost.
        assert undefended.ops_failed == 0
        assert undefended.audit["lost_acked"] == 0
        assert undefended.audit["wrong_value"] == 0


class TestDefense:
    def test_defense_counters_present_in_metrics_json(self, smoke_runs):
        """The metrics JSON carries every defense count: the delayed
        IOs as a ``stats.*`` gauge, hedges and breaker trips as the
        window's events."""
        metrics = smoke_runs["defended"].run.metrics
        assert metrics["gauges"]["stats.slow_injections"] > 0
        for kind in ("hedge_won", "hedge_wasted", "breaker_open", "shard_gray"):
            assert metrics["events"].get(kind), f"no {kind} event"

    def test_hedges_fire_and_accounting_adds_up(self, smoke_runs):
        """A fired hedge is one ``hedge_won`` or one ``hedge_wasted``,
        each at a replica other than the one it raced."""
        events = smoke_runs["defended"].run.metrics["events"]
        hedges = events["hedge_won"] + events["hedge_wasted"]
        assert hedges
        assert all(e["shard"] != e["over"] for e in hedges)

    def test_breaker_opens_on_the_gray_shard(self, smoke_runs):
        opened = smoke_runs["defended"].run.metrics["events"]["breaker_open"]
        assert gf.GRAY_SHARD in {e["shard"] for e in opened}

    def test_defended_tail_beats_undefended(self, smoke_runs):
        defended = gf.read_p99(smoke_runs["defended"])
        undefended = gf.read_p99(smoke_runs["undefended"])
        assert defended < undefended

    def test_gates_pass_at_smoke_size(self, smoke_runs):
        gates = _gates(smoke_runs)
        ok_tail, msg = gates["tail gate"]
        assert ok_tail, msg
        ok_cost, msg = gates["overhead gate"]
        assert ok_cost, msg

    def test_defended_run_loses_nothing(self, smoke_runs):
        defended = smoke_runs["defended"]
        assert defended.audit["lost_acked"] == 0
        assert defended.audit["wrong_value"] == 0


class TestDeterminism:
    def test_two_defended_gray_runs_are_byte_identical(self):
        def payload():
            results = gf.grayfail_comparison(num_keys=400, num_ops=1200)
            return json.dumps(
                results["defended"].run.metrics, sort_keys=True, indent=1
            )

        assert payload() == payload()


class TestGrayCrashSweep:
    def test_gray_shard_must_differ_from_crash_shard(self):
        with pytest.raises(ValueError):
            ClusterScenario(gray_shard=0)

    def test_kill_under_gray_keeps_durability(self):
        """The registered ``gray`` scenario (shard 1 slow) runs with the
        others in tests/faults/test_crash_sweep.py; this is ``--gray 2``
        — the *other* survivor slow while shard 0 dies."""
        scenario = replace(SCENARIOS["gray"], gray_shard=2)
        report = CrashSweep(scenario, default_ops(120, 30, seed=7)).run()
        assert report.ok, report.summary()


@pytest.mark.slow
class TestFullGates:
    def test_full_size_gates(self):
        gates = _gates(gf.grayfail_comparison())
        ok_tail, msg = gates["tail gate"]
        assert ok_tail, msg
        ok_cost, msg = gates["overhead gate"]
        assert ok_cost, msg


class TestHealthyDefenseOverhead:
    def test_armed_but_healthy_cluster_hedges_rarely(self):
        """With no gray fault, the defense must stay near-free: no
        breaker opens and wasted hedges stay under the overhead gate.

        Run at the bench's ``--smoke`` size, where the wasted share is
        0.5-1.5 % on every seed tried (5-9).  At 400 keys / 1,200 ops
        it is 9-11.6 % depending on the seed — a reading of the seed,
        not of the defense, against a 10 % gate."""
        from repro.bench.cluster import cluster_leg

        armed = cluster_leg(**gf.gray_leg(HealthConfig(), 1200, 4000))
        assert gf.event_count(armed, "breaker_open") == 0
        # Only the overhead gate is read: it judges the defended leg alone.
        ok, msg = _gates({"healthy": armed, "defended": armed})["overhead gate"]
        assert ok, msg
