"""Cluster workload runner: the ledger's legality rules, mid-run shard
death under load, and 1-shard bit-identity with a bare Prism."""

import pytest

from repro.bench.runner import preload, run_workload
from repro.cluster import ClusterConfig, PrismCluster
from repro.cluster.runner import (
    GrayPlan,
    KillPlan,
    RebalancePlan,
    run_cluster_workload,
)
from repro.core.prism import Prism
from repro.faults.injector import FaultConfig
from repro.faults.ledger import WriteLedger
from repro.obs.metrics import MetricsRegistry
from repro.workloads.generator import OpStream
from repro.workloads.ycsb import WorkloadSpec
from tests.conftest import count_calls, small_prism_config

SPEC_A = WorkloadSpec(name="A", read=0.5, update=0.5, distribution="uniform")


def small_factory(shard_id, clock):
    return Prism(
        small_prism_config(faults=FaultConfig(seed=9000 + shard_id)),
        metrics=MetricsRegistry(prefix=f"shard{shard_id}/"),
        clock=clock,
    )


def build(**overrides) -> PrismCluster:
    defaults = dict(num_shards=3, replication_factor=2)
    defaults.update(overrides)
    return PrismCluster(ClusterConfig(**defaults), shard_factory=small_factory)


class TestWriteLedger:
    def test_latest_acked_value_is_legal(self):
        lg = WriteLedger()
        lg.ack(b"k", 0.0, 1.0, b"v1")
        lg.ack(b"k", 2.0, 3.0, b"v2")
        assert lg.legal_values(b"k") == {b"v2"}

    def test_concurrent_acked_writes_both_legal(self):
        lg = WriteLedger()
        lg.ack(b"k", 0.0, 2.0, b"v1")
        lg.ack(b"k", 1.0, 3.0, b"v2")  # overlaps: either may win
        assert lg.legal_values(b"k") == {b"v1", b"v2"}

    def test_interrupted_write_is_maybe_applied(self):
        lg = WriteLedger()
        lg.ack(b"k", 0.0, 1.0, b"v1")
        lg.interrupt(b"k", 2.0, 3.0, b"v2")
        assert lg.legal_values(b"k") == {b"v1", b"v2"}

    def test_superseded_interrupt_is_not_legal(self):
        lg = WriteLedger()
        lg.interrupt(b"k", 0.0, 1.0, b"torn")
        lg.ack(b"k", 2.0, 3.0, b"v2")
        assert lg.legal_values(b"k") == {b"v2"}

    def test_acked_delete_makes_none_legal(self):
        lg = WriteLedger()
        lg.ack(b"k", 0.0, 1.0, b"v1")
        lg.ack(b"k", 2.0, 3.0, None)
        assert lg.legal_values(b"k") == {None}

    def test_never_written_key_allows_none(self):
        lg = WriteLedger()
        lg.interrupt(b"k", 0.0, 1.0, b"maybe")
        assert lg.legal_values(b"k") == {None, b"maybe"}

    # The crash sweep replays one op at a time and uses the op index as
    # a degenerate interval (start == end); the same rule then yields
    # what its hand-written audits used to spell out case by case.
    @pytest.mark.parametrize(
        "history, legal",
        [
            # acked-exact: only the last acknowledged value
            ([("ack", b"v1"), ("ack", b"v2")], {b"v2"}),
            # deleted-absent
            ([("ack", b"v1"), ("ack", None)], {None}),
            # pending put over an acked value: old or new
            ([("ack", b"old"), ("interrupt", b"new")], {b"old", b"new"}),
            # pending put on a never-acked key: new or absent
            ([("interrupt", b"new")], {b"new", None}),
            # pending delete: old or absent
            ([("ack", b"old"), ("interrupt", None)], {b"old", None}),
            # pending delete of a never-acked key: absent either way
            ([("interrupt", None)], {None}),
            # an interrupted op a later ack superseded must not resurface
            ([("interrupt", b"torn"), ("ack", b"v2")], {b"v2"}),
            ([("ack", b"v1"), ("interrupt", None), ("ack", b"v3")], {b"v3"}),
        ],
    )
    def test_sequential_replay_rule(self, history, legal):
        lg = WriteLedger()
        for i, (verdict, value) in enumerate(history):
            getattr(lg, verdict)(b"k", i, i, value)
        assert lg.legal_values(b"k") == legal

    def test_illegal_finals_reads_every_written_key_back(self):
        lg = WriteLedger()
        lg.ack(b"a", 0, 0, b"1")
        lg.ack(b"b", 1, 1, b"2")
        lg.interrupt(b"c", 2, 2, b"3")
        boom = OSError("unreadable")
        finals = {b"a": b"1", b"b": b"stale", b"c": boom}
        assert lg.keys() == [b"a", b"b", b"c"]
        assert list(lg.illegal_finals(finals.__getitem__)) == [
            (b"b", b"stale", {b"2"}),
            (b"c", boom, {b"3", None}),  # an exception is never legal
        ]


class TestRunWithoutFailure:
    def test_clean_run_audits_clean(self):
        c = build()
        preload(c, 300, num_threads=2, seed=1)
        res = run_cluster_workload(
            c, SPEC_A, 600, 300, clients_per_shard=2, seed=2
        )
        assert res.ops_ok == 600
        assert res.ops_shed == res.ops_failed == 0
        assert res.audit["lost_acked"] == 0
        assert res.audit["wrong_value"] == 0
        assert res.recovery_seconds is None
        assert res.run.duration > 0
        assert res.run.metrics is not None

    def test_shed_ops_are_counted_not_raised(self):
        c = build(num_shards=1, replication_factor=1, max_queue_depth=1)
        preload(c, 100, num_threads=1, seed=1)
        res = run_cluster_workload(
            c, SPEC_A, 300, 100, clients_per_shard=4, seed=2
        )
        assert res.ops_shed > 0
        assert res.ops_ok + res.ops_shed + res.ops_failed == 300
        # Shed writes never acked, so they cannot be "lost".
        assert res.audit["lost_acked"] == 0


class TestRunWithKill:
    def test_quorum_kill_loses_no_acked_writes(self):
        c = build(num_shards=3, replication_factor=2)
        preload(c, 400, num_threads=2, seed=1)
        res = run_cluster_workload(
            c, SPEC_A, 900, 400, clients_per_shard=2, seed=2,
            kill_plan=KillPlan(shard_id=1, at_fraction=0.5),
        )
        assert res.killed_shard == 1
        assert res.audit["lost_acked"] == 0
        assert res.audit["wrong_value"] == 0
        assert res.recovery_seconds is not None and res.recovery_seconds > 0
        assert res.run.stats["cluster_shards_down"] == 1.0
        assert res.run.metrics["gauges"]["cluster.recovery_seconds"] > 0

    def test_rf1_kill_reports_losses(self):
        """At RF=1 a dead shard's keys are genuinely gone — the audit
        must say so rather than paper over it."""
        c = build(num_shards=3, replication_factor=1)
        preload(c, 400, num_threads=2, seed=1)
        res = run_cluster_workload(
            c, SPEC_A, 900, 400, clients_per_shard=2, seed=2,
            kill_plan=KillPlan(shard_id=0, at_fraction=0.5),
        )
        assert res.audit["lost_acked"] > 0

    def test_kill_plan_validation(self):
        with pytest.raises(ValueError):
            KillPlan(shard_id=0, at_fraction=0.0)
        with pytest.raises(ValueError):
            KillPlan(shard_id=0, at_fraction=1.0)

    def test_a_later_window_does_not_report_an_earlier_windows_rebuild(self):
        """Window 1 kills a shard; window 2 on the same cluster kills
        nothing, so it has no recovery to report."""
        c = build(num_shards=3, replication_factor=2)
        preload(c, 300, num_threads=2, seed=1)
        first = run_cluster_workload(
            c, SPEC_A, 400, 300, clients_per_shard=2, seed=2,
            kill_plan=KillPlan(shard_id=1, at_fraction=0.5),
        )
        assert first.recovery_seconds > 0
        second = run_cluster_workload(
            c, SPEC_A, 400, 300, clients_per_shard=2, seed=3
        )
        assert second.killed_shard is None
        assert second.recovery_seconds is None
        assert "cluster.recovery_seconds" not in second.run.metrics["gauges"]
        assert "rebalance_done" not in second.run.metrics["events"]


class TestMidRunActions:
    def test_plans_due_at_the_same_op_fire_once_each_gray_first(self):
        c = build(num_shards=3, replication_factor=2)
        preload(c, 300, num_threads=2, seed=1)
        res = run_cluster_workload(
            c, SPEC_A, 600, 300, clients_per_shard=2, seed=2,
            gray_plan=GrayPlan(shard_id=1, at_fraction=0.5),
            rebalance_plan=RebalancePlan("add", at_fraction=0.5),
        )
        fired = [
            e for e in c.events
            if e["kind"] in ("shard_gray_injected", "rebalance_started")
        ]
        assert [e["kind"] for e in fired] == [
            "shard_gray_injected", "rebalance_started",
        ]
        assert fired[0]["at"] == fired[1]["at"]
        assert res.rebalanced_shard == fired[1]["shard"] == 3
        assert res.rebalance["completed"] and res.audit["lost_acked"] == 0

    def test_a_fraction_that_rounds_to_op_zero_fires_before_the_first_op(self):
        c = build(num_shards=3, replication_factor=2)
        preload(c, 100, num_threads=2, seed=1)
        opened = c.clock.now
        res = run_cluster_workload(
            c, SPEC_A, 60, 100, clients_per_shard=1, seed=2,
            gray_plan=GrayPlan(shard_id=0, at_fraction=0.0),
            kill_plan=KillPlan(shard_id=1, at_fraction=0.01),
        )
        kinds = [
            (e["kind"], e.get("action")) for e in c.events if e["at"] == opened
        ]
        assert kinds.index(("shard_gray_injected", None)) > kinds.index(
            ("rebalance_started", "fail")
        )
        assert ("rebalance_done", "fail") in kinds
        assert res.killed_shard == 1 and res.recovery_seconds is not None

    def test_rebalance_plan_validation(self):
        with pytest.raises(ValueError, match="unknown rebalance action"):
            RebalancePlan("shuffle")
        with pytest.raises(ValueError, match="needs the shard_id"):
            RebalancePlan("remove")
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"must be in \(0, 1\)"):
                RebalancePlan("add", at_fraction=fraction)


class TestDriverCallBudget:
    """What the driver itself costs per op, in Python + C calls, with
    the target's ``get`` and the op generator left out: ``heappop``,
    ``next``, two sample-list appends, the kind-sink lookup and
    ``heappush``.  Both drivers are the one loop handed different
    things, so a bare store and a 1-shard cluster pay the same (the
    cluster driver's own copy paid 9)."""

    DRIVER_CALLS_PER_OP = 6
    READ_ONLY = WorkloadSpec(name="C", read=1.0, distribution="uniform")

    def per_op(self, target, drive, get):
        preload(target, 200, value_size=128, num_threads=2, seed=1)
        outside = (get.__code__, OpStream.ops.__code__)

        def window(num_ops):
            return count_calls(drive, target, num_ops, outside=outside)

        # Set-up and epilogue cost the same in both windows.
        return (window(800) - window(400)) / 400

    def test_single_store_driver(self):
        def drive(store, num_ops):
            run_workload(
                store, self.READ_ONLY, num_ops, 200, num_threads=4,
                value_size=128, collect_metrics=False,
            )

        store = Prism(small_prism_config(num_threads=4))
        assert self.per_op(store, drive, Prism.get) == self.DRIVER_CALLS_PER_OP

    def test_cluster_driver_on_one_shard(self):
        def drive(cluster, num_ops):
            run_cluster_workload(
                cluster, self.READ_ONLY, num_ops, 200, clients_per_shard=4,
                value_size=128, collect_metrics=False, audit=False,
            )

        cluster = build(num_shards=1, replication_factor=1)
        assert (
            self.per_op(cluster, drive, PrismCluster.get)
            == self.DRIVER_CALLS_PER_OP
        )


class TestBitIdentity:
    def test_one_shard_cluster_matches_bare_prism(self):
        """The acceptance gate: a 1-shard RF=1 cluster driven by the
        standard benchmark runner is bit-identical to the same Prism
        driven directly — same virtual duration, same latency
        distribution, same write amplification."""
        spec = WorkloadSpec(name="B", read=0.95, update=0.05)

        def run(store):
            preload(store, 300, num_threads=2, seed=1)
            return run_workload(store, spec, 500, 300, num_threads=4, seed=2)

        via_cluster = run(
            PrismCluster(
                ClusterConfig(num_shards=1, replication_factor=1),
                shard_factory=small_factory,
            )
        )
        direct = run(
            Prism(
                small_prism_config(faults=FaultConfig(seed=9000)),
                metrics=MetricsRegistry(prefix="shard0/"),
            )
        )
        assert via_cluster.duration == direct.duration
        assert via_cluster.latency.average() == direct.latency.average()
        assert via_cluster.latency.median() == direct.latency.median()
        assert via_cluster.latency.p99() == direct.latency.p99()
        assert via_cluster.waf == direct.waf
        for kind in direct.per_kind:
            assert (
                via_cluster.per_kind[kind].average()
                == direct.per_kind[kind].average()
            )
