"""Live resharding: minimal movement, dual-read window, crash safety.

The elasticity contract under test:

* membership changes move *only* keys whose owner set changed
  (Hypothesis-tested on the pure planner);
* reads and writes stay correct throughout the migration window
  (forwarded reads from old owners, redirected writes to new owners),
  and the :class:`WriteLedger` audit stays green across concurrent
  put/delete traffic mid-migration;
* a draining shard is never sent a client write — the ``remove``
  migration's writes route to the ring without it — while reads and
  migration traffic still reach it;
* shard death at any point of the migration resolves it — abort with
  resync when the joining member dies, fast-forward otherwise — with
  zero lost acknowledged writes.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.admission import KIND_READ
from repro.cluster.crash_sweep import default_cluster_factory
from repro.cluster.errors import RebalanceInProgressError
from repro.cluster.health import HealthConfig, HealthMonitor
from repro.cluster.rebalance import Migration, plan_moves
from repro.cluster.ring import (
    DuplicateShardError,
    HashRing,
    LastShardError,
    UnknownShardError,
)
from repro.cluster.router import ClusterConfig, PrismCluster, default_shard_factory
from repro.cluster.runner import (
    RebalancePlan,
    audit_ledger,
    run_cluster_workload,
)
from repro.cluster.shard import STATE_DRAINING, STATE_RETIRED
from repro.faults.crash_sweep import TIGHT_STORE
from repro.faults.ledger import WriteLedger
from repro.obs.metrics import EventLog
from repro.sim.vthread import VThread
from repro.workloads.ycsb import WorkloadSpec

KEYS = [b"key-%05d" % i for i in range(300)]

shard_sets = st.sets(st.integers(min_value=0, max_value=15), min_size=2, max_size=6)


def small_cluster():
    """The tight 3-shard RF=2 quorum cluster the crash sweep uses."""
    return default_cluster_factory()


def fill(cluster, keys, prefix=b"v0-"):
    t = VThread(1, cluster.clock, name="client")
    for k in keys:
        cluster.put(k, prefix + k, t)
    return t


# ----------------------------------------------------------------------
# ring membership edge cases (typed errors, drain-time preference lists)
# ----------------------------------------------------------------------
class TestRingMembership:
    def test_remove_last_shard_refused(self):
        ring = HashRing([3])
        with pytest.raises(LastShardError):
            ring.with_shard_removed(3)
        assert ring.shards == {3}  # untouched after the refusal

    def test_remove_unknown_shard_typed(self):
        ring = HashRing([0, 1])
        with pytest.raises(UnknownShardError):
            ring.with_shard_removed(7)

    def test_add_duplicate_typed(self):
        ring = HashRing([0, 1])
        with pytest.raises(DuplicateShardError):
            ring.add_shard(1)

    def test_with_methods_leave_original_untouched(self):
        ring = HashRing([0, 1, 2])
        grown = ring.with_shard_added(3)
        shrunk = ring.with_shard_removed(2)
        assert ring.shards == {0, 1, 2}
        assert grown.shards == {0, 1, 2, 3}
        assert shrunk.shards == {0, 1}
        # Same (members, vnodes, seed) → same placement as in-place.
        inplace = HashRing([0, 1, 2])
        inplace.add_shard(3)
        assert all(grown.lookup(k) == inplace.lookup(k) for k in KEYS)

    def test_preference_lists_valid_when_rf_exceeds_survivors(self):
        """Mid-drain a ring can have fewer members than the replica
        count; preference lists must shrink, never pad or raise."""
        ring = HashRing([0, 1, 2]).with_shard_removed(2)
        for key in KEYS[:50]:
            prefs = ring.preference_list(key, 3)
            assert len(prefs) == 2
            assert len(set(prefs)) == 2
        # And excluding one of the two survivors leaves exactly one.
        for key in KEYS[:20]:
            assert len(ring.preference_list(key, 3, exclude={0})) == 1

    def test_owned_ranges_partition_matches_lookup(self):
        """Every key position falls in exactly one member's arc, and
        that member is the lookup() owner — the cutover units tile the
        ring."""
        ring = HashRing([0, 1, 2, 3], vnodes=16)
        arcs = {sid: ring.owned_ranges(sid) for sid in ring.shards}
        for key in KEYS:
            pos = ring.key_position(key)
            holders = [
                sid
                for sid, ranges in arcs.items()
                for arc in ranges
                if HashRing.position_in_range(pos, arc)
            ]
            assert holders == [ring.lookup(key)]

    def test_owned_ranges_unknown_shard(self):
        with pytest.raises(UnknownShardError):
            HashRing([0]).owned_ranges(9)


# ----------------------------------------------------------------------
# the planner: minimal movement, property-tested
# ----------------------------------------------------------------------
class TestPlanMoves:
    @settings(max_examples=25, deadline=None)
    @given(shards=shard_sets, new=st.integers(min_value=16, max_value=20))
    def test_add_moves_only_changed_owners(self, shards, new):
        """The tentpole property: growing the ring plans a move for a
        key iff its preference list changed, and every new copy target
        is the joining shard."""
        old = HashRing(shards)
        grown = old.with_shard_added(new)
        rf = min(2, len(shards))
        moves = plan_moves(old, grown, KEYS, rf)
        for key in KEYS:
            before = tuple(old.preference_list(key, rf))
            after = tuple(grown.preference_list(key, rf))
            if before == after:
                assert key not in moves
            else:
                spec = moves[key]
                assert spec.old_owners == before
                assert spec.new_owners == after
                assert set(spec.targets) == {new}
                assert new not in spec.drop

    @settings(max_examples=25, deadline=None)
    @given(shards=shard_sets)
    def test_remove_moves_only_victims_keys(self, shards):
        victim = min(shards)
        old = HashRing(shards)
        shrunk = old.with_shard_removed(victim)
        rf = min(2, len(shards) - 1)
        moves = plan_moves(old, shrunk, KEYS, rf)
        for key, spec in moves.items():
            # Only keys the victim (co-)owned move, and it never
            # appears among the new owners.
            assert victim in spec.old_owners
            assert victim not in spec.new_owners
            assert victim not in spec.targets

    def test_identical_rings_plan_nothing(self):
        ring = HashRing([0, 1, 2])
        assert plan_moves(ring, HashRing([0, 1, 2]), KEYS, 2) == {}


# ----------------------------------------------------------------------
# health-scorer exemption
# ----------------------------------------------------------------------
class TestHealthExemption:
    def _monitor(self):
        return HealthMonitor(2, HealthConfig(), EventLog("t"))

    def test_register_adds_new_member(self):
        mon = self._monitor()
        mon.register(5)
        mon.record_read(5, 0.001, 1.0)  # must not raise

    def test_exempt_shard_records_nothing(self):
        mon = self._monitor()
        mon.record_read(0, 0.001, 1.0)
        baseline = mon.shards[0].samples
        mon.set_exempt(0, True)
        mon.record_read(0, 10.0, 2.0)  # a horrible migration read
        mon.record_failure(0, 3.0)
        assert mon.shards[0].samples == baseline
        mon.set_exempt(0, False)
        mon.record_read(0, 0.001, 4.0)
        assert mon.shards[0].samples == baseline + 1


# ----------------------------------------------------------------------
# live add/remove under traffic
# ----------------------------------------------------------------------
class TestLiveResharding:
    def test_add_shard_serves_correctly_throughout(self):
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        sid = cluster.add_shard(bandwidth=64 * 1024)
        assert sid == 3
        assert cluster.rebalancing
        for i, k in enumerate(KEYS):
            if i % 3 == 0:
                cluster.put(k, b"v1-" + k, t)
            want = (b"v1-" if i % 3 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want
        cluster.finish_rebalance()
        assert not cluster.rebalancing
        assert sorted(cluster.membership.ring.shards) == [0, 1, 2, 3]
        for i, k in enumerate(KEYS):
            want = (b"v1-" if i % 3 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want
        assert len(cluster) == len(KEYS)
        (done,) = cluster.events.of_kind("rebalance_done")
        assert done["keys_moved"] > 0 and cluster.forwarded_reads > 0
        assert cluster.events.of_kind("range_cutover")

    def test_first_copy_starts_after_the_planners_walk(self, monkeypatch):
        """The planner lists every serving shard's keys on the
        migrator's thread, one NVM read per index leaf; the stream
        starts once that walk is done."""
        cluster = small_cluster()
        fill(cluster, KEYS)
        starts = []
        copy = Migration._copy_key

        def spy(mig, key):
            starts.append(mig.thread.now)
            copy(mig, key)

        monkeypatch.setattr(Migration, "_copy_key", spy)
        at = cluster.clock.now
        cluster.add_shard(at=at)
        mig = cluster.membership.migration
        assert mig.started_at == at and mig.thread.now > at
        walked = mig.thread.now
        cluster.finish_rebalance()
        assert starts and starts[0] >= walked

    def test_remove_shard_drains_and_retires(self):
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        cluster.remove_shard(0, bandwidth=64 * 1024)
        assert cluster.shards[0].state == STATE_DRAINING
        for i, k in enumerate(KEYS):
            if i % 4 == 0:
                cluster.put(k, b"v1-" + k, t)
            want = (b"v1-" if i % 4 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want
        cluster.finish_rebalance()
        assert cluster.shards[0].state == STATE_RETIRED
        assert sorted(cluster.membership.ring.shards) == [1, 2]
        for i, k in enumerate(KEYS):
            want = (b"v1-" if i % 4 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want
        assert len(cluster) == len(KEYS)

    def test_only_one_migration_at_a_time(self):
        cluster = small_cluster()
        fill(cluster, KEYS[:50])
        cluster.add_shard(bandwidth=1024)
        with pytest.raises(RebalanceInProgressError):
            cluster.add_shard()
        with pytest.raises(RebalanceInProgressError):
            cluster.remove_shard(0)
        cluster.finish_rebalance()

    def test_remove_down_shard_refused(self):
        cluster = small_cluster()
        fill(cluster, KEYS[:50])
        cluster.kill_shard(0)
        with pytest.raises(RebalanceInProgressError):
            cluster.remove_shard(0)  # its own fail migration is running
        cluster.finish_rebalance()
        with pytest.raises(ValueError):
            cluster.remove_shard(0)

    def test_scan_spans_the_dual_read_window(self):
        cluster = small_cluster()
        t = fill(cluster, KEYS[:60])
        cluster.remove_shard(0, bandwidth=32 * 1024)
        got = dict(cluster.scan(KEYS[0], 30, t))
        assert got == {k: b"v0-" + k for k in KEYS[:30]}
        cluster.finish_rebalance()


# ----------------------------------------------------------------------
# crash safety: deaths mid-migration
# ----------------------------------------------------------------------
class TestCrashDuringMigration:
    def test_target_death_aborts_and_resyncs(self):
        """The joining shard dies: routing reverts to the old ring and
        migration-window writes (acked at the *new* owners) are pushed
        back to the old owners — none may be lost."""
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        sid = cluster.add_shard(bandwidth=16 * 1024)
        for i, k in enumerate(KEYS):
            if i % 4 == 0:
                cluster.put(k, b"v1-" + k, t)
        cluster.kill_shard(sid)
        assert not cluster.rebalancing
        assert sorted(cluster.membership.ring.shards) == [0, 1, 2]
        assert len(cluster.events.of_kind("rebalance_aborted")) == 1
        for i, k in enumerate(KEYS):
            want = (b"v1-" if i % 4 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want

    def test_joiner_death_starts_no_fail_migration(self):
        """The aborted joiner never reached the ring, so its death
        moves nothing: the abort is the only thing that happens."""
        cluster = small_cluster()
        t = fill(cluster, KEYS[:60])
        sid = cluster.add_shard(bandwidth=16 * 1024)
        before = len(cluster.events)
        cluster.kill_shard(sid)
        assert [e["kind"] for e in list(cluster.events)[before:]] == [
            "shard_down", "rebalance_aborted",
        ]
        assert not cluster.rebalancing
        assert sorted(cluster.membership.ring.shards) == [0, 1, 2]
        for k in KEYS[:60]:
            assert cluster.get(k, t) == b"v0-" + k

    def test_source_death_fast_forwards(self):
        """An old owner dies mid-stream: the handoff completes
        immediately and a fail migration restores RF on the new ring."""
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        cluster.add_shard(bandwidth=16 * 1024)
        for i, k in enumerate(KEYS):
            if i % 4 == 0:
                cluster.put(k, b"v1-" + k, t)
        cluster.kill_shard(0)
        (added,) = cluster.events.of_kind("rebalance_done")
        assert added["action"] == "add"
        assert cluster.rebalancing  # the dead owner's fail migration
        for i, k in enumerate(KEYS):
            want = (b"v1-" if i % 4 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want
        cluster.finish_rebalance()
        assert [e["action"] for e in cluster.events.of_kind("rebalance_done")] == [
            "add", "fail",
        ]
        assert sorted(cluster.membership.ring.shards) == [1, 2, 3]
        for i, k in enumerate(KEYS):
            want = (b"v1-" if i % 4 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want

    def test_draining_shard_death_mid_scale_in(self):
        """The leaving shard dies before its handoff finishes; its
        remaining keys stream from the surviving replica copies."""
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        cluster.remove_shard(0, bandwidth=16 * 1024)
        for i, k in enumerate(KEYS):
            if i % 4 == 0:
                cluster.put(k, b"v1-" + k, t)
        cluster.kill_shard(0)
        assert not cluster.rebalancing
        assert sorted(cluster.membership.ring.shards) == [1, 2]
        for i, k in enumerate(KEYS):
            want = (b"v1-" if i % 4 == 0 else b"v0-") + k
            assert cluster.get(k, t) == want


# ----------------------------------------------------------------------
# ledger audit across the migration window
# ----------------------------------------------------------------------
class TestLedgerMidMigration:
    def test_concurrent_put_delete_audit_clean(self):
        """Interleaved puts and deletes while the migrator streams: the
        ledger audit must find every acked mutation's final value legal
        — no lost acked writes, no resurrected deletes."""
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        ledger = WriteLedger()
        for k in KEYS:
            ledger.ack(k, 0.0, t.now, b"v0-" + k)
        cluster.add_shard(bandwidth=32 * 1024)
        for i, k in enumerate(KEYS):
            start = t.now
            if i % 3 == 0:
                cluster.put(k, b"v1-" + k, t)
                ledger.ack(k, start, t.now, b"v1-" + k)
            elif i % 3 == 1:
                cluster.delete(k, t)
                ledger.ack(k, start, t.now, None)
        cluster.finish_rebalance()
        report = audit_ledger(ledger, cluster, t)
        assert report["lost_acked"] == 0
        assert report["wrong_value"] == 0
        assert report["keys_checked"] == len(KEYS)

    def test_remove_window_admits_no_client_write_at_the_leaving_shard(self):
        """The leaving shard needs no write gate: from ``remove_shard``
        to its retirement no put, delete or replica write is admitted
        there — writes route to the ring without it — while forwarded
        reads still are, and the ledger audit stays clean."""
        cluster = small_cluster()
        t = fill(cluster, KEYS)
        ledger = WriteLedger()
        for k in KEYS:
            ledger.ack(k, 0.0, t.now, b"v0-" + k)
        admission = cluster.shards[0].admission
        kinds = []

        def admit(at, kind=KIND_READ, _admit=admission.admit):
            kinds.append(kind)
            _admit(at, kind)

        admission.admit = admit
        cluster.remove_shard(0, bandwidth=32 * 1024)
        for i, k in enumerate(KEYS):
            start = t.now
            if i % 3 == 0:
                cluster.put(k, b"v1-" + k, t)
                ledger.ack(k, start, t.now, b"v1-" + k)
            elif i % 3 == 1:
                cluster.delete(k, t)
                ledger.ack(k, start, t.now, None)
            else:
                assert cluster.get(k, t) == b"v0-" + k
        assert cluster.rebalancing  # every op ran inside the window
        cluster.finish_rebalance()
        assert kinds and set(kinds) == {KIND_READ}
        report = audit_ledger(ledger, cluster, t)
        assert report["lost_acked"] == 0
        assert report["wrong_value"] == 0
        assert report["keys_checked"] == len(KEYS)

    def test_workload_rebalance_plan_audit_clean(self):
        """The scale-out-mid-run experiment shape, tiny: YCSB-A with a
        RebalancePlan; the built-in audit must come back green and the
        migration outcome recorded."""
        cluster = small_cluster()
        spec = WorkloadSpec(name="A-uni", read=0.5, update=0.5,
                            distribution="uniform")
        result = run_cluster_workload(
            cluster, spec, 600, 120, clients_per_shard=2, value_size=64,
            seed=11,
            rebalance_plan=RebalancePlan(
                action="add", at_fraction=0.3, bandwidth=32 * 1024
            ),
        )
        assert result.audit["lost_acked"] == 0
        assert result.audit["wrong_value"] == 0
        assert result.rebalanced_shard == 3
        assert result.rebalance["completed"] and not result.rebalance["aborted"]
        assert result.rebalance["time_to_rebalance"] > 0
        (done,) = result.run.metrics["events"]["rebalance_done"]
        assert done["keys_moved"] == result.rebalance["keys_moved"] > 0
        assert done["cutover_seconds"] == result.rebalance["cutover_seconds"]
        assert "rebalance.time_to_rebalance_seconds" in result.run.metrics["gauges"]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_identical_reshards_are_bit_identical(self):
        """Two identical runs with a mid-stream add land on the same
        virtual-time instant and the same counters."""

        def one():
            cluster = small_cluster()
            t = fill(cluster, KEYS[:120])
            cluster.add_shard(bandwidth=32 * 1024)
            for i, k in enumerate(KEYS[:120]):
                if i % 3 == 0:
                    cluster.put(k, b"v1-" + k, t)
                cluster.get(k, t)
            cluster.finish_rebalance()
            return repr(t.now), cluster.events.of_kind("rebalance_done")

        assert one() == one()


# ----------------------------------------------------------------------
# bench gates (slow: full-size runs).  The crash sweep over the three
# migration roles runs with every other scenario in
# tests/faults/test_crash_sweep.py.
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestBenchGates:
    def test_rebalance_gates_pass_smoke(self):
        from repro.bench.rebalance import check_rebalance, cluster_rebalance

        results = cluster_rebalance(
            num_keys=1000, num_ops=2400, clients_per_shard=2,
            bandwidth=64 * 1024,
        )
        for label, ok, msg in check_rebalance(results):
            assert ok, f"{label}: {msg}"


# ----------------------------------------------------------------------
# a scan that finds a permanent failure inside the migration window
# ----------------------------------------------------------------------
class TestScanInsideTheWindow:
    """A scan's own landing can condemn a shard mid-window: on a
    mirrored shard whose primary SSDs are all dead, ``read_repair``
    reads the mirror copy and its rewrite finds no healthy storage
    (``NoHealthyStorageError``).  The failover resolves the ``add``
    migration between two shards' answers; the merge must still hold
    only values a linearizable history allows."""

    @pytest.mark.parametrize("victim", ["joiner", "survivor"])
    def test_the_merge_holds_no_value_the_ledger_forbids(self, victim):
        cluster = PrismCluster(
            ClusterConfig(num_shards=3, replication_factor=2),
            shard_factory=partial(
                default_shard_factory, **TIGHT_STORE, mirror_chunks=True
            ),
        )
        keys = KEYS[:120]
        t = VThread(1, cluster.clock, name="client")
        ledger = WriteLedger()
        for k in keys:
            start = t.now
            cluster.put(k, b"v0-" + k, t)
            ledger.ack(k, start, t.now, b"v0-" + k)
        joiner = cluster.add_shard(bandwidth=16 * 1024)
        for i, k in enumerate(keys):
            start = t.now
            if i % 3 == 0:
                cluster.put(k, b"v1-" + k, t)
                ledger.ack(k, start, t.now, b"v1-" + k)
            elif i % 3 == 1:
                cluster.delete(k, t)
                ledger.ack(k, start, t.now, None)
        assert cluster.rebalancing
        # Shard 1 answers after shard 0 and before the joiner.
        dead = joiner if victim == "joiner" else 1
        store = cluster.shards[dead].store
        store.flush()  # its values on flash, where the scan lands them
        for vs in store.storages:
            store.injector.kill_device(vs.ssd.name, t.now)
        got = dict(cluster.scan(keys[0], len(keys), t))
        assert cluster.membership.down == {dead}
        resolved = "rebalance_aborted" if victim == "joiner" else "rebalance_done"
        assert cluster.events.of_kind(resolved)
        forbidden = {
            k: got.get(k) for k in keys if got.get(k) not in ledger.legal_values(k)
        }
        assert forbidden == {}
        cluster.finish_rebalance()
        report = audit_ledger(ledger, cluster, t)
        assert report["lost_acked"] == 0 and report["wrong_value"] == 0
