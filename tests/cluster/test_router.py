"""The cluster router: replication, failover, re-replication,
admission integration, and the store-shaped facade."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    PrismCluster,
    ShardOverloadedError,
    ShardUnavailableError,
)
from repro.cluster.router import DEFAULT_REBALANCE_BANDWIDTH, default_shard_factory
from repro.core.prism import Prism
from repro.faults.errors import DeviceDeadError, StorageError
from repro.faults.injector import FaultConfig, kill_store_devices
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.specs import QLC_SSD_SPEC
from tests.conftest import KB, MB, count_calls, small_prism_config


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


def fill(cluster, n, thread, prefix=b"key"):
    for i in range(n):
        cluster.put(b"%s%04d" % (prefix, i), b"val%04d" % i, thread)


class TestBasicOps:
    def test_put_get_delete_roundtrip(self):
        c = build()
        t = VThread(1, c.clock)
        fill(c, 100, t)
        for i in range(100):
            assert c.get(b"key%04d" % i, t) == b"val%04d" % i
        assert c.get(b"missing", t) is None
        assert c.delete(b"key0000", t) is True
        assert c.get(b"key0000", t) is None
        assert c.delete(b"key0000", t) is False

    def test_operations_advance_virtual_time(self):
        c = build()
        t = VThread(1, c.clock)
        t0 = t.now
        c.put(b"k", b"v", t)
        assert t.now > t0

    def test_scan_merges_across_shards(self):
        c = build()
        t = VThread(1, c.clock)
        fill(c, 60, t)
        pairs = c.scan(b"key0010", 20, t)
        assert [k for k, _ in pairs] == [b"key%04d" % i for i in range(10, 30)]
        assert all(v == b"val%04d" % (10 + i) for i, (_, v) in enumerate(pairs))

    def test_replicas_hold_copies(self):
        """Every key is durable on exactly RF shard stores."""
        c = build(num_shards=4, replication_factor=2)
        t = VThread(1, c.clock)
        fill(c, 50, t)
        for i in range(50):
            key = b"key%04d" % i
            holders = [
                s.shard_id
                for s in c.shards
                if s.store.index.lookup(key) is not None
            ]
            assert sorted(holders) == sorted(c.ring.preference_list(key, 2))

    def test_len_counts_keys_once(self):
        c = build(num_shards=3, replication_factor=3)
        t = VThread(1, c.clock)
        fill(c, 40, t)
        assert len(c) == 40

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=2, replication_factor=3)
        with pytest.raises(ValueError):
            ClusterConfig(replication_mode="gossip")
        with pytest.raises(ValueError):
            ClusterConfig(read_policy="nearest")


class TestReplicationModes:
    def test_sync_waits_for_all_quorum_for_majority(self):
        """Per-mode ack timing: async returns at the primary's ack,
        quorum at the majority ack, sync at the slowest replica."""
        ends = {}
        for mode in ("async", "quorum", "sync"):
            c = build(num_shards=3, replication_factor=3, replication_mode=mode)
            t = VThread(1, c.clock)
            c.put(b"k", b"v", t)
            ends[mode] = t.now
        assert ends["async"] <= ends["quorum"] <= ends["sync"]

    def test_async_backlog_applies_on_read(self):
        """Async replication converges lazily: the replica applies its
        queue before serving, so spread reads are monotone per client."""
        c = build(
            num_shards=2,
            replication_factor=2,
            replication_mode="async",
            read_policy="spread",
        )
        t = VThread(1, c.clock)
        fill(c, 30, t)
        for i in range(30):
            assert c.get(b"key%04d" % i, t) == b"val%04d" % i

    def test_hot_spread_counter_follows_a_registry_swap(self):
        """The router keeps the counter it resolved on the first hot
        read; a runner that installs its own registry must still see
        its run's hot reads, and nothing before the first hot read."""
        c = build(read_policy="spread", hot_key_threshold=2)
        t = VThread(1, c.clock)
        c.put(b"k", b"v", t)
        c.get(b"k", t)
        assert "cluster.hot_spread_reads" not in c.metrics.counters
        c.get(b"k", t)
        c.get(b"k", t)
        first = c.metrics
        assert first.counters["cluster.hot_spread_reads"].value == 2
        c.metrics = MetricsRegistry()
        c.get(b"k", t)
        assert c.metrics.counters["cluster.hot_spread_reads"].value == 1
        assert first.counters["cluster.hot_spread_reads"].value == 2

    def test_async_queue_drains_on_flush(self):
        c = build(num_shards=2, replication_factor=2, replication_mode="async")
        t = VThread(1, c.clock)
        fill(c, 30, t)
        c.flush()
        assert all(not s.queue for s in c.shards)
        assert c.stats()["cluster_repl_applied"] == 30.0


class TestFailover:
    def test_kill_shard_keeps_acked_data(self):
        c = build(num_shards=3, replication_factor=2)
        t = VThread(1, c.clock)
        fill(c, 120, t)
        c.kill_shard(1, t.now)
        for i in range(120):
            assert c.get(b"key%04d" % i, t) == b"val%04d" % i

    def test_failover_emits_events_and_metrics(self):
        c = build()
        t = VThread(1, c.clock)
        fill(c, 60, t)
        c.kill_shard(0, t.now)
        assert len(c.events.of_kind("shard_down")) == 1
        c.finish_rebalance()
        done = c.events.of_kind("rebalance_done")
        assert [(e["action"], e["shard"]) for e in done] == [("fail", 0)]
        assert done[0]["keys_lost"] == 0
        recovery = c.metrics.gauge("cluster.recovery_seconds").value
        assert recovery == done[0]["duration"] > 0.0
        assert c.stats()["cluster_shards_down"] == 1.0

    def test_rebuild_restores_replication_factor(self):
        c = build(num_shards=4, replication_factor=2)
        t = VThread(1, c.clock)
        fill(c, 80, t)
        c.kill_shard(2, t.now)
        c.finish_rebalance()
        assert sorted(c.ring.shards) == [0, 1, 3]
        down = {2}
        for i in range(80):
            key = b"key%04d" % i
            live_owners = c.ring.preference_list(key, 2, exclude=down)
            for sid in live_owners:
                assert c.shards[sid].store.index.lookup(key) is not None, (
                    f"{key!r} missing on live owner {sid} after re-replication"
                )

    def test_writes_after_failover_replicate(self):
        c = build(num_shards=3, replication_factor=2)
        t = VThread(1, c.clock)
        fill(c, 40, t)
        c.kill_shard(0, t.now)
        fill(c, 40, t, prefix=b"new")
        for i in range(40):
            assert c.get(b"new%04d" % i, t) == b"val%04d" % i

    def test_rf1_data_on_dead_shard_is_lost_and_counted(self):
        c = build(num_shards=3, replication_factor=1)
        t = VThread(1, c.clock)
        fill(c, 90, t)
        dead = 1
        owned = [
            b"key%04d" % i
            for i in range(90)
            if c.ring.lookup(b"key%04d" % i) == dead
        ]
        assert owned, "pick a shard that owns something"
        c.kill_shard(dead, t.now)
        c.finish_rebalance()
        (done,) = c.events.of_kind("rebalance_done")
        assert done["action"] == "fail"
        assert done["keys_lost"] == len(owned)
        for key in owned:
            assert c.get(key, t) is None

    def test_all_owners_down_raises_unavailable(self):
        c = build(num_shards=2, replication_factor=1)
        t = VThread(1, c.clock)
        c.put(b"k", b"v", t)
        c.kill_shard(0, t.now)
        c.kill_shard(1, t.now)
        with pytest.raises(ShardUnavailableError):
            c.get(b"k", t)

    def test_double_fail_is_idempotent(self):
        c = build()
        t = VThread(1, c.clock)
        fill(c, 20, t)
        c.kill_shard(1, t.now)
        c.fail_shard(1, t.now)
        assert len(c.events.of_kind("shard_down")) == 1


def flash_cluster(keys: int, num_shards: int = 3, replication_factor: int = 2):
    """3 shards, RF=2 quorum, ``keys`` 1 KB values flushed to flash
    (PWB and SVC hold 64 KB a shard), and a client thread."""
    c = PrismCluster(
        ClusterConfig(
            num_shards=num_shards, replication_factor=replication_factor
        ),
        shard_factory=partial(
            default_shard_factory, pwb_capacity=64 * KB, svc_capacity=64 * KB
        ),
    )
    t = VThread(1, c.clock)
    for i in range(keys):
        c.put(b"key%04d" % i, b"%04d" % i * 256, t)
    c.flush()
    return c, t


class TestSilentDeath:
    """A shard's devices die through the injector and nobody tells the
    router: the op that finds out must still answer right."""

    @settings(max_examples=6, deadline=None)
    @given(
        victim=st.integers(0, 2),
        first=st.integers(0, 499),
        count=st.integers(1, 100),
    )
    def test_scan_equals_sorted_point_reads(self, victim, first, count):
        """The dead shard's scan raises a non-permanent error (values
        are on flash), so nothing fails it over: the scan that
        discovers the death and every scan after it must take the
        shard's keys from their surviving owner — not drop them and
        back-fill later keys (31 of the first 80 went missing)."""
        c, t = flash_cluster(500)
        kill_store_devices(c.shards[victim].store, t.now)
        start = b"key%04d" % first
        discovering = c.scan(start, count, t)
        keys = [b"key%04d" % i for i in range(first, 500)][:count]
        point_reads = [(key, c.get(key, t)) for key in keys]
        assert discovering == point_reads
        assert c.scan(start, count, t) == point_reads

    def test_scan_raises_when_silent_shards_could_hold_every_copy(self):
        c, t = flash_cluster(200)
        for victim in (0, 1):
            kill_store_devices(c.shards[victim].store, t.now)
        with pytest.raises(StorageError):
            c.scan(b"key0000", 50, t)

    def test_write_retries_never_leak_the_internal_wrapper(self):
        """The primary is draining and the next owner is silently dead:
        the drain retry lands on the dead shard, which must be failed
        over and retried like any other — on the parent of PR 22 that
        retry sat inside the drain handler and the router's private
        ``_ShardOpError`` reached the client."""
        c, t = flash_cluster(200)
        c.shards[0].start_drain()
        kill_store_devices(c.shards[1].store, t.now)
        keys = [
            key
            for key in (b"key%04d" % i for i in range(200))
            if c.ring.preference_list(key, 2) == [0, 1]
        ]
        assert keys, "need a key owned by the draining and the dead shard"
        for key in keys:
            try:
                c.put(key, b"new", t)
            except (ClusterError, StorageError):
                continue  # typed, so a client can handle it
            # Acked: it landed on the one owner neither draining nor dead.
            assert c.shards[2].store.get(key, t) == b"new"
        assert c._down == {1}
        assert c.delete(keys[0], t) is True


def big_value(key: bytes) -> bytes:
    return key[-4:] * 1024  # 4 KB: one copy takes 488 us at 8 MiB/s


class TestFailureWindow:
    """A shard's death is a membership change the migrator carries out:
    a ``fail`` migration to the ring without it, paced by the budget,
    with reads of unmoved keys forwarded to their surviving owners."""

    def fill(self, c, n, t):
        keys = [b"key%04d" % i for i in range(n)]
        for key in keys:
            c.put(key, big_value(key), t)
        return keys

    def test_kill_opens_a_paced_window(self):
        c = build(num_shards=4, replication_factor=2)
        t = VThread(1, c.clock)
        self.fill(c, 120, t)
        c.kill_shard(1, t.now)
        assert c.rebalancing
        mig = c._migration
        assert mig.action == "fail" and mig.shard_id == 1
        key = mig.pending[-1]  # the stream's last key
        assert c.get(key, t) == big_value(key)
        assert c.metrics.counter("rebalance.forwarded_reads").value == 1
        t.now += 0.005  # the client comes back 5 ms later
        c.get(b"key0000", t)
        assert c.rebalancing and key not in mig.moved
        assert mig.keys_moved > 1
        size, budget = len(big_value(key)), DEFAULT_REBALANCE_BANDWIDTH
        # Paced: the stream's clock paid size / budget per copy...
        assert mig.keys_moved * size <= budget * (mig.thread.now - mig.started_at)
        # ...and runs at most one copy ahead of the clients.
        assert mig.thread.now <= t.now + size / budget

    def test_forwarded_read_never_falls_to_an_owner_without_the_key(self):
        """The dead member's unmoved key reads from its surviving old
        owner only.  When that one cannot answer either, the read
        fails — it must not fall through to a new owner the stream has
        not reached, which would report an acknowledged key absent."""
        c = build(num_shards=4, replication_factor=2)
        t = VThread(1, c.clock)
        self.fill(c, 120, t)
        c.kill_shard(1, t.now)
        mig = c._migration
        key = mig.pending[-1]
        (survivor,) = [sid for sid in mig.moves[key].old_owners if sid != 1]
        kill_store_devices(c.shards[survivor].store, t.now)
        with pytest.raises(StorageError):
            c.get(key, t)

    @pytest.mark.parametrize("rf", [2, 3])
    def test_second_death_inside_the_window(self, rf):
        """The first window fast-forwards; a key both dead members held
        (RF=2) is counted lost once, over both migrations, and reads
        as absent.  At RF=3 a third copy survives."""
        c = build(num_shards=5, replication_factor=rf)
        t = VThread(1, c.clock)
        keys = self.fill(c, 120, t)
        ring = c.ring
        c.kill_shard(0, t.now)
        first = c._migration
        lost = [
            key for key in keys
            if set(ring.preference_list(key, rf)) <= {0, 1}
            and key not in first.moved
        ]
        assert bool(lost) == (rf == 2)
        c.kill_shard(1, t.now)
        assert c.rebalancing and c._migration is not first
        for key in keys:
            assert c.get(key, t) == (None if key in lost else big_value(key))
        c.finish_rebalance()
        done = c.events.of_kind("rebalance_done")
        assert [(e["action"], e["shard"]) for e in done] == [
            ("fail", 0), ("fail", 1),
        ]
        assert sum(e["keys_lost"] for e in done) == len(lost)
        assert c.metrics.counter("rebalance.keys_lost").value == len(lost)
        assert sorted(c.ring.shards) == [2, 3, 4]
        for key in keys:
            assert c.get(key, t) == (None if key in lost else big_value(key))

    @settings(max_examples=10, deadline=None)
    @given(
        num_shards=st.integers(3, 5),
        rf=st.integers(2, 3),
        victim=st.integers(0, 4),
        discovered=st.booleans(),
        first=st.integers(0, 299),
        count=st.integers(1, 100),
    )
    def test_scan_equals_sorted_point_reads(
        self, num_shards, rf, victim, discovered, first, count
    ):
        """Inside the window a dead member's unmoved keys live only on
        their surviving old owners: the scan must merge them from there.
        The death is a ``kill_shard`` or one the scan itself finds — a
        store's own reads report a dead device as degraded, so there the
        victim's scan raises the permanent error a node death would."""
        victim %= num_shards
        c, t = flash_cluster(300, num_shards, rf)
        if discovered:
            store = c.shards[victim].store
            kill_store_devices(store, t.now)

            def dead_scan(start, count, thread):
                raise DeviceDeadError("nvm", "scan")

            store.scan = dead_scan
        else:
            c.kill_shard(victim, t.now)
        start = b"key%04d" % first
        got = c.scan(start, count, t)
        assert c._down == {victim}
        keys = [b"key%04d" % i for i in range(first, 300)][:count]
        point_reads = [(key, c.get(key, t)) for key in keys]
        assert got == point_reads
        assert c.scan(start, count, t) == point_reads

    def test_scan_raises_when_a_silent_shard_holds_a_last_copy(self):
        """In the window a key the dead member owned has one copy fewer:
        at RF=2 one silent shard can hold its last copy, so the scan
        must raise rather than merge without it."""
        c, t = flash_cluster(200)
        c.kill_shard(0, t.now)
        kill_store_devices(c.shards[1].store, t.now)
        with pytest.raises(StorageError):
            c.scan(b"key0000", 50, t)


def one_shard_twin():
    """The 1-shard RF=1 no-fault cluster and the bare store it is
    bit-identical to (``test_runner.py`` pins that), loaded alike."""
    cluster = build(num_shards=1, replication_factor=1)
    bare = small_factory(0, VirtualClock())
    tc, tb = VThread(1, cluster.clock), VThread(1, bare.clock)
    fill(cluster, 50, tc)
    fill(bare, 50, tb)
    return cluster, tc, bare, tb


class TestCallBudget:
    """What the router adds to a store op, in Python + C calls (the
    events perfbench's ``host_calls_per_op`` counts).  Measured on the
    parent of PR 22: get +20, put +19, hit-path read +30."""

    def test_one_shard_get_and_put(self):
        cluster, tc, bare, tb = one_shard_twin()
        key = b"key0007"
        assert count_calls(cluster.get, key, tc) <= count_calls(bare.get, key, tb) + 17
        assert (
            count_calls(cluster.put, key, b"new", tc)
            <= count_calls(bare.put, key, b"new", tb) + 15
        )

    def test_hit_path_read_on_the_perfbench_cluster_shape(self):
        """``cluster_b_rf2``: 4 shards, RF=2 quorum, hot-key spread, a
        queue-depth cap and per-shard read caches; a cold-tail key
        reads its primary and hits that shard's cache."""
        c = PrismCluster(
            ClusterConfig(
                num_shards=4, replication_factor=2, read_policy="spread",
                hot_key_threshold=8, max_queue_depth=64,
            ),
            shard_factory=partial(
                default_shard_factory,
                enable_read_cache=True, read_cache_capacity=8 * MB,
            ),
        )
        t = VThread(1, c.clock)
        fill(c, 50, t)
        key = b"key0007"
        primary = c.shards[c.ring.lookup(key)].store
        c.get(key, t)
        c.get(key, t)
        assert primary.stats()["rc_hits"] >= 1
        assert count_calls(c.get, key, t) <= count_calls(primary.get, key, t) + 27


class TestAdmissionIntegration:
    def test_queue_cap_sheds_through_router(self):
        c = build(num_shards=1, replication_factor=1, max_queue_depth=1)
        t1 = VThread(1, c.clock)
        t2 = VThread(2, c.clock)
        c.put(b"a", b"v", t1)
        # t2 starts inside t1's op window: the single slot is taken.
        t2.now = t1.now / 2 if t1.now > 0 else 0.0
        with pytest.raises(ShardOverloadedError):
            c.put(b"b", b"v", t2)
        assert c.metrics.counter("cluster.shed").value == 1

    def test_rate_limit_sheds_through_router(self):
        c = build(
            num_shards=1, replication_factor=1,
            rate_limit_ops=1.0, rate_burst=2.0,
        )
        t = VThread(1, c.clock)
        c.put(b"a", b"v", t)
        c.put(b"b", b"v", t)
        with pytest.raises(ShardOverloadedError) as exc:
            c.put(b"c", b"v", t)
        assert exc.value.retry_after > 0.0


class TestFacade:
    def test_store_shaped_surface(self):
        c = build()
        t = VThread(1, c.clock)
        fill(c, 30, t)
        assert c.name == "PrismCluster"
        assert c.bytes_put > 0
        assert c.ssd_bytes_written() >= 0
        assert isinstance(c.waf(), float)
        stats = c.stats()
        assert stats["cluster_shards"] == 3.0
        assert all(isinstance(s.store.events.of_kind("gc"), list) for s in c.shards)
        c.flush()
        c.close()

    def test_stats_ratios_are_recomputed_not_summed(self):
        def factory(shard_id, clock):
            config = small_prism_config(
                faults=FaultConfig(seed=9000 + shard_id),
                enable_read_cache=True,
                enable_tiering=True,
                cold_ssd_spec=QLC_SSD_SPEC.with_capacity(64 * MB),
            )
            return Prism(config, clock=clock)

        c = PrismCluster(
            ClusterConfig(num_shards=4, replication_factor=2), shard_factory=factory
        )
        t = VThread(1, c.clock)
        fill(c, 200, t)
        c.flush()
        for _ in range(3):
            for i in range(200):
                c.get(b"key%04d" % i, t)
        stats = c.stats()
        assert stats["rc_hits"] > 0 and stats["rc_misses"] > 0
        assert 0.0 <= stats["rc_hit_ratio"] <= 1.0
        assert stats["rc_hit_ratio"] == stats["rc_hits"] / (
            stats["rc_hits"] + stats["rc_misses"]
        )
        for tier in ("fast", "cold"):
            assert stats[f"tier_{tier}_occupancy"] == (
                stats[f"tier_{tier}_used_bytes"]
                / stats[f"tier_{tier}_capacity_bytes"]
            )
        assert stats["tier_fast_occupancy"] > 0.0
        assert stats["tier_demotion_waf"] == stats["tier_demoted_bytes"] / c.bytes_put
        # The scenario discriminates: per-shard ratios, summed, exceed 1.
        per_shard = sum(s.store.stats()["rc_hit_ratio"] for s in c.shards)
        assert per_shard > 1.0

    def test_merged_shard_metrics(self):
        c = build()
        t = VThread(1, c.clock)
        fill(c, 20, t)
        merged = c.merged_shard_metrics()
        # Shard registries are prefixed; the merged view is not.
        assert merged.to_dict() is not None

    def test_default_factory_takes_config_overrides(self):
        """One factory for every cluster in src/: the default shard plus
        PrismConfig fields, for joining members too."""
        from functools import partial

        from repro.cluster import default_shard_factory

        c = PrismCluster(
            ClusterConfig(num_shards=2),
            shard_factory=partial(
                default_shard_factory, svc_capacity=1 * MB, enable_read_cache=True
            ),
        )
        c.add_shard()
        c.finish_rebalance()
        assert len(c.shards) == 3
        for sid, shard in enumerate(c.shards):
            config = shard.store.config
            assert config.svc_capacity == 1 * MB and config.enable_read_cache
            assert config.faults.seed == 9000 + sid
            assert shard.store.metrics.prefix == f"shard{sid}/"

    def test_shared_clock_enforced(self):
        with pytest.raises(ValueError):
            PrismCluster(
                ClusterConfig(num_shards=1),
                shard_factory=lambda sid, clock: Prism(small_prism_config()),
            )
