"""Per-op phase tracing and device sampling against a live Prism."""

import pytest

from repro.core.prism import Prism
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.sampler import DeviceSampler
from repro.sim.vthread import VThread
from tests.conftest import small_prism_config


def _drive(store, ops=60, value=b"v" * 512):
    thread = VThread(0, store.clock, name="app-0")
    for i in range(ops):
        key = b"key-%06d" % (i % 20)
        store.put(key, value, thread)
        store.get(key, thread)
    store.scan(b"key-000000", 5, thread)
    store.delete(b"key-000000", thread)
    return thread


class TestPhaseTracing:
    def test_disabled_by_default(self):
        store = Prism(small_prism_config())
        assert store.metrics is NULL_REGISTRY
        _drive(store)
        assert store.metrics.to_dict()["histograms"] == {}

    def test_put_get_phases_recorded(self):
        store = Prism(small_prism_config(enable_metrics=True))
        assert isinstance(store.metrics, MetricsRegistry)
        _drive(store)
        hists = store.metrics.histograms
        for name in (
            "phase.put.index_lookup",
            "phase.put.pwb_append",
            "phase.put.publish",
            "phase.get.index_lookup",
            "phase.scan.index_scan",
            "phase.delete.index_lookup",
        ):
            assert name in hists, name
            assert hists[name].count > 0, name

    def test_phase_sum_bounded_by_op_latency(self):
        """Phases partition an op: their total cannot exceed the ops'
        wall time (virtual)."""
        store = Prism(small_prism_config(enable_metrics=True))
        thread = _drive(store)
        phase_total = sum(
            h.total
            for name, h in store.metrics.histograms.items()
            if name.startswith("phase.put.")
        )
        assert 0 < phase_total <= thread.now

    def test_svc_hit_miss_counters(self):
        store = Prism(small_prism_config(enable_metrics=True))
        _drive(store)
        counters = store.metrics.counters
        hits = counters.get("read.svc_hits")
        pwb = counters.get("read.pwb_hits")
        served = (hits.value if hits else 0) + (pwb.value if pwb else 0)
        misses = counters.get("read.svc_misses")
        assert served + (misses.value if misses else 0) > 0

    def test_metrics_do_not_change_simulation(self):
        """The zero-cost claim, end to end: identical workloads with
        tracing on and off land on identical virtual clocks and store
        state."""
        plain = Prism(small_prism_config())
        traced = Prism(small_prism_config(enable_metrics=True))
        t_plain = _drive(plain)
        t_traced = _drive(traced)
        assert t_plain.now == t_traced.now
        assert plain.clock.now == traced.clock.now
        assert len(plain) == len(traced)
        assert plain.stats() == traced.stats()


class TestStructuredEvents:
    def test_reclaim_events_structured(self):
        store = Prism(small_prism_config(enable_metrics=True))
        _drive(store, ops=400)
        reclaims = store.events.of_kind("reclaim")
        assert reclaims, "400 puts into a 64K PWB must trigger reclamation"
        for event in reclaims:
            assert event["pwb_id"] >= 0
            assert event["region_bytes"] > 0
            assert event["scanned_records"] >= event["live_records"] >= 0
            assert event["duration"] >= 0

    def test_timeline_gc_marks_come_from_the_event_log(self):
        """The runner marks the timeline at each ``gc`` event of the
        measured window — and at nothing else in the log."""
        from repro.bench.runner import preload, run_workload
        from repro.workloads.ycsb import WORKLOADS

        store = Prism(small_prism_config())
        preload(store, 50, 128)
        now = store.clock.now
        gc = dict(vs_id=0, victim_chunks=1, moved_records=0, moved_bytes=0,
                  chunks_freed=1, duration=0.0)
        store.events.emit(now - 1.0, "gc", **gc)  # before the window
        store.events.emit(now + 2.5e-3, "gc", **gc)
        store.events.emit(now + 4.5e-3, "reclaim", pwb_id=0)
        result = run_workload(
            store, WORKLOADS["C"], 20, 50, 1, 128, timeline_bucket=1e-3
        )
        assert result.timeline.events == {2: ["gc"]}
        assert [e["at"] for e in result.metrics["events"]["gc"]] == [now + 2.5e-3]


class TestDeviceSampler:
    def test_samples_all_device_series(self):
        store = Prism(small_prism_config(enable_metrics=True))
        registry = MetricsRegistry()
        sampler = DeviceSampler(registry, store)
        sampler.sample(store.clock.now)
        _drive(store, ops=100)
        sampler.sample(store.clock.now + 1e-3)
        names = set(registry.series)
        for vs_id in range(len(store.storages)):
            assert f"ssd.{vs_id}.queue_depth" in names
            assert f"ssd.{vs_id}.utilization" in names
        assert "nvm.bytes_flushed" in names
        assert "pwb.occupancy.mean" in names

    def test_utilization_bounded(self):
        store = Prism(small_prism_config(enable_metrics=True))
        registry = MetricsRegistry()
        sampler = DeviceSampler(registry, store)
        now = store.clock.now
        sampler.sample(now)
        for i in range(5):
            _drive(store, ops=40)
            sampler.sample(store.clock.now + i * 1e-4)
        for name, series in registry.series.items():
            if name.endswith(".utilization"):
                assert all(0.0 <= v <= 1.0 for v in series.values), name

    def test_nvm_flush_bytes_monotone(self):
        store = Prism(small_prism_config(enable_metrics=True))
        registry = MetricsRegistry()
        sampler = DeviceSampler(registry, store)
        sampler.sample(0.0)
        _drive(store, ops=50)
        sampler.sample(1.0)
        _drive(store, ops=50)
        sampler.sample(2.0)
        flushed = registry.series["nvm.bytes_flushed"].values
        assert flushed == sorted(flushed)
        assert flushed[-1] > 0
