import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import LatencyRecorder, Timeline


class TestLatencyRecorder:
    def test_empty(self):
        rec = LatencyRecorder()
        assert rec.average() == 0.0
        assert rec.median() == 0.0
        assert rec.p99() == 0.0
        assert len(rec) == 0

    def test_single_sample_microseconds(self):
        rec = LatencyRecorder()
        rec.record(5e-6)
        assert rec.average() == pytest.approx(5.0)
        assert rec.median() == pytest.approx(5.0)

    def test_percentile_interpolation(self):
        rec = LatencyRecorder()
        for v in (1e-6, 2e-6, 3e-6, 4e-6):
            rec.record(v)
        assert rec.percentile(50) == pytest.approx(2.5)
        assert rec.percentile(0) == pytest.approx(1.0)
        assert rec.percentile(100) == pytest.approx(4.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_percentile_out_of_range(self):
        rec = LatencyRecorder()
        rec.record(1e-6)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(1e-6)
        summary = rec.summary()
        assert set(summary) == {"count", "avg_us", "p50_us", "p99_us"}

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=200))
    def test_percentiles_are_monotone(self, samples):
        rec = LatencyRecorder()
        for s in samples:
            rec.record(s)
        # tolerance: interpolation of equal samples can differ by 1 ulp
        assert rec.percentile(10) <= rec.percentile(50) + 1e-9
        assert rec.percentile(50) <= rec.percentile(99) + 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=200))
    def test_average_within_range(self, samples):
        rec = LatencyRecorder()
        for s in samples:
            rec.record(s)
        lo = rec.percentile(0)
        hi = rec.percentile(100)
        assert lo - 1e-9 <= rec.average() <= hi + 1e-9


class TestTimeline:
    def test_bucketing(self):
        tl = Timeline(bucket_seconds=1.0)
        tl.record(0.5)
        tl.record(0.9)
        tl.record(1.1)
        assert tl.series() == [2.0, 1.0]

    def test_rate_scaling(self):
        tl = Timeline(bucket_seconds=0.5)
        tl.record(0.1)
        assert tl.series() == [2.0]  # 1 op / 0.5 s

    def test_empty_series(self):
        assert Timeline().series() == []

    def test_marks(self):
        tl = Timeline(bucket_seconds=1.0)
        tl.mark(2.5, "gc")
        assert tl.events[2] == ["gc"]

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            Timeline(bucket_seconds=0)

    def test_min_over_max_stability(self):
        tl = Timeline(bucket_seconds=1.0)
        for t in (0.1, 0.2, 1.1, 1.2, 2.1, 2.2, 3.5):
            tl.record(t)
        # interior buckets are all 2 ops -> perfectly stable
        assert tl.min_over_max() == pytest.approx(1.0)

    def test_min_over_max_stops_where_the_drain_began(self):
        """Clients finishing one after the other thin the last buckets
        out; that is the run ending, not the store stalling."""
        tl = Timeline(bucket_seconds=1.0)
        for bucket, ops in enumerate((1, 4, 4, 5, 2, 1)):
            for _ in range(ops):
                tl.record(bucket + 0.5)
        assert tl.min_over_max() == pytest.approx(2 / 5)  # 4 4 5 2
        tl.drain_at = 4.2
        assert tl.min_over_max() == pytest.approx(4 / 5)  # 4 4 5
        tl.drain_at = 9.0  # past the end: the last bucket is still partial
        assert tl.min_over_max() == pytest.approx(2 / 5)

    def test_series_until(self):
        tl = Timeline(bucket_seconds=1.0)
        tl.record(0.5)
        assert len(tl.series(until=4.0)) == 5
