"""Health scoring, gray verdicts, circuit breakers, hedge delay."""

import pytest

from repro.cluster.health import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
)

US = 1e-6


def _config(**kw):
    defaults = dict(min_samples=4, open_after=2, reset_timeout=1e-3,
                    probe_successes=2)
    defaults.update(kw)
    return HealthConfig(**defaults)


def _warm(monitor, healthy_shards, latency=50 * US, n=None, at=0.0):
    """Feed ``n`` healthy samples to each listed shard."""
    n = n if n is not None else monitor.config.min_samples
    for _ in range(n):
        for sid in healthy_shards:
            monitor.record_read(sid, latency, at)


class TestHealthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            HealthConfig(gray_factor=1.0)
        with pytest.raises(ValueError):
            HealthConfig(hedge_quantile=1.0)


class TestCircuitBreaker:
    def test_closed_to_open_after_gray_streak(self):
        b = CircuitBreaker(0, _config())
        b.on_verdict(True, at=1.0)
        assert b.state == STATE_CLOSED
        b.on_verdict(True, at=2.0)
        assert b.state == STATE_OPEN
        assert len(b.events.of_kind("breaker_open")) == 1

    def test_healthy_verdict_resets_streak(self):
        b = CircuitBreaker(0, _config())
        b.on_verdict(True, at=1.0)
        b.on_verdict(False, at=2.0)
        b.on_verdict(True, at=3.0)
        assert b.state == STATE_CLOSED

    def test_open_blocks_until_reset_timeout(self):
        b = CircuitBreaker(0, _config())
        b.trip(at=1.0)
        assert not b.allow(at=1.0005)  # inside reset_timeout
        assert b.allow(at=1.002)  # timeout elapsed: half-open probe
        assert b.state == STATE_HALF_OPEN

    def test_half_open_closes_after_probe_successes(self):
        b = CircuitBreaker(0, _config())
        b.trip(at=0.0)
        b.allow(at=2e-3)
        b.on_verdict(False, at=2e-3)
        assert b.state == STATE_HALF_OPEN  # one probe is not enough
        b.on_verdict(False, at=3e-3)
        assert b.state == STATE_CLOSED
        assert len(b.events.of_kind("breaker_closed")) == 1

    def test_half_open_gray_probe_reopens(self):
        b = CircuitBreaker(0, _config())
        b.trip(at=0.0)
        b.allow(at=2e-3)
        b.on_verdict(True, at=2e-3)
        assert b.state == STATE_OPEN
        assert b.opened_at == 2e-3  # the reset clock restarts


class TestHealthMonitor:
    def test_gray_when_score_exceeds_peer_median(self):
        m = HealthMonitor(3, _config())
        _warm(m, (0, 1), n=8)
        _warm(m, (2,), latency=500 * US, n=8)
        assert m.is_gray(2)
        assert not m.is_gray(0)

    def test_cluster_wide_slowdown_is_not_gray(self):
        m = HealthMonitor(3, _config())
        _warm(m, (0, 1, 2), latency=500 * US, n=8)
        assert not any(m.is_gray(sid) for sid in range(3))

    def test_no_verdict_before_min_samples(self):
        m = HealthMonitor(2, _config())
        m.record_read(0, 500 * US, at=0.0)
        assert not m.is_gray(0)
        assert m.breakers[0].gray_streak == 0

    def test_gray_shard_opens_its_breaker(self):
        m = HealthMonitor(3, _config())
        _warm(m, (0, 1), n=8)
        for _ in range(8):
            m.record_read(2, 500 * US, at=1.0)
        assert m.breakers[2].state == STATE_OPEN
        assert not m.allow(2, at=1.0)
        assert m.allow(0, at=1.0)

    def test_recovered_shard_closes_via_probes(self):
        cfg = _config()
        m = HealthMonitor(3, cfg)
        _warm(m, (0, 1), n=8)
        for _ in range(8):
            m.record_read(2, 500 * US, at=1.0)
        assert m.breakers[2].state == STATE_OPEN
        at = 1.0 + 2 * cfg.reset_timeout
        assert m.allow(2, at)  # half-opens
        # Healthy probe latencies close it (per-sample verdicts).
        for i in range(cfg.probe_successes):
            m.record_read(2, 50 * US, at + i * US)
        assert m.breakers[2].state == STATE_CLOSED

    def test_failure_counts_as_gray_evidence(self):
        m = HealthMonitor(2, _config())
        m.record_failure(0, at=0.0)
        m.record_failure(0, at=1.0)
        assert m.breakers[0].state == STATE_OPEN


class TestHedgeDelay:
    def test_infinite_until_warm(self):
        m = HealthMonitor(2, _config())
        assert m.hedge_delay() == float("inf")

    def test_tracks_quantile_with_median_cap_and_floor(self):
        cfg = _config(hedge_min_delay=10 * US)
        m = HealthMonitor(2, cfg)
        # 64 samples at 50us: p95 == median == 50us -> delay 50us.
        _warm(m, (0, 1), latency=50 * US, n=32)
        assert m.hedge_delay() == pytest.approx(50 * US)
        # Pollute with a gray tail: the cap keeps the delay anchored
        # at 3x the (healthy) median instead of chasing the p95.
        for _ in range(40):
            m.record_read(1, 500 * US, at=1.0)
        assert m.hedge_delay() <= 3.0 * 50 * US + 1e-12

    def test_floor_applies(self):
        cfg = _config(hedge_min_delay=100 * US)
        m = HealthMonitor(2, cfg)
        _warm(m, (0, 1), latency=1 * US, n=32)
        assert m.hedge_delay() == pytest.approx(100 * US)

