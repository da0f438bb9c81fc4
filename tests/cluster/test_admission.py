"""Admission control: token bucket, queue caps, typed shedding."""

import pytest

from repro.cluster.admission import AdmissionController, TokenBucket
from repro.cluster.errors import ShardOverloadedError


class TestTokenBucket:
    def test_burst_then_refill(self):
        tb = TokenBucket(rate=10.0, burst=2.0)
        assert tb.try_take(0.0) == 0.0
        assert tb.try_take(0.0) == 0.0
        wait = tb.try_take(0.0)
        assert wait == pytest.approx(0.1)
        # After the hinted wait a token is available again.
        assert tb.try_take(wait) == 0.0

    def test_tokens_cap_at_burst(self):
        tb = TokenBucket(rate=100.0, burst=3.0)
        tb.try_take(0.0)
        # A long idle period must not bank more than `burst` tokens.
        for _ in range(3):
            assert tb.try_take(1000.0) == 0.0
        assert tb.try_take(1000.0) > 0.0

    def test_time_never_flows_backwards(self):
        tb = TokenBucket(rate=1.0, burst=1.0)
        assert tb.try_take(5.0) == 0.0
        # An earlier-timestamped request must not refill anything.
        assert tb.try_take(1.0) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_disabled_admits_everything(self):
        ac = AdmissionController(0)
        for _ in range(10_000):
            ac.admit(0.0)
        assert ac.shed_queue == ac.shed_rate == 0

    def test_queue_depth_cap_sheds(self):
        ac = AdmissionController(3, max_queue_depth=2)
        ac.admit(0.0)
        ac.complete(1.0)
        ac.admit(0.0)
        ac.complete(1.0)
        with pytest.raises(ShardOverloadedError) as exc:
            ac.admit(0.5)  # both ops still in flight at t=0.5
        assert exc.value.shard_id == 3
        assert "queue depth" in exc.value.reason
        assert ac.shed_queue == 1
        # Once the in-flight ops end, admission resumes.
        ac.admit(1.5)
        assert ac.admitted == 3

    def test_rate_limit_sheds_with_retry_hint(self):
        ac = AdmissionController(1, rate=10.0, burst=1.0)
        ac.admit(0.0)
        with pytest.raises(ShardOverloadedError) as exc:
            ac.admit(0.0)
        assert exc.value.retry_after > 0.0
        assert ac.shed_rate == 1
        ac.admit(0.0 + exc.value.retry_after)

    def test_inflight_tracking_pops_finished(self):
        ac = AdmissionController(0, max_queue_depth=8)
        for end in (1.0, 2.0, 3.0):
            ac.admit(0.0)
            ac.complete(end)
        assert ac.inflight_at(0.5) == 3
        assert ac.inflight_at(2.5) == 1
        assert ac.inflight_at(3.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0, max_queue_depth=0)
