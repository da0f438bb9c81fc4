import pytest

from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread


def test_spend_advances_local_and_global_clock():
    clock = VirtualClock()
    t = VThread(0, clock)
    t.spend(1e-6)
    assert t.now == pytest.approx(1e-6)
    assert clock.now == pytest.approx(1e-6)
    assert t.cpu_time == pytest.approx(1e-6)


def test_negative_spend_rejected():
    t = VThread(0)
    with pytest.raises(ValueError):
        t.spend(-1.0)


def test_wait_until_only_moves_forward():
    t = VThread(0)
    t.wait_until(5.0)
    assert t.now == 5.0
    t.wait_until(1.0)
    assert t.now == 5.0


def test_wait_does_not_count_as_cpu():
    t = VThread(0)
    t.wait_until(1.0)
    assert t.cpu_time == 0.0


def test_threads_share_clock():
    clock = VirtualClock()
    a = VThread(0, clock)
    b = VThread(1, clock)
    a.spend(2e-6)
    assert clock.now == pytest.approx(2e-6)
    assert b.now == 0.0  # local clocks are independent


def test_new_thread_starts_at_private_clock_zero():
    t = VThread(3)
    assert t.now == 0.0
    assert not t.background
