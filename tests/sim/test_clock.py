from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread


def test_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_observe_advances():
    clock = VirtualClock()
    VThread(0, clock).spend(1.5)
    assert clock.now == 1.5


def test_observe_never_goes_backwards():
    clock = VirtualClock()
    VThread(0, clock).wait_until(2.0)
    VThread(1, clock).wait_until(1.0)
    assert clock.now == 2.0
