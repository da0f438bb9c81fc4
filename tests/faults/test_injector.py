"""FaultInjector: determinism, rates, device death."""

import pytest

from repro.faults.errors import (
    DeviceDeadError,
    FlushError,
    StuckIOError,
    TransientReadError,
    TransientWriteError,
)
from repro.faults.injector import FaultConfig, FaultInjector


class FakeDevice:
    def __init__(self, name="dev0"):
        self.name = name


def _drive(injector, n=500, op="read"):
    """Consult ``n`` times; return the indices where a fault fired."""
    dev = FakeDevice()
    fired = []
    for i in range(n):
        try:
            injector.before_io(dev, op, at=float(i))
        except (TransientReadError, TransientWriteError, StuckIOError):
            fired.append(i)
    return fired


def test_rates_validated():
    with pytest.raises(ValueError):
        FaultConfig(read_error_rate=1.5)
    with pytest.raises(ValueError):
        FaultConfig(stuck_timeout=-1.0)


def test_zero_rates_never_inject_and_never_draw():
    inj = FaultInjector(FaultConfig(seed=3))
    state = inj.rng.getstate()
    assert _drive(inj, 200) == []
    assert inj.rng.getstate() == state  # no RNG draws at zero rates
    assert inj.total_injected == 0
    assert inj.consults == 200


def test_same_seed_same_schedule():
    a = _drive(FaultInjector(FaultConfig(seed=7, read_error_rate=0.05)))
    b = _drive(FaultInjector(FaultConfig(seed=7, read_error_rate=0.05)))
    c = _drive(FaultInjector(FaultConfig(seed=8, read_error_rate=0.05)))
    assert a == b
    assert a and a != c


def test_certain_rates_always_inject():
    inj = FaultInjector(FaultConfig(read_error_rate=1.0, write_error_rate=1.0))
    dev = FakeDevice()
    with pytest.raises(TransientReadError):
        inj.before_io(dev, "read", 0.0)
    with pytest.raises(TransientWriteError):
        inj.before_io(dev, "write", 0.0)
    with pytest.raises(FlushError):
        FaultInjector(FaultConfig(flush_error_rate=1.0)).before_flush(dev, 0.0)


def test_stuck_io_carries_timeout():
    inj = FaultInjector(FaultConfig(stuck_rate=1.0, stuck_timeout=5e-3))
    with pytest.raises(StuckIOError) as err:
        inj.before_io(FakeDevice(), "read", 0.0)
    assert err.value.timeout == 5e-3
    assert err.value.transient


def test_dead_device_raises_permanently():
    inj = FaultInjector(FaultConfig())
    inj.kill_device("ssd1")
    with pytest.raises(DeviceDeadError):
        inj.before_io(FakeDevice("ssd1"), "read", 0.0)
    with pytest.raises(DeviceDeadError):
        inj.before_flush(FakeDevice("ssd1"), 0.0)
    inj.before_io(FakeDevice("ssd0"), "read", 0.0)  # others unaffected


def test_kill_device_idempotent_and_observable():
    inj = FaultInjector(FaultConfig())
    inj.kill_device("ssd0", at=1.0)
    inj.kill_device("ssd0", at=2.0)
    assert inj.is_dead("ssd0")
    assert len(inj.events.of_kind("device_dead")) == 1


def test_injection_events_carry_structure():
    inj = FaultInjector(FaultConfig(write_error_rate=1.0))
    with pytest.raises(TransientWriteError):
        inj.before_io(FakeDevice("nvme3"), "write", at=4.5)
    (event,) = inj.events.of_kind("fault")
    assert event["device"] == "nvme3"
    assert event["op"] == "write"
    assert event["fault"] == "write_error"
    assert event["at"] == 4.5
