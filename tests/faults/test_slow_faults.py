"""Fail-slow (gray-failure) injection: penalties, onset, determinism."""

import pytest

from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    SlowFault,
    slow_store_devices,
    store_device_names,
)
from repro.sim.vthread import VThread
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice


def _injector(*slow):
    inj = FaultInjector(FaultConfig())
    for fault in slow:
        inj.add_slow_fault(fault)
    return inj


def _ssd(*slow):
    ssd = SSDDevice(FLASH_SSD_GEN4_SPEC, name="ssd0")
    ssd.attach_injector(_injector(*slow))
    return ssd


class TestSlowFaultSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlowFault(multiplier=0.5)

    def test_penalty_scales_base_latency(self):
        fault = SlowFault(multiplier=10.0)
        base = 50e-6
        assert fault.penalty(base, at=0.0) == pytest.approx(9 * base)

    def test_penalty_starts_at_onset(self):
        fault = SlowFault(multiplier=2.0, start=1.0)
        assert fault.penalty(1e-6, at=0.5) == 0.0
        assert fault.penalty(1e-6, at=1.0) > 0.0
        assert fault.penalty(1e-6, at=1e9) > 0.0  # lasts to the end of the run


class TestInjectorSlowPath:
    def test_ssd_read_inflated_by_multiplier(self):
        ssd = _ssd(SlowFault(multiplier=10.0))
        slow = VThread(0)
        ssd.write_raw(0, b"x" * 4096)
        ssd.read(slow, 0, 4096)
        fast = VThread(1)
        _ssd().read(fast, 0, 4096)
        extra = 9 * FLASH_SSD_GEN4_SPEC.read_latency
        assert slow.now == pytest.approx(fast.now + extra)
        assert ssd.injector.slow_injections == 1

    def test_write_uses_write_latency_base(self):
        ssd = _ssd(SlowFault(multiplier=3.0))
        thread = VThread(0)
        ssd.write(thread, 0, b"y" * 4096)
        clean = VThread(1)
        _ssd().write(clean, 0, b"y" * 4096)
        extra = 2 * FLASH_SSD_GEN4_SPEC.write_latency
        assert thread.now == pytest.approx(clean.now + extra)

    def test_device_filter_spares_other_devices(self):
        inj = _injector(SlowFault(devices=("other",), multiplier=5.0))
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC, name="ssd0")
        ssd.attach_injector(inj)
        thread = VThread(0)
        ssd.read(thread, 0, 4096)
        clean = VThread(1)
        _ssd().read(clean, 0, 4096)
        assert thread.now == clean.now
        assert inj.slow_injections == 0

    def test_never_raises_and_counts_metrics(self):
        inj = _injector(SlowFault(multiplier=2.0))
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC, name="ssd0")
        ssd.attach_injector(inj)
        for i in range(5):
            ssd.read(VThread(i), 0, 4096)
        assert inj.slow_injections == 5
        assert [e["kind"] for e in inj.events].count("slow_onset") == 1

    def test_zero_config_draws_nothing_and_returns_zero(self):
        inj = FaultInjector(FaultConfig(seed=3))
        state = inj.rng.getstate()
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC, name="ssd0")
        assert inj.before_io(ssd, "read", 0.0) == 0.0
        assert inj.before_flush(ssd, 0.0) == 0.0
        assert inj.rng.getstate() == state
        assert inj.slow_injections == 0

    def test_added_mid_run(self):
        inj = FaultInjector(FaultConfig())
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC, name="ssd0")
        assert inj.before_io(ssd, "read", 0.0) == 0.0
        inj.add_slow_fault(SlowFault(multiplier=2.0, start=1.0), at=1.0)
        assert inj.before_io(ssd, "read", 0.5) == 0.0
        assert inj.before_io(ssd, "read", 1.5) > 0.0

    def test_same_schedule_is_deterministic(self):
        def run():
            ssd = _ssd(SlowFault(multiplier=4.0, start=1e-3))
            thread = VThread(0)
            for _ in range(50):
                ssd.read(thread, 0, 4096)
            return thread.now, ssd.injector.slow_injections

        assert run() == run()


class TestSlowStoreDevices:
    def test_inflates_every_store_device(self):
        store = Prism(PrismConfig(faults=FaultConfig()))
        names = slow_store_devices(store, at=0.0, multiplier=10.0)
        assert set(names) == set(store_device_names(store))
        thread = VThread(0, store.clock)
        store.put(b"k", b"v" * 128, thread)
        assert store.injector.slow_injections > 0
        value = store.get(b"k", thread)
        assert value == b"v" * 128  # gray failure never loses data

    def test_requires_an_injector(self):
        store = Prism(PrismConfig())
        with pytest.raises(ValueError):
            slow_store_devices(store)
