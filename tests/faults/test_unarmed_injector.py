"""An injector that cannot fire costs nothing.

A ``FaultInjector`` is *armed* (``enabled``) from construction only when
some ``FaultConfig`` rate is above zero, and for good from its first
``kill_device`` or ``add_slow_fault``.  While it is unarmed every hook
site takes the path of a store built with ``faults=None``: the same
calls, the same virtual time, the same device traffic.
"""

import random

import pytest

from repro.core.prism import Prism
from repro.faults.errors import DeviceDeadError
from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    SlowFault,
    _RATES,
    slow_store_devices,
)
from repro.sim.vthread import VThread
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice
from tests.conftest import KB, count_calls, small_prism_config

VALUE = b"v" * 512


def _store(faults, **overrides):
    store = Prism(small_prism_config(faults=faults, **overrides))
    return store, VThread(0, store.clock)


def _loaded(faults):
    """Sixteen keys flushed to Value Storage, the first one cached."""
    store, t = _store(faults)
    for i in range(16):
        store.put(b"k%02d" % i, VALUE, t)
    store.flush()
    store.get(b"k00", t)
    return store, t


OPS = {
    "insert": lambda store, t: store.put(b"new", VALUE, t),
    "update": lambda store, t: store.put(b"k03", VALUE, t),
    "cached_get": lambda store, t: store.get(b"k00", t),
    "flash_miss_get": lambda store, t: store.get(b"k05", t),
    "scan": lambda store, t: store.scan(b"k04", 8, t),
}


class TestSameCallsAsNoInjector:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_op_costs_what_faults_none_costs(self, op):
        plain, tp = _loaded(None)
        hooked, th = _loaded(FaultConfig(seed=11))
        assert plain.injector is None and not hooked.injector.enabled
        if op == "cached_get":
            assert hooked.hsit.read_svc(hooked.index.lookup(b"k00")) is not None
        if op == "flash_miss_get":
            assert hooked.hsit.read_svc(hooked.index.lookup(b"k05")) is None
        run = OPS[op]
        assert count_calls(run, hooked, th) == count_calls(run, plain, tp)
        assert hooked.injector.consults == 0


def _mixed(store, seed=5, num_ops=1500, num_keys=120):
    """A seeded YCSB-like mix; returns each op's virtual latency."""
    rng = random.Random(seed)
    t = VThread(0, store.clock)
    latencies = []
    for i in range(num_ops):
        key = b"k%04d" % rng.randrange(num_keys)
        start = t.now
        roll = rng.random()
        if roll < 0.45:
            store.put(key, bytes([i % 256]) * rng.randrange(200, 900), t)
        elif roll < 0.9:
            store.get(key, t)
        elif roll < 0.97:
            store.scan(key, 6, t)
        else:
            store.delete(key, t)
        latencies.append(t.now - start)
    store.flush(t)
    return latencies


def _counters(store):
    devices = [store.nvm, *store.ssds]
    return (
        store.nvm.flushes,
        store.nvm.fences,
        store.nvm.bytes_flushed,
        [(d.bytes_read, d.bytes_written) for d in devices],
        [(d.read_ios, d.write_ios) for d in store.ssds],
        # An injector adds its own two counts; every other count agrees.
        {
            key: value
            for key, value in store.stats().items()
            if key not in ("slow_injections", "retry_exhausted")
        },
    )


def test_mixed_workload_is_bit_identical():
    """faults=None, an unarmed injector, and an injector armed by the
    death of a device the store does not have: the same latencies,
    device traffic and final virtual time, so the unarmed path and the
    armed path with nothing to inject are the same simulation."""
    tight = dict(pwb_capacity=16 * KB, svc_capacity=32 * KB)
    plain, _ = _store(None, **tight)
    unarmed, _ = _store(FaultConfig(seed=3), **tight)
    armed, _ = _store(FaultConfig(seed=3), **tight)
    armed.injector.kill_device("elsewhere")
    runs = [(_mixed(s), _counters(s), s.clock.now) for s in (plain, unarmed, armed)]
    assert plain.reclaims > 0
    assert runs[0] == runs[1] == runs[2]
    assert unarmed.injector.consults == 0
    assert armed.injector.consults > 0
    assert armed.injector.total_injected == 0


class TestWhatArms:
    def test_zero_rates_start_unarmed(self):
        assert not FaultInjector(FaultConfig(seed=1)).enabled

    @pytest.mark.parametrize("rate", _RATES)
    def test_a_nonzero_rate_arms_from_construction(self, rate):
        assert FaultInjector(FaultConfig(**{rate: 1e-9})).enabled

    def test_armed_store_consults_from_its_first_op(self):
        store, t = _store(FaultConfig(seed=2, read_error_rate=1e-12))
        assert store.injector.enabled
        store.put(b"a", VALUE, t)
        assert store.injector.consults > 0

    def test_kill_device_mid_run_fails_the_next_io(self):
        store, t = _loaded(FaultConfig(seed=4))
        assert not store.injector.enabled
        store.injector.kill_device(store.nvm.name, store.clock.now)
        assert store.injector.enabled
        with pytest.raises(DeviceDeadError):
            store.put(b"k01", VALUE, t)

    def test_kill_device_arms_a_bare_device(self):
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(1 << 20), name="ssd0")
        injector = FaultInjector(FaultConfig(seed=4))
        ssd.attach_injector(injector)
        ssd.read(VThread(0), 0, 4096)
        injector.kill_device("ssd0")
        with pytest.raises(DeviceDeadError):
            ssd.read(VThread(1), 0, 4096)
        with pytest.raises(DeviceDeadError):
            ssd.write_async(0.0, 0, b"x" * 4096)

    def test_slow_fault_mid_run_delays_the_next_io(self):
        slow, ts = _loaded(FaultConfig(seed=11))
        fast, tf = _loaded(FaultConfig(seed=11))
        slow_store_devices(slow, at=slow.clock.now, multiplier=10.0)
        assert slow.injector.enabled and not fast.injector.enabled
        start_slow, start_fast = ts.now, tf.now
        assert start_slow == start_fast
        slow.get(b"k07", ts)
        fast.get(b"k07", tf)
        extra = 9 * FLASH_SSD_GEN4_SPEC.read_latency
        assert ts.now - start_slow >= tf.now - start_fast + extra
        assert slow.injector.slow_injections > 0

    def test_a_slow_fault_on_a_bare_device(self):
        ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(1 << 20), name="ssd0")
        injector = FaultInjector(FaultConfig(seed=4))
        ssd.attach_injector(injector)
        before = ssd.read_async(0.0, 0, 4096)
        injector.add_slow_fault(SlowFault(multiplier=3.0))
        after = ssd.read_async(0.0, 0, 4096)
        assert after > before + FLASH_SSD_GEN4_SPEC.read_latency


def test_consults_count_only_armed_consults():
    store, t = _loaded(FaultConfig(seed=8))
    store.put(b"k02", VALUE, t)
    store.get(b"k09", t)
    assert store.injector.consults == 0
    store.injector.kill_device("elsewhere")
    store.put(b"k02", VALUE, t)
    assert store.injector.consults > 0
