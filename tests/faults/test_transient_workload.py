"""End-to-end: a seeded mixed workload under transient faults finishes
with retries doing the masking — no data loss, invariants intact."""

import random

from repro.core.checker import audit
from repro.core.prism import Prism
from repro.faults.injector import FaultConfig
from tests.conftest import KB, small_prism_config


def _build(rate: float) -> Prism:
    faults = None
    if rate > 0.0:
        faults = FaultConfig(
            seed=11,
            read_error_rate=rate,
            write_error_rate=rate,
            flush_error_rate=rate,
            stuck_rate=rate / 10,
        )
    return Prism(
        small_prism_config(
            pwb_capacity=16 * KB,
            svc_capacity=32 * KB,
            faults=faults,
        )
    )


def _ycsb_a(store, num_ops=1200, num_keys=150, seed=5):
    """50/50 update/read mix (YCSB-A shape); returns the expected map."""
    rng = random.Random(seed)
    expected = {}
    for i in range(num_ops):
        key = b"k%04d" % rng.randrange(num_keys)
        if rng.random() < 0.5:
            value = bytes([i % 256]) * rng.randrange(200, 900)
            store.put(key, value)
            expected[key] = value
        else:
            got = store.get(key)
            assert got == expected.get(key)
    return expected


def test_faulty_run_completes_with_retries_and_no_loss():
    store = _build(2e-3)
    expected = _ycsb_a(store)
    assert store.injector.total_injected > 0, "rate too low to test anything"
    assert store.retry_exec.retries > 0
    for key, value in expected.items():
        assert store.get(key) == value
    assert audit(store).ok
    store.flush()
    assert audit(store).ok


def test_faulty_run_survives_crash_recovery():
    store = _build(2e-3)
    expected = _ycsb_a(store)
    store.crash()
    store.recover()
    for key, value in expected.items():
        assert store.get(key) == value
    assert audit(store).ok


def test_zero_fault_run_bit_identical_to_uninstrumented():
    """An attached injector with all-zero rates must not perturb
    virtual time, placement, or results in any way."""
    plain = _build(0.0)
    hooked = Prism(
        small_prism_config(
            pwb_capacity=16 * KB,
            svc_capacity=32 * KB,
            faults=FaultConfig(),  # injector present, every rate zero
        )
    )
    assert plain.injector is None and hooked.injector is not None
    _ycsb_a(plain)
    _ycsb_a(hooked)
    assert plain.clock.now == hooked.clock.now  # exact, not approx
    assert hooked.injector.total_injected == 0
    # Zero rates leave the injector unarmed: no hook site consulted it.
    assert not hooked.injector.enabled and hooked.injector.consults == 0
    for key, idx in plain.index.items():
        assert hooked.hsit.location_word(idx) == plain.hsit.location_word(idx)
