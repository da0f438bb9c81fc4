"""Fault and retry activity is observable: structured events on the
store's EventLog, and the injector's and executor's own counts."""

from repro.core.prism import Prism
from repro.faults.injector import FaultConfig
from tests.conftest import small_prism_config


def _faulty_store() -> Prism:
    # Flush errors fire on the put path's HSIT publish, so a handful of
    # puts is enough to exercise inject -> retry -> success; at this rate
    # no flush fails five times in a row, so every fault is masked.
    return Prism(
        small_prism_config(
            enable_metrics=True,
            faults=FaultConfig(seed=2, flush_error_rate=0.05),
        )
    )


def test_fault_and_retry_events_reach_the_store_log():
    store = _faulty_store()
    for i in range(60):
        store.put(b"k%03d" % i, b"v" * 300)
    faults = store.events.of_kind("fault")
    retries = store.events.of_kind("retry")
    assert faults
    assert len(retries) == len(faults)  # every one masked by a retry
    for event in faults:
        assert event["fault"] == "flush_error"
        assert event["device"] == store.nvm.name
    for event in retries:
        assert event["op"] == "flush"
        assert event["error"] == "FlushError"
        assert event["attempt"] >= 1


def test_counters_track_injections_and_retries():
    store = _faulty_store()
    for i in range(60):
        store.put(b"k%03d" % i, b"v" * 300)
    injected = store.injector.total_injected
    assert injected > 0
    assert store.injector.injected == {"flush_error": injected}
    assert len(store.events.of_kind("fault")) == injected
    assert store.retry_exec.retries == injected
    stats = store.stats()
    assert stats["retry_exhausted"] == 0  # nothing gave up
    assert stats["slow_injections"] == 0


def test_silent_injector_emits_nothing():
    store = Prism(
        small_prism_config(enable_metrics=True, faults=FaultConfig())
    )
    for i in range(30):
        store.put(b"k%03d" % i, b"v" * 300)
    assert store.events.of_kind("fault") == []
    assert store.events.of_kind("retry") == []
    assert store.injector.total_injected == 0
    assert store.retry_exec.retries == 0
