"""Garbage collection in Value Storage (§5.2, Figure 17)."""

import pytest

from repro.core.prism import Prism
from repro.sim.vthread import VThread
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from tests.conftest import small_prism_config

KB = 1024
MB = 1024**2


@pytest.fixture
def tight_store():
    """Value Storage barely larger than the working set, so GC must run."""
    return Prism(
        small_prism_config(
            num_ssds=1,
            ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(512 * KB),
            chunk_size=16 * KB,
            pwb_capacity=32 * KB,
            gc_free_threshold=0.4,
            svc_capacity=32 * KB,
        )
    )


def _churn(store, t, rounds=60, keys=300, seed=5):
    """Scattered updates: each reclamation mixes hot and cold keys, so
    old chunks stay partially live and the log fragments — the
    condition GC exists for."""
    import random

    rng = random.Random(seed)
    expected = {}
    for round_no in range(rounds):
        for _ in range(60):
            i = rng.randrange(keys)
            value = bytes([round_no % 256, i % 256]) * 200
            store.put(b"g%03d" % i, value, t)
            expected[b"g%03d" % i] = value
    return expected


def test_gc_triggers_under_space_pressure(tight_store):
    t = VThread(0, tight_store.clock)
    _churn(tight_store, t)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    assert tight_store.events.of_kind("gc")


def test_gc_preserves_all_live_values(tight_store):
    t = VThread(0, tight_store.clock)
    expected = _churn(tight_store, t)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    for key, value in expected.items():
        assert tight_store.get(key, t) == value


def test_gc_reclaims_free_chunks(tight_store):
    t = VThread(0, tight_store.clock)
    _churn(tight_store, t)
    vs = tight_store.storages[0]
    # GC kept the store from running out of chunks entirely
    assert vs.free_chunks > 0
    assert vs.gc_moved_bytes > 0


def test_gc_survives_crash_afterwards(tight_store):
    t = VThread(0, tight_store.clock)
    expected = _churn(tight_store, t, rounds=45)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    tight_store.crash()
    tight_store.recover()
    for key, value in expected.items():
        assert tight_store.get(key, t) == value


def test_gc_runs_off_critical_path(tight_store):
    """GC charges the background thread, not the writer (beyond device
    contention): foreground latencies stay bounded."""
    import random

    t = VThread(0, tight_store.clock)
    rng = random.Random(5)
    worst = 0.0
    for round_no in range(60):
        for _ in range(60):
            i = rng.randrange(300)
            before = t.now
            tight_store.put(b"g%03d" % i, bytes([round_no % 256]) * 200, t)
            worst = max(worst, t.now - before)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    # An in-path GC would cost milliseconds; bounded stalls only.
    assert worst < 2e-3


def test_space_squeezed_run_is_byte_identical_to_seed():
    """Reclaim + local GC under space pressure: metrics, final vtime,
    mover event log and crash-label census match the manifest
    (``tests/digests.py``; the scenario fails if GC stops running)."""
    from tests import digests

    _store, digest = digests.ycsb_a_gc()
    assert digest == digests.expected("ycsb_a_gc")
