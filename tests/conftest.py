"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import sys
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import settings

from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.core.svc import ScanAwareValueCache
from repro.faults.injector import FaultConfig
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.crash import CrashPoint
from repro.storage.nvm import NVMDevice
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, QLC_SSD_SPEC
from repro.storage.ssd import SSDDevice

KB = 1024
MB = 1024**2

# Tier-1 runs the same Hypothesis examples on every run and every
# checkout: derived from each test's source, no example database.  The
# per-test ``@settings(max_examples=...)`` inherit from whichever
# profile is loaded when their module is imported.  Randomised
# exploration is opt-in through Hypothesis's own pytest flag, which is
# applied after this file loads:
#     pytest --hypothesis-profile explore tests/core/test_prism_stateful.py
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


def count_calls(fn, *args, outside=()) -> int:
    """Python and C calls ``fn(*args)`` makes, its own frame included —
    the events ``cProfile`` (and so perfbench's ``host_calls_per_op``)
    counts.  Deterministic, so a test can pin a hot path's call budget.
    Frames running a code object in ``outside``, and everything they
    call, are left out: what a driver costs around the op it drives.
    """
    calls = 0
    depth = 0  # frames of ``outside`` code on the stack

    def hook(frame, event, arg):
        nonlocal calls, depth
        if event in ("call", "return") and frame.f_code in outside:
            depth += 1 if event == "call" else -1
        elif depth == 0 and event in ("call", "c_call"):
            calls += 1

    # A collection inside the window would count the finalizers it
    # runs (an abandoned generator's close, say) as calls of ``fn``.
    enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return calls - 1  # the closing sys.setprofile is itself a c_call


def small_prism_config(**overrides) -> PrismConfig:
    """A Prism config tiny enough for fast unit tests."""
    defaults = dict(
        num_threads=2,
        num_ssds=2,
        ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB),
        pwb_capacity=64 * KB,
        svc_capacity=256 * KB,
        hsit_capacity=50_000,
        chunk_size=16 * KB,
    )
    defaults.update(overrides)
    return PrismConfig(**defaults)


def detached_svc(dram, capacity, hsit, epoch, cls=ScanAwareValueCache, **kwargs):
    """An SVC outside a store.  Its chain write-backs run the store's
    own relocation primitive, ``Prism._relocate``, on a host holding
    only what that reads: no retry policy, no read cache, an unarmed
    crash point."""
    host = SimpleNamespace(
        hsit=hsit,
        read_cache=None,
        crash_point=CrashPoint(),
        _retrying_write=lambda vs, at, records: vs.write_records(at, records),
    )
    host.svc = cls(dram, capacity, hsit, epoch, partial(Prism._relocate, host), **kwargs)
    return host.svc


# Feature sets the restart walk and the stateful machine both run
# under, as overrides for a config builder: alone, each optional
# subsystem adds DRAM-side state a restart has to rebuild.
FEATURE_CONFIGS = {
    "bare": dict(num_threads=1),
    # An injector with no fault rates: the retry executor is attached
    # to the NVM device and every publish takes the discrete path.
    "integrity": dict(
        num_threads=1, enable_checksums=True, mirror_chunks=True,
        faults=FaultConfig(seed=5),
    ),
    "tiering": dict(
        num_threads=1, num_ssds=1, enable_tiering=True, num_cold_ssds=1,
        cold_ssd_spec=QLC_SSD_SPEC.with_capacity(MB),
        tier_hot_threshold=3, tier_recency_window=32,
    ),
    "read_cache": dict(
        num_threads=1, enable_read_cache=True, read_cache_capacity=64 * KB
    ),
    "two_threads": dict(num_threads=2),
}


@pytest.fixture
def prism() -> Prism:
    return Prism(small_prism_config())


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def thread(clock) -> VThread:
    return VThread(0, clock)


@pytest.fixture
def nvm() -> NVMDevice:
    return NVMDevice()


@pytest.fixture
def ssd() -> SSDDevice:
    return SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB))
