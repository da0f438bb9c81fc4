"""Crash exploration through the tier-migration protocol.

The demotion and promotion paths publish forward pointers exactly like
reclaim and GC do, so a power failure at any point inside them must
leave a recoverable store that honors the durability contract.  The
sweep itself runs as the ``tiered`` scenario in
tests/faults/test_crash_sweep.py; this pins that the scenario's store
is tight enough to get there.
"""

from __future__ import annotations

from repro.cluster.crash_sweep import SCENARIOS
from repro.faults.crash_sweep import CrashSweep, default_ops
from tests.faults.test_crash_sweep import TIER_LABELS


def test_workload_reaches_every_tier_crash_label():
    sweep = CrashSweep(SCENARIOS["tiered"], default_ops())
    workload, _recovery = sweep.discover()
    missing = TIER_LABELS - set(workload)
    assert not missing, f"tier crash labels never reached: {missing}"
