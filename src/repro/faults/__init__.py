"""Fault injection, retrying IO, degraded mode, and crash exploration.

The subsystem has five parts:

* :mod:`repro.faults.errors` — the typed failure hierarchy under
  :class:`~repro.storage.base.StorageError`;
* :mod:`repro.faults.injector` — a seeded, deterministic
  :class:`FaultInjector` the simulated devices consult;
* :mod:`repro.faults.retry` — :class:`RetryPolicy`/:class:`RetryExecutor`
  for bounded retries with virtual-time backoff and escalation to
  permanent device death;
* :mod:`repro.faults.ledger` — :class:`WriteLedger`, the one rule for
  what a final read of a key may legally return (shared by the crash
  sweep and the cluster workload runner);
* :mod:`repro.faults.crash_sweep` — automated crash exploration, one
  engine for every scope: it discovers every named crash point a
  scenario's workload reaches, crashes at each one, lets the scenario
  react (recover the store / fail the shard), keeps the workload
  going, and audits the durability contract.  The scenarios are
  registered in ``repro.cluster.crash_sweep.SCENARIOS``.

See the "Fault model" section of ``docs/simulation-model.md``.
"""

from repro.faults.errors import (
    DeadlineExceededError,
    DegradedError,
    DeviceDeadError,
    DeviceError,
    FlushError,
    NoHealthyStorageError,
    ReadDegradedError,
    RetryExhaustedError,
    StuckIOError,
    TransientIOError,
    TransientReadError,
    TransientWriteError,
)
from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    SlowFault,
    slow_store_devices,
)
from repro.faults.retry import RetryExecutor, RetryPolicy

__all__ = [
    "DeadlineExceededError",
    "DegradedError",
    "DeviceDeadError",
    "DeviceError",
    "FaultConfig",
    "FaultInjector",
    "FlushError",
    "NoHealthyStorageError",
    "ReadDegradedError",
    "RetryExecutor",
    "RetryExhaustedError",
    "RetryPolicy",
    "SlowFault",
    "StuckIOError",
    "TransientIOError",
    "TransientReadError",
    "TransientWriteError",
    "slow_store_devices",
]
