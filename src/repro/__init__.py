"""Prism: a key-value store for modern heterogeneous storage devices.

A from-scratch Python reproduction of *Prism* (ASPLOS 2023) — the
store itself, the storage substrate it runs on (simulated NVM, flash
SSDs, io_uring-style async IO), the four baselines it is evaluated
against (KVell, MatrixKV, RocksDB-NVM, SLM-DB), the YCSB workload
generator, and a benchmark harness regenerating every figure and table
in the paper's evaluation.

Quickstart::

    from repro import Prism, PrismConfig

    store = Prism(PrismConfig())
    store.put(b"key", b"value")        # durable on return (NVM buffer)
    store.get(b"key")                  # DRAM cache / NVM / flash
    store.scan(b"k", 10)               # ordered range scan
    store.crash(); store.recover()     # power failure, then a restart:
                                       # a new engine over the same media

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.core.recovery import RecoveryReport
from repro.sim.vthread import VThread

__version__ = "1.0.0"

__all__ = ["Prism", "PrismConfig", "RecoveryReport", "VThread", "__version__"]
