"""Benchmark harness: drives any store with N virtual threads and
collects the metrics the paper reports (throughput, latency
percentiles, WAF, timelines).

Importing the package loads only the driver (``runner``), the
cost-parity store builders (``stores``) and the table printers
(``report``).  The experiments built on them — one function per figure
in ``experiments`` / ``extensions`` / ``cache`` / ``cluster`` /
``grayfail`` / ``rebalance`` / ``tiering``, one row each in the
``EXPERIMENTS`` table of ``__main__`` — are imported by whoever runs
them; ``experiments``'s docstring says how to add one."""

from repro.bench.runner import RunResult, preload, run_workload
from repro.bench.stores import (
    build_kvell,
    build_matrixkv,
    build_prism,
    build_rocksdb_nvm,
    build_slmdb,
)
from repro.bench.report import format_table, ratio

__all__ = [
    "RunResult",
    "preload",
    "run_workload",
    "build_prism",
    "build_kvell",
    "build_matrixkv",
    "build_rocksdb_nvm",
    "build_slmdb",
    "format_table",
    "ratio",
]
