"""Fig-suite driver: every paper-figure experiment in one command.

``python -m repro.bench figs --jobs N`` runs the whole figure suite,
one experiment per worker process.  Each experiment is already a
self-contained simulation (private clocks, explicit seeds), so the
suite is embarrassingly parallel at experiment granularity; workers
run their *internal* fan-out serially (``REPRO_JOBS`` is forced to 1
inside workers) to avoid nested pools.

Workers return their captured stdout plus the metrics payload; the
parent prints and writes both in suite order, so the terminal output
and every ``<experiment>.metrics.json`` are byte-identical to a
serial ``--jobs 1`` run.
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import Optional, Tuple


def _run_experiment(
    name: str, scale: Optional[float], smoke: bool
) -> Tuple[str, dict, bool]:
    """One whole experiment (spawn-safe): returns (stdout, metrics
    payload, whether its gates passed)."""
    # Imported lazily: this module is itself imported by the CLI.
    from repro.bench.__main__ import run_experiment
    from repro.bench.report import metrics_payload

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        results, ok = run_experiment(name, scale, smoke)
    return buf.getvalue(), metrics_payload(name, results), ok


def run_figs(
    jobs: Optional[int] = None,
    scale: Optional[float] = None,
    smoke: bool = False,
    metrics_dir: str = ".",
    write_metrics: bool = True,
) -> bool:
    """Run every ``figure`` entry of ``EXPERIMENTS``; print and persist
    results in table order.  True if every gate passed."""
    from repro.bench.__main__ import EXPERIMENTS
    from repro.bench.report import write_metrics_json
    from repro.parallel import parallel_map

    suite = [name for name, entry in EXPERIMENTS.items() if entry.figure]
    outputs = parallel_map(
        _run_experiment, [(name, scale, smoke) for name in suite], jobs=jobs
    )
    for name, (text, payload, _ok) in zip(suite, outputs):
        print(f"=== {name} ===")
        print(text, end="")
        if write_metrics:
            out = os.path.join(metrics_dir, f"{name}.metrics.json")
            write_metrics_json(out, payload)
            print(f"metrics: {out} ({len(payload['runs'])} runs)")
        print()
    return all(ok for _text, _payload, ok in outputs)
