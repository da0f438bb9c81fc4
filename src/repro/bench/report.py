"""Paper-style result tables and machine-readable metrics dumps."""

from __future__ import annotations

import json
import operator
from typing import Dict, Iterator, Sequence, Tuple

from repro.bench.runner import RunResult

# (label as printed, passed, message) — one judged claim of an
# experiment's ``gates``.
Gate = Tuple[str, bool, str]

_COMPARE = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
}


def ratio_gate(
    label: str, value: float, op: str, limit: float, paper: str = ""
) -> Gate:
    """A figure's shape as a gate: ``value`` (a ratio of two runs, or a
    measured quantity) against its floor or ceiling, ``op`` one of
    ``>``, ``>=``, ``<``, ``<=``; the message quotes the paper's number
    where there is one."""
    shown = str(value) if isinstance(value, int) else f"{value:.3f}"
    quoted = f"; paper {paper}" if paper else ""
    return label, _COMPARE[op](value, limit), (
        f"{shown} (gate: {op} {limit:.4g}{quoted})"
    )


def format_table(
    title: str, rows: Sequence[str], cols: Sequence[str], cell
) -> str:
    """Render a rows x cols table of 14-wide columns; ``cell(row, col)``
    supplies strings."""
    head = f"{'':14}" + "".join(f"{c:>14}" for c in cols)
    lines = [title, "=" * len(head), head, "-" * len(head)]
    for row in rows:
        line = f"{row:14}" + "".join(f"{cell(row, col):>14}" for col in cols)
        lines.append(line)
    return "\n".join(lines)


def throughput_table(
    title: str,
    results: Dict[str, Dict[str, RunResult]],
    workloads: Sequence[str],
) -> str:
    """Stores as rows, workloads as columns, in Kops/s (Figure 7 / 8
    layout)."""

    def cell(store: str, workload: str) -> str:
        result = results.get(store, {}).get(workload)
        if result is None:
            return "-"
        return f"{result.throughput / 1e3:.1f}"

    return format_table(f"{title}  (Kops/s)", list(results), workloads, cell)


def latency_table(
    title: str,
    results: Dict[str, Dict[str, RunResult]],
    workloads: Sequence[str],
) -> str:
    """Average / median / p99 latency per store per workload (Table 3)."""
    lines = [title, "=" * 72]
    header = f"{'workload':10}{'metric':10}" + "".join(
        f"{name:>14}" for name in results
    )
    lines.append(header)
    lines.append("-" * len(header))
    for workload in workloads:
        for metric, fn in (
            ("avg", lambda r: r.latency.average()),
            ("median", lambda r: r.latency.median()),
            ("99%", lambda r: r.latency.p99()),
        ):
            row = f"{workload:10}{metric:10}"
            for name in results:
                result = results[name].get(workload)
                row += f"{fn(result):>14.1f}" if result else f"{'-':>14}"
            lines.append(row)
    return "\n".join(lines)


def iter_run_results(obj, prefix: Tuple = ()) -> Iterator[Tuple[str, RunResult]]:
    """Walk an arbitrarily nested experiment result (dicts keyed by
    store / workload / parameter, tuples, lists) and yield each
    :class:`RunResult` with a ``/``-joined path naming where it sits.
    A cluster run (anything carrying its :class:`RunResult` as
    ``.run``) sits where its wrapper does."""
    if isinstance(obj, RunResult):
        yield "/".join(str(p) for p in prefix) or obj.workload, obj
    elif isinstance(getattr(obj, "run", None), RunResult):
        # By shape, not by class: importing ClusterRunResult here would
        # make ``import repro.bench`` load the whole cluster package.
        yield from iter_run_results(obj.run, prefix)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from iter_run_results(value, prefix + (key,))
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            yield from iter_run_results(value, prefix + (idx,))


# The metrics JSON's layout version.  2: a discrete happening is only
# an event (its count is the number of events of its kind) and a
# component's own count is only a ``stats.*`` gauge; the counters that
# copied them are gone (EXPERIMENTS.md, "Metrics JSON").
METRICS_SCHEMA = 2


def metrics_payload(experiment: str, results) -> Dict[str, object]:
    """Bundle every run's metrics snapshot for one experiment."""
    runs: Dict[str, object] = {}
    for path, run in iter_run_results(results):
        if run.metrics is not None:
            runs[path] = run.metrics
    return {"experiment": experiment, "runs": runs, "schema": METRICS_SCHEMA}


def write_metrics_json(path: str, payload: Dict[str, object]) -> None:
    """Serialize a :func:`metrics_payload` bundle to ``path``."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
