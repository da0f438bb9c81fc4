"""``python3 -m perfbench``: run passes in child processes, combine
their results into the metrics BENCHMARK.json names, print them.

Three ways to call it, all from the repository root:

* ``--workload W --seed N --seconds S --trace 0|1`` — the benchmark
  driver's contract: one workload, one metric set, and the last line
  of standard output is the result as one JSON object;
* no ``--trace`` — the report: both metric sets for the chosen
  workloads (default: all four), every metric by name with its unit;
* ``--check-repeat`` — two end-to-end sets of the same code, compared
  against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPS = 3  # untraced passes per end-to-end run; medians are over these
# ``--seconds`` is the host time the REPS measured windows take together
# on the machine the op counts were sized on; scale 1 (the full-size op
# counts in workloads.py) is 30 s of windows, about 10 s each.
FULL_SCALE_SECONDS = 30.0
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a wrong result)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def scale_for(seconds: float, scale: float) -> float:
    return scale * seconds / FULL_SCALE_SECONDS


def run_child(workload: str, seed: int, scale: float, mode: str,
              out: Optional[str] = None, hash_seed: str = "0") -> dict:
    """One pass in a fresh interpreter; returns its result object."""
    env = dict(os.environ)
    # Pinned so that call counts compare exactly between commits; the
    # tests check that the virtual-time results do not depend on it.
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale), "--mode", mode]
    if out:
        cmd += ["--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}/{mode}: no result in {exc.timeout}s")
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload}/{mode}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


class Outcome:
    """Metric values of one run plus its correctness tally."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = ""

    def tally(self, child: dict) -> None:
        self.attempted += child["attempted"]
        self.failed += child["failed"]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def pass_seed(seed: int, index: int) -> int:
    """Each pass of a run gets op streams of its own: the simulated
    results depend on which keys and scan lengths a seed happens to
    draw, and the median over REPS draws is steadier than one draw."""
    return seed * REPS + index


def run_end_to_end(workload: str, seed: int, scale: float) -> Outcome:
    """REPS passes, each a fresh set-up and window; every value is the
    median of the passes."""
    passes = [
        run_child(workload, pass_seed(seed, i), scale, "untraced")
        for i in range(REPS)
    ]
    out = Outcome()
    for child in passes:
        out.tally(child)
    out.digest = hashlib.sha256(
        "".join(p["vt_digest"] for p in passes).encode()
    ).hexdigest()
    columns = {
        "host_calls_per_op": [p["profile"]["host_calls_per_op"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
    }
    for name in ("vt_kops", "vt_tail_us", "waf", "space_amp"):
        columns[name] = [p["vt"][name] for p in passes]
    out.values = {k: statistics.median(v) for k, v in columns.items()}
    return out


def run_per_layer(workload: str, seed: int, scale: float,
                  out_dir: Optional[str] = None) -> Outcome:
    """One untraced pass for the counters and call counts, one traced
    pass for the spans."""
    seed = pass_seed(seed, 0)
    untraced = run_child(workload, seed, scale, "untraced")
    traced = run_child(workload, seed, scale, "traced", out_dir)
    out = Outcome()
    out.tally(untraced)
    out.tally(traced)
    out.digest = untraced["vt_digest"]
    values = dict(untraced["layers"])
    values.update(traced["layers"])
    vt = untraced["vt"]
    for name in ("read", "write", "scan"):
        for q in ("p50", "p99"):
            values[f"vt_{name}_{q}_us"] = vt[f"vt_{name}_{q}_us"]
    values["waf_window"] = vt["waf_window"]
    values["fail_ratio"] = out.failed / out.attempted
    for module, calls in untraced["profile"]["by_module"].items():
        values[f"host.calls_per_op.repro.{module}"] = calls
    values["host.kops"] = untraced["ops"] / untraced["window_s"] / 1e3
    # Same code, same ops per host second unless the tracer is in the
    # way: the slowdown is the tracer's cost.
    values["trace.overhead_ratio"] = (
        (traced["window_s"] / traced["ops"]) / (untraced["window_s"] / untraced["ops"])
    )
    if values["trace.vt_root_mismatch"]:
        out.problems.append("traced root spans differ from recorded latencies")
    out.values = values
    return out


def report(outcome: Outcome, metrics: Sequence[dict], title: str) -> Dict[str, dict]:
    """Print each named metric with its unit; returns the result map."""
    print(f"{title}  vt_digest={outcome.digest}")
    result = {}
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        value = outcome.values[name]
        print(f"  {name:50} {value:>18.6f} {unit}")
        result[name] = {"value": value, "unit": unit}
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"correct={outcome.correct}")
    return result


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def check_repeat(spec: dict, workloads: Sequence[str], seed: int,
                 scale: float) -> bool:
    """Two full end-to-end sets of the same code, within the bounds.

    The two runs of a workload are made back to back: this sandbox's
    speed shifts over minutes, and the wall-clock metrics should be
    compared across as short a gap as the protocol allows.
    """
    sets: List[Dict[str, Outcome]] = [{}, {}]
    for workload in workloads:
        for number, outcomes in enumerate(sets, start=1):
            outcome = run_end_to_end(workload, seed, scale)
            report(outcome, spec["end_to_end"], f"{workload} set {number}")
            outcomes[workload] = outcome
    ok = True
    print(f"{'workload':14} {'metric':20} {'set 1':>14} {'set 2':>14} "
          f"{'diff':>8} {'bound':>6}")
    for workload in workloads:
        a, b = sets[0][workload], sets[1][workload]
        verdicts: List[Tuple[str, bool]] = [
            ("vt_digest equal", a.digest == b.digest),
            ("both correct", a.correct and b.correct),
            # A count of the same code on the same ops: exact or wrong.
            ("host_calls_per_op equal",
             a.values["host_calls_per_op"] == b.values["host_calls_per_op"]),
        ]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            x, y = a.values[name], b.values[name]
            diff = abs(worse_by(metric, x, y))
            inside = diff <= metric["bound"]
            print(f"{workload:14} {name:20} {x:14.4f} {y:14.4f} "
                  f"{diff:8.2%} {metric['bound']:6.0%}"
                  f"{'' if inside else '  OUTSIDE'}")
            verdicts.append((name, inside))
        for label, passed in verdicts:
            if not passed:
                ok = False
                print(f"{workload:14} FAILED: {label}")
    print("check-repeat:", "ok" if ok else "FAILED")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2,
                        help="seed of the measured op streams (default 2)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host seconds of measured windows per run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "prints the result as one JSON line")
    parser.add_argument("--out", default=None,
                        help="directory for span files (traced pass)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two end-to-end sets and compare them")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    scale = scale_for(args.seconds, args.scale)
    workloads = [args.workload] if args.workload else names
    try:
        if args.check_repeat:
            return 0 if check_repeat(spec, workloads, args.seed, scale) else 1
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            if args.trace:
                outcome = run_per_layer(args.workload, args.seed, scale, args.out)
                metrics = spec["per_layer"]
            else:
                outcome = run_end_to_end(args.workload, args.seed, scale)
                metrics = spec["end_to_end"]
            result = report(outcome, metrics, args.workload)
            print(json.dumps({
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": result,
            }))
            return 0 if outcome.correct else 1
        all_correct = True
        for workload in workloads:
            outcome = run_end_to_end(workload, args.seed, scale)
            report(outcome, spec["end_to_end"], f"{workload} end-to-end")
            layers = run_per_layer(workload, args.seed, scale, args.out)
            report(layers, spec["per_layer"], f"{workload} per-layer")
            all_correct = all_correct and outcome.correct and layers.correct
        return 0 if all_correct else 1
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
