"""CI's perf gate: run each workload in ``gates.json`` through perfbench
at its seed, keep the result line as ``PERFBENCH_<workload>.json``, and
fail when a metric is past its committed ceiling or floor, or when the
run's ``vt_digest`` is not the one committed for that seed.

    python3 .github/perf/gate.py [workload ...]     # default: every gate

The limits sit 3 % (``host_calls_per_op``), 10 % (``peak_rss_mib``,
host memory, which moves with the allocator rather than repeating
exactly) and 1 % (``vt_*``, ``waf``, ``space_amp``) from the value
measured when they were last set.
``host_calls_per_op`` is a count that repeats exactly for a seed *and
an interpreter version*, so a gate that limits it names the CPython it
was measured on and this script refuses to compare under another;
virtual-time metrics and byte counts are exact for a seed on any
interpreter, so a gate on those alone names none and runs anywhere
(all four committed gates limit the call count, so CI runs them on the
one they name).  ``vt_digest`` (the first line perfbench prints) hashes
every virtual-time result of the window: pinned, it makes the gate
bit-for-bit, so any change of simulated behaviour fails it until the
digest is re-recorded on purpose.  It is the same under CPython 3.11
and 3.12.
A call count more than 1 % *below* its pinned ``measured`` fails too:
the ceiling above it has gone stale, and would let a regression of
that size through.  After a deliberate change, re-measure with the
command this script prints and move the numbers in the same PR.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# A call count this far below its pinned ``measured`` is a stale pin.
STALE_CALLS = 0.01


def load_gates() -> dict:
    with open(os.path.join(HERE, "gates.json")) as fh:
        return json.load(fh)


def digest_of(stdout: str) -> str:
    """The ``vt_digest=`` on perfbench's first stdout line."""
    return stdout.splitlines()[0].split("vt_digest=")[1].split()[0]


def perfbench_args(workload: str, gate: dict) -> List[str]:
    """The interpreter's arguments that run ``workload``'s gate."""
    return ["-m", "perfbench", "--workload", workload,
            "--seed", str(gate["seed"]), "--seconds", "10", "--trace", "0"]


def check(
    workload: str, gate: dict, result: dict, interpreter: str, digest: str
) -> List[str]:
    """Every way ``result`` (perfbench's last stdout line) and ``digest``
    (its first) fail ``workload``'s ``gate``."""
    failures = []
    if not result["correct"]:
        failures.append(f"run not correct: {result['failed']} failed operations")
    if "vt_digest" in gate and digest != gate["vt_digest"]:
        failures.append(f"vt_digest = {digest} is not the pinned {gate['vt_digest']}")
    if "host_calls_per_op" in gate["limits"] and interpreter != gate["interpreter"]:
        failures.append(
            f"limits were measured on CPython {gate['interpreter']}, "
            f"this is {interpreter}"
        )
    for name, limit in gate["limits"].items():
        got = result["metrics"][name]["value"]
        if "ceiling" in limit and got > limit["ceiling"]:
            failures.append(f"{name} = {got:.3f} is above its ceiling {limit['ceiling']}")
        if "floor" in limit and got < limit["floor"]:
            failures.append(f"{name} = {got:.3f} is below its floor {limit['floor']}")
    calls = gate["limits"].get("host_calls_per_op")
    if calls is not None:
        got = result["metrics"]["host_calls_per_op"]["value"]
        if got < calls["measured"] * (1 - STALE_CALLS):
            failures.append(
                f"host_calls_per_op = {got:.3f} is more than 1 % below its "
                f"pinned measured {calls['measured']}: re-pin it, and the "
                f"ceiling 3 % above it, from `python3 "
                f"{' '.join(perfbench_args(workload, gate))}` on CPython "
                f"{gate['interpreter']}"
            )
    return failures


def main(argv: List[str]) -> int:
    gates = load_gates()
    interpreter = "%d.%d" % sys.version_info[:2]
    failed = False
    for workload in argv or sorted(gates):
        gate = gates[workload]
        cmd = [sys.executable, *perfbench_args(workload, gate)]
        print("$", " ".join(cmd), flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode not in (0, 1):  # 1: ran, but not correct
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = proc.stdout.splitlines()[-1]
        with open(os.path.join(ROOT, f"PERFBENCH_{workload}.json"), "w") as fh:
            fh.write(line + "\n")
        failures = check(
            workload, gate, json.loads(line), interpreter, digest_of(proc.stdout)
        )
        for failure in failures:
            print(f"GATE FAILED {workload}: {failure}")
        if not failures:
            print(f"gate ok: {workload}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
