"""Acceptance: ``--jobs N`` output is byte-identical to ``--jobs 1``.

One bench experiment and two crash-sweep scenarios (single store and
cluster), each run serially and with a 4-worker pool, compared at the
byte level — the merged metrics JSON and the printed report for the
experiment, the full verdict list for the sweeps.  Any nondeterminism
introduced by the fan-out (completion order leaking into merge order,
worker-local state, pickling drift) fails these tests.
"""

from __future__ import annotations

from repro.bench.__main__ import main
from repro.cluster.crash_sweep import SCENARIOS
from repro.faults.crash_sweep import CrashSweep, default_ops


def _run_cli(capsys, tmp_path, jobs: int) -> tuple[bytes, str]:
    out_path = tmp_path / f"fig11.jobs{jobs}.metrics.json"
    assert main([
        "fig11", "--scale", "0.05",
        "--metrics-out", str(out_path),
        "--jobs", str(jobs),
    ]) == 0
    return out_path.read_bytes(), capsys.readouterr().out


def test_bench_experiment_byte_identical_across_jobs(capsys, tmp_path):
    serial_json, serial_out = _run_cli(capsys, tmp_path, jobs=1)
    pooled_json, pooled_out = _run_cli(capsys, tmp_path, jobs=4)
    assert pooled_json == serial_json
    # The printed tables must match too (paths in the trailing
    # "metrics: ..." line differ by construction — drop it).
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("metrics:")]
    assert strip(pooled_out) == strip(serial_out)


def test_crash_sweep_byte_identical_across_jobs():
    ops = default_ops(160)
    for name in ("store", "cluster"):
        serial = CrashSweep(SCENARIOS[name], ops).run(jobs=1)
        pooled = CrashSweep(SCENARIOS[name], ops).run(jobs=4)
        assert serial.outcomes, f"{name}: sweep found nothing to crash"
        assert pooled.outcomes == serial.outcomes, name
        assert pooled.summary() == serial.summary()
        assert pooled.workload_labels == serial.workload_labels
        assert pooled.recovery_labels == serial.recovery_labels
