import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import experiments as ex
from repro.bench.__main__ import COMMANDS, EXPERIMENTS, main
from repro.parallel import get_jobs
from tests import digests

# The bench digests that take over two seconds each (23, 5, 5, 2 s).
HEAVY = ("tiering", "fig9", "fig16", "ablations")


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-figure"])


def test_scalars_runs(capsys):
    assert main(["scalars", "--scale", "0.05", "--metrics-out", "none"]) == 0
    out = capsys.readouterr().out
    assert "NVM bytes/key" in out
    assert "recovery" in out


def test_flags_do_not_outlive_the_command(capsys):
    """--scale and --jobs are exported (REPRO_SCALE, REPRO_JOBS) for the
    worker processes and put back before ``main`` returns."""
    assert main([
        "scalars", "--scale", "0.05", "--jobs", "2", "--metrics-out", "none",
    ]) == 0
    assert ex.scale() == 1.0
    assert ex.scaled(12_000) == 12_000
    assert get_jobs() == 1


def test_experiment_emits_metrics_json(capsys, tmp_path):
    """Acceptance: running an experiment produces a metrics JSON with
    latency histograms, device series, and structured events."""
    out_path = tmp_path / "fig17.metrics.json"
    assert main(["fig17", "--scale", "0.05", "--metrics-out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["experiment"] == "fig17"
    assert payload["runs"]
    run = next(iter(payload["runs"].values()))
    hist = run["histograms"]["op.all"]
    assert hist["count"] > 0
    assert hist["p50_us"] > 0 and hist["p99_us"] > 0
    assert any(name.endswith(".queue_depth") for name in run["series"])
    assert any(name.endswith(".utilization") for name in run["series"])
    assert "reclaim" in run["events"] or "gc" in run["events"]


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in HEAVY else n
        for n in sorted(EXPERIMENTS)
    ],
)
def test_smoke_output_matches_digest(name):
    """What ``<name> --smoke`` prints and the metrics JSON it writes,
    bit for bit (``tests/digests.py``: the manifest's entries were
    recorded before the experiments became one table, the fourteen
    without a literal smoke sizing at ``--scale 0.05``)."""
    assert digests.bench_digest([name, "--smoke"]) == digests.expected(
        f"bench/{name}"
    )


@pytest.mark.slow
def test_figs_output_identical_across_jobs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = []
    for jobs in ("1", "2"):
        assert main(["figs", "--smoke", "--jobs", jobs]) == 0
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        runs.append((capsys.readouterr().out, written))
    assert runs[0] == runs[1]
    suite = [name for name, entry in EXPERIMENTS.items() if entry.figure]
    assert sorted(runs[0][1]) == sorted(f"{n}.metrics.json" for n in suite)
    assert [
        line for line in runs[0][0].splitlines() if line.startswith("=== ")
    ] == [f"=== {n} ===" for n in suite]


def test_failed_gate_exits_nonzero_and_writes_no_metrics(
    capsys, tmp_path, monkeypatch
):
    """``faults`` can fail: an audit violation at any error rate is a
    FAIL line and exit status 1, before any metrics file is written."""
    results = ex.fault_recovery(
        error_rates=(0.0,), num_keys=300, num_ops=200, num_threads=2
    )
    results["faults"]["rate=0"]["audit_violations"] = 1.0
    monkeypatch.setitem(
        EXPERIMENTS, "faults", replace(EXPERIMENTS["faults"], run=lambda: results)
    )
    out_path = tmp_path / "faults.metrics.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["faults", "--metrics-out", str(out_path)])
    assert exit_info.value.code == 1
    assert "robustness check: FAIL" in capsys.readouterr().out
    assert not out_path.exists()


def test_docs_experiment_table_lists_the_registry():
    """The "Experiments" table in docs/simulation-model.md has one row
    per entry of ``EXPERIMENTS``, in sorted order."""
    doc = Path(__file__).parents[2] / "docs" / "simulation-model.md"
    section = doc.read_text().split("## Experiments", 1)[1].split("\n## ", 1)[0]
    rows = [
        line.split("|")[1].strip().strip("`")
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows == sorted(EXPERIMENTS)
