import ast
import json
from dataclasses import replace
from pathlib import Path
from typing import List, get_type_hints

import pytest

from repro.bench import experiments as ex
from repro.bench import tiering as ti
from repro.bench.__main__ import COMMANDS, EXPERIMENTS, main, run_experiment
from repro.bench.report import Gate
from repro.bench.runner import RunResult
from repro.core.pwb import PWBFullError
from repro.parallel import get_jobs
from repro.sim.stats import LatencyRecorder
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


def test_tiering_below_its_smallest_scale_says_why(capsys):
    """At ``--scale 0.05`` (150 keys) a thread's PWB is too small for
    one 48 KB value: the run stops before it builds a store, naming
    the smallest size at which one fits, instead of failing in the
    preload."""
    with pytest.raises(ti.PWBTooSmallError, match="fits from 201 keys, scale 0.067"):
        main(["tiering", "--scale", "0.05", "--metrics-out", "none"])
    assert capsys.readouterr().out == ""


def test_the_tiering_size_check_is_the_appends_own_rule():
    """The check passes exactly where the preload stops failing."""
    ti.check_pwb_fits(201)
    ti._build("tiered", 201)
    with pytest.raises(ti.PWBTooSmallError):
        ti.check_pwb_fits(200)
    with pytest.raises(PWBFullError, match="cannot fit"):
        ti._build("tiered", 200)


@pytest.mark.slow
def test_tiering_runs_to_its_gates_at_a_tenth(capsys):
    """At ``--scale 0.1`` the spread leg's fast SSD fills with live
    data; the run reaches its gates because a reclaim writes to a
    storage with room for its batch (it died in the preload with
    ``PWBFullError`` while a reclaim could pick the full one).  The
    cost and WAF gates hold at this size.  The p99 gate does not (seed
    median 0.735 against 0.6): it is calibrated at full size, and
    ROADMAP item 22 states the regime a gate holds in."""
    results, _ = run_experiment("tiering", 0.1, smoke=False)
    verdicts = {label.strip(): ok for label, ok, _ in ti.check_tiering(results)}
    assert verdicts.keys() == {"p99 gate", "cost gate", "waf gate"}
    assert verdicts["cost gate"] and verdicts["waf gate"]


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


def _run(kops=1.0, latency_us=10.0):
    """A canned run: ``kops`` and a flat latency, no simulation."""
    latency = LatencyRecorder()
    latency.samples = [latency_us * 1e-6] * 10
    return RunResult("canned", "canned", 1000, 1.0 / kops, latency, {}, 1.0)


def _canned(stores, workloads, kops=1.0, latency_us=10.0):
    return {
        store: {wl: _run(kops, latency_us) for wl in workloads}
        for store in stores
    }


def _canned_row(monkeypatch, name, results):
    monkeypatch.setitem(
        EXPERIMENTS, name, replace(EXPERIMENTS[name], run=lambda: results)
    )


def _verdicts(out):
    """Gate label -> PASS / FAIL / SKIP, from what a row printed."""
    return {
        line.split(":")[0].strip(): line.split(":")[1].split()[0]
        for line in out.splitlines()
        if line.startswith("  ") and " — " in line
    }


def test_fig7_fails_when_prism_trails_kvell_on_a(capsys, monkeypatch):
    """Fig. 7's shape is a gate: Prism below KVell on A is a FAIL line
    and exit status 1; the orderings that still hold pass."""
    workloads = ("LOAD", "A", "B", "C", "D", "E")
    results = _canned(ex.STANDARD_STORES[1:], workloads)
    results.update(_canned(("Prism",), workloads, kops=3.0, latency_us=1.0))
    results["Prism"]["A"] = _run(kops=0.5, latency_us=1.0)
    _canned_row(monkeypatch, "fig7", results)
    with pytest.raises(SystemExit) as exit_info:
        main(["fig7", "--metrics-out", "none"])
    assert exit_info.value.code == 1
    verdicts = _verdicts(capsys.readouterr().out)
    assert verdicts["A Prism/KVell"] == "FAIL"
    assert verdicts["C Prism/KVell"] == verdicts["A Prism median us"] == "PASS"


def test_full_size_only_gate_skips_below_full_size(capsys, monkeypatch):
    """Fig. 8's scan gate holds only at full size: below it the gate
    prints SKIP with its reason and is not judged; at full size it is."""
    workloads = ("LOAD", "A", "E")
    results = _canned(("SLM-DB",), workloads)
    results.update(_canned(("Prism",), workloads, kops=2.0, latency_us=1.0))
    results["Prism"]["E"] = _run(kops=0.5, latency_us=1.0)
    _canned_row(monkeypatch, "fig8", results)
    assert main(["fig8", "--scale", "0.05", "--metrics-out", "none"]) == 0
    reason = EXPERIMENTS["fig8"].full_size_only["  E Prism/SLM-DB"]
    out = capsys.readouterr().out
    assert f"SKIP — full size only: {reason}" in out
    assert _verdicts(out)["E Prism/SLM-DB"] == "SKIP"
    with pytest.raises(SystemExit) as exit_info:
        main(["fig8", "--scale", "1", "--metrics-out", "none"])
    assert exit_info.value.code == 1
    assert _verdicts(capsys.readouterr().out)["E Prism/SLM-DB"] == "FAIL"


def test_every_figure_row_has_gates():
    """Each of the paper's figure rows is judged by a ``check_*`` of
    its own."""
    checks = [entry.gates for entry in EXPERIMENTS.values() if entry.figure]
    assert len(checks) == 13
    assert all(check.__name__.startswith("check_") for check in checks)
    assert len(set(checks)) == len(checks)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_a_row_names_a_check_beside_its_run(name):
    """One way to declare an experiment: the row's ``gates`` is a named
    function, not a lambda and not a helper of the CLI, defined in the
    module of the row's ``run`` and returning ``List[Gate]``."""
    entry = EXPERIMENTS[name]
    check = entry.gates
    assert check.__name__ != "<lambda>"
    assert check.__module__ != "repro.bench.__main__"
    assert check.__module__ == entry.run.__module__
    assert get_type_hints(check)["return"] == List[Gate]


def test_no_bench_function_returns_a_bare_verdict():
    """A gate is a labelled ``Gate``; nothing under ``repro.bench``
    returns an unlabelled ``(ok, message)`` for a caller to label."""
    bare = [
        f"{path.name}:{node.name}"
        for path in sorted(Path(ex.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.returns is not None
        and ast.unparse(node.returns).lower() == "tuple[bool, str]"
    ]
    assert not bare


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
