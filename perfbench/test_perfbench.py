"""Tests of the benchmark itself.  Not part of tier-1 (``testpaths`` is
``tests``); run with ``python -m pytest perfbench -q`` from the root.
Everything runs at ``--scale 0.01``, about a minute in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import cli

sys.path.insert(0, cli.SRC)  # the in-process test imports the program

SCALE = "0.01"
SPEC = cli.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_command(workload: str, trace: int, seed: int = 2, cwd: str = cli.ROOT):
    """The command BENCHMARK.json names, as the driver calls it."""
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]),
                           "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def results(request):
    """(workload, end-to-end result, per-layer result, stdout of each)."""
    runs = [run_command(request.param, trace) for trace in (0, 1)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    parsed = [json.loads(p.stdout.splitlines()[-1]) for p in runs]
    return request.param, parsed[0], parsed[1], [p.stdout for p in runs]


def test_every_named_metric_is_emitted_with_its_unit(results):
    _workload, end_to_end, per_layer, _ = results
    for result, metrics in ((end_to_end, SPEC["end_to_end"]),
                            (per_layer, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in metrics]
        for metric in metrics:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(results):
    _workload, end_to_end, _, _ = results
    for name, got in end_to_end["metrics"].items():
        assert got["value"] > 0, name


def test_traced_roots_match_recorded_latencies(results):
    _workload, _, per_layer, _ = results
    assert per_layer["metrics"]["trace.vt_root_mismatch"]["value"] == 0
    assert per_layer["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_layer_shares_follow_the_workload(results):
    workload, _, per_layer, _ = results
    value = {k: v["value"] for k, v in per_layer["metrics"].items()}
    on_cluster = workload == "cluster_b_rf2"
    assert (value["host.calls_per_op.repro.cluster"] > 0) == on_cluster
    assert (value["cluster.router.calls_per_op"] > 0) == on_cluster
    assert (value["cache.read_cache.calls_per_op"] > 0) == on_cluster
    if workload == "ycsb_c_cold":
        assert value["waf_window"] == 0
        assert value["core.pwb.reclaims"] == 0
        assert value["core.tcq.calls_per_op"] >= 0.5
    # Each op has exactly one root span in the layer that serves it.
    root = "cluster.router" if on_cluster else "core.prism"
    assert value[f"{root}.calls_per_op"] >= 1.0


def test_digest_repeats_across_runs(results):
    workload, _, _, outputs = results
    again = run_command(workload, 0)
    digests = {
        out.splitlines()[0].split("vt_digest=")[1]
        for out in (outputs[0], again.stdout)
    }
    assert len(digests) == 1


def test_digest_does_not_depend_on_hash_seed():
    digests = {
        cli.run_child("ycsb_a_gc", 2, 0.003, "untraced", hash_seed=hs)["vt_digest"]
        for hs in ("0", "1")
    }
    assert len(digests) == 1


def test_another_seed_gives_other_inputs():
    a = cli.run_child("ycsb_c_cold", 2, 0.003, "untraced")["vt_digest"]
    b = cli.run_child("ycsb_c_cold", 3, 0.003, "untraced")["vt_digest"]
    assert a != b


def test_tracer_patches_are_removed():
    from perfbench import child
    from perfbench.workloads import WORKLOADS as DEFINED
    from repro.core.prism import Prism
    from repro.storage.nvm import NVMDevice

    originals = (Prism.get, NVMDevice.flush)
    w = DEFINED["ycsb_c_cold"]
    before = child.run_untraced(w, 0.003, 2)["vt_digest"]
    traced = child.run_traced(w, 0.003, 2, out_dir=None)
    assert traced["spans"] > 0
    assert (Prism.get, NVMDevice.flush) == originals
    after = child.run_untraced(w, 0.003, 2)["vt_digest"]
    assert before == after


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to
    measure, so a non-zero exit and no result line."""
    shutil.copy(os.path.join(cli.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(cli.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command("ycsb_c_cold", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
