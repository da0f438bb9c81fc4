"""Smoke tests for the experiment definitions (tiny parameters).

Here we only verify that each experiment function executes and returns
sane structure.  Whether a figure keeps the paper's shape is its row's
gates (``python -m repro.bench <row>``, every figure at once with
``figs``); ``tests/bench/test_cli.py`` judges them at ``--smoke``.
"""

import pytest

from repro.bench import experiments as ex


def test_ycsb_comparison_structure():
    results = ex.ycsb_comparison(
        workloads=("A",), num_keys=400, num_ops=300, num_threads=2,
        stores=("Prism", "KVell"),
    )
    assert set(results) == {"Prism", "KVell"}
    assert results["Prism"]["A"].ops == 300


def test_slmdb_comparison_structure():
    results = ex.slmdb_comparison(workloads=("LOAD", "A"), num_keys=300, num_ops=200)
    assert set(results) == {"Prism", "SLM-DB"}
    assert results["SLM-DB"]["LOAD"].ops == 300


def test_skew_sweep_structure():
    results = ex.skew_sweep(
        thetas=(0.5, 0.99), workloads=("C",), num_keys=300, num_ops=200,
        num_threads=2, stores=("Prism",),
    )
    assert set(results["Prism"]["C"]) == {0.5, 0.99}


def test_thread_combining_sweep_structure():
    results = ex.thread_combining_sweep(
        queue_depths=(1, 8), num_keys=300, num_ops=200, num_threads=2
    )
    assert set(results) == {"TC", "TA"}
    assert set(results["TC"]) == {1, 8}


def test_waf_sweep_structure():
    results = ex.waf_sweep(
        thetas=(0.99,), value_sizes=(512,), num_keys=200, num_ops=400, num_threads=2
    )
    assert set(results) == {512}
    assert set(results[512]) == {"Prism", "KVell", "MatrixKV"}
    for store in results[512].values():
        assert all(w >= 0 for w in store.values())


def test_gc_timeline_structure():
    result = ex.gc_timeline(num_keys=400, num_ops=1500, num_threads=2)["timeline"]
    assert result.timeline is not None
    assert result.ops == 1500


def test_nvm_space_structure():
    out = ex.nvm_space(num_keys=500)
    assert out["keys"] == 500
    assert 10 < out["bytes_per_key"] < 500


def test_recovery_comparison_structure():
    out = ex.recovery_comparison(num_keys=400, num_threads=2)
    assert out["prism_keys"] == 400
    assert out["prism_seconds"] > 0
    assert out["kvell_seconds"] > 0


def test_fault_recovery_structure():
    results = ex.fault_recovery(
        error_rates=(0.0, 5e-3), num_keys=400, num_ops=600, num_threads=2
    )
    assert list(results["runs"]) == list(results["faults"]) == [
        "rate=0", "rate=0.005",
    ]
    for label, run in results["runs"].items():
        assert run.ops == 600
        assert results["faults"][label]["recovered_keys"] > 0
    assert results["faults"]["rate=0"]["injected"] == 0
    ((_, ok, msg),) = ex.check_faults(results)
    assert ok, msg
    results["faults"]["rate=0.005"]["recovered_keys"] = 0.0
    ((_, ok, msg),) = ex.check_faults(results)
    assert not ok and "rate=0.005" in msg


def test_scrub_sweep_structure():
    results = ex.scrub_sweep(
        bitflip_rates=(0.0, 1e-3), num_keys=300, num_ops=300, num_threads=2
    )
    assert list(results["runs"]) == list(results["scrub"]) == [
        "rate=0", "rate=0.001",
    ]
    for stats in results["scrub"].values():
        assert stats["at_rest_corrupted"] > 0
        assert stats["detected"] >= stats["at_rest_corrupted"]
        assert stats["rebuild_records"] > 0
    ((_, ok, _msg),) = ex.check_scrub(results)
    assert ok
    results["scrub"]["rate=0"]["wrong_values"] = 1.0
    ((_, ok, _msg),) = ex.check_scrub(results)
    assert not ok


def test_sweep_nests_by_point_and_pivots():
    grid = ex.sweep(_cell, [("a", 1), ("a", 2), ("b", 1)], ("!",))
    assert grid == {"a": {1: "a1!", 2: "a2!"}, "b": {1: "b1!"}}
    pivoted = ex.sweep(_cells, [("a", 1), ("a", 2)], pivot=True)
    assert pivoted == {"a": {"x": {1: "a1x", 2: "a2x"}, "y": {1: "a1y", 2: "a2y"}}}


def _cell(name, n, suffix):
    return f"{name}{n}{suffix}"


def _cells(name, n):
    return {"x": f"{name}{n}x", "y": f"{name}{n}y"}


def test_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.0")
    assert ex.scale() == 2.0
    assert ex.scaled(100) == 200
    monkeypatch.delenv("REPRO_SCALE")
    assert ex.scaled(100) == 100
