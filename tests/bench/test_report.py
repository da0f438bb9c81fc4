from repro.bench.report import format_table, latency_table, ratio, throughput_table
from repro.bench.runner import RunResult
from repro.sim.stats import LatencyRecorder


def _result(name, workload, throughput_kops=100.0):
    rec = LatencyRecorder()
    for v in (1e-6, 2e-6, 3e-6):
        rec.record(v)
    ops = 3000
    return RunResult(
        store_name=name,
        workload=workload,
        ops=ops,
        duration=ops / (throughput_kops * 1e3),
        latency=rec,
        per_kind={},
        waf=1.5,
    )


def test_ratio():
    assert ratio(10, 4) == 2.5
    assert ratio(10, 0) == 0.0


def test_format_table_contains_cells():
    text = format_table("T", ["r1"], ["c1", "c2"], lambda r, c: f"{r}:{c}")
    assert "r1:c1" in text and "r1:c2" in text and "T" in text


def test_throughput_table():
    results = {
        "Prism": {"A": _result("Prism", "A", 700)},
        "KVell": {"A": _result("KVell", "A", 200)},
    }
    text = throughput_table("Fig7", results, ["A"])
    assert "700.0" in text and "200.0" in text

    missing = throughput_table("Fig7", results, ["A", "B"])
    assert "-" in missing


def test_latency_table():
    results = {"Prism": {"A": _result("Prism", "A")}}
    text = latency_table("Table 3", results, ["A"])
    assert "avg" in text and "median" in text and "99%" in text


def test_run_result_properties():
    r = _result("X", "C", 1000)
    assert r.mops == r.throughput / 1e6
    assert r.kops == r.throughput / 1e3
    empty = RunResult("X", "C", 0, 0.0, LatencyRecorder(), {}, 0.0)
    assert empty.throughput == 0.0


def test_iter_run_results_walks_nested_structures():
    from repro.bench.report import iter_run_results
    from repro.cluster.runner import ClusterRunResult

    killed = _result("cluster", "A")
    nested = {
        "Prism": {"A": _result("Prism", "A")},
        "sweep": {64: {"C": _result("Prism", "C")}},
        "pair": (_result("KVell", "A"), "not-a-result"),
        "failover": {"killed": ClusterRunResult(run=killed)},
    }
    found = dict(iter_run_results(nested))
    assert set(found) == {"Prism/A", "sweep/64/C", "pair/0", "failover/killed"}
    assert found["failover/killed"] is killed


def test_metrics_payload_and_writer(tmp_path):
    import json

    from repro.bench.report import metrics_payload, write_metrics_json

    with_metrics = _result("Prism", "A")
    with_metrics.metrics = {"histograms": {"op.all": {"count": 3}}}
    results = {"Prism": {"A": with_metrics, "B": _result("Prism", "B")}}
    payload = metrics_payload("fig7", results)
    assert payload["experiment"] == "fig7"
    assert set(payload["runs"]) == {"Prism/A"}  # runs without metrics skipped
    out = tmp_path / "fig7.metrics.json"
    write_metrics_json(str(out), payload)
    loaded = json.loads(out.read_text())
    assert loaded["runs"]["Prism/A"]["histograms"]["op.all"]["count"] == 3
