"""CI's perf gate (``.github/perf/``): the committed limits are
well-formed against BENCHMARK.json, and ``check`` fails what it should.
The gate's perfbench runs themselves are CI's ``perf-smoke`` job."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / ".github" / "perf" / "gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

GATES = gate.load_gates()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, correct=True, **moved):
    """A perfbench result line at the measured values, ``moved`` apart."""
    metrics = {
        name: {"value": moved.get(name, limit["measured"]), "unit": ""}
        for name, limit in GATES[workload]["limits"].items()
    }
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": metrics}


def _check(workload, result, interpreter=None, digest=None):
    """``gate.check`` on ``workload``'s gate, by default on its own
    interpreter and pinned digest."""
    g = GATES[workload]
    return gate.check(
        g, result, interpreter or g["interpreter"], digest or g["vt_digest"]
    )


def test_limits_name_benchmark_metrics_on_the_right_side():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    for workload in GATES:
        assert workload in workloads
        assert GATES[workload]["limits"], f"{workload} gates nothing"
        for name, limit in GATES[workload]["limits"].items():
            kind = "ceiling" if better[name] == "lower" else "floor"
            assert set(limit) == {"measured", kind}
            # 3 % for the call count, 10 % for peak RSS (host memory,
            # which moves with the allocator), 1 % for virtual time and
            # byte counts; never tighter than the value it was set from.
            margin = {"host_calls_per_op": 0.03, "peak_rss_mib": 0.10}.get(name, 0.01)
            slack = limit[kind] / limit["measured"] - 1
            assert 0 < (slack if kind == "ceiling" else -slack) <= margin + 1e-3
        # The interpreter pin goes with the call count, and only with it.
        counts_calls = "host_calls_per_op" in GATES[workload]["limits"]
        assert ("interpreter" in GATES[workload]) == counts_calls


def test_every_workload_gates_virtual_time():
    """Simulated throughput is exact for a seed on any interpreter, so
    no workload is left to a host-side count alone (``cluster_b_rf2``
    was until PR 22; its tail is gated too)."""
    assert set(GATES) == {w["name"] for w in BENCHMARK["workloads"]}
    for workload in GATES:
        assert "vt_kops" in GATES[workload]["limits"], workload
    assert "vt_tail_us" in GATES["cluster_b_rf2"]["limits"]
    # Reclaim timing decides where ycsb_a_gc's records land, so its
    # flash footprint is gated beside its WAF.
    assert {"waf", "space_amp"} <= set(GATES["ycsb_a_gc"]["limits"])


def test_every_workload_gates_the_call_count():
    """Since PR 24 the single-store driver's count is gated too
    (``ycsb_a_gc``, ``ycsb_c_cold``), so every gate names the CPython
    its count was measured on."""
    for workload in GATES:
        assert "host_calls_per_op" in GATES[workload]["limits"], workload
        assert GATES[workload]["interpreter"] == "3.12", workload


def test_every_workload_pins_its_digest():
    """``vt_digest`` at the gate's seed makes every gate bit-for-bit on
    virtual time; it does not depend on the interpreter."""
    for workload in GATES:
        digest = GATES[workload]["vt_digest"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef"), workload


@pytest.mark.parametrize("workload", sorted(GATES))
def test_check_passes_at_the_measured_values(workload):
    assert _check(workload, _result(workload)) == []


@pytest.mark.parametrize("workload", sorted(GATES))
def test_check_fails_each_metric_past_its_limit(workload):
    for name, limit in GATES[workload]["limits"].items():
        past = limit["ceiling"] * 1.001 if "ceiling" in limit else limit["floor"] * 0.999
        failures = _check(workload, _result(workload, **{name: past}))
        assert len(failures) == 1 and name in failures[0]


@pytest.mark.parametrize("workload", sorted(GATES))
def test_check_fails_a_digest_mismatch(workload):
    """Every metric inside its limits, one virtual-time bit elsewhere."""
    other = "0" * 64
    failures = _check(workload, _result(workload), digest=other)
    assert len(failures) == 1 and "vt_digest" in failures[0]


def test_digest_is_read_from_the_first_line():
    out = "ycsb_a_gc  vt_digest=%s\nmetric lines\n{}\n" % ("ab" * 32)
    assert gate.digest_of(out) == "ab" * 32


def test_check_fails_an_incorrect_run_and_a_foreign_interpreter():
    g = GATES["ycsb_e_scan"]
    assert _check("ycsb_e_scan", _result("ycsb_e_scan", correct=False))
    assert _check("ycsb_e_scan", _result("ycsb_e_scan"), interpreter="2.7")
    # A gate on virtual time and byte counts alone (none is committed
    # since PR 24) names no interpreter and runs on any; it is still a
    # gate on correctness, and pins no digest unless it says so.
    unpinned = {"limits": {"vt_kops": g["limits"]["vt_kops"]}}
    assert gate.check(unpinned, _result("ycsb_e_scan"), "2.7", "0" * 64) == []
    assert gate.check(unpinned, _result("ycsb_e_scan", correct=False), "2.7", "")
