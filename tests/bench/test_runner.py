import ast
from pathlib import Path

import pytest

import repro
from repro.bench.runner import closed_loop, preload, run_workload
from repro.bench.stores import build_prism
from repro.core.prism import Prism
from repro.faults.ledger import WriteLedger
from repro.sim.vthread import VThread
from repro.workloads import WORKLOADS
from repro.workloads.generator import Op
from tests.conftest import small_prism_config


@pytest.fixture
def store():
    return Prism(small_prism_config(num_threads=4))


def test_preload_inserts_all_keys(store):
    preload(store, 500, value_size=128, num_threads=4)
    assert len(store) == 500


def test_preload_random_order(store):
    """LOAD happens 'in random order' (§7.1): inserts are shuffled."""
    preload(store, 300, value_size=64, num_threads=1)
    # if insertion were sequential the index would have split on the
    # rightmost leaf only; shuffled inserts spread the data layer.
    assert len(store) == 300


def test_run_workload_counts_and_latency(store):
    preload(store, 400, value_size=128, num_threads=4)
    result = run_workload(
        store, WORKLOADS["A"], 1000, 400, num_threads=4, value_size=128
    )
    assert result.ops == 1000
    assert result.duration > 0
    assert result.throughput > 0
    assert len(result.latency) == 1000
    assert set(result.per_kind) <= {"read", "update"}


def test_run_workload_validates_ops(store):
    with pytest.raises(ValueError):
        run_workload(store, WORKLOADS["C"], 0, 100)


def test_load_workload_populates_store(store):
    result = run_workload(
        store, WORKLOADS["LOAD"], 400, 400, num_threads=2, value_size=128
    )
    assert result.ops == 400
    assert len(store) == 400


def test_warmup_not_recorded(store):
    preload(store, 300, value_size=128, num_threads=2)
    result = run_workload(
        store,
        WORKLOADS["C"],
        500,
        300,
        num_threads=2,
        value_size=128,
        warmup_ops=200,
    )
    assert result.ops == 500
    assert len(result.latency) == 500


def test_waf_computed_over_measured_window(store):
    preload(store, 300, value_size=128, num_threads=2)
    result = run_workload(
        store, WORKLOADS["C"], 300, 300, num_threads=2, value_size=128
    )
    assert result.waf == 0.0  # read-only window writes nothing


def test_timeline_collection(store):
    preload(store, 300, value_size=128, num_threads=2)
    result = run_workload(
        store,
        WORKLOADS["A"],
        600,
        300,
        num_threads=2,
        value_size=128,
        timeline_bucket=1e-3,
    )
    assert result.timeline is not None
    assert sum(result.timeline.buckets.values()) == 600
    # The first client to run out of ops marks where the drain began.
    assert 0 < result.timeline.drain_at <= result.duration


def test_different_workloads_use_different_streams(store):
    preload(store, 300, value_size=128, num_threads=2)
    r1 = run_workload(store, WORKLOADS["B"], 200, 300, num_threads=2, value_size=128)
    r2 = run_workload(store, WORKLOADS["C"], 200, 300, num_threads=2, value_size=128)
    # same seed, different workloads -> different key sequences, so
    # the second run cannot be a 100% cache replay of the first
    assert r1.ops == r2.ops == 200


def test_summary_string(store):
    preload(store, 100, value_size=128)
    result = run_workload(store, WORKLOADS["C"], 100, 100, num_threads=1, value_size=128)
    text = result.summary()
    assert "Prism" in text and "Kops" in text


def test_multi_thread_throughput_exceeds_single(capsys):
    one = build_prism(num_threads=1, dataset_bytes=512 * 1024, expected_keys=2000)
    many = build_prism(num_threads=8, dataset_bytes=512 * 1024, expected_keys=2000)
    preload(one, 500, value_size=512, num_threads=1)
    preload(many, 500, value_size=512, num_threads=8)
    r1 = run_workload(one, WORKLOADS["A"], 1500, 500, num_threads=1, value_size=512)
    r8 = run_workload(many, WORKLOADS["A"], 1500, 500, num_threads=8, value_size=512)
    assert r8.throughput > 2 * r1.throughput


def test_run_workload_collects_metrics(store):
    """Acceptance: every measured run carries a metrics snapshot with
    op latency histograms, per-SSD device series, and run gauges."""
    preload(store, 300, value_size=128, num_threads=2)
    result = run_workload(
        store, WORKLOADS["A"], 800, 300, num_threads=2, value_size=128
    )
    m = result.metrics
    assert m is not None
    hist = m["histograms"]["op.all"]
    assert hist["count"] == 800
    assert hist["p50_us"] > 0
    assert hist["p99_us"] >= hist["p50_us"]
    # The log-bucket summary agrees with the exact samples (buckets are
    # ~6 % wide).
    for key, exact in (
        ("p50_us", result.latency.median()),
        ("p99_us", result.latency.p99()),
    ):
        assert abs(hist[key] - exact) <= max(0.12 * exact, 0.5), key
    assert "op.read" in m["histograms"] or "op.update" in m["histograms"]
    for vs_id in range(len(store.storages)):
        depth = m["series"][f"ssd.{vs_id}.queue_depth"]
        assert len(depth["t"]) > 2 and min(depth["v"]) >= 0
        util = m["series"][f"ssd.{vs_id}.utilization"]["v"]
        assert all(0.0 <= v <= 1.0 for v in util)
    assert m["gauges"]["ops"] == 800
    assert m["gauges"]["throughput_ops"] == pytest.approx(result.throughput)


def test_run_metrics_carry_each_gc_round_as_an_event():
    """A space-squeezed run (Value Storage the size of the dataset, the
    Fig. 17 shape, small) records every GC round of its window as a
    ``gc`` event: which Value Storage ran, what it moved and read from
    flash, and how long it took."""
    keys = 1500
    store = build_prism(
        num_threads=4, num_ssds=2, dataset_bytes=keys * 1024,
        expected_keys=keys, ssd_capacity=keys * 1024, chunk_size=64 * 1024,
        gc_free_threshold=0.3,
    )
    preload(store, keys, num_threads=4)
    result = run_workload(store, WORKLOADS["A"], 2500, keys, 4)
    events = result.metrics["events"]["gc"]
    assert events
    for event in events:
        assert event["kind"] == "gc"
        assert event["at"] >= 0
        assert event["vs_id"] >= 0
        assert event["duration"] >= 0
        assert event["moved_records"] >= 0
        # What the round read from flash: its victims' live records.
        assert event["read_bytes"] >= event["moved_bytes"]
    assert len(store.events.of_kind("gc")) >= len(events)


def test_run_workload_metrics_opt_out(store):
    preload(store, 200, value_size=128, num_threads=2)
    result = run_workload(
        store, WORKLOADS["C"], 200, 200, num_threads=2,
        value_size=128, collect_metrics=False,
    )
    assert result.metrics is None


def test_metrics_collection_does_not_change_results(store):
    """collect_metrics only observes: throughput and latency are
    bit-identical with it on or off."""
    preload(store, 200, value_size=128, num_threads=2)
    on = run_workload(
        store, WORKLOADS["B"], 300, 200, num_threads=2, value_size=128
    )
    other = Prism(small_prism_config(num_threads=4))
    preload(other, 200, value_size=128, num_threads=2)
    off = run_workload(
        other, WORKLOADS["B"], 300, 200, num_threads=2,
        value_size=128, collect_metrics=False,
    )
    assert on.duration == off.duration
    assert on.latency.average() == off.latency.average()


def test_back_to_back_runs_get_fresh_registries():
    """A store reused across runs must not leak one run's samples into
    the next run's snapshot."""
    store = Prism(small_prism_config(num_threads=4, enable_metrics=True))
    own = store.metrics
    preload(store, 200, value_size=128, num_threads=2)
    r1 = run_workload(store, WORKLOADS["A"], 300, 200, num_threads=2, value_size=128)
    r2 = run_workload(store, WORKLOADS["A"], 300, 200, num_threads=2, value_size=128)
    assert r1.metrics["histograms"]["op.all"]["count"] == 300
    assert r2.metrics["histograms"]["op.all"]["count"] == 300
    # Phase histograms in each snapshot only cover that run's ops.
    p1 = r1.metrics["histograms"]["phase.put.pwb_append"]["count"]
    p2 = r2.metrics["histograms"]["phase.put.pwb_append"]["count"]
    assert p1 <= 300 and p2 <= 300
    # The store's own registry is restored after each run.
    assert store.metrics is own


# ---------------------------------------------------------------------
# The one closed loop, driven directly over a store-shaped stub.
# ---------------------------------------------------------------------
class Refused(Exception):
    pass


class Broke(Exception):
    pass


class Stub:
    """Store-shaped: every op takes 1 µs of the calling thread, and a
    key that names an exception class raises it after taking it."""

    name = "stub"
    bytes_put = 0
    raises = {b"refused": Refused, b"broke": Broke}

    def __init__(self):
        self.log = []

    def _op(self, kind, key, thread):
        thread.now += 1e-6
        self.log.append((kind, key))
        if key in self.raises:
            raise self.raises[key]()

    def get(self, key, thread):
        self._op("get", key, thread)

    def put(self, key, value, thread):
        self._op("put", key, thread)

    def scan(self, key, count, thread):
        self._op("scan", key, thread)

    def delete(self, key, thread):
        self._op("delete", key, thread)

    def ssd_bytes_written(self):
        return 0


def reads(*keys):
    return iter([Op("read", key) for key in keys])


def test_actions_fire_once_each_by_op_then_in_the_order_given():
    stub, fired = Stub(), []

    def action(name):
        return lambda thread: fired.append((name, len(stub.log)))

    closed_loop(
        stub,
        [VThread(0), VThread(1)],
        [reads(b"a", b"b", b"c"), reads(b"d", b"e", b"f")],
        actions=[
            (3, action("tie, given first")),
            (6, action("at the op count")),
            (0, action("rounds to op 0")),
            (3, action("tie, given second")),
        ],
    )
    assert fired == [
        ("rounds to op 0", 0),  # before the first op
        ("tie, given first", 3),
        ("tie, given second", 3),
        ("at the op count", 6),  # after the last op, inside the window
    ]


def test_counted_errors_feed_the_ledger_and_any_other_ends_the_run():
    ops = [
        Op("update", b"a", b"1"),
        Op("update", b"refused", b"2"),
        Op("insert", b"broke", b"3"),
        Op("delete", b"broke"),
        Op("read", b"broke"),
        Op("delete", b"d"),
    ]
    ledger = WriteLedger()
    window = closed_loop(
        Stub(), [VThread(0)], [iter(ops)],
        shed_errors=(Refused,), failed_errors=(Broke,), ledger=ledger,
    )
    assert (window.ops, window.shed, window.failed) == (6, 1, 3)
    assert len(window.per_kind["update"]) == 2  # a counted failure has a latency
    # Writes only; a shed write is neither acked nor in doubt.
    assert {k: [v for _s, _e, v in w] for k, w in ledger.acked.items()} == {
        b"a": [b"1"], b"d": [None],
    }
    assert {k: [v for _s, _e, v in w] for k, w in ledger.interrupted.items()} == {
        b"broke": [b"3", None],
    }
    # Nothing is counted unless the caller says so: a single store's
    # failed op still ends the run.
    with pytest.raises(Broke):
        closed_loop(Stub(), [VThread(0)], [iter(ops)], shed_errors=(Refused,))
    with pytest.raises(ValueError, match="unknown op kind"):
        closed_loop(Stub(), [VThread(0)], [iter([Op("mystery", b"k")])])


def test_read_split_is_asked_before_each_read_and_only_reads():
    phases = {b"a": [], b"c": []}
    asked = []
    stub = Stub()

    def split(at):
        asked.append((len(stub.log), at == thread.now))
        return phases[b"a"] if len(stub.log) < 2 else phases[b"c"]

    thread = VThread(0)
    ops = [Op("read", b"a"), Op("update", b"b", b"v"), Op("read", b"c")]
    window = closed_loop(stub, [thread], [iter(ops)], read_split=split)
    assert asked == [(0, True), (2, True)]
    assert phases[b"a"] + phases[b"c"] == window.per_kind["read"].samples


def test_threads_may_share_one_iterator():
    """How ``preload`` deals one key sequence to whichever thread is
    earliest."""
    stub = Stub()
    shared = reads(*(b"%d" % i for i in range(7)))
    window = closed_loop(stub, [VThread(0), VThread(1), VThread(2)], [shared] * 3)
    assert window.ops == 7
    assert [key for _kind, key in stub.log] == [b"%d" % i for i in range(7)]


def test_one_function_holds_the_closed_loop():
    """The loop cannot quietly be copied again: across the bench
    package, the cluster driver and trace replay, ``heappop`` appears
    in exactly one function."""
    src = Path(repro.__file__).parent
    files = sorted((src / "bench").glob("*.py")) + [
        src / "cluster" / "runner.py", src / "workloads" / "trace.py",
    ]
    holders = [
        f"{path.relative_to(src).as_posix()}:{node.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            getattr(inner, "attr", getattr(inner, "id", None)) == "heappop"
            for inner in ast.walk(node)
        )
    ]
    assert holders == ["bench/runner.py:closed_loop"]
