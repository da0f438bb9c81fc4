import io

import pytest

from repro.core.prism import Prism
from repro.sim.vthread import VThread
from repro.workloads.generator import Op
from repro.workloads.trace import TraceWriter, capture_workload, read_trace, replay
from repro.workloads.ycsb import YCSB_A
from tests.conftest import small_prism_config


def test_roundtrip_through_stream():
    buf = io.StringIO()
    ops = [
        Op("update", b"key1", b"value\x00\xff"),
        Op("read", b"key2"),
        Op("scan", b"key3", scan_length=42),
        Op("delete", b"key4"),
    ]
    with TraceWriter(buf) as writer:
        writer.record_all(ops)
    assert writer.ops_written == 4
    buf.seek(0)
    parsed = list(read_trace(buf))
    assert [op.kind for op in parsed] == ["update", "read", "scan", "delete"]
    assert parsed[0].value == b"value\x00\xff"
    assert parsed[2].scan_length == 42


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "ops.trace"
    with TraceWriter(path) as writer:
        writer.record(Op("insert", b"k", b"v"))
    parsed = list(read_trace(path))
    assert parsed[0].key == b"k"
    assert parsed[0].value == b"v"


def test_comments_and_blank_lines_skipped():
    buf = io.StringIO("# header\n\nget\t6b\n")
    assert len(list(read_trace(buf))) == 1


def test_malformed_line_rejected():
    with pytest.raises(ValueError):
        list(read_trace(io.StringIO("frobnicate\t00\n")))
    with pytest.raises(ValueError):
        list(read_trace(io.StringIO("put\t00\n")))  # missing value


def test_unknown_kind_not_recordable():
    with pytest.raises(ValueError):
        TraceWriter(io.StringIO()).record(Op("read", b"k").__class__("mystery", b"k"))


def test_capture_and_replay_against_store(tmp_path):
    path = tmp_path / "a.trace"
    count = capture_workload(YCSB_A, 300, 100, path, value_size=64, seed=5)
    assert count == 300
    store = Prism(small_prism_config())
    thread = VThread(0, store.clock)
    replayed = replay(store, read_trace(path), thread)
    assert replayed == 300
    assert store.puts + store.gets == 300


def test_replay_is_deterministic_across_engines(tmp_path):
    """The same trace leaves two independent stores identical."""
    path = tmp_path / "d.trace"
    capture_workload(YCSB_A, 400, 120, path, value_size=64, seed=9)
    stores = [Prism(small_prism_config()) for _ in range(2)]
    for store in stores:
        replay(store, read_trace(path), VThread(0, store.clock))
    a, b = stores
    assert list(a.index.items()) == list(b.index.items())
    full_a = a.scan(b"u", 1000)
    full_b = b.scan(b"u", 1000)
    assert full_a == full_b


def test_replay_is_one_closed_loop_client_and_rejects_an_unknown_kind():
    store = Prism(small_prism_config())
    thread = VThread(0, store.clock)
    ops = [Op("insert", b"k1", b"v1"), Op("read", b"k1"), Op("delete", b"k1")]
    assert replay(store, ops, thread) == 3
    assert thread.now > 0 and store.get(b"k1", thread) is None
    with pytest.raises(ValueError, match="unknown op kind"):
        replay(store, [Op("mystery", b"k")], thread)
