"""Checksummed record framing: roundtrips, corruption detection, and
bit-identity of the legacy format when checksums are off."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.core.pwb import PersistentWriteBuffer
from repro.core.record import (
    CHECKED_RECORD_HEADER,
    RECORD_HEADER,
    frame,
    parse,
    record_crc,
)
from repro.core.value_storage import ValueStorage
from repro.faults.errors import CorruptionError
from repro.faults.injector import FaultConfig, FaultInjector
from tests.conftest import small_prism_config
from tests.core.test_relocation import _callers

KB = 1024


@pytest.fixture
def cvs(ssd):
    return ValueStorage(0, ssd, chunk_size=16 * KB, checksums=True)


class TestVSFraming:
    def test_checked_roundtrip(self, cvs):
        placements, _ = cvs.write_records(0.0, [(7, b"hello"), (8, b"world!")])
        for (idx, val), (c, o, _s) in zip([(7, b"hello"), (8, b"world!")], placements):
            assert cvs.read_record_raw(c, o) == (idx, val)

    def test_header_sizes(self, ssd, cvs):
        plain = ValueStorage(1, ssd, chunk_size=16 * KB)
        assert plain.header_size == RECORD_HEADER
        assert cvs.header_size == CHECKED_RECORD_HEADER
        assert cvs.record_bytes(10) == plain.record_bytes(10) + 4

    def test_bitflip_detected(self, cvs):
        ((c, o, _s),) = cvs.write_records(0.0, [(3, b"precious-bytes")])[0]
        raw = cvs.ssd.read_raw(c * cvs.chunk_size + o, cvs.header_size + 14)
        mutated = bytearray(raw)
        mutated[-1] ^= 0x40  # flip a payload bit
        cvs.ssd.write_raw(c * cvs.chunk_size + o, bytes(mutated))
        with pytest.raises(CorruptionError) as err:
            cvs.read_record_raw(c, o)
        assert err.value.device == cvs.ssd.name

    def test_header_corruption_detected(self, cvs):
        ((c, o, _s),) = cvs.write_records(0.0, [(3, b"vvvv")])[0]
        raw = bytearray(cvs.ssd.read_raw(c * cvs.chunk_size + o, cvs.header_size + 4))
        raw[0] ^= 0x01  # flip a backward-pointer bit
        cvs.ssd.write_raw(c * cvs.chunk_size + o, bytes(raw))
        with pytest.raises(CorruptionError):
            cvs.read_record_raw(c, o)

    def test_crc_function_covers_header_and_value(self):
        h = (1).to_bytes(8, "little") + (3).to_bytes(4, "little")
        assert record_crc(h, b"abc") != record_crc(h, b"abd")
        h2 = (2).to_bytes(8, "little") + (3).to_bytes(4, "little")
        assert record_crc(h, b"abc") != record_crc(h2, b"abc")


class TestCodec:
    """:mod:`repro.core.record` on its own: every record shape it
    frames parses back, and a checked record notices any flipped bit."""

    @settings(max_examples=200)
    @given(
        idx=st.integers(min_value=0, max_value=2**64 - 1),
        value=st.binary(min_size=0, max_size=300),
        checked=st.booleans(),
    )
    def test_frame_parse_roundtrip(self, idx, value, checked):
        raw = frame(idx, value, checked)
        header = CHECKED_RECORD_HEADER if checked else RECORD_HEADER
        assert len(raw) == header + len(value)
        assert parse(raw, checked, "dev") == (idx, value)
        # A parse takes exactly its record from a longer buffer.
        assert parse(raw + b"tail", checked, "dev") == (idx, value)

    def test_every_flipped_bit_is_detected(self):
        raw = frame(0x0123456789ABCDEF, b"precious", True)
        for bit in range(len(raw) * 8):
            rotted = bytearray(raw)
            rotted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(CorruptionError) as err:
                parse(bytes(rotted), True, "ssd9", "chunk 3 off 40")
            assert (err.value.device, err.value.where) == ("ssd9", "chunk 3 off 40")

    def test_a_size_past_the_buffer_is_detected(self):
        raw = frame(5, b"abc", True)
        with pytest.raises(CorruptionError):
            parse(raw[:-1], True, "dev")


class TestPWBFraming:
    def test_checked_roundtrip(self, nvm):
        pwb = PersistentWriteBuffer(nvm, 0, 16 * KB, checksums=True)
        off = pwb.append(5, b"value-bytes")
        assert pwb.read(off, None) == (5, b"value-bytes")

    def test_corruption_detected(self, nvm):
        pwb = PersistentWriteBuffer(nvm, 0, 16 * KB, checksums=True)
        off = pwb.append(5, b"value-bytes")
        pos = pwb.base + off % pwb.capacity + pwb.header_size
        raw = bytearray(nvm._read_raw(pos, 5))
        raw[0] ^= 0x80
        nvm.write_durable(None, pos, bytes(raw))
        with pytest.raises(CorruptionError):
            pwb.read(off, None)


class TestInjectorSilentFaults:
    def test_bitflip_mutates_without_raising(self, ssd):
        inj = FaultInjector(FaultConfig(seed=3, bitflip_rate=1.0))
        ssd.attach_injector(inj)
        ssd.write(None, 0, b"\0" * 64)
        assert inj.silent_injected == 1
        data = ssd.read_raw(0, 64)
        assert sum(bin(b).count("1") for b in data) == 1  # exactly one bit flipped

    def test_torn_write_truncates(self, ssd):
        inj = FaultInjector(FaultConfig(seed=3, torn_write_rate=1.0))
        ssd.attach_injector(inj)
        ssd.write(None, 0, b"\xff" * 64)
        data = ssd.read_raw(0, 64)
        assert 0 < data.count(0) < 64  # a suffix never hit the media

    def test_zero_rates_draw_nothing(self, ssd):
        inj = FaultInjector(FaultConfig(seed=3))
        state = inj.rng.getstate()
        assert inj.corrupt_write(ssd, 0.0, 0, b"abc") == b"abc"
        assert inj.rng.getstate() == state
        assert not inj.silent_corruption_possible()

    def test_at_rest_flips_one_bit(self, ssd):
        inj = FaultInjector(FaultConfig(seed=3))
        ssd.write_raw(100, b"\0" * 32)
        where = inj.corrupt_at_rest(ssd, 100, 32)
        assert 100 <= where < 132
        assert inj.silent_corruption_possible()
        data = ssd.read_raw(100, 32)
        assert sum(bin(b).count("1") for b in data) == 1


# The on-media bytes of record (9, b"abc"), plain and checked, as the
# format has always laid them out: backptr, size, [CRC32,] value.
LEGACY_LAYOUT = {
    False: bytes.fromhex("090000000000000003000000" "616263"),
    True: bytes.fromhex("090000000000000003000000" "c5962c5a" "616263"),
}


class TestBitIdentity:
    def test_checksums_off_matches_legacy_layout(self, ssd, nvm):
        assert LEGACY_LAYOUT[False] == (
            (9).to_bytes(8, "little") + (3).to_bytes(4, "little") + b"abc"
        )
        for checked, expect in LEGACY_LAYOUT.items():
            vs = ValueStorage(int(checked), ssd, chunk_size=16 * KB, checksums=checked)
            ((c, o, _s),) = vs.write_records(0.0, [(9, b"abc")])[0]
            assert ssd.read_raw(c * vs.chunk_size + o, len(expect)) == expect
            pwb = PersistentWriteBuffer(nvm, int(checked), 16 * KB, checksums=checked)
            off = pwb.append(9, b"abc")
            assert nvm.load(None, pwb.base + off, len(expect)) == expect

    def test_store_runs_identically_with_integrity_switches_off(self):
        def run(cfg):
            store = Prism(cfg)
            for i in range(120):
                store.put(b"k%03d" % i, bytes([i % 251]) * 600)
            for i in range(120):
                assert store.get(b"k%03d" % i) is not None
            store.flush()
            return store.clock.now, [
                store.hsit.location_word(idx) for _, idx in store.index.items()
            ]

        base = run(small_prism_config())
        again = run(small_prism_config(enable_checksums=False, mirror_chunks=False))
        assert base == again


# ----------------------------------------------------------------------
# structure: the record format and the mirror read each live in one place
# ----------------------------------------------------------------------
CODEC = "repro.core.record"


def _header_slice(node: ast.Subscript) -> bool:
    """A slice at a record header's field boundaries: a bound of 12
    (the end of backptr + size), a start of 16 (the end of the checked
    header), or the size field ``[8:12]``."""
    if not isinstance(node.slice, ast.Slice):
        return False
    lower, upper = (
        bound.value if isinstance(bound, ast.Constant) else None
        for bound in (node.slice.lower, node.slice.upper)
    )
    return 12 in (lower, upper) or lower == 16


def _walk_functions(tree, visit, scope=()):
    """Call ``visit(node, qualname)`` for every node, with the name of
    the function or class it sits in."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _walk_functions(child, visit, scope + (child.name,))
            continue
        visit(child, ".".join(scope))
        _walk_functions(child, visit, scope)


def test_the_record_format_and_the_mirror_read_each_have_one_home():
    """Only :mod:`repro.core.record` defines the header sizes, the
    header structs and ``record_crc``, or slices a header by byte
    offset; exactly one function reads a mirror record, and the read
    path's heal is one function."""
    root = Path(repro.__file__).parent
    defined, sliced, mirror_reads = set(), set(), set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)

        def visit(node, qualname):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in ("RECORD_HEADER", "CHECKED_RECORD_HEADER"):
                    defined.add(f"{module}:{node.id}")
            elif isinstance(node, ast.Constant) and node.value in ("<QI", "<QII"):
                defined.add(f"{module}:{node.value}")
            elif isinstance(node, ast.Subscript) and _header_slice(node):
                sliced.add(f"{module}:{qualname}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read_raw"
                and "mirror" in ast.unparse(node.func.value)
            ):
                mirror_reads.add(f"{module}:{qualname}")

        tree = ast.parse(path.read_text())
        _walk_functions(tree, visit)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "record_crc":
                defined.add(f"{module}:record_crc")
    assert defined == {
        f"{CODEC}:RECORD_HEADER",
        f"{CODEC}:CHECKED_RECORD_HEADER",
        f"{CODEC}:<QI",
        f"{CODEC}:<QII",
        f"{CODEC}:record_crc",
    }
    assert sliced == set()
    reader = "repro.core.value_storage:ValueStorage.read_record_mirror"
    assert mirror_reads == {reader}
    assert _callers("read_record_mirror") == {"repro.repair.repair:mirror_value"}
    assert _callers("mirror_value") == {
        "repro.repair.repair:fetch_value",
        "repro.core.recovery:recover",
        "repro.repair.scrubber:Scrubber._refresh_mirror",
    }
    # The read path's one pipeline: its dead-device repair and its
    # landing's heal.
    assert _callers("read_repair") == {
        "repro.core.prism:Prism._fetch",
        "repro.core.prism:Prism._fetch.heal",
        "repro.repair.scrubber:Scrubber.scrub_once",
    }
