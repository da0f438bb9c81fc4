"""Checksummed record framing: roundtrips, corruption detection, and
bit-identity of the legacy format when checksums are off."""

import pytest

from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.core.pwb import PersistentWriteBuffer
from repro.core.value_storage import (
    CHECKED_RECORD_HEADER,
    RECORD_HEADER,
    ValueStorage,
    record_crc,
)
from repro.faults.errors import CorruptionError
from repro.faults.injector import FaultConfig, FaultInjector
from tests.conftest import small_prism_config

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


class TestPWBFraming:
    def test_checked_roundtrip(self, nvm):
        pwb = PersistentWriteBuffer(nvm, 0, 16 * KB, checksums=True)
        off = pwb.append(5, b"value-bytes")
        assert pwb.read(off) == (5, b"value-bytes")

    def test_corruption_detected(self, nvm):
        pwb = PersistentWriteBuffer(nvm, 0, 16 * KB, checksums=True)
        off = pwb.append(5, b"value-bytes")
        pos = pwb.base + off % pwb.capacity + pwb.header_size
        raw = bytearray(nvm._read_raw(pos, 5))
        raw[0] ^= 0x80
        nvm.write_durable(None, pos, bytes(raw))
        with pytest.raises(CorruptionError):
            pwb.read(off)


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


class TestBitIdentity:
    def test_checksums_off_matches_legacy_layout(self, ssd):
        plain = ValueStorage(0, ssd, chunk_size=16 * KB)
        ((c, o, _s),) = plain.write_records(0.0, [(9, b"abc")])[0]
        raw = ssd.read_raw(c * plain.chunk_size + o, 12 + 3)
        assert raw == (9).to_bytes(8, "little") + (3).to_bytes(4, "little") + b"abc"

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
