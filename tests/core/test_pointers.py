import pytest
from hypothesis import given, strategies as st

from repro.core import pointers as ptr


class TestEncoding:
    def test_null(self):
        loc = ptr.decode(0)
        assert loc.is_null
        assert not loc.in_pwb and not loc.in_vs

    def test_pwb_roundtrip(self):
        word = ptr.encode_pwb(5, 123456)
        loc = ptr.decode(word)
        assert loc.in_pwb
        assert loc.pwb_id == 5
        assert loc.pwb_offset == 123456

    def test_vs_roundtrip(self):
        word = ptr.encode_vs(3, 2_000_000, 400_000)
        loc = ptr.decode(word)
        assert loc.in_vs
        assert (loc.vs_id, loc.chunk_id, loc.vs_offset) == (3, 2_000_000, 400_000)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ptr.encode_pwb(1 << 13, 0)
        with pytest.raises(ValueError):
            ptr.encode_pwb(0, 1 << 48)
        with pytest.raises(ValueError):
            ptr.encode_vs(256, 0, 0)
        with pytest.raises(ValueError):
            ptr.encode_vs(0, 1 << 21, 0)
        with pytest.raises(ValueError):
            ptr.encode_vs(0, 0, 1 << 32)

    def test_words_fit_in_64_bits(self):
        word = ptr.encode_vs(255, (1 << 21) - 1, (1 << 32) - 1)
        assert ptr.set_dirty(word) < 1 << 64


class TestDirtyBit:
    def test_set_clear(self):
        word = ptr.encode_pwb(1, 2)
        dirty = ptr.set_dirty(word)
        assert ptr.is_dirty(dirty)
        assert not ptr.is_dirty(word)
        assert ptr.clear_dirty(dirty) == word

    def test_dirty_does_not_disturb_payload(self):
        word = ptr.encode_vs(9, 77, 88)
        assert ptr.decode(ptr.set_dirty(word) & ~ptr.DIRTY_BIT) == ptr.decode(word)


class TestFreeList:
    def test_free_link_roundtrip(self):
        word = ptr.encode_free_link(42)
        assert ptr.decode(word).is_null
        assert ptr.free_link_of(word) == 42

    def test_zero_is_end(self):
        assert ptr.free_link_of(ptr.encode_free_link(0)) == 0


@given(pwb_id=st.integers(0, (1 << 13) - 1), offset=st.integers(0, (1 << 48) - 1))
def test_pwb_roundtrip_property(pwb_id, offset):
    loc = ptr.decode(ptr.encode_pwb(pwb_id, offset))
    assert (loc.pwb_id, loc.pwb_offset) == (pwb_id, offset)


@given(
    vs=st.integers(0, 255),
    chunk=st.integers(0, (1 << 21) - 1),
    off=st.integers(0, (1 << 32) - 1),
)
def test_vs_roundtrip_property(vs, chunk, off):
    loc = ptr.decode(ptr.encode_vs(vs, chunk, off))
    assert (loc.vs_id, loc.chunk_id, loc.vs_offset) == (vs, chunk, off)


@given(
    vs=st.integers(0, 255),
    chunk=st.integers(0, (1 << 21) - 1),
    off=st.integers(0, (1 << 32) - 1),
)
def test_encode_decode_inverse(vs, chunk, off):
    loc = ptr.decode(ptr.encode_vs(vs, chunk, off))
    assert ptr.encode(loc) == ptr.encode_vs(vs, chunk, off)
