"""SSD and NVM raw access against a flat ``bytearray``.

Both devices keep their bytes as a sparse map of 4 KB pages and walk it
with one gather/scatter pair (``repro.storage.base``).  A Hypothesis
test drives each device through the same random ops as the flat
oracle (the SSD's raw write and read, the NVM's durable write and
untimed load, and both devices' discard): ranges that start and end
anywhere in a page and span up to five pages, pages never written and
pages discarded (both read back as zeros), writes that make pages.
After every op the device must read back the oracle's bytes, hold
exactly the pages written and not discarded since, and keep every page
4 KB long.
"""

from hypothesis import example, given, settings, strategies as st

from repro.storage.base import PAGE_SIZE
from repro.storage.nvm import NVMDevice
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, NVM_SPEC
from repro.storage.ssd import SSDDevice

PAGES = 8  # the ops stay inside the device's first eight pages
SPAN = PAGES * PAGE_SIZE


def _ssd():
    dev = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(1 << 20))
    return dev, dev.write_raw, dev.read_raw


def _nvm():
    dev = NVMDevice(NVM_SPEC.with_capacity(1 << 20))
    return (
        dev,
        lambda addr, data: dev.write_durable(None, addr, data),
        lambda addr, size: dev.load(None, addr, size),
    )


def _range(min_size):
    """(addr, size) inside the span; a size from ``min_size`` up to five
    pages, from an offset anywhere in a page."""
    return st.integers(min_size, 5 * PAGE_SIZE).flatmap(
        lambda size: st.tuples(st.integers(0, SPAN - size), st.just(size))
    )


# At least three pages: misaligned at both ends by construction.
_WIDE = st.tuples(st.integers(1, PAGE_SIZE - 1), st.integers(2, 4)).map(
    lambda p: (p[0], p[1] * PAGE_SIZE + 1)
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.one_of(_range(1), _WIDE), st.integers(1, 255)),
        st.tuples(st.just("read"), st.one_of(_range(0), _WIDE), st.just(0)),
        st.tuples(
            st.just("discard"),
            st.tuples(st.integers(0, PAGES - 1), st.integers(1, 3)),
            st.just(0),
        ),
    ),
    min_size=1,
    max_size=25,
)


def _pages_of(addr, size):
    return set(range(addr // PAGE_SIZE, (addr + size - 1) // PAGE_SIZE + 1))


def _check_against_oracle(make, ops):
    dev, write, read = make()
    oracle = bytearray(SPAN)
    made = set()  # pages written and not discarded since
    for op, (a, b), fill in ops:
        if op == "write":
            data = bytes((fill + i) % 256 for i in range(b))
            write(a, data)
            oracle[a : a + b] = data
            made |= _pages_of(a, b)
        elif op == "read":
            assert read(a, b) == bytes(oracle[a : a + b]), (a, b)
        else:
            first, count = a, min(b, PAGES - a)
            dev.discard(first * PAGE_SIZE, count * PAGE_SIZE)
            oracle[first * PAGE_SIZE : (first + count) * PAGE_SIZE] = bytes(
                count * PAGE_SIZE
            )
            made -= set(range(first, first + count))
        assert set(dev._pages) == made
        assert all(len(page) == PAGE_SIZE for page in dev._pages.values())
    assert read(0, SPAN) == bytes(oracle)


_EXAMPLE = [
    ("read", (PAGE_SIZE - 3, 2 * PAGE_SIZE + 7), 0),  # nothing written yet
    ("write", (PAGE_SIZE - 3, 2 * PAGE_SIZE + 7), 9),  # makes pages 0-3
    ("discard", (1, 1), 0),  # the middle of it reads back as zeros
    ("read", (5, 3 * PAGE_SIZE), 0),
]


class TestPageWalkMatchesAFlatOracle:
    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    @example(_EXAMPLE)
    def test_ssd(self, ops):
        _check_against_oracle(_ssd, ops)

    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    @example(_EXAMPLE)
    def test_nvm(self, ops):
        _check_against_oracle(_nvm, ops)
