from hypothesis import given, settings, strategies as st

from repro.baselines.lsm.memtable import MemTable, TOMBSTONE


def test_insert_get():
    mt = MemTable()
    mt.insert(b"k", b"v")
    assert mt.get(b"k") == (True, b"v")
    assert b"k" in mt
    assert len(mt) == 1


def test_missing_key():
    assert MemTable().get(b"x") == (False, None)


def test_tombstone_found_but_none():
    mt = MemTable()
    mt.insert(b"k", TOMBSTONE)
    assert mt.get(b"k") == (True, None)


def test_overwrite_updates_size():
    mt = MemTable()
    mt.insert(b"k", b"aaaa")
    size1 = mt.approximate_size
    mt.insert(b"k", b"bb")
    assert mt.approximate_size == size1 - 2
    assert len(mt) == 1


def test_items_sorted():
    mt = MemTable()
    for k in (b"c", b"a", b"b"):
        mt.insert(k, k)
    assert [k for k, _ in mt.items()] == [b"a", b"b", b"c"]


def test_items_from():
    mt = MemTable()
    for i in range(10):
        mt.insert(b"k%d" % i, b"v")
    assert [k for k, _ in mt.items_from(b"k5")] == [b"k%d" % i for i in range(5, 10)]


def test_extract_range():
    mt = MemTable()
    for i in range(10):
        mt.insert(b"k%d" % i, b"v%d" % i)
    taken = mt.extract_range(b"k3", b"k7")
    assert [k for k, _ in taken] == [b"k3", b"k4", b"k5", b"k6"]
    assert len(mt) == 6
    assert mt.get(b"k3") == (False, None)
    assert mt.get(b"k7") == (True, b"v7")


def test_extract_range_open_end():
    mt = MemTable()
    for i in range(5):
        mt.insert(b"k%d" % i, b"v")
    taken = mt.extract_range(b"k2", None)
    assert len(taken) == 3
    assert len(mt) == 2


@settings(max_examples=50, deadline=None)
@given(
    entries=st.dictionaries(
        st.binary(min_size=1, max_size=8),
        st.one_of(st.none(), st.binary(max_size=32)),
        max_size=80,
    )
)
def test_property_matches_dict(entries):
    mt = MemTable()
    for k, v in entries.items():
        mt.insert(k, v)
    assert list(mt.items()) == sorted(entries.items())
    total = sum(len(k) + (len(v) if v else 0) for k, v in entries.items())
    assert mt.approximate_size == total
