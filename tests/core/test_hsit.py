
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pointers as ptr
from repro.core.hsit import ENTRY_BYTES, HSIT, FreeListError
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import CrashPoint
from repro.storage.nvm import LOADS_IN_FLIGHT, NVMDevice


@pytest.fixture
def hsit(nvm):
    return HSIT(nvm, capacity=64)


class TestAllocation:
    def test_fresh_allocations_are_distinct(self, hsit):
        assert {hsit.allocate() for _ in range(10)} == set(range(10))

    def test_capacity_exhaustion(self, nvm):
        small = HSIT(nvm, capacity=2)
        small.allocate()
        small.allocate()
        with pytest.raises(StorageError):
            small.allocate()

    def test_free_then_reallocate(self, hsit):
        idx = hsit.allocate()
        hsit.free(idx)
        assert hsit.allocate() == idx

    def test_free_list_is_lifo(self, hsit):
        a = hsit.allocate()
        b = hsit.allocate()
        hsit.free(a)
        hsit.free(b)
        assert hsit.allocate() == b
        assert hsit.allocate() == a

    def test_allocated_entries_counts(self, hsit):
        a = hsit.allocate()
        hsit.allocate()
        hsit.free(a)
        assert hsit.allocated_entries() == 1

    def test_free_entries_walks_head_first(self, hsit):
        a, b, c = (hsit.allocate() for _ in range(3))
        hsit.free(a)
        hsit.free(c)
        assert list(hsit.free_entries()) == [c, a]
        assert hsit.next_unused == 3
        assert hsit.allocated_entries() == 1  # b

    def test_double_free_ends_the_walk_with_a_typed_error(self, hsit):
        a, b = hsit.allocate(), hsit.allocate()
        hsit.free(a)
        hsit.free(b)
        hsit.free(a)  # a → b → a → ...: the list is now a cycle
        with pytest.raises(FreeListError, match=f"revisits entry {a}"):
            list(hsit.free_entries())
        with pytest.raises(FreeListError):
            hsit.allocated_entries()

    def test_self_loop_is_caught_on_the_second_step(self, hsit):
        a = hsit.allocate()
        hsit.free(a)
        hsit.free(a)
        with pytest.raises(FreeListError, match="after 1 steps"):
            list(hsit.free_entries())

    def test_link_past_next_unused_is_a_typed_error(self, hsit, nvm):
        a = hsit.allocate()
        hsit.free(a)
        # Corrupt the link: point it at an entry that was never handed out.
        nvm.persist(None, hsit._addr(a), ptr.encode_free_link(41).to_bytes(8, "little"))
        with pytest.raises(FreeListError, match="never-allocated entry 40"):
            list(hsit.free_entries())

    def test_invalid_capacity(self, nvm):
        with pytest.raises(ValueError):
            HSIT(nvm, capacity=0)

    def test_index_bounds(self, hsit):
        with pytest.raises(StorageError):
            hsit.read_location(64)


class TestLocationProtocol:
    def test_publish_then_read(self, hsit):
        idx = hsit.allocate()
        word = ptr.encode_pwb(1, 100)
        old = hsit.publish_location(idx, word)
        assert old.is_null
        assert hsit.read_location(idx) == ptr.decode(word)

    def test_publish_returns_old_location(self, hsit):
        idx = hsit.allocate()
        hsit.publish_location(idx, ptr.encode_pwb(1, 100))
        old = hsit.publish_location(idx, ptr.encode_vs(0, 5, 6))
        assert old.in_pwb and old.pwb_offset == 100

    def test_publish_leaves_clean_bit(self, hsit):
        idx = hsit.allocate()
        hsit.publish_location(idx, ptr.encode_pwb(0, 8))
        assert not ptr.is_dirty(hsit.location_word(idx))

    def test_flush_on_read_clears_persisted_dirty(self, hsit, nvm):
        idx = hsit.allocate()
        addr = hsit._addr(idx)
        # Simulate a writer that crashed between flush and clear-dirty:
        word = ptr.set_dirty(ptr.encode_pwb(2, 64))
        nvm.persist(None, addr, word.to_bytes(8, "little"))
        loc = hsit.read_location(idx)
        assert loc.in_pwb and loc.pwb_offset == 64
        assert hsit.reader_flushes == 1
        assert not ptr.is_dirty(hsit.location_word(idx))

    def test_clear_dirty_bit_helper(self, hsit, nvm):
        idx = hsit.allocate()
        addr = hsit._addr(idx)
        nvm.persist(
            None, addr, ptr.set_dirty(ptr.encode_pwb(0, 1)).to_bytes(8, "little")
        )
        hsit.clear_dirty_bit(idx)
        assert not ptr.is_dirty(hsit.location_word(idx))

    def test_timed_publish_advances_thread(self, hsit, thread):
        idx = hsit.allocate(thread)
        before = thread.now
        hsit.publish_location(idx, ptr.encode_pwb(0, 0), thread)
        assert thread.now > before


class TestCrash:
    def test_unflushed_publish_rolls_back(self, hsit, nvm):
        """Crash between store and flush: the old pointer survives."""
        idx = hsit.allocate()
        hsit.publish_location(idx, ptr.encode_pwb(1, 100))
        nvm.crash()  # drops the unflushed clear-dirty store
        # Worst case the dirty bit is set, but the *pointer* is the new one
        loc = ptr.decode(ptr.clear_dirty(hsit.location_word(idx)))
        assert loc.in_pwb and loc.pwb_offset == 100

    def test_publish_is_durable_modulo_dirty_bit(self, hsit, nvm):
        idx = hsit.allocate()
        hsit.publish_location(idx, ptr.encode_vs(0, 3, 4))
        nvm.crash()
        hsit.clear_dirty_bit(idx)
        assert hsit.read_location(idx) == ptr.decode(ptr.encode_vs(0, 3, 4))

    def test_freelist_survives_crash(self, hsit, nvm):
        a = hsit.allocate()
        hsit.free(a)
        nvm.crash()
        assert hsit.allocate() == a


class TestSVCWord:
    def test_set_read_clear(self, hsit):
        idx = hsit.allocate()
        assert hsit.read_svc(idx) is None
        hsit.set_svc(idx, 0)
        assert hsit.read_svc(idx) == 0
        hsit.set_svc(idx, 17)
        assert hsit.read_svc(idx) == 17
        hsit.clear_svc(idx)
        assert hsit.read_svc(idx) is None

    def test_svc_word_independent_of_location(self, hsit):
        idx = hsit.allocate()
        hsit.publish_location(idx, ptr.encode_vs(0, 1, 2))
        hsit.set_svc(idx, 5)
        assert hsit.read_location(idx).in_vs
        assert hsit.read_svc(idx) == 5

    def test_free_clears_svc_word(self, hsit):
        idx = hsit.allocate()
        hsit.set_svc(idx, 9)
        hsit.free(idx)
        reused = hsit.allocate()
        assert reused == idx
        assert hsit.read_svc(reused) is None


# ---------------------------------------------------------------------------
# one entry, one load; one gather for many
# ---------------------------------------------------------------------------
_WORDS = st.one_of(
    st.just(0),
    st.builds(ptr.encode_pwb, st.integers(0, 3), st.integers(0, 1 << 20)),
    st.builds(
        ptr.encode_vs, st.integers(0, 3), st.integers(0, 500), st.integers(0, 1 << 16)
    ),
)
_ENTRY = st.tuples(
    _WORDS,
    st.sampled_from(["clean", "persisted", "volatile"]),
    st.none() | st.integers(0, 1000),
)


def _planted(entries):
    """A fresh HSIT whose i-th entry holds ``(word, state, svc id)``.
    A dirty word is ``"persisted"`` as a writer that crashed before
    step (3) leaves it, or still ``"volatile"`` as a writer between its
    store and its flush leaves it."""
    nvm = NVMDevice()
    hsit = HSIT(nvm, capacity=64)
    for word, state, svc_id in entries:
        idx = hsit.allocate()
        if state == "clean":
            nvm.persist(None, hsit._addr(idx), word.to_bytes(8, "little"))
        else:
            nvm.store(None, hsit._addr(idx), ptr.set_dirty(word).to_bytes(8, "little"))
            if state == "persisted":
                nvm.flush(None, hsit._addr(idx), 8)
        if svc_id is not None:
            hsit.set_svc(idx, svc_id)
    return hsit


def _word_by_word(hsit, idx, thread):
    """The read path this file's subject replaced, kept as the oracle:
    a load of the location word with its flush-on-read step, then a
    load of the SVC word."""
    nvm = hsit.nvm
    addr = hsit._addr(idx)
    word = nvm.load_word(thread, addr)
    if word & ptr.DIRTY_BIT:
        word &= ~ptr.DIRTY_BIT
        nvm.flush(thread, addr, 8)
        nvm.fence(thread)
        nvm.store_word(thread, addr, word)
        if thread is not None:
            thread.spend(25e-9)
        hsit.reader_flushes += 1
    svc_word = nvm.load_word(thread, addr + 8)
    return ptr.decode(word), svc_word - 1 if svc_word else None


def _nvm_bytes(nvm):
    """The volatile view, then what survives a power failure."""
    image = {idx: bytes(page) for idx, page in nvm._pages.items()}
    nvm.crash()
    return image, {idx: bytes(page) for idx, page in nvm._pages.items()}


_READERS = {
    "gather": lambda hsit, idxs, t: hsit.read_entries(idxs, t),
    "entry": lambda hsit, idxs, t: [hsit.read_entry(i, t) for i in idxs],
    "views": lambda hsit, idxs, t: [
        (hsit.read_location(i, t), hsit.read_svc(i, t)) for i in idxs
    ],
    "word_by_word": lambda hsit, idxs, t: [_word_by_word(hsit, i, t) for i in idxs],
}


@settings(max_examples=80, deadline=None)
@given(
    entries=st.lists(_ENTRY, min_size=1, max_size=3 * LOADS_IN_FLIGHT),
    picks=st.data(),
    timed=st.booleans(),
    stray=st.none() | st.sampled_from([-1, 64, 1 << 40]),
)
def test_entry_reads_agree_with_the_word_by_word_path(entries, picks, timed, stray):
    """``read_entries`` ≡ ``read_entry`` per index ≡ the
    ``read_location``/``read_svc`` views ≡ two word loads: the same
    values, the same flush-on-read work (reader flushes, NVM flushes
    and fences, every dirty bit read is cleared), the same NVM bytes
    before and after a crash, and the same StorageError for an index
    outside the table."""
    idxs = picks.draw(
        st.lists(st.sampled_from(range(len(entries))), unique=True, min_size=0)
    )
    if stray is not None:
        idxs.insert(picks.draw(st.integers(0, len(idxs))), stray)
    outcomes = {}
    for name, read in _READERS.items():
        hsit = _planted(entries)
        before = (hsit.nvm.flushes, hsit.nvm.fences)
        thread = VThread(0) if timed else None
        try:
            got = read(hsit, idxs, thread)
        except StorageError:
            outcomes[name] = "out of range"
            continue
        for idx in idxs:
            assert not ptr.is_dirty(hsit.location_word(idx))
        outcomes[name] = (
            got,
            hsit.reader_flushes,
            hsit.nvm.flushes - before[0],
            hsit.nvm.fences - before[1],
            _nvm_bytes(hsit.nvm),
        )
    assert stray is None or outcomes["gather"] == "out of range"
    assert all(out == outcomes["gather"] for out in outcomes.values()), outcomes
    if stray is None:
        _got, reader_flushes, flushes, fences, _bytes = outcomes["gather"]
        dirty = sum(entries[i][1] != "clean" for i in idxs)
        assert reader_flushes == flushes == fences == dirty



class TestEntryLoadTiming:
    def _hsit(self, n=40):
        hsit = _planted([(ptr.encode_vs(0, i, 8 * i), "clean", i) for i in range(n)])
        hsit.nvm.bytes_read = hsit.nvm.bytes_written = 0  # set-up read the allocator header
        return hsit

    def test_lone_entry_costs_exactly_one_16_byte_load(self):
        hsit, t = self._hsit(), VThread(0)
        twin, twin_t = self._hsit(), VThread(0)
        hsit.read_entry(7, t)
        twin.nvm.load(twin_t, twin._addr(7), ENTRY_BYTES)
        assert repr(t.now) == repr(twin_t.now)
        assert hsit.nvm.bytes_read == twin.nvm.bytes_read == ENTRY_BYTES

    @pytest.mark.parametrize("n", [1, LOADS_IN_FLIGHT, LOADS_IN_FLIGHT + 1, 37])
    def test_gather_costs_one_latency_per_wave(self, n):
        hsit, t = self._hsit(), VThread(0)
        got = hsit.read_entries(range(n), t)
        assert [svc_id for _, svc_id in got] == list(range(n))
        spec = hsit.nvm.spec
        waves = -(-n // LOADS_IN_FLIGHT)
        transfer = ENTRY_BYTES / spec.read_bandwidth
        assert waves * spec.read_latency < t.now
        assert t.now <= waves * spec.read_latency + n * transfer + 1e-15
        assert t.cpu_time == 0.0  # waiting on memory, not computing

    def test_untimed_reads_stay_untimed(self):
        hsit = self._hsit()
        hsit.read_entry(3)
        hsit.read_entries(range(20))
        assert hsit.nvm.read_channel.bytes_moved == 0
        assert hsit.nvm.bytes_read == 21 * ENTRY_BYTES

    def test_empty_gather_is_free(self):
        hsit, t = self._hsit(), VThread(0)
        assert hsit.read_entries([], t) == []
        assert (t.now, hsit.nvm.bytes_read) == (0.0, 0)


class TestFusedAndDiscretePublishAgree:
    """``publish_location_word`` takes a fused NVM path when nothing can
    interrupt it and the discrete load / store / flush / fence / store
    otherwise; both load the entry once and must be indistinguishable."""

    WORDS = [
        ptr.encode_pwb(1, 4096),
        ptr.encode_vs(1, 7, 512),
        0,  # a delete
        ptr.encode_vs(0, 2, 64),
    ]

    def _run(self, discrete):
        nvm = NVMDevice()
        hsit = HSIT(nvm, capacity=64)
        if discrete:
            # Active, nothing armed: every label is counted, none fires.
            hsit.crash_point = CrashPoint(nvm.crash)
            hsit.crash_point.start_recording()
        t = VThread(0)
        idxs = [hsit.allocate(t) for _ in range(3)]
        returned = []
        for n, word in enumerate(self.WORDS):
            for idx in idxs:
                if (n + idx) % 2:
                    hsit.set_svc(idx, 10 * n + idx, t)
                returned.append(hsit.publish_location_word(idx, word, t))
        stored = nvm.load(None, hsit._addr(0), 3 * ENTRY_BYTES)
        counters = (
            nvm.bytes_read, nvm.bytes_written, nvm.flushes, nvm.bytes_flushed,
            nvm.fences, nvm.unflushed_lines(),
            nvm.read_channel.bytes_moved, nvm.write_channel.bytes_moved,
        )
        clocks = (repr(t.now), repr(t.cpu_time), repr(t.clock.now))
        nvm.crash()
        durable = nvm.load(None, hsit._addr(0), 3 * ENTRY_BYTES)
        return hsit, (returned, stored, durable, counters, clocks)

    def test_same_clocks_counters_bytes_and_returned_words(self):
        fused_hsit, fused = self._run(discrete=False)
        discrete_hsit, discrete = self._run(discrete=True)
        assert fused_hsit.crash_point.seen == {}
        assert discrete_hsit.crash_point.seen["hsit.publish.done"] == 12
        assert fused == discrete

    def test_returns_old_location_and_svc_word(self):
        _hsit, (returned, *_rest) = self._run(discrete=False)
        # First round: fresh entries, SVC word set on odd (n + idx).
        assert returned[:3] == [(0, 0), (0, 2), (0, 0)]
        # Second round overwrites the first round's pointer.
        assert [old for old, _ in returned[3:6]] == [self.WORDS[0]] * 3


def test_nvm_bytes_accounting(hsit):
    hsit.allocate()
    hsit.allocate()
    assert hsit.nvm_bytes() == 16 + 2 * 16
