import pytest

from repro.core import pointers as ptr
from repro.core.hsit import HSIT, FreeListError
from repro.storage.base import StorageError
from repro.storage.nvm import NVMDevice


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


def test_nvm_bytes_accounting(hsit):
    hsit.allocate()
    hsit.allocate()
    assert hsit.nvm_bytes() == 16 + 2 * 16
