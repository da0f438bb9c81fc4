import pytest

from repro.core.epoch import GRACE_EPOCHS, EpochManager


@pytest.fixture
def mgr():
    return EpochManager()


def test_advance_with_no_threads(mgr):
    assert mgr.try_advance()
    assert mgr.global_epoch == 1


def test_pinned_thread_blocks_advance(mgr):
    mgr.enter(1)
    mgr.try_advance()  # pinned at epoch 0... first advance may pass
    mgr.enter(2)
    first = mgr.global_epoch
    # thread 1 still pinned at an older epoch now
    mgr.exit(2)
    assert mgr.global_epoch == first
    advanced = mgr.try_advance()
    if mgr._pinned[1] != -1 and mgr._pinned[1] < mgr.global_epoch:
        assert not advanced


def test_quiescent_threads_allow_advance(mgr):
    for tid in (1, 2, 3):
        mgr.enter(tid)
        mgr.exit(tid)
    assert mgr.try_advance()


def test_stale_quiescent_thread_blocks(mgr):
    mgr.enter(1)
    mgr.exit(1)
    mgr.try_advance()
    # thread 1 has not been seen in the new epoch
    assert not mgr.try_advance()
    mgr.enter(1)
    mgr.exit(1)
    assert mgr.try_advance()


def test_retire_runs_after_grace(mgr):
    ran = []
    mgr.retire(lambda: ran.append(1))
    for _ in range(GRACE_EPOCHS):
        assert mgr.try_advance()
        # not before the full grace period
    assert ran == [1]


def test_retire_not_early(mgr):
    ran = []
    mgr.retire(lambda: ran.append(1))
    mgr.try_advance()
    assert ran == []


def test_exit_without_enter_raises(mgr):
    with pytest.raises(KeyError):
        mgr.exit(99)


def test_drain_forces_everything(mgr):
    ran = []
    mgr.retire(lambda: ran.append(1))
    mgr.retire(lambda: ran.append(2))
    mgr.drain()
    assert ran == [1, 2]
    assert mgr.pending == 0


def test_reclaimed_counter(mgr):
    mgr.retire(lambda: None)
    mgr.drain()
    assert mgr.reclaimed == 1


def test_crash_drops_retirements_and_pins():
    """Retirements, pins and quiescent marks are DRAM: the manager a
    restart builds has none of them, and the old one is never run."""
    from repro.core.prism import Prism
    from tests.conftest import small_prism_config

    store = Prism(small_prism_config())
    store.put(b"k", b"v")
    store.delete(b"k")  # retires the HSIT entry
    old = store.epoch
    old.enter(1)  # an operation is in flight when the power fails
    assert old.pending == 1
    store.crash()
    store.recover()
    mgr = store.epoch
    assert mgr is not old and mgr.pending == 0
    old.exit(1)  # the interrupted operation unwinds through the dead one
    for _ in range(4):
        mgr.enter(1)
        mgr.exit(1)
        assert mgr.try_advance()  # nothing pinned survives to block it
    assert mgr.reclaimed == 0 and old.reclaimed == 0
