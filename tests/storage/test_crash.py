import pytest

from repro.storage.crash import CrashPoint, SimulatedCrash
from repro.storage.dram import DRAMDevice
from repro.storage.media import Media
from repro.storage.nvm import NVMDevice
from repro.storage.specs import DRAM_SPEC
from repro.storage.ssd import SSDDevice


def small_media():
    return Media(NVMDevice(), DRAMDevice(DRAM_SPEC), [SSDDevice()], [], [SSDDevice()])


class Leaf:
    persistent_fields = ("keys",)

    def __init__(self):
        self.keys = []


def test_power_failure_hits_all_components():
    media = small_media()
    addr = media.nvm.alloc(64)
    media.nvm.store(None, addr, b"lost")
    media.dram.allocate(100)
    media.ssds[0].write_raw(0, b"kept")
    leaf = Leaf()
    handle = media.heap.allocate(leaf, 64)
    media.heap.commit(handle)
    leaf.keys.append(b"uncommitted")
    media.power_failure()
    assert media.nvm.load(None, addr, 4) == b"\0\0\0\0"
    assert media.dram.used == 0
    assert media.ssds[0].read_raw(0, 4) == b"kept"
    assert media.heap.get(handle).keys == []
    assert media.nvm.crashes == 1


def test_crash_point_fires_only_when_armed():
    media = small_media()
    point = CrashPoint(media.power_failure)
    point.maybe_crash("after-write")  # unarmed: no-op
    point.arm("after-write")
    with pytest.raises(SimulatedCrash):
        point.maybe_crash("after-write")
    assert point.fired == "after-write"
    assert media.nvm.crashes == 1
    # disarms after firing
    point.maybe_crash("after-write")
    assert media.nvm.crashes == 1


def test_crash_point_ignores_other_labels():
    media = small_media()
    point = CrashPoint(media.power_failure)
    point.arm("b")
    point.maybe_crash("a")
    assert media.nvm.crashes == 0


def test_power_failure_volatile_components_crash_first():
    """DRAM is gone before anything persistent rolls back, and every
    device of the media is hit, mirrors included."""
    media = small_media()
    order = []
    for name, device in [
        ("nvm", media.nvm), ("dram", media.dram), ("ssd", media.ssds[0]),
        ("mirror", media.mirror_ssds[0]), ("heap", media.heap),
    ]:
        device.crash = lambda name=name: order.append(name)
    media.power_failure()
    assert order == ["dram", "nvm", "heap", "ssd", "mirror"]


def test_media_holds_no_engine_after_power_failure():
    """What retried failed flushes was software: it goes with the power."""
    media = small_media()
    media.nvm.attach_retry(object())
    media.power_failure()
    assert media.nvm._retry is None


def test_crash_point_nth_occurrence():
    point = CrashPoint(lambda: None)
    with pytest.raises(ValueError):
        point.arm("loop", occurrence=0)
    point.arm("loop", occurrence=3)
    point.maybe_crash("loop")
    point.maybe_crash("loop")
    with pytest.raises(SimulatedCrash) as err:
        point.maybe_crash("loop")
    assert err.value.label == "loop"


def test_crash_point_recording_counts_labels():
    point = CrashPoint(lambda: None)
    point.start_recording()
    for _ in range(3):
        point.maybe_crash("a")
    point.maybe_crash("b")
    seen = point.stop_recording()
    assert seen == {"a": 3, "b": 1}
    point.maybe_crash("a")  # recording stopped
    assert point.seen == seen


def test_null_crash_point_is_inert():
    from repro.storage.crash import NULL_CRASH_POINT

    NULL_CRASH_POINT.maybe_crash("anything")
    with pytest.raises(RuntimeError):
        NULL_CRASH_POINT.arm("anything")
