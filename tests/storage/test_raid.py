import pytest

from repro.storage.raid import RAID0
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice

MB = 1024**2
STRIPE = 512 * 1024


@pytest.fixture
def members():
    spec = FLASH_SSD_GEN4_SPEC.with_capacity(16 * MB)
    return [SSDDevice(spec, name=f"m{i}") for i in range(4)]


@pytest.fixture
def raid(members):
    return RAID0(members, stripe_size=STRIPE)


def test_requires_members():
    with pytest.raises(ValueError):
        RAID0([])


def test_capacity_is_sum(raid, members):
    assert raid.capacity == sum(m.capacity for m in members)


def test_roundtrip_within_stripe(raid, thread):
    raid.write(thread, 100, b"stripe-data")
    assert raid.read(thread, 100, 11) == b"stripe-data"


def test_roundtrip_across_stripes(raid, thread):
    data = bytes((i % 251 for i in range(2 * STRIPE + 999)))
    raid.write(thread, STRIPE - 500, data)
    assert raid.read(thread, STRIPE - 500, len(data)) == data


def test_striping_distributes_to_members(raid, members, thread):
    raid.write(thread, 0, b"x" * (4 * STRIPE))
    assert all(m.bytes_written == STRIPE for m in members)


def test_parallel_write_faster_than_single(members, thread):
    from repro.sim.vthread import VThread

    raid = RAID0(members, stripe_size=STRIPE)
    raid.write(thread, 0, b"x" * (4 * STRIPE))
    t_raid = thread.now

    single = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(16 * MB))
    t2 = VThread(1)
    single.write(t2, 0, b"x" * (4 * STRIPE))
    assert t_raid < t2.now


def test_out_of_range(raid):
    with pytest.raises(ValueError):
        raid.read(None, raid.capacity, 1)


def test_async_paths(raid):
    done = raid.write_async(0.0, 0, b"y" * STRIPE)
    assert done > 0
    data, rdone = raid.read_async(done, 0, STRIPE)
    assert data == b"y" * STRIPE
    assert rdone > done


def test_aggregate_accounting(raid, thread):
    raid.write(thread, 0, b"z" * 1000)
    raid.read(thread, 0, 1000)
    assert raid.bytes_written == 1000
    assert raid.bytes_read == 1000


def test_scan_time_parallel(raid, members):
    alone = members[0].scan_time(4 * MB)
    together = raid.scan_time(4 * MB)
    assert together < alone


def test_crash_propagates_to_members(thread):
    class CountingSSD(SSDDevice):
        crashes = 0

        def crash(self):
            self.crashes += 1

    spec = FLASH_SSD_GEN4_SPEC.with_capacity(16 * MB)
    members = [CountingSSD(spec, name=f"c{i}") for i in range(4)]
    raid = RAID0(members, stripe_size=STRIPE)
    raid.write(thread, 0, b"w" * (4 * STRIPE))
    raid.crash()
    assert [m.crashes for m in members] == [1, 1, 1, 1]
    # an SSD power failure is harmless to completed writes
    assert raid.read(thread, 0, 4) == b"wwww"


class TestMemberFaults:
    """Per-member fault surfacing."""

    @staticmethod
    def _inject(members, dead=None):
        from repro.faults.injector import FaultConfig, FaultInjector

        inj = FaultInjector(FaultConfig(seed=5))
        for m in members:
            m.attach_injector(inj)
        if dead is not None:
            inj.kill_device(members[dead].name)
        return inj

    def test_member_failure_reports_index(self, raid, members, thread):
        from repro.faults.errors import DeviceDeadError

        raid.write(thread, 0, b"q" * (4 * STRIPE))
        self._inject(members, dead=2)
        with pytest.raises(DeviceDeadError) as err:
            raid.read(thread, 2 * STRIPE, 16)
        assert err.value.raid_member == 2
        with pytest.raises(DeviceDeadError) as werr:
            raid.write(thread, 2 * STRIPE, b"nope")
        assert werr.value.raid_member == 2

    def test_healthy_members_unaffected(self, raid, members, thread):
        raid.write(thread, 0, b"q" * (4 * STRIPE))
        self._inject(members, dead=2)
        assert raid.read(thread, 0, 16) == b"q" * 16  # member 0's stripe
