import pytest

from repro.storage.dram import DRAMDevice
from repro.storage.specs import DRAM_SPEC

MB = 1024**2


@pytest.fixture
def dram():
    return DRAMDevice(DRAM_SPEC.with_capacity(1 * MB))


def test_timed_access_is_fast(dram, thread):
    dram.read(thread, 1024)
    dram.write(thread, 1024)
    assert thread.now < 1e-6  # DRAM is sub-microsecond


def test_accounting(dram, thread):
    dram.read(thread, 100)
    dram.write(thread, 200)
    assert dram.bytes_read == 100
    assert dram.bytes_written == 200
