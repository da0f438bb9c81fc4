import pytest

from repro.baselines.lsm.blockstore import BlockStore
from repro.baselines.lsm.wal import WriteAheadLog
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.nvm import NVMDevice
from repro.storage.raid import RAID0
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice

MB = 1024**2


class TestBlockStore:
    def test_alloc_free_reuse(self, ssd):
        store = BlockStore(ssd)
        a = store.alloc(8000)
        store.free(a, 8000)
        b = store.alloc(8000)
        assert b == a  # exact-size bucket reuse

    def test_alloc_validates(self, ssd):
        with pytest.raises(ValueError):
            BlockStore(ssd).alloc(0)

    def test_exhaustion(self, ssd):
        store = BlockStore(ssd, capacity=8192)
        store.alloc(8192)
        with pytest.raises(MemoryError):
            store.alloc(1)

    def test_live_bytes(self, ssd):
        store = BlockStore(ssd)
        a = store.alloc(5000)
        assert store.used_bytes() >= 5000
        store.free(a, 5000)
        assert store.used_bytes() == 0

    def test_io_on_ssd(self, ssd, thread):
        store = BlockStore(ssd)
        offset = store.alloc(4096)
        store.write(thread, offset, b"data")
        assert store.read(thread, offset, 4) == b"data"

    def test_io_on_nvm(self, nvm, thread):
        store = BlockStore(nvm, capacity=1 * MB)
        offset = store.alloc(4096)
        store.write(thread, offset, b"nvmdata")
        assert store.read(thread, offset, 7) == b"nvmdata"
        assert store.is_nvm

    def test_nvm_writes_durable(self, nvm):
        store = BlockStore(nvm, capacity=1 * MB)
        offset = store.alloc(4096)
        store.write(None, offset, b"keep")
        nvm.crash()
        assert store.read(None, offset, 4) == b"keep"

    def test_io_on_raid(self, thread):
        spec = FLASH_SSD_GEN4_SPEC.with_capacity(16 * MB)
        raid = RAID0([SSDDevice(spec), SSDDevice(spec)])
        store = BlockStore(raid)
        offset = store.alloc(2 * MB)
        payload = bytes(range(256)) * 8192
        store.write(thread, offset, payload)
        assert store.read(thread, offset, len(payload)) == payload

    def test_async_paths(self, ssd):
        store = BlockStore(ssd)
        offset = store.alloc(4096)
        done = store.write_async(0.0, offset, b"async")
        data, rdone = store.read_async(done, offset, 5)
        assert data == b"async"
        assert rdone > done


class TestWAL:
    def test_append_is_durable_and_counted(self, ssd, thread):
        wal = WriteAheadLog(BlockStore(ssd), capacity=1 * MB)
        wal.append(b"key", b"value", thread)
        assert wal.appends == 1
        assert wal.bytes_logged == 6 + 3 + 5
        assert thread.now > 0

    def test_tombstone_record(self, ssd, thread):
        wal = WriteAheadLog(BlockStore(ssd), capacity=1 * MB)
        wal.append(b"key", None, thread)
        assert wal.bytes_logged == 6 + 3

    def test_group_commit_shares_window(self, ssd):
        clock = VirtualClock()
        wal = WriteAheadLog(BlockStore(ssd), capacity=1 * MB)
        a, b = VThread(0, clock), VThread(1, clock)
        b.now = 1e-6  # arrives within the group window
        wal.append(b"k1", b"v1", a)
        wal.append(b"k2", b"v2", b)
        # both commit at (nearly) the same group-commit completion
        assert abs(a.now - b.now) < 5e-6

    def test_wraps_at_capacity(self, ssd, thread):
        wal = WriteAheadLog(BlockStore(ssd), capacity=4096)
        for i in range(100):
            wal.append(b"key%04d" % i, b"v" * 100, thread)
        assert wal.head <= 4096

    def test_truncate(self, ssd, thread):
        wal = WriteAheadLog(BlockStore(ssd), capacity=1 * MB)
        wal.append(b"k", b"v", thread)
        wal.truncate()
        assert wal.head == 0
