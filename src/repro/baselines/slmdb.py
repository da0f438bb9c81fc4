"""SLM-DB (FAST '19): single-level LSM with a persistent B+-tree index.

Design points reproduced:

* the memtable lives on NVM, so writes need no WAL — each insert
  persists its record with store+flush;
* flushed data lands directly in a *single* on-flash level of SSTables
  (which may overlap); a global persistent B+-tree on NVM maps every
  key to its exact SSTable block, so point reads never search levels;
* *selective* compaction merges only SSTables whose live-key ratio
  dropped below a threshold (garbage from overwrites), instead of
  rewriting whole levels;
* like the open-source release, the store is single-threaded — the
  harness drives it with one thread (§7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.baselines.interface import KVStore
from repro.baselines.lsm.blockstore import BlockStore
from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable, _unpack_block
from repro.index.pactree import PACTree
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.nvm import NVMDevice, PersistentHeap
from repro.storage.raid import RAID0
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, NVM_SPEC, DeviceSpec
from repro.storage.ssd import SSDDevice

MB = 1024**2
_BLOCK_BITS = 20  # slot encoding: table_id << 20 | block_no

# Selective compaction: merge tables whose live ratio fell below this.
LIVE_RATIO_THRESHOLD = 0.5
COMPACTION_CPU_PER_BYTE = 2e-9
# A persistent NVM skiplist insert is expensive: node allocation,
# several ordered store+clwb+sfence sequences, and B+-tree bookkeeping
# (FAST '19 reports write paths of this magnitude).
WRITE_CPU = 6.0e-6
READ_CPU = 0.5e-6
# read() syscall + copy for a page-cache hit (no O_DIRECT).
PAGE_CACHE_HIT_COST = 1.5e-6
# Inserting one key into the persistent B+-tree during a flush: NVM
# node allocation, logging, and splits make this the dominant flush
# cost (the FAST '19 write path is tens of microseconds).
INDEX_INSERT_COST = 40e-6


@dataclass
class SLMDBConfig:
    num_ssds: int = 2
    ssd_spec: DeviceSpec = field(default_factory=lambda: FLASH_SSD_GEN4_SPEC)
    nvm_spec: DeviceSpec = field(default_factory=lambda: NVM_SPEC)
    memtable_bytes: int = 1 * MB  # the paper gives SLM-DB 64 MB; scaled
    sstable_target_bytes: int = 2 * MB
    max_compaction_lag: float = 2e-3
    # SLM-DB does not support O_DIRECT, so it leans on the OS page
    # cache and "consumes more memory" than the other stores (§7.4).
    os_page_cache_bytes: int = 10 * MB


class SLMDB(KVStore):
    """Single-Level Merge DB."""

    def __init__(self, config: Optional[SLMDBConfig] = None) -> None:
        self.config = config or SLMDBConfig()
        cfg = self.config
        self.clock = VirtualClock()
        self.nvm = NVMDevice(cfg.nvm_spec)
        self.ssds = [SSDDevice(cfg.ssd_spec, name=f"ssd{i}") for i in range(cfg.num_ssds)]
        raid = RAID0(self.ssds) if len(self.ssds) > 1 else self.ssds[0]
        self.table_store = BlockStore(raid)
        self.memtable = MemTable()
        # key -> table_id << 20 | block_no
        self.index = PACTree(PersistentHeap(self.nvm))
        self.tables: Dict[int, SSTable] = {}
        from collections import OrderedDict

        self.page_cache: "OrderedDict" = OrderedDict()
        self._cache_blocks = cfg.os_page_cache_bytes // 4096
        self._bg = VThread(-1, self.clock, name="slmdb-bg", background=True)
        self._default_thread = VThread(0, self.clock, name="caller")
        self.bytes_put = 0
        self.puts = 0
        self.gets = 0
        self.scans = 0
        self.flushes = 0
        self.compactions = 0
        self.stall_time = 0.0

    def _thread(self, thread: Optional[VThread]) -> VThread:
        return thread if thread is not None else self._default_thread

    @staticmethod
    def _slot(table_id: int, block_no: int) -> int:
        return (table_id << _BLOCK_BITS) | block_no

    @staticmethod
    def _unslot(slot: int) -> Tuple[int, int]:
        return slot >> _BLOCK_BITS, slot & ((1 << _BLOCK_BITS) - 1)

    # ------------------------------------------------------------------
    # write path: persistent memtable, no WAL
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, thread: Optional[VThread] = None) -> None:
        thread = self._thread(thread)
        self._throttle(thread)
        thread.spend(WRITE_CPU)
        # The memtable is NVM-resident: persist the record itself.
        self.nvm.charge_write(thread, len(key) + len(value) + 16)
        self.memtable.insert(key, value)
        self.bytes_put += len(value)
        self.puts += 1
        if self.memtable.approximate_size >= self.config.memtable_bytes:
            self._flush_memtable(thread.now, thread)

    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        thread = self._thread(thread)
        thread.spend(WRITE_CPU)
        self.nvm.charge_write(thread, len(key) + 16)
        existed = self.get(key, thread) is not None
        self.memtable.insert(key, None)
        if self.memtable.approximate_size >= self.config.memtable_bytes:
            self._flush_memtable(thread.now, thread)
        return existed

    def _throttle(self, thread: VThread) -> None:
        debt = self._bg.now - thread.now
        if debt > self.config.max_compaction_lag:
            stall_until = self._bg.now - self.config.max_compaction_lag
            self.stall_time += stall_until - thread.now
            thread.wait_until(stall_until)

    # ------------------------------------------------------------------
    # flush: memtable -> single-level SSTable + B+-tree index updates
    # ------------------------------------------------------------------
    def _flush_memtable(self, at: float, blocking: Optional[VThread] = None) -> None:
        """Flush the memtable to a single-level SSTable.

        SLM-DB is single-threaded: when ``blocking`` is given, the
        flush (SSTable build + per-key B+-tree inserts) runs on the
        caller — the stall the paper's Table 4 shows as SLM-DB's
        millisecond-scale p99 writes."""
        if self._bg.now < at:
            self._bg.now = at
        entries = list(self.memtable.items())
        self.memtable = MemTable()
        live = [(k, v) for k, v in entries if v is not None]
        dead = [k for k, v in entries if v is None]
        if live:
            if blocking is not None:
                table, _ = SSTable.build(self.table_store, live, thread=blocking)
                self._bg.now = max(self._bg.now, blocking.now)
            else:
                table, done = SSTable.build(self.table_store, live, at=self._bg.now)
                self._bg.wait_until(done)
            self.tables[table.table_id] = table
            self._index_table(table, live, blocking)
            self.flushes += 1
        for key in dead:
            old = self.index.lookup(key)
            if old is not None:
                self.index.delete(key, self._bg)
                self._decrement_live(old)
        self._selective_compaction()

    def _index_table(
        self,
        table: SSTable,
        entries: List[Tuple[bytes, Optional[bytes]]],
        blocking: Optional[VThread] = None,
    ) -> None:
        """Point the global B+-tree at each key's block."""
        worker = blocking if blocking is not None else self._bg
        block_no = 0
        # Recompute block boundaries the same way the builder did.
        from repro.baselines.lsm.sstable import BLOCK_SIZE, _pack_record

        used = 0
        for key, value in entries:
            rec = len(_pack_record(key, value))
            if used and used + rec > BLOCK_SIZE:
                block_no += 1
                used = 0
            used += rec
            old = self.index.lookup(key)
            worker.spend(INDEX_INSERT_COST)
            self.index.insert(key, self._slot(table.table_id, block_no), worker)
            if old is not None:
                self._decrement_live(old)
        if blocking is not None:
            self._bg.now = max(self._bg.now, blocking.now)

    def _decrement_live(self, slot: int) -> None:
        table_id, _ = self._unslot(slot)
        table = self.tables.get(table_id)
        if table is not None:
            table.live_entries -= 1

    # ------------------------------------------------------------------
    # selective compaction
    # ------------------------------------------------------------------
    def _selective_compaction(self) -> None:
        victims = [
            t
            for t in self.tables.values()
            if t.entry_count
            and t.live_entries / t.entry_count < LIVE_RATIO_THRESHOLD
        ]
        for victim in victims:
            self._compact_table(victim)

    def _compact_table(self, victim: SSTable) -> None:
        _, done = self.table_store.read_async(self._bg.now, victim.offset, victim.size)
        self._bg.wait_until(done)
        self._bg.spend(victim.size * COMPACTION_CPU_PER_BYTE)
        survivors: List[Tuple[bytes, Optional[bytes]]] = []
        for key, value in victim.all_items():
            slot = self.index.lookup(key)
            if slot is None:
                continue
            table_id, _ = self._unslot(slot)
            if table_id == victim.table_id and value is not None:
                survivors.append((key, value))
        del self.tables[victim.table_id]
        victim.release()
        if survivors:
            table, done = SSTable.build(self.table_store, survivors, at=self._bg.now)
            self._bg.wait_until(done)
            self.tables[table.table_id] = table
            table.live_entries = 0  # _index_table re-raises it
            self._index_table_compacted(table, survivors)
        self.compactions += 1

    def _index_table_compacted(
        self, table: SSTable, entries: List[Tuple[bytes, Optional[bytes]]]
    ) -> None:
        from repro.baselines.lsm.sstable import BLOCK_SIZE, _pack_record

        block_no = 0
        used = 0
        live = 0
        for key, value in entries:
            rec = len(_pack_record(key, value))
            if used and used + rec > BLOCK_SIZE:
                block_no += 1
                used = 0
            used += rec
            self.index.insert(key, self._slot(table.table_id, block_no), self._bg)
            live += 1
        table.live_entries = live

    # ------------------------------------------------------------------
    # reads: memtable, then a single index lookup + one block read
    # ------------------------------------------------------------------
    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        thread = self._thread(thread)
        thread.spend(READ_CPU)
        self.gets += 1
        found, value = self.memtable.get(key)
        if found:
            return value
        slot = self.index.lookup(key, thread)
        if slot is None:
            return None
        table_id, block_no = self._unslot(slot)
        table = self.tables.get(table_id)
        if table is None:
            return None
        thread.spend(PAGE_CACHE_HIT_COST)
        block = table.read_block(block_no, thread, self.page_cache)
        self._trim_page_cache()
        for k, v in _unpack_block(block):
            if k == key:
                return v
        return None

    def _trim_page_cache(self) -> None:
        while len(self.page_cache) > self._cache_blocks:
            self.page_cache.popitem(last=False)

    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, bytes]]:
        """Ordered walk of the B+-tree; values scattered across tables."""
        thread = self._thread(thread)
        thread.spend(READ_CPU)
        self.scans += 1
        # Merge memtable entries with indexed entries.
        indexed = self.index.scan(start, count * 2, thread)
        merged: Dict[bytes, Optional[int]] = {k: s for k, s in indexed}
        mem: Dict[bytes, Optional[bytes]] = {}
        for k, v in self.memtable.items_from(start):
            mem[k] = v
            if len(mem) >= count * 2:
                break
        keys = sorted(set(merged) | set(mem))
        out: List[Tuple[bytes, bytes]] = []
        block_memo: Dict[Tuple[int, int], bytes] = {}
        for key in keys:
            if len(out) >= count:
                break
            if key in mem:
                if mem[key] is not None:
                    out.append((key, mem[key]))
                continue
            slot = merged[key]
            table_id, block_no = self._unslot(slot)
            table = self.tables.get(table_id)
            if table is None:
                continue
            memo_key = (table_id, block_no)
            block = block_memo.get(memo_key)
            if block is None:
                thread.spend(PAGE_CACHE_HIT_COST)
                block = table.read_block(block_no, thread, self.page_cache)
                self._trim_page_cache()
                block_memo[memo_key] = block
            for k, v in _unpack_block(block):
                if k == key and v is not None:
                    out.append((key, v))
                    break
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self, thread: Optional[VThread] = None) -> None:
        if len(self.memtable):
            self._flush_memtable(self.clock.now, thread)

    def ssd_bytes_written(self) -> int:
        return sum(ssd.bytes_written for ssd in self.ssds)

    def recovery_time(self) -> float:
        """Memtable and index are already persistent: nothing to replay."""
        return 0.0

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            {
                "puts": float(self.puts),
                "gets": float(self.gets),
                "flushes": float(self.flushes),
                "compactions": float(self.compactions),
                "tables": float(len(self.tables)),
                "stall_time": self.stall_time,
            }
        )
        return base
