"""MatrixKV (ATC '20): LSM-tree with an NVM-resident L0 matrix container.

Flushed memtables become *rows* of a matrix container on NVM instead
of L0 SSTables on flash; compaction into L1 proceeds in fine-grained
*columns* (key sub-ranges drained across all rows), so each compaction
event is small — reducing the write stalls that plague stock LSM
trees.  Reads still walk memtable → rows (newest first) → levels,
which is the traversal overhead Prism's evaluation highlights (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.baselines.lsm.blockstore import BlockStore
from repro.baselines.lsm.lsm import (
    BLOCK_MISS_OVERHEAD,
    BLOCK_PARSE_COST,
    COMPACTION_CPU_PER_BYTE,
    READ_CPU,
    READAHEAD_BLOCKS,
    LSMConfig,
    LSMStore,
    MB,
)
from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable
from repro.baselines.lsm.wal import WriteAheadLog
from repro.sim.vthread import VThread
from repro.storage.nvm import NVMDevice
from repro.storage.raid import RAID0
from repro.storage.specs import NVM_SPEC, DeviceSpec
from repro.storage.ssd import SSDDevice

# Fraction of the container one column compaction drains.
COLUMN_FRACTION = 0.25


@dataclass
class MatrixKVConfig(LSMConfig):
    nvm_spec: DeviceSpec = field(default_factory=lambda: NVM_SPEC)
    # Matrix container budget on NVM (the paper gives MatrixKV 8 GB;
    # scaled down with everything else).
    container_bytes: int = 8 * MB


class MatrixKV(LSMStore):
    """LSM-tree with NVM L0 matrix container and column compaction."""

    def __init__(self, config: Optional[MatrixKVConfig] = None) -> None:
        super().__init__(config or MatrixKVConfig())
        self.rows: List[MemTable] = []  # newest first
        self.container_bytes_used = 0
        self.column_compactions = 0

    def _make_stores(self) -> None:
        cfg = self.config
        self.nvm = NVMDevice(cfg.nvm_spec)
        self.ssds = [SSDDevice(cfg.ssd_spec, name=f"ssd{i}") for i in range(cfg.num_ssds)]
        raid = RAID0(self.ssds) if len(self.ssds) > 1 else self.ssds[0]
        self.table_store = BlockStore(raid)
        # WAL rides on NVM as well: cheap durable commits.
        self.wal = WriteAheadLog(BlockStore(self.nvm), cfg.wal_capacity)

    # ------------------------------------------------------------------
    # flush: memtable -> matrix row on NVM (no flash IO)
    # ------------------------------------------------------------------
    def _rotate_memtable(self, at: float) -> None:
        if self._bg.now < at:
            self._bg.now = at
        row = self.memtable
        self.memtable = MemTable()
        # Copy the memtable into the container (sequential NVM write).
        done = self.nvm.charge_write_async(self._bg.now, row.approximate_size)
        self._bg.wait_until(done)
        self.rows.insert(0, row)
        self.container_bytes_used += row.approximate_size
        self.flushes += 1
        self.wal.truncate()
        while self.container_bytes_used > self.config.container_bytes:
            self._column_compaction()
        self._maybe_compact()

    # ------------------------------------------------------------------
    # column compaction: drain one key column across all rows into L1
    # ------------------------------------------------------------------
    def _column_boundary(self) -> Optional[bytes]:
        """End key of the column: the lowest ``COLUMN_FRACTION`` of the
        container's key space (by sorted key volume)."""
        keys: List[bytes] = []
        for row in self.rows:
            keys.extend(k for k, _ in row.items())
        if not keys:
            return None
        keys.sort()
        cut = max(1, int(len(keys) * COLUMN_FRACTION))
        if cut >= len(keys):
            return None  # drain everything
        boundary = keys[cut]
        if boundary == keys[0]:
            # The column would be empty (the same hot key fills the
            # cut across rows): widen to the next distinct key, or
            # drain everything if there is none.
            for key in keys[cut:]:
                if key > keys[0]:
                    return key
            return None
        return boundary

    def _column_compaction(self) -> None:
        boundary = self._column_boundary()
        drained: List[List[Tuple[bytes, Optional[bytes]]]] = []
        drained_bytes = 0
        for row in self.rows:
            before = row.approximate_size
            part = row.extract_range(b"", boundary)
            drained_bytes += before - row.approximate_size
            if part:
                drained.append(part)
        self.rows = [row for row in self.rows if len(row)]
        self.container_bytes_used = sum(r.approximate_size for r in self.rows)
        if not drained:
            return
        # Reading the column out of NVM.
        done = self.nvm.charge_read_async(self._bg.now, drained_bytes)
        self._bg.wait_until(done)
        merged = self._merge(drained, drop_tombstones=False)
        lo, hi = merged[0][0], merged[-1][0]
        self._ensure_level(1)
        lower = [t for t in self.levels[1] if t.overlaps(lo, hi)]
        runs = [merged]
        read_done = self._bg.now
        total_in = drained_bytes
        for table in lower:
            _, done = self.table_store.read_async(self._bg.now, table.offset, table.size)
            read_done = max(read_done, done)
            runs.append(table.all_items())
            total_in += table.size
        self._bg.wait_until(read_done)
        self._bg.spend(total_in * COMPACTION_CPU_PER_BYTE)
        out = self._merge(runs, drop_tombstones=len(self.levels) <= 2)
        write_done = self._bg.now
        new_tables: List[SSTable] = []
        chunk: List[Tuple[bytes, Optional[bytes]]] = []
        chunk_bytes = 0
        for key, value in out:
            chunk.append((key, value))
            chunk_bytes += len(key) + (len(value) if value else 0) + 6
            if chunk_bytes >= self.config.sstable_target_bytes:
                table, done = SSTable.build(self.table_store, chunk, at=self._bg.now)
                write_done = max(write_done, done)
                new_tables.append(table)
                chunk, chunk_bytes = [], 0
        if chunk:
            table, done = SSTable.build(self.table_store, chunk, at=self._bg.now)
            write_done = max(write_done, done)
            new_tables.append(table)
        self._bg.wait_until(write_done)
        lower_ids = {t.table_id for t in lower}
        kept = [t for t in self.levels[1] if t.table_id not in lower_ids]
        self.levels[1] = sorted(kept + new_tables, key=lambda t: t.min_key)
        for table in lower:
            table.release()
            self._evict_table_blocks(table)
        self.compactions += 1
        self.column_compactions += 1
        self.compaction_bytes += total_in

    # ------------------------------------------------------------------
    # reads consult the matrix rows between memtable and L1
    # ------------------------------------------------------------------
    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        thread = self._thread(thread)
        thread.spend(READ_CPU)
        self.gets += 1
        found, value = self.memtable.get(key)
        if found:
            return value
        for imm in self.immutables:
            found, value = imm.get(key)
            if found:
                return value
        for row in self.rows:
            found, value = row.get(key)
            # Row probes touch NVM.
            self.nvm.charge_read(thread, 64)
            if found:
                return value
        self._cache_gate(thread)
        miss = BLOCK_MISS_OVERHEAD
        parse = BLOCK_PARSE_COST
        for level in range(1, len(self.levels)):
            for table in self.levels[level]:
                if table.covers(key):
                    found, value = table.get(key, thread, self.block_cache, miss, parse)
                    if found:
                        self._trim_cache()
                        return value
                    break
        self._trim_cache()
        return None

    def _sources(
        self, start: bytes, thread: VThread
    ) -> List[Iterator[Tuple[bytes, Optional[bytes]]]]:
        sources = [self.memtable.items_from(start)]
        for imm in self.immutables:
            sources.append(imm.items_from(start))
        for row in self.rows:
            sources.append(row.items_from(start))
        miss = BLOCK_MISS_OVERHEAD
        ra = READAHEAD_BLOCKS
        for level in range(1, len(self.levels)):
            tables = self.levels[level]

            def _level_iter(tabs: List[SSTable]) -> Iterator[Tuple[bytes, Optional[bytes]]]:
                for table in tabs:
                    if table.max_key < start:
                        continue
                    yield from table.items_from(
                        start, thread, self.block_cache, miss, ra
                    )

            sources.append(_level_iter(tables))
        return sources

    def flush(self, thread: Optional[VThread] = None) -> None:
        if len(self.memtable):
            self._rotate_memtable(self.clock.now)
        while self.rows:
            self._column_compaction()

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            {
                "column_compactions": float(self.column_compactions),
                "container_bytes": float(self.container_bytes_used),
                "nvm_bytes_written": float(self.nvm.bytes_written),
            }
        )
        return base
