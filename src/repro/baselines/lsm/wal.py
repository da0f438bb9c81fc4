"""Write-ahead log with group commit.

Every LSM write appends ``[klen][vlen][key][value]`` and must reach
stable media before the write is acknowledged.  Appends arriving
within a group-commit window share one device IO — the classic
latency/bandwidth compromise of log-structured durability (and the
overhead Prism's PWB eliminates: §4.3 "unlike traditional logging
techniques").
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.lsm.blockstore import BlockStore
from repro.sim.vthread import VThread

_RECORD_HEADER = 6
# Appends within this window share a single fsync (group commit).
GROUP_COMMIT_WINDOW = 8e-6


class WriteAheadLog:
    """An append-only log segment on a block store."""

    def __init__(self, store: BlockStore, capacity: int) -> None:
        self.store = store
        self.capacity = capacity
        self.base = store.alloc(capacity)
        self.head = 0
        self.appends = 0
        self.bytes_logged = 0
        # current group commit: (window close, completion time)
        self._group_close = -1.0
        self._group_done = 0.0
        self._group_bytes = 0

    def append(self, key: bytes, value: Optional[bytes], thread: VThread) -> None:
        """Durably log one write; returns when the record is stable."""
        vbytes = value or b""
        record = (
            len(key).to_bytes(2, "little")
            + len(vbytes).to_bytes(4, "little")
            + key
            + vbytes
        )
        if self.head + len(record) > self.capacity:
            # Log wraps after a checkpoint; the memtable flush that
            # precedes truncation is managed by the engine.
            self.head = 0
        offset = self.base + self.head
        self.head += len(record)
        self.appends += 1
        self.bytes_logged += len(record)
        # Group commit: writes inside one window ride the same flush.
        if thread.now > self._group_close:
            self._group_close = thread.now + GROUP_COMMIT_WINDOW
            self._group_bytes = len(record)
            self._group_done = self.store.write_async(
                self._group_close, offset, record
            )
        else:
            self._group_bytes += len(record)
            done = self.store.write_async(self._group_close, offset, record)
            self._group_done = max(self._group_done, done)
        thread.wait_until(self._group_done)

    def truncate(self) -> None:
        """Drop logged records after a successful memtable flush."""
        self.head = 0
