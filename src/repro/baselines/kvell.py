"""KVell (SOSP '19): a shared-nothing, share-little key-value store.

Design points reproduced from the paper and from Prism's description
of it (§4.1, §7.3):

* the key space is hash-partitioned across worker threads; each worker
  owns an in-memory sorted index and a slab-allocated region of one
  SSD — no synchronization, but hot keys overload single workers;
* no commit log: items live in fixed-size slab slots, updated in
  place; a write is durable when its 4 KB *page* IO completes
  (read-modify-write when the page is not cached);
* every request — even a DRAM cache hit — is enqueued to its worker
  and served in batches (queue depth 64), which is where KVell's
  queuing-amplified tail latency comes from;
* the DRAM page cache is page-granular (4 KB), so caching a 1 KB value
  costs a full page (contrast with Prism's value-granular SVC);
* recovery scans every slab on every SSD.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.interface import KVStore
from repro.index.btree import BTree
from repro.sim.clock import VirtualClock
from repro.sim.resources import FIFOServer
from repro.sim.vthread import VThread
from repro.storage.iouring import IORequest, IOUring
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, DeviceSpec
from repro.storage.ssd import SSDDevice

_SLAB_CLASSES = (128, 256, 512, 1024, 2048, 4096)
_ITEM_HEADER = 6  # key length (2B) + value length (4B)
PAGE_SIZE = 4096  # the unit of slab IO and of the page cache
# Worker threads per SSD, each with its own slab region and IO ring.
WORKERS_PER_SSD = 3
# Worker loop: index lookup, slab math, request management.
WORKER_CPU_COST = 1.2e-6
# Client-side enqueue cost.
INJECTOR_COST = 0.3e-6
# Worker IO batching window (requests arriving within it share a batch).
BATCH_WINDOW = 15e-6
# CPU per candidate when merging per-worker indexes for a scan — KVell
# has no global order, so every worker over-fetches.
SCAN_CANDIDATE_CPU = 0.25e-6


@dataclass
class KVellConfig:
    """Scaled-down version of the paper's KVell setup (Table 1)."""

    num_ssds: int = 2
    ssd_spec: DeviceSpec = field(default_factory=lambda: FLASH_SSD_GEN4_SPEC)
    page_cache_bytes: int = 64 * 1024 * 1024
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.num_ssds < 1:
            raise ValueError("need at least one SSD")


class _Worker:
    """One shard: an index, a slab region, a request queue, an IO ring."""

    def __init__(self, wid: int, ssd: SSDDevice, base: int, size: int, queue_depth: int):
        self.wid = wid
        self.ssd = ssd
        self.base = base
        self.size = size
        self.server = FIFOServer(name=f"kvell-worker-{wid}")
        self.ring = IOUring(ssd, queue_depth)
        self.index: BTree = BTree(order=64)  # key -> (class, page_no, slot)
        self._pages_allocated = 0
        self._free_slots: Dict[int, List[Tuple[int, int]]] = {c: [] for c in _SLAB_CLASSES}
        self._open_pages: Dict[int, Tuple[int, int]] = {}  # class -> (page_no, next_slot)
        # page cache: page_no -> None (LRU order); bytes live on the SSD
        self.cache: "OrderedDict[int, None]" = OrderedDict()
        self.cache_capacity_pages = 0  # set by the store
        # current write batch: page_no -> completion time
        self._batch_close = -1.0
        self._batch_pages: Dict[int, float] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # slab layout
    # ------------------------------------------------------------------
    @staticmethod
    def class_for(key: bytes, value: bytes) -> int:
        need = _ITEM_HEADER + len(key) + len(value)
        for cls in _SLAB_CLASSES:
            if need <= cls:
                return cls
        raise ValueError(f"item of {need}B exceeds the largest slab class")

    def _page_offset(self, page_no: int) -> int:
        offset = self.base + page_no * PAGE_SIZE
        if offset + PAGE_SIZE > self.base + self.size:
            raise MemoryError(f"kvell worker {self.wid} slab region exhausted")
        return offset

    def _allocate_slot(self, cls: int) -> Tuple[int, int]:
        free = self._free_slots[cls]
        if free:
            return free.pop()
        open_page = self._open_pages.get(cls)
        per_page = PAGE_SIZE // cls
        if open_page is None or open_page[1] >= per_page:
            page_no = self._pages_allocated
            self._pages_allocated += 1
            self._page_offset(page_no)  # bounds check
            open_page = (page_no, 0)
        page_no, slot = open_page
        self._open_pages[cls] = (page_no, slot + 1)
        return page_no, slot

    # ------------------------------------------------------------------
    # page IO with batching
    # ------------------------------------------------------------------
    def _enqueue(self, thread: VThread) -> None:
        """Serve the request through the worker's CPU queue."""
        _, end = self.server.service(thread.now, WORKER_CPU_COST)
        thread.wait_until(end)

    def _touch_cache(self, page_no: int) -> bool:
        if page_no in self.cache:
            self.cache.move_to_end(page_no)
            self.cache_hits += 1
            return True
        self.cache_misses += 1
        return False

    def _insert_cache(self, page_no: int) -> None:
        self.cache[page_no] = None
        while len(self.cache) > self.cache_capacity_pages:
            self.cache.popitem(last=False)

    def _read_page(self, thread: VThread, page_no: int) -> bytes:
        offset = self._page_offset(page_no)
        data = self.ssd.read_raw(offset, PAGE_SIZE)
        if not self._touch_cache(page_no):
            req = IORequest("read", offset, PAGE_SIZE)
            done = self.ring.submit_one(thread.now, req)
            thread.wait_until(done)
            self._insert_cache(page_no)
        return data

    def _commit_page(self, thread: VThread, page_no: int, data: bytes) -> None:
        """Write a page durably; pages dirtied within one batch window
        are written once (this is KVell's batching WAF win)."""
        offset = self._page_offset(page_no)
        self.ssd.write_raw(offset, data)  # functional state, untimed
        self._insert_cache(page_no)
        if thread.now > self._batch_close:
            self._batch_close = thread.now + BATCH_WINDOW
            self._batch_pages = {}
        completion = self._batch_pages.get(page_no)
        if completion is None:
            req = IORequest(
                "write", offset, PAGE_SIZE, data=bytes(data)
            )
            completion = self.ring.submit_one(self._batch_close, req)
            self._batch_pages[page_no] = completion
        thread.wait_until(completion)

    # ------------------------------------------------------------------
    # item packing
    # ------------------------------------------------------------------
    def _pack(self, page: bytearray, cls: int, slot: int, key: bytes, value: bytes) -> None:
        pos = slot * cls
        page[pos : pos + 2] = len(key).to_bytes(2, "little")
        page[pos + 2 : pos + 6] = len(value).to_bytes(4, "little")
        page[pos + 6 : pos + 6 + len(key)] = key
        start = pos + 6 + len(key)
        page[start : start + len(value)] = value

    def _unpack(self, page: bytes, cls: int, slot: int) -> Tuple[bytes, bytes]:
        pos = slot * cls
        klen = int.from_bytes(page[pos : pos + 2], "little")
        vlen = int.from_bytes(page[pos + 2 : pos + 6], "little")
        key = bytes(page[pos + 6 : pos + 6 + klen])
        start = pos + 6 + klen
        return key, bytes(page[start : start + vlen])

    # ------------------------------------------------------------------
    # operations (already routed to this worker)
    # ------------------------------------------------------------------
    def put(self, thread: VThread, key: bytes, value: bytes) -> None:
        self._enqueue(thread)
        cls = self.class_for(key, value)
        existing = self.index.get(key)
        if existing is not None and existing[0] == cls:
            _, page_no, slot = existing
        else:
            if existing is not None:
                self._free_slots[existing[0]].append((existing[1], existing[2]))
            page_no, slot = self._allocate_slot(cls)
            self.index.insert(key, (cls, page_no, slot))
        # read-modify-write when the page is cold
        page = bytearray(self._read_page(thread, page_no))
        self._pack(page, cls, slot, key, value)
        self._commit_page(thread, page_no, bytes(page))

    def get(self, thread: VThread, key: bytes) -> Optional[bytes]:
        self._enqueue(thread)
        entry = self.index.get(key)
        if entry is None:
            return None
        cls, page_no, slot = entry
        page = self._read_page(thread, page_no)
        _, value = self._unpack(page, cls, slot)
        return value

    def delete(self, thread: VThread, key: bytes) -> bool:
        self._enqueue(thread)
        entry = self.index.get(key)
        if entry is None:
            return False
        cls, page_no, slot = entry
        self.index.delete(key)
        self._free_slots[cls].append((page_no, slot))
        page = bytearray(self._read_page(thread, page_no))
        self._pack(page, cls, slot, b"", b"")
        self._commit_page(thread, page_no, bytes(page))
        return True

    def range_entries(self, start: bytes, count: int) -> List[Tuple[bytes, Tuple[int, int, int]]]:
        out = []
        for key, entry in self.index.items_from(start):
            out.append((key, entry))
            if len(out) == count:
                break
        return out

    def used_bytes(self) -> int:
        return self._pages_allocated * PAGE_SIZE


class KVell(KVStore):
    """Hash-sharded store over ``num_ssds * WORKERS_PER_SSD`` workers."""

    def __init__(self, config: Optional[KVellConfig] = None) -> None:
        self.config = config or KVellConfig()
        cfg = self.config
        self.clock = VirtualClock()
        self.ssds = [SSDDevice(cfg.ssd_spec, name=f"ssd{i}") for i in range(cfg.num_ssds)]
        self.workers: List[_Worker] = []
        total_workers = cfg.num_ssds * WORKERS_PER_SSD
        for wid in range(total_workers):
            ssd = self.ssds[wid % cfg.num_ssds]
            per_worker = ssd.capacity // WORKERS_PER_SSD
            base = (wid // cfg.num_ssds) * per_worker
            self.workers.append(_Worker(wid, ssd, base, per_worker, cfg.queue_depth))
        cache_pages = cfg.page_cache_bytes // PAGE_SIZE
        for worker in self.workers:
            worker.cache_capacity_pages = max(1, cache_pages // total_workers)
        self._default_thread = VThread(0, self.clock, name="caller")
        self.bytes_put = 0
        self.puts = 0
        self.gets = 0
        self.scans = 0

    def _thread(self, thread: Optional[VThread]) -> VThread:
        return thread if thread is not None else self._default_thread

    def _route(self, key: bytes) -> _Worker:
        # crc32 rather than hash(): deterministic across processes.
        return self.workers[zlib.crc32(key) % len(self.workers)]

    # ------------------------------------------------------------------
    # KVStore API
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, thread: Optional[VThread] = None) -> None:
        thread = self._thread(thread)
        thread.spend(INJECTOR_COST)
        self._route(key).put(thread, key, value)
        self.bytes_put += len(value)
        self.puts += 1

    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        thread = self._thread(thread)
        thread.spend(INJECTOR_COST)
        self.gets += 1
        return self._route(key).get(thread, key)

    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        thread = self._thread(thread)
        thread.spend(INJECTOR_COST)
        return self._route(key).delete(thread, key)

    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, bytes]]:
        """Merge per-worker sorted indexes, then fetch each item's page."""
        thread = self._thread(thread)
        thread.spend(INJECTOR_COST)
        candidates: List[Tuple[bytes, _Worker, Tuple[int, int, int]]] = []
        for worker in self.workers:
            for key, entry in worker.range_entries(start, count):
                candidates.append((key, worker, entry))
        thread.spend(SCAN_CANDIDATE_CPU * max(len(candidates), 1))
        candidates.sort(key=lambda item: item[0])
        selected = candidates[:count]
        # Group page reads per worker and batch them on its ring; pages
        # shared between items are read once.
        by_worker: Dict[int, List[int]] = {}
        for _key, worker, (_cls, page_no, _slot) in selected:
            pages = by_worker.setdefault(worker.wid, [])
            if page_no not in pages:
                pages.append(page_no)
        pages_data: Dict[Tuple[int, int], bytes] = {}
        done = thread.now
        for wid, pages in by_worker.items():
            worker = self.workers[wid]
            worker._enqueue(thread)
            requests = []
            for page_no in pages:
                offset = worker._page_offset(page_no)
                pages_data[(wid, page_no)] = worker.ssd.read_raw(
                    offset, PAGE_SIZE
                )
                if not worker._touch_cache(page_no):
                    requests.append(
                        IORequest("read", offset, PAGE_SIZE)
                    )
                    worker._insert_cache(page_no)
            for req in requests:
                done = max(done, worker.ring.submit_one(thread.now, req))
        thread.wait_until(done)
        results: List[Tuple[bytes, bytes]] = []
        for key, worker, (cls, page_no, slot) in selected:
            _, value = worker._unpack(pages_data[(worker.wid, page_no)], cls, slot)
            results.append((key, value))
        self.scans += 1
        return results

    def ssd_bytes_written(self) -> int:
        return sum(ssd.bytes_written for ssd in self.ssds)

    def used_bytes(self) -> int:
        return sum(worker.used_bytes() for worker in self.workers)

    def recovery_time(self) -> float:
        """KVell must scan every slab page on every SSD (§7.6)."""
        per_ssd: Dict[int, int] = {}
        for worker in self.workers:
            per_ssd[id(worker.ssd)] = per_ssd.get(id(worker.ssd), 0) + worker.used_bytes()
        times = [
            ssd.scan_time(per_ssd.get(id(ssd), 0)) for ssd in self.ssds
        ]
        return max(times) if times else 0.0

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            {
                "puts": float(self.puts),
                "gets": float(self.gets),
                "cache_hits": float(sum(w.cache_hits for w in self.workers)),
                "cache_misses": float(sum(w.cache_misses for w in self.workers)),
                "max_worker_busy": max(w.server.busy_time for w in self.workers),
                "min_worker_busy": min(w.server.busy_time for w in self.workers),
            }
        )
        return base
