"""Value Storage: log-structured chunked store on one SSD (§5.1–5.2).

Space is divided into fixed-size chunks (512 KB by default).  A chunk
holds records of ``[backward pointer (8B)][size (4B)][value]`` — the
per-value metadata that makes recovery possible without logs.  With
``checksums`` enabled the header grows a CRC32, verified on every read
path (:mod:`repro.core.record` holds the format).  Each chunk keeps a
validity bitmap *in DRAM* (rebuildable from the HSIT, so it needs no
persistence), tracking which records are up to date.

Writes are batches, asynchronous, through the io_uring ring, and the
storage is a log: one chunk is *open* (the log head) and a batch
continues where the previous one ended, rounded up to a 4 KiB device
page so an append never shares a page with records an earlier IO
acknowledged.  A fresh chunk is taken only when the next record does
not fit, so a batch costs the flash it fills, not a whole chunk (the
paper's ~400 MB reclaim batches span hundreds of chunks; ours are
scaled ~1000x down and mostly smaller than one).  Allocating a free
chunk is the *only* critical section of the write path (§5.2),
modelled by a short virtual lock.  Releasing a chunk TRIMs it.

Garbage collection (§5.2) is greedy: when free chunks run low, the
chunks with the least live data are merged into the log head; validity
bitmaps — not index traversals — decide liveness, so a round reads only
the live records.  Scans and GC read through one planner
(:meth:`ValueStorage.plan_reads`): back-to-back records become one IO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.record import CHECKED_RECORD_HEADER, PLAIN, RECORD_HEADER, frame, parse
from repro.faults.errors import CorruptionError
from repro.sim.resources import VLock
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import NULL_CRASH_POINT
from repro.storage.iouring import IORequest, IOUring
from repro.storage.ssd import PAGE_SIZE, SSDDevice

DEFAULT_CHUNK_SIZE = 512 * 1024


@dataclass(slots=True)
class _Slot:
    """DRAM bookkeeping for one record in a chunk."""

    hsit_idx: int
    offset: int
    size: int  # value bytes (not counting the header)
    valid: bool = True


@dataclass
class _ChunkInfo:
    """DRAM-side chunk state, including the validity bitmap."""

    slots: Dict[int, _Slot] = field(default_factory=dict)  # offset -> slot
    live_records: int = 0
    live_bytes: int = 0
    write_head: int = 0  # next free byte within the chunk


class ValueStorage:
    """One log-structured value store per SSD."""

    # Crash-exploration hook; the owning store swaps in its own point.
    crash_point = NULL_CRASH_POINT

    def __init__(
        self,
        vs_id: int,
        ssd: SSDDevice,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        queue_depth: int = 64,
        checksums: bool = False,
        mirror: Optional[SSDDevice] = None,
    ) -> None:
        if chunk_size < PAGE_SIZE or chunk_size % PAGE_SIZE:
            raise ValueError(
                f"chunk size must be a positive multiple of the "
                f"{PAGE_SIZE}B device page: {chunk_size}"
            )
        if mirror is not None and mirror.capacity < ssd.capacity:
            raise ValueError(
                f"mirror {mirror.name} smaller than primary {ssd.name}"
            )
        self.vs_id = vs_id
        self.ssd = ssd
        self.chunk_size = chunk_size
        self.checksums = checksums
        self.header_size = CHECKED_RECORD_HEADER if checksums else RECORD_HEADER
        # Optional chunk-level redundancy: every chunk write is
        # duplicated onto a different SSD; the repair layer reads the
        # mirror copy when the primary record fails its checksum or the
        # primary device dies.  Off (None) by default.
        self.mirror = mirror
        self.mirror_write_failures = 0
        self.ring = IOUring(ssd, queue_depth)
        self.num_chunks = ssd.capacity // chunk_size
        if self.num_chunks == 0:
            raise ValueError(
                f"ssd {ssd.name} of {ssd.capacity}B cannot hold one "
                f"{chunk_size}B chunk"
            )
        # Free chunks, in allocation order: holes recovery found below
        # the highest live chunk, then the never-used ids
        # [_next_unused, num_chunks), then ids released since, oldest
        # first.  Only touched ids are stored, so DRAM scales with data
        # written, not with device capacity.
        self._holes: deque = deque()
        self._next_unused = 0
        self._released: deque = deque()
        self._chunks: Dict[int, _ChunkInfo] = {}
        # The log head: the chunk the next batch continues in, or None
        # (nothing written yet, the last batch filled its chunk, GC took
        # the head as a victim, or recovery just rebuilt the bitmaps).
        self.open_chunk: Optional[int] = None
        self._alloc_lock = VLock(name=f"vs{vs_id}-chunk-alloc")
        self._open_sync: Dict[int, int] = {}  # tid -> open chunk (ablation)
        self.chunk_writes = 0
        self.gc_runs = 0
        self.gc_moved_bytes = 0

    # ------------------------------------------------------------------
    # space
    # ------------------------------------------------------------------
    @property
    def free_chunks(self) -> int:
        return (
            len(self._holes)
            + self.num_chunks
            - self._next_unused
            + len(self._released)
        )

    @property
    def used_chunks(self) -> int:
        return len(self._chunks)

    def free_fraction(self) -> float:
        return self.free_chunks / self.num_chunks

    def used_bytes(self) -> int:
        return self.used_chunks * self.chunk_size

    def _allocate_chunk(self, thread: Optional[VThread]) -> int:
        """The only critical section of the write path (§5.2)."""
        if thread is not None:
            self._alloc_lock.acquire(thread)
        try:
            if thread is not None:
                thread.spend(50e-9)
            if self._holes:
                chunk_id = self._holes.popleft()
            elif self._next_unused < self.num_chunks:
                chunk_id = self._next_unused
                self._next_unused += 1
            elif self._released:
                chunk_id = self._released.popleft()
            else:
                raise StorageError(f"vs{self.vs_id}: no free chunks")
            self._chunks[chunk_id] = _ChunkInfo()
            return chunk_id
        finally:
            if thread is not None:
                self._alloc_lock.release(thread)

    def record_bytes(self, value_len: int) -> int:
        return self.header_size + value_len

    def _mirror_write(self, at: float, offset: int, data: bytes) -> float:
        """Best-effort duplicate of a chunk write onto the mirror SSD.

        A failing mirror never blocks the primary write path — the
        record merely loses its redundant copy (counted).
        """
        assert self.mirror is not None
        try:
            return self.mirror.write_async(at, offset, data)
        except StorageError:
            self.mirror_write_failures += 1
            return at

    # ------------------------------------------------------------------
    # writes (batches appended at the log head, always async)
    # ------------------------------------------------------------------
    def _append_start(self) -> int:
        """Where the next batch would continue in the open chunk: its
        write head rounded up to a device page.  ``chunk_size`` (no
        room) when no chunk is open."""
        if self.open_chunk is None:
            return self.chunk_size
        head = self._chunks[self.open_chunk].write_head
        return -(-head // PAGE_SIZE) * PAGE_SIZE

    def _split(self, records: Sequence[Tuple[int, bytes]]) -> List[int]:
        """The packing rule, greedy first-fit: how many of ``records``
        continue in the open chunk, then how many go into each fresh
        chunk after it."""
        chunk_size = self.chunk_size
        header = self.header_size
        room = chunk_size - self._append_start()
        counts = [0]
        for entry in records:
            need = header + len(entry[1])
            if need > room:
                if need > chunk_size:
                    raise StorageError(
                        f"value of {len(entry[1])}B exceeds chunk size {chunk_size}"
                    )
                counts.append(0)
                room = chunk_size
            counts[-1] += 1
            room -= need
        return counts

    def fits(self, records: Sequence[Tuple[int, bytes]]) -> bool:
        """Would :meth:`write_records` find room for this batch?"""
        try:
            return len(self._split(records)) - 1 <= self.free_chunks
        except StorageError:
            return False

    def write_records(
        self, at: float, records: Sequence[Tuple[int, bytes]]
    ) -> Tuple[List[Tuple[int, int, int]], float]:
        """Append (hsit_idx, value) records at the log head.

        The batch continues in the open chunk (page-aligned) and takes
        a fresh chunk only when the next record does not fit; the last
        chunk it touches stays open for the next batch.  One write IO
        per chunk touched.  Starts at virtual time ``at`` and returns
        ``(placements, done_time)`` where each placement is
        ``(chunk_id, offset, size)`` in record order.  The caller — a
        background reclaimer or the GC — updates HSIT forward pointers
        only after ``done_time``.

        Failure atomicity: a ``StorageError`` leaves the storage as the
        call found it, so it is safe to retry wholesale.
        """
        counts = self._split(records)
        if len(counts) - 1 > self.free_chunks:
            raise StorageError(f"vs{self.vs_id}: no free chunks")
        reopened = self.open_chunk
        head_before = self._append_start()
        if counts[0]:
            info = self._chunks[reopened]
            before = (info.write_head, info.live_records, info.live_bytes)
        placements: List[Tuple[int, int, int]] = []
        # (chunk_id, start offset within the chunk, bytes to write there)
        pieces: List[Tuple[int, int, bytearray]] = []
        header = self.header_size
        checked = self.checksums
        remaining = iter(records)
        for n, count in enumerate(counts):
            if n:
                chunk_id, offset = self._allocate_chunk(None), 0
            elif count:
                chunk_id, offset = reopened, head_before
            else:
                continue  # nothing fits behind the head (or none is open)
            info = self._chunks[chunk_id]
            slots = info.slots
            buffer = bytearray()
            pieces.append((chunk_id, offset, buffer))
            for hsit_idx, value in islice(remaining, count):
                size = len(value)
                buffer += frame(hsit_idx, value, checked)
                slots[offset] = _Slot(hsit_idx, offset, size)
                info.live_bytes += size
                placements.append((chunk_id, offset, size))
                offset += header + size
            info.live_records += count
            info.write_head = offset
        if pieces:
            # A chunk filled to the brim has no head left to append at.
            self.open_chunk = chunk_id if offset < self.chunk_size else None

        done = at
        self.crash_point.maybe_crash("vs.write.pre")
        try:
            for chunk_id, offset, buffer in pieces:
                data = bytes(buffer)
                req = IORequest(
                    "write", chunk_id * self.chunk_size + offset, len(data), data=data
                )
                self.ring.submit(at, [req])
                done = max(done, req.completion)
                self.chunk_writes += 1
                if self.mirror is not None:
                    done = max(done, self._mirror_write(at, req.offset, data))
        except StorageError:
            # Failure atomicity: no HSIT entry will ever point at these
            # records (the caller aborts), so leaving their slots valid
            # would fabricate valid-but-unreachable records.  Release
            # the chunks this call allocated and take its appends back
            # out of the chunk it reopened — records published there by
            # earlier calls are untouched.  Bytes that did reach the
            # device are orphaned log garbage; TRIM erases them.
            for chunk_id, _, _ in pieces:
                if chunk_id != reopened:
                    self._release_chunk(chunk_id)
            if counts[0]:
                info = self._chunks[reopened]
                for offset in [o for o in info.slots if o >= head_before]:
                    del info.slots[offset]
                info.write_head, info.live_records, info.live_bytes = before
                self._trim(reopened, head_before)
            self.open_chunk = reopened
            raise
        self.crash_point.maybe_crash("vs.write.done")
        return placements, done

    def append_record_sync(
        self, thread: Optional[VThread], hsit_idx: int, value: bytes
    ) -> Tuple[int, int]:
        """Durably write ONE record, blocking the caller (no-PWB ablation).

        Models a store without a write buffer: every write pays SSD
        latency in the critical path and the IO is padded to 4 KB
        pages.  Returns (chunk_id, offset).
        """
        need = self.record_bytes(len(value))
        tid = thread.tid if thread is not None else 0
        chunk_id = self._open_sync.get(tid)
        info = self._chunks.get(chunk_id) if chunk_id is not None else None
        if info is None or info.write_head + need > self.chunk_size:
            chunk_id = self._allocate_chunk(thread)
            info = self._chunks[chunk_id]
            self._open_sync[tid] = chunk_id
        offset = info.write_head
        record = frame(hsit_idx, value, self.checksums)
        io_size = min(-(-need // 4096) * 4096, self.chunk_size - offset)
        req = IORequest(
            "write",
            chunk_id * self.chunk_size + offset,
            io_size,
            data=record + b"\0" * (io_size - need),
        )
        at = thread.now if thread is not None else 0.0
        done = self.ring.submit_one(at, req)
        if self.mirror is not None:
            self._mirror_write(at, chunk_id * self.chunk_size + offset, record)
        if thread is not None:
            thread.wait_until(done)
        info.slots[offset] = _Slot(hsit_idx, offset, len(value))
        info.live_records += 1
        info.live_bytes += len(value)
        info.write_head = offset + need
        return chunk_id, offset

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def plan_reads(self, records: Iterable[Tuple[int, int, Any]]) -> List[IORequest]:
        """One read request per run of records that sit back to back in
        a chunk — the one definition of "adjacent" the read pipeline
        (``Prism._fetch``) and GC share.

        ``records`` are ``(chunk_id, offset, tag)`` in the order to read
        them; a record joins the run before it when it starts, in the
        same chunk, where that run ends.  Each request's context lists
        its records as ``(chunk_id, offset, size, tag)``, sizes from the
        DRAM slots.  Nothing is submitted here.
        """
        header = self.header_size
        chunk_size = self.chunk_size
        chunks = self._chunks
        requests: List[IORequest] = []
        run_chunk = run_end = -1
        for chunk_id, offset, tag in records:
            try:
                size = chunks[chunk_id].slots[offset].size
            except KeyError:
                self._slot(chunk_id, offset)  # raises the typed StorageError
                raise
            if chunk_id == run_chunk and offset == run_end:
                req.size += header + size
                req.context.append((chunk_id, offset, size, tag))
            else:
                req = IORequest(
                    "read",
                    chunk_id * chunk_size + offset,
                    header + size,
                    context=[(chunk_id, offset, size, tag)],
                )
                requests.append(req)
                run_chunk = chunk_id
            run_end = offset + header + size
        return requests

    def parse_reads(
        self,
        requests: Iterable[IORequest],
        heal: Callable[[int, int, Any], Optional[bytes]],
    ) -> List[Tuple[int, int, Any, bytes]]:
        """Cut completed :meth:`plan_reads` requests back into records,
        ``(chunk_id, offset, tag, value)`` in plan order.

        A record that fails its checksum is handed to ``heal(chunk_id,
        offset, tag)`` on the spot, in plan order; it returns the value
        to use, or None to leave the record out.
        """
        header = self.header_size
        checked = self.checksums
        device = self.ssd.name
        out: List[Tuple[int, int, Any, bytes]] = []
        append = out.append
        for req in requests:
            data = req.result
            assert data is not None
            base = req.context[0][1]
            for chunk_id, offset, size, tag in req.context:
                rel = offset - base
                try:
                    # Exactly this record's bytes, not the run's tail.
                    _, value = parse(data[rel : rel + header + size], checked, device)
                except CorruptionError:
                    value = heal(chunk_id, offset, tag)
                    if value is None:
                        continue
                append((chunk_id, offset, tag, value))
        return out

    def read_record_raw(self, chunk_id: int, offset: int) -> Tuple[int, bytes]:
        """Untimed record read (audits, scrub, tests); checksum-verified."""
        slot = self._slot(chunk_id, offset)
        raw = self.ssd.read_raw(
            chunk_id * self.chunk_size + offset, self.header_size + slot.size
        )
        return parse(
            raw, self.checksums, self.ssd.name,
            f"vs{self.vs_id} chunk {chunk_id} off {offset}",
        )

    def read_record_mirror(
        self, chunk_id: int, offset: int, thread: VThread
    ) -> Tuple[int, bytes]:
        """Read a record's mirror copy, checksum-verified: the one reader
        of mirror bytes.  The size comes from the copy's own header, so
        it works before recovery rebuilds the slots; a size that runs
        past the chunk raises :class:`CorruptionError`.  The record is
        one read of the mirror device, and ``thread`` waits for it."""
        mirror = self.mirror
        if mirror is None:
            raise StorageError(f"vs{self.vs_id}: no mirror configured")
        where = f"mirror of vs{self.vs_id} chunk {chunk_id} off {offset}"
        start = chunk_id * self.chunk_size + offset
        size = PLAIN.unpack_from(mirror.read_raw(start, self.header_size))[1]
        if offset + self.header_size + size > self.chunk_size:
            raise CorruptionError(mirror.name, where)
        raw = mirror.read(thread, start, self.header_size + size)
        return parse(raw, self.checksums, mirror.name, where)

    # ------------------------------------------------------------------
    # validity bitmap
    # ------------------------------------------------------------------
    def _slot(self, chunk_id: int, offset: int) -> _Slot:
        try:
            return self._chunks[chunk_id].slots[offset]
        except KeyError:
            if chunk_id not in self._chunks:
                raise StorageError(
                    f"vs{self.vs_id}: chunk {chunk_id} not in use"
                ) from None
            raise StorageError(
                f"vs{self.vs_id}: no record at chunk {chunk_id} offset {offset}"
            ) from None

    def is_valid(self, chunk_id: int, offset: int) -> bool:
        return self._slot(chunk_id, offset).valid

    def holds(self, chunk_id: int, offset: int, hsit_idx: int) -> bool:
        """Is the record at ``(chunk_id, offset)`` valid and ``hsit_idx``'s?

        Such a record is ``hsit_idx``'s HSIT location: every mover
        writes, then publishes, then invalidates the old slot, and
        :meth:`write_records` takes an aborted batch's slots back.  An
        untimed DRAM lookup, so a caller can check a remembered
        location without loading the HSIT entry.
        """
        try:
            slot = self._chunks[chunk_id].slots[offset]
        except KeyError:
            return False
        return slot.valid and slot.hsit_idx == hsit_idx

    def invalidate(self, chunk_id: int, offset: int) -> None:
        """Clear a record's validity bit (its value moved or died)."""
        info = self._chunks.get(chunk_id)
        if info is None:
            return  # chunk already reclaimed
        slot = info.slots.get(offset)
        if slot is None or not slot.valid:
            return
        slot.valid = False
        info.live_records -= 1
        info.live_bytes -= slot.size
        if info.live_records == 0:
            self._release_chunk(chunk_id)

    def _release_chunk(self, chunk_id: int) -> None:
        del self._chunks[chunk_id]
        self._released.append(chunk_id)
        if chunk_id == self.open_chunk:
            self.open_chunk = None
        self._trim(chunk_id, 0)

    def _trim(self, chunk_id: int, start: int) -> None:
        """TRIM a chunk from page-aligned ``start`` to its end, mirror
        copy included: a recycled chunk reads zeros, never checksum-
        valid records of its previous life (which a torn append could
        otherwise expose), and simulator memory follows chunks in use.
        """
        offset = chunk_id * self.chunk_size + start
        self.ssd.discard(offset, self.chunk_size - start)
        if self.mirror is not None:
            self.mirror.discard(offset, self.chunk_size - start)

    # ------------------------------------------------------------------
    # garbage collection (greedy, §5.2)
    # ------------------------------------------------------------------
    def gc_victims(self, count: int) -> List[int]:
        """Chunks whose collection frees the most bytes, best first.

        A sealed chunk frees everything but its live data, so sealed
        chunks rank by least live data.  The open chunk's unwritten
        tail is not garbage — it is where the next batch goes — so it
        counts as live.  Selecting the open chunk seals it: its
        survivors must land in a fresh chunk, not behind themselves.
        """
        head = self.open_chunk
        chunk_size = self.chunk_size
        ranked = sorted(
            (
                info.live_bytes
                + (chunk_size - info.write_head if cid == head else 0),
                cid,
            )
            for cid, info in self._chunks.items()
        )
        victims = [cid for _, cid in ranked[:count]]
        if head in victims:
            self.open_chunk = None
        return victims

    def live_records_of(self, chunk_id: int) -> List[_Slot]:
        """A chunk's valid slots in offset order (appends keep the slot
        map in that order; recovery rebuilds it in HSIT-walk order)."""
        info = self._chunks.get(chunk_id)
        if info is None:
            return []
        return [slot for _, slot in sorted(info.slots.items()) if slot.valid]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def rebuild_from(self, live: Dict[Tuple[int, int], Tuple[int, int]]) -> None:
        """Give a freshly attached storage the chunk state and validity
        bitmaps of what is on its SSD.

        ``live`` maps (chunk_id, offset) -> (hsit_idx, size) for every
        record the HSIT proved reachable.  Everything else is garbage;
        untouched chunks are free.  No chunk is opened: what a crashed
        append left beyond a chunk's last live record is unknown, so
        the next batch starts a fresh chunk.
        """
        by_chunk: Dict[int, List[Tuple[int, int, int]]] = {}
        for (chunk_id, offset), (hsit_idx, size) in live.items():
            by_chunk.setdefault(chunk_id, []).append((offset, hsit_idx, size))
        self._next_unused = max(by_chunk, default=-1) + 1
        self._holes = deque(
            cid for cid in range(self._next_unused) if cid not in by_chunk
        )
        for chunk_id, slots in by_chunk.items():
            info = _ChunkInfo()
            for offset, hsit_idx, size in slots:
                info.slots[offset] = _Slot(hsit_idx, offset, size)
                info.live_records += 1
                info.live_bytes += size
                info.write_head = max(info.write_head, offset + self.header_size + size)
            self._chunks[chunk_id] = info
