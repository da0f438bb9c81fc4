"""The Prism key-value store (§4–§5).

Wires the five components together over simulated devices:

* writes persist to the per-thread PWB on NVM, then the HSIT forward
  pointer flips (the linearization point), making the critical path a
  few hundred nanoseconds of NVM work;
* background reclamation drains PWBs into log-structured Value Storage
  chunks on SSD; greedy GC keeps free chunks available;
* reads resolve PWB → SVC → Value Storage, with SSD misses combined
  across threads into io_uring batches, and fetched values admitted to
  the scan-aware DRAM cache.

A note on the simulation: background work (reclamation, GC, cache
maintenance) executes synchronously in *code* the moment it is
triggered, but its effects are timestamped on background virtual
threads — foreground latency only feels them through device-bandwidth
contention and PWB-full stalls, matching the paper's "off the critical
path" design.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import AbstractSet, Dict, List, Optional, Tuple, Union

from repro.cache.read_cache import ReadCache
from repro.core import pointers as ptr
from repro.core.config import PrismConfig
from repro.core.containment import PublishEntry, resolve_partial_publish
from repro.core.epoch import EpochManager
from repro.core.hsit import HSIT
from repro.core.pwb import PersistentWriteBuffer, PWBFullError
from repro.core.record import parse
from repro.core.svc import ScanAwareValueCache, SVCEntry
from repro.core.tcq import ThreadCombiner
from repro.core.value_storage import ValueStorage
from repro.faults.errors import (
    CorruptionError,
    DeviceError,
    NoHealthyStorageError,
)
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryExecutor
from repro.obs.metrics import EventLog, MetricsRegistry, NULL_REGISTRY
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.crash import CrashPoint
from repro.storage.dram import DRAMDevice
from repro.storage.iouring import IORequest
from repro.storage.media import Media
from repro.storage.nvm import NVMDevice, RegionMismatchError
from repro.storage.ssd import SSDDevice
from repro.index.pactree import PACTree
from repro.tiering import TierManager

# Ops between epoch-advance attempts.
EPOCH_ADVANCE_EVERY = 64

# What Prism._dead_vs_ids returns while nothing can have died.
_NONE_DEAD: AbstractSet[int] = frozenset()

# One record to relocate: (hsit_idx, value, old_vs, old_chunk, old_off) —
# a containment.PublishEntry with the value in place of the placement.
# old_vs None means the old copy is not in Value Storage (it sits in a
# PWB), so there is no slot or read-cache entry to retire.
RelocationEntry = Tuple[int, bytes, Optional[ValueStorage], int, int]


class Prism:
    """A key-value store for heterogeneous storage devices."""

    def __init__(
        self,
        config: Optional[PrismConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.config = config or PrismConfig()
        cfg = self.config
        # A caller-supplied clock lets several instances share one
        # virtual timeline (cluster shards); standalone stores keep a
        # private clock, exactly as before.
        self.clock = clock if clock is not None else VirtualClock()
        # Per-op phase tracing goes through this registry.  The no-op
        # default keeps the hooks zero-cost; the benchmark driver swaps
        # in a per-run registry when the store was built with
        # ``enable_metrics``.
        if metrics is not None:
            self.metrics = metrics
        elif cfg.enable_metrics:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = NULL_REGISTRY
        # Structured GC/reclaim history (always on: both are rare, and
        # Figure 17 needs the events regardless of the metrics switch).
        self.events = EventLog("prism")

        # --- media: what a power failure leaves behind ------------------
        # Cold QLC pool (ISSUE 9): extra Value Storages on cheap
        # high-capacity devices.  Empty unless enabled, so every loop
        # below degenerates to the fast-only layout.
        cold_ssds: List[SSDDevice] = []
        if cfg.enable_tiering:
            cold_ssds = [
                SSDDevice(cfg.cold_ssd_spec, name=f"cssd{i}")
                for i in range(cfg.num_cold_ssds)
            ]
        # Chunk mirroring (ISSUE 3): one dedicated mirror SSD per Value
        # Storage — a different device, so chunk addresses never collide
        # and a primary death leaves every record recoverable.  Mirrors
        # align with storage order (fast first, then cold), so vs_id
        # indexes both lists.
        mirror_ssds: List[SSDDevice] = []
        if cfg.mirror_chunks:
            mirror_ssds = [
                SSDDevice(cfg.ssd_spec, name=f"ssd{i}m")
                for i in range(cfg.num_ssds)
            ] + [
                SSDDevice(cfg.cold_ssd_spec, name=f"cssd{i}m")
                for i in range(len(cold_ssds))
            ]
        self.media = Media(
            NVMDevice(cfg.nvm_spec),
            DRAMDevice(),
            [SSDDevice(cfg.ssd_spec, name=f"ssd{i}") for i in range(cfg.num_ssds)],
            cold_ssds,
            mirror_ssds,
        )
        # The names the paths below (and every observer) use.
        self.nvm, self.dram = self.media.nvm, self.media.dram
        self.ssds, self.cold_ssds, self.mirror_ssds = (
            self.media.ssds, self.media.cold_ssds, self.media.mirror_ssds
        )
        # Faults are the environment's, not the engine's: the injector
        # (dead devices, fault schedule) outlives a restart.
        self.injector: Optional[FaultInjector] = None
        if cfg.faults is not None:
            self.injector = FaultInjector(cfg.faults, events=self.events)
            self.nvm.attach_injector(self.injector)
            for ssd in self.ssds + self.cold_ssds + self.mirror_ssds:
                ssd.attach_injector(self.injector)
        # One store-wide crash point shared by every instrumented
        # component; unarmed it costs one no-op call per label.
        self.crash_point = CrashPoint(self.crash)

        # --- lifetime accounting ----------------------------------------
        # Like the devices' byte counters these count since the store
        # was built, across restarts (waf() divides one by the other).
        self.bytes_put = 0
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.scans = 0
        self.reclaims = 0
        # Records whose checksum failed, on any path (read, scan, GC,
        # scrub, recovery).
        self.corruption_detected = 0
        self._crashed = False
        self._attach()

    def _attach(self) -> None:
        """Build the engine — every DRAM-side object — over
        ``self.media``, as a starting process does: on blank media
        (``__init__``) or after a power failure (``recover``, which then
        runs the §5.5 pass).  Nothing built here survives a restart,
        and on used media nothing here allocates NVM."""
        cfg = self.config
        media = self.media
        nvm = media.nvm
        # Region sizes are checked as each is claimed; their number is
        # the one thing no single claim can see.
        if nvm.regions and len(nvm.regions) != 2 + cfg.num_threads:
            raise RegionMismatchError(
                f"media laid out for {len(nvm.regions) - 2} PWBs, not {cfg.num_threads}"
            )
        self.epoch = EpochManager()
        self.hsit = HSIT(nvm, cfg.hsit_capacity)
        self.index = PACTree(media.heap)
        self.pwbs: List[PersistentWriteBuffer] = [
            PersistentWriteBuffer(
                nvm, i, cfg.pwb_capacity, checksums=cfg.enable_checksums
            )
            for i in range(cfg.num_threads)
        ]
        self.storages: List[ValueStorage] = [
            ValueStorage(
                i,
                ssd,
                cfg.chunk_size,
                cfg.queue_depth,
                checksums=cfg.enable_checksums,
                mirror=media.mirror_ssds[i] if media.mirror_ssds else None,
            )
            for i, ssd in enumerate(media.ssds + media.cold_ssds)
        ]
        self.combiners: List[ThreadCombiner] = [
            ThreadCombiner(
                vs.ring,
                mode=cfg.read_batching,
                combine_window=cfg.combine_window,
                timeout_window=cfg.timeout_window,
            )
            for vs in self.storages
        ]
        self.svc = ScanAwareValueCache(
            media.dram,
            cfg.svc_capacity,
            self.hsit,
            self.epoch,
            self._relocate,
            scan_aware=cfg.svc_scan_aware,
            page_mode=cfg.svc_page_mode,
            placement=self._placement_storages,
        )
        # DRAM read-cache tier (ISSUE 6): consulted by get() before the
        # index.  None when disabled — the read path then costs one
        # attribute load and a None check, and runs are bit-identical
        # to a build without the cache subsystem.
        self.read_cache: Optional[ReadCache] = None
        if cfg.enable_read_cache:
            self.read_cache = ReadCache(media.dram, cfg.read_cache_capacity)
        # Hot/cold placement (ISSUE 9): the policy that owns every
        # decision and move between the fast and the cold storages.
        # None when disabled — each hook below then costs one attribute
        # load and a None check, and runs are bit-identical to a build
        # without the subsystem.
        self.tiering: Optional[TierManager] = None
        if cfg.enable_tiering:
            fast = cfg.num_ssds
            self.tiering = TierManager(self, self.storages[:fast], self.storages[fast:])

        # --- background threads ----------------------------------------
        self._bg_reclaim = VThread(-1, self.clock, name="bg-reclaim", background=True)
        self._bg_gc = VThread(-2, self.clock, name="bg-gc", background=True)
        self._bg_cache = VThread(-3, self.clock, name="bg-cache", background=True)
        self._default_thread = VThread(0, self.clock, name="caller")

        self._ops = 0
        # Hot-path caches: _tick()/put() run once per op and two-hop
        # ``self.config.*`` chases show up in profiles.
        self._enable_pwb = cfg.enable_pwb
        self._pwb_watermark = cfg.pwb_watermark
        self._rr_storage = itertools.count()
        # GC reentrancy guard: a placement move can trigger GC on its
        # destination, which could move records back and re-enter GC
        # on a storage whose victim records are already mid-move.
        self._gc_active: set = set()

        # --- retries ---------------------------------------------------
        self.retry_exec = RetryExecutor(cfg.retry, self.injector, events=self.events)
        if self.injector is not None:
            # Failed flushes retry inside the device, covering every
            # persist point (PWB appends, HSIT publishes) at once.  Both
            # act only once the injector is armed.
            nvm.attach_retry(self.retry_exec)
            for combiner in self.combiners:
                combiner.retry = self.retry_exec

        # --- crash exploration -----------------------------------------
        self.hsit.crash_point = self.crash_point
        for pwb in self.pwbs:
            pwb.crash_point = self.crash_point
        for vs in self.storages:
            vs.crash_point = self.crash_point

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "Prism"

    def _thread(self, thread: Optional[VThread]) -> VThread:
        return thread if thread is not None else self._default_thread

    def _check_key(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise TypeError(f"keys must be non-empty bytes, got {key!r}")
        if self._crashed:
            raise RuntimeError("store crashed; call recover() first")

    # Every fault guard below tests the injector's armed bit: an absent
    # or unarmed injector has killed nothing and can fail nothing, so
    # the path is the one of a store built with ``faults=None``.
    def _device_dead(self, name: str) -> bool:
        injector = self.injector
        return injector is not None and injector.enabled and injector.is_dead(name)

    def _dead_vs_ids(self) -> AbstractSet[int]:
        """Ids of the storages whose device is dead (degraded mode);
        empty while the injector is absent or unarmed."""
        injector = self.injector
        if injector is None or not injector.enabled:
            return _NONE_DEAD
        is_dead = injector.is_dead
        return {vs.vs_id for vs in self.storages if is_dead(vs.ssd.name)}

    def _alive(self, storages: List[ValueStorage]) -> List[ValueStorage]:
        """``storages`` minus those whose device is dead (degraded mode);
        the list passed in while none is."""
        dead = self._dead_vs_ids()
        if not dead:
            return storages
        return [vs for vs in storages if vs.vs_id not in dead]

    def _retrying_write(
        self, vs: ValueStorage, at: float, records: List[Tuple[int, bytes]]
    ):
        """write_records with the store's retry policy applied.

        Safe to retry wholesale: on error write_records retracts its
        appends from the open chunk and releases the chunks it
        allocated, so a repeat attempt starts clean.
        """
        injector = self.injector
        if injector is None or not injector.enabled:
            return vs.write_records(at, records)
        return self.retry_exec.run_at(
            lambda t: vs.write_records(t, records),
            at,
            device=vs.ssd.name,
            op="vs_write",
        )

    def _placement_storages(self) -> List[ValueStorage]:
        """Storages eligible for new-data placement: the healthy ones
        of the placement policy's list, with no policy every healthy
        one.  Falls back to the full healthy set when the policy's
        whole list is dead — degraded, but writable beats read-only.
        """
        if self.tiering is not None:
            placement = self._alive(self.tiering.placement)
            if placement:
                return placement
        healthy = self._alive(self.storages)
        if not healthy:
            raise NoHealthyStorageError("every Value Storage device is dead")
        return healthy

    @staticmethod
    def _idle_else_least_loaded(
        candidates: List[ValueStorage], start: int, at: float
    ) -> ValueStorage:
        """Idle scan from a rotating ``start``, else least loaded (§5.2).

        Background reclaimers all run at quiet timestamps where every
        ring reports zero in-flight, so a bare ``min`` would tie-break
        onto the first device forever and saturate it while its
        siblings idle.
        """
        n = len(candidates)
        for i in range(n):
            vs = candidates[(start + i) % n]
            if vs.ring.idle_at(at):
                return vs
        return min(candidates, key=lambda s: s.ring.inflight_at(at))

    def _pick_storage(self, at: float) -> ValueStorage:
        """Where new data goes: a healthy placement storage."""
        return self._idle_else_least_loaded(
            self._placement_storages(), next(self._rr_storage), at
        )

    def _tick(self) -> None:
        if self._crashed:
            # A simulated power failure fired mid-operation; the unwind
            # must not touch (or advance epochs over) post-crash state.
            return
        self._ops += 1
        if self._ops % EPOCH_ADVANCE_EVERY == 0:
            self.epoch.try_advance()
        # The SVC's background work: evictions once it is over
        # capacity, and its queue of deferred requests.
        svc = self.svc
        if svc.used > svc.capacity or len(svc._pending) > 256:
            self._run_cache_maintenance()
        if self.tiering is not None and self.tiering.pending:
            self.tiering.drain()

    def _run_cache_maintenance(self) -> None:
        bg = self._bg_cache
        now = self.clock._now
        if bg.now < now:
            bg.now = now
        self.svc.process_background(bg, self.storages)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, thread: Optional[VThread] = None) -> None:
        """Insert or update; durable when this returns."""
        self._check_key(key)
        if not isinstance(value, (bytes, bytearray)) or not value:
            raise TypeError(f"values must be non-empty bytes, got {type(value)}")
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        is_new = False
        inserted = False
        idx = None
        try:
            # Phase attribution is gated on ``m.enabled`` so the obs-off
            # path costs one attribute load per site — no null-instrument
            # calls, no f-strings, no per-op allocation.
            enabled = m.enabled
            t0 = thread.now
            idx = self.index.lookup(key, thread)
            if enabled:
                m.phase("put", "index_lookup", thread.now - t0)
            is_new = idx is None
            cp = self.crash_point
            if is_new:
                idx = self.hsit.allocate(thread)
                if cp.active:
                    cp.maybe_crash("put.allocated")
            vlen = len(value)
            if self._enable_pwb:
                pwb = self.pwbs[thread.tid % len(self.pwbs)]
                t0 = thread.now
                # Fast path: the record fits without applying a pending
                # release (would_fit inlined; ceil-to-8 == record_bytes).
                # Deferring poll() is safe — the tail of put() always
                # polls before the reclaim-watermark check, and release
                # application never touches virtual time.
                need = (pwb.header_size + vlen + 7) & ~7
                capacity = pwb.capacity
                head = pwb.head
                pos = head % capacity
                start = head + capacity - pos if pos + need > capacity else head
                if (start + need) - pwb.tail > capacity:
                    self._ensure_pwb_space(pwb, vlen, thread)
                if enabled:
                    m.phase("put", "pwb_space_wait", thread.now - t0)
                t0 = thread.now
                offset = pwb.append(idx, value, thread)
                if enabled:
                    m.phase("put", "pwb_append", thread.now - t0)
                word = ptr.encode_pwb(pwb.pwb_id, offset)
            else:
                t0 = thread.now
                vs = self._pick_storage(thread.now)
                chunk_id, off = self._append_sync_retrying(vs, thread, idx, value)
                if enabled:
                    m.phase("put", "vs_append", thread.now - t0)
                word = ptr.encode_vs(vs.vs_id, chunk_id, off)
                self._maybe_gc(vs, thread.now)
            if cp.active:
                cp.maybe_crash("put.appended")
            t0 = thread.now
            old_word, svc_word = self.hsit.publish_location_word(idx, word, thread)
            self._supersede_word(idx, old_word, svc_word, thread)
            if svc_word and self._enable_pwb:
                # The update dropped a cached copy: the reclaim that
                # moves the new value caches it again (_relocate).
                self.svc.refills[idx] = key
            if is_new:
                self.index.insert(key, idx, thread)
                inserted = True
            if enabled:
                m.phase("put", "publish", thread.now - t0)
            if cp.active:
                cp.maybe_crash("put.done")
            if self.tiering is not None and self.tiering.temperature:
                self.tiering.tracker.touch(idx)
            self.bytes_put += vlen
            self.puts += 1
            if self._enable_pwb:
                # poll() and utilization() inlined (once per put).
                pending = pwb.pending_release
                if pending is not None and thread.now >= pending[1]:
                    pwb.pending_release = None
                    pwb.release_through(pending[0])
                if (
                    (pwb.head - pwb.tail) / pwb.capacity >= self._pwb_watermark
                    and pwb.pending_release is None
                ):
                    self._reclaim(pwb, thread.now)
        except DeviceError:
            # The put failed after allocating a fresh HSIT entry but
            # before the key reached the index: the entry would leak
            # until the next recovery pass.  Return it now — the value
            # record (if persisted) becomes ill-coupled garbage.
            if is_new and idx is not None and not inserted:
                try:
                    self.hsit.free(idx, thread)
                except DeviceError:
                    pass  # NVM itself is failing; recovery will reclaim
            raise
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    def _append_sync_retrying(
        self, vs: ValueStorage, thread: VThread, idx: int, value: bytes
    ) -> Tuple[int, int]:
        """append_record_sync with retry (no-PWB ablation path)."""
        injector = self.injector
        if injector is None or not injector.enabled:
            return vs.append_record_sync(thread, idx, value)
        return self.retry_exec.run(
            lambda: vs.append_record_sync(thread, idx, value),
            thread=thread,
            device=vs.ssd.name,
            op="vs_append",
        )

    def _supersede_word(
        self, idx: int, old_word: int, svc_word: int, thread: Optional[VThread]
    ) -> None:
        """Invalidate whatever the entry referenced before a publish
        (the two words ``publish_location_word`` returns): the old
        pointer's Value Storage slot (VS fields extracted with bit ops
        — this is the write hot path), the SVC entry, the read-cache
        copy."""
        if old_word & ptr.MEDIUM_MASK == ptr.MEDIUM_VS_BITS:
            self.storages[(old_word >> ptr.VS_ID_SHIFT) & ptr.VS_ID_MASK].invalidate(
                (old_word >> ptr.VS_CHUNK_SHIFT) & ptr.VS_CHUNK_MASK,
                old_word & ptr.VS_OFFSET_MASK,
            )
        if svc_word:
            self.hsit.clear_svc(idx, thread)
            self.svc.invalidate(svc_word - 1, thread)
        if self.read_cache is not None:
            self.read_cache.invalidate_idx(idx)

    def _ensure_pwb_space(
        self, pwb: PersistentWriteBuffer, value_len: int, thread: VThread
    ) -> None:
        pwb.poll(thread.now)
        if pwb.would_fit(value_len):
            return
        # Wait out an in-flight reclamation, if any.
        if pwb.pending_release is not None:
            thread.wait_until(pwb.reclaim_done_at)
            pwb.poll(thread.now)
            if pwb.would_fit(value_len):
                return
        # Emergency: reclaim synchronously in the critical path.
        self._reclaim(pwb, thread.now)
        thread.wait_until(pwb.reclaim_done_at)
        pwb.poll(thread.now)
        if not pwb.would_fit(value_len):
            raise PWBFullError(
                f"pwb {pwb.pwb_id} cannot host a {value_len}B value"
            )

    # ------------------------------------------------------------------
    # background reclamation (§5.2)
    # ------------------------------------------------------------------
    def _reclaim(self, pwb: PersistentWriteBuffer, at: float) -> None:
        bg = self._bg_reclaim
        if bg.now < at:
            bg.now = at
        if pwb.pending_release is not None:
            # An earlier reclamation is still in flight; chain after it.
            bg.wait_until(pwb.reclaim_done_at)
            pwb.poll(bg.now)
        start_at = bg.now
        upto = pwb.head
        region = upto - pwb.tail
        if region <= 0:
            return
        # Read the window as dependent gathers on this thread (§5.2):
        # the headers (the record offsets are DRAM), the HSIT forward
        # pointers their backward pointers name, then the values of the
        # well-coupled records only.  Under checksums every record is
        # read whole and verified before its backward pointer is
        # followed: a dead record's CRC covers the index that decides
        # it is dead.  Survivors are relocation entries with no Value
        # Storage copy to supersede: the old copy is the PWB window.
        nvm = self.nvm
        read_from = nvm.bytes_read
        offsets, idxs, headers = pwb.gather_headers(bg)
        checked = pwb.checksums
        if checked:
            values = pwb.gather_values(bg, offsets, headers)
        words = self.hsit.location_words(idxs, bg)
        # Well-coupled iff the (dirty-cleared) forward pointer encodes
        # exactly this buffer and offset — one word comparison per
        # record instead of a Location decode.
        clean = ~ptr.DIRTY_BIT
        expect_base = ptr.MEDIUM_PWB_BITS | (pwb.pwb_id << ptr.PWB_ID_SHIFT)
        coupled = [
            i
            for i, (offset, word) in enumerate(zip(offsets, words))
            if word & clean == expect_base | offset
        ]
        if checked:
            values = [values[i] for i in coupled]
        else:
            values = pwb.gather_values(
                bg, [offsets[i] for i in coupled], [headers[i] for i in coupled]
            )
        live: List[RelocationEntry] = [
            (idxs[i], value, None, 0, 0) for i, value in zip(coupled, values)
        ]
        read_bytes = nvm.bytes_read - read_from
        refreshed = 0
        if live:
            refreshes = self.svc.refreshes
            if self.tiering is not None and self.tiering.temperature:
                phase = self.tiering.place_reclaimed(live, bg)
            else:
                # The paper's placement: an idle Value Storage (§5.2).
                try:
                    vs = self._pick_storage(bg.now)
                except NoHealthyStorageError:
                    phase = "write"
                else:
                    phase = self._relocate(vs, live, bg, "reclaim")
                    if phase is None:
                        self._maybe_gc(vs, bg.now)
            refreshed = self.svc.refreshes - refreshes
            if phase is not None:
                # Leave the PWB window unreleased: a failed write never
                # stuck, and after a partial publish some entries still
                # point into the window.  Records stay readable in NVM
                # and the next trigger rescans (entries published by an
                # earlier batch are no longer well-coupled and drop out
                # of that scan), on a healthier storage if one exists.
                self.events.emit(
                    start_at, "reclaim_failed", pwb_id=pwb.pwb_id, phase=phase
                )
                return
        pwb.pending_release = (upto, bg.now)
        pwb.reclaim_done_at = bg.now
        self.reclaims += 1
        self.events.emit(
            start_at,
            "reclaim",
            pwb_id=pwb.pwb_id,
            region_bytes=region,
            scanned_records=len(offsets),
            live_records=len(live),
            live_bytes=sum(len(entry[1]) for entry in live),
            read_bytes=read_bytes,
            svc_refreshed=refreshed,
            duration=bg.now - start_at,
        )

    # ------------------------------------------------------------------
    # the relocation primitive: write -> publish -> contain
    # ------------------------------------------------------------------
    def _relocate(
        self,
        dest: ValueStorage,
        entries: List[RelocationEntry],
        bg: VThread,
        label: str,
    ) -> Optional[str]:
        """Move live records to the log head of ``dest``.

        The one data-movement path: reclaim, GC, every move of the
        placement policy, the SVC's chain write-back and recovery's PWB
        flush select survivors, choose ``dest``, and call this (repair's
        ``_rewrite`` is the one mover that does not).
        It writes the batch, then per record swings the HSIT forward
        pointer and retires the old Value Storage copy — its slot and
        the read-cache entry coupled to it (``old_vs`` None: the old
        copy is in a PWB, retired when the caller releases the window;
        if an update dropped the key's SVC copy, the value is cached
        again, charged to ``bg``).  ``label`` names the crash points
        ``<label>.pre_publish`` and ``<label>.published``.

        Returns None when the whole batch landed, else the failing
        phase: ``"write"`` changed nothing (write_records took its
        appends back); ``"publish"`` was resolved by containment — published
        entries stand, unpublished placements are dropped.  Either way
        the caller aborts its round rather than re-move entries whose
        old slots may already be invalid.
        """
        try:
            placements, done = self._retrying_write(
                dest, bg.now, [(entry[0], entry[1]) for entry in entries]
            )
        except StorageError:
            return "write"
        bg.wait_until(done)
        self.crash_point.maybe_crash(label + ".pre_publish")
        published = 0
        rc = self.read_cache
        svc = self.svc
        refills = svc.refills
        publish_word = self.hsit.publish_location_word
        encode_vs = ptr.encode_vs
        dest_id = dest.vs_id
        try:
            for (idx, value, old_vs, old_chunk, old_off), (chunk_id, offset, _sz) in zip(
                entries, placements
            ):
                publish_word(idx, encode_vs(dest_id, chunk_id, offset), bg)
                published += 1
                if old_vs is not None:
                    old_vs.invalidate(old_chunk, old_off)
                    if rc is not None:
                        # The chunk the cached copy was coupled to is
                        # being freed; drop it with the publish rather
                        # than risk serving from a reference into a
                        # reclaimed region.
                        rc.invalidate_idx(idx)
                elif idx in refills:
                    # An update dropped this key's cached copy; the
                    # value is in hand, so cache it again, on this
                    # thread rather than on the next read's.
                    svc.refill(idx, value, bg)
        except DeviceError:
            batch: List[PublishEntry] = [
                (idx, placement, old_vs, old_chunk, old_off)
                for (idx, _v, old_vs, old_chunk, old_off), placement in zip(
                    entries, placements
                )
            ]
            resolve_partial_publish(self.hsit, dest, batch, published)
            # The failed publish may have landed, taking the value out of
            # the PWB without its refill: a refill is never left behind
            # for a value in Value Storage (checker I5).
            refills.pop(entries[published][0], None)
            return "publish"
        self.crash_point.maybe_crash(label + ".published")
        return None

    # ------------------------------------------------------------------
    # garbage collection in Value Storage (§5.2)
    # ------------------------------------------------------------------
    def _maybe_gc(self, vs: ValueStorage, at: float) -> None:
        if self._device_dead(vs.ssd.name):
            return  # read-degraded storage: nothing to collect into
        if vs.free_fraction() >= self.config.gc_free_threshold:
            return
        if vs.vs_id in self._gc_active:
            return  # already collecting this storage further up the stack
        self._gc_active.add(vs.vs_id)
        try:
            self._gc(vs, at)
        finally:
            self._gc_active.discard(vs.vs_id)

    def _gc(self, vs: ValueStorage, at: float) -> None:
        bg = self._bg_gc
        if bg.now < at:
            bg.now = at
        start_at = bg.now
        free_before = vs.free_chunks
        victims = vs.gc_victims(self.config.gc_batch_chunks)
        # The bitmaps already say what is live: read exactly that, as
        # runs of back-to-back records, on the storage's own ring.
        requests = vs.plan_reads(
            [
                (chunk_id, slot.offset, slot.hsit_idx)
                for chunk_id in victims
                for slot in vs.live_records_of(chunk_id)
            ]
        )

        def heal(chunk_id: int, offset: int, idx: int) -> Optional[bytes]:
            # A rotted record would poison the GC move; fetch a copy
            # from a repair source, or leave it in place (it stays
            # valid; a later read surfaces the typed error and retries
            # the repair).  Fetch only, not read_repair: the GC moves
            # the healed value itself, with the rest of the victims.
            self.corruption_detected += 1
            from repro.repair import fetch_value

            fetched = fetch_value(self, idx, vs.vs_id, chunk_id, offset)
            if fetched is None:
                self.events.emit(
                    bg.now,
                    "gc_skipped_corrupt",
                    vs_id=vs.vs_id,
                    chunk=chunk_id,
                    offset=offset,
                )
                return None
            return fetched[0]

        phase: Optional[str] = None
        try:
            vs.ring.submit(bg.now, requests)
        except DeviceError:
            phase = "read"  # nothing moved or invalidated yet
        else:
            if requests:
                bg.wait_until(max([req.completion for req in requests]))
            moves: List[RelocationEntry] = [
                (idx, value, vs, chunk_id, offset)
                for chunk_id, offset, idx, value in vs.parse_reads(requests, heal)
            ]
            if self.tiering is not None and self.tiering.temperature and moves:
                # The policy moves what belongs elsewhere first; a batch
                # that fails was contained, and the round aborts.
                moves = self.tiering.gc_survivors(vs, moves, bg, start_at)
                if moves is None:
                    phase = "relocate"
            if phase is None and moves:
                phase = self._relocate(vs, moves, bg, "gc")
        # A round that fails after its read has still spent it.
        read_bytes = 0 if phase == "read" else sum([req.size for req in requests])
        if phase is not None:
            self.events.emit(
                start_at, "gc_failed", vs_id=vs.vs_id, phase=phase, read_bytes=read_bytes
            )
            return
        moved_bytes = sum(len(entry[1]) for entry in moves)
        if moves:
            vs.gc_runs += 1
            vs.gc_moved_bytes += moved_bytes
        self.events.emit(
            start_at,
            "gc",
            vs_id=vs.vs_id,
            victim_chunks=len(victims),
            moved_records=len(moves),
            moved_bytes=moved_bytes,
            read_bytes=read_bytes,
            chunks_freed=vs.free_chunks - free_before,
            duration=bg.now - start_at,
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        """Point lookup; returns None for missing keys."""
        self._check_key(key)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            self.gets += 1
            # DRAM read-cache tier: a hit short-circuits the whole
            # index -> HSIT -> PWB/VS path at DRAM cost.  Coherent by
            # construction — every publish invalidates synchronously —
            # so a hit never returns superseded bytes.
            rc = self.read_cache
            if rc is not None:
                t0 = thread.now
                cached = rc.lookup(key, thread)
                if cached is not None:
                    if m.enabled:
                        m.phase("get", "cache_hit", thread.now - t0)
                        m.counter("read.cache_hits").inc()
                    return cached
                if m.enabled:
                    m.counter("read.cache_misses").inc()
            t0 = thread.now
            idx = self.index.lookup(key, thread)
            if m.enabled:
                m.phase("get", "index_lookup", thread.now - t0)
            if idx is None:
                return None
            value = self._read_value(idx, key, thread)
            if rc is not None and value is not None:
                t0 = thread.now
                rc.admit(key, idx, value, thread)
                if m.enabled:
                    m.phase("get", "cache_admit", thread.now - t0)
            return value
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    def _read_value(self, idx: int, key: bytes, thread: VThread) -> Optional[bytes]:
        m = self.metrics
        enabled = m.enabled
        tier = self.tiering
        if tier is not None and tier.temperature:
            tier.tracker.touch(idx)
        loc, entry_id = self.hsit.read_entry(idx, thread)
        # Compare the medium field directly: the is_null/in_pwb
        # properties are descriptor calls and this runs on every read.
        medium = loc.medium
        if medium == ptr.MEDIUM_NULL:
            return None
        if medium == ptr.MEDIUM_PWB:
            t0 = thread.now
            _, value = self.pwbs[loc.pwb_id].read(loc.pwb_offset, thread)
            if enabled:
                m.phase("get", "pwb_read", thread.now - t0)
                m.counter("read.pwb_hits").inc()
            return value
        # Value Storage — try the DRAM cache first (Figure 2 ➍ over ➌).
        if entry_id is not None and self.config.enable_svc:
            t0 = thread.now
            cached = self.svc.lookup(entry_id, thread)
            if cached is not None:
                if enabled:
                    m.phase("get", "svc_hit", thread.now - t0)
                    m.counter("read.svc_hits").inc()
                return cached
            if enabled:
                m.phase("get", "svc_miss", thread.now - t0)
        if enabled:
            m.counter("read.svc_misses").inc()
        vs = self.storages[loc.vs_id]
        if self._device_dead(vs.ssd.name):
            # The durable copy sits on a dead device.  With a mirror the
            # read re-materialises the record onto healthy storage
            # (read-repair); otherwise the key is read-degraded, not
            # silently missing.
            from repro.repair import read_repair

            value = read_repair(
                self, idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset, thread,
                dead=True,
            )
        else:
            req = vs.record_request(loc.chunk_id, loc.vs_offset)
            raw = self.combiners[loc.vs_id].read_one(thread, req, m)
            try:
                _, value = parse(raw, vs.checksums, vs.ssd.name)
            except CorruptionError:
                from repro.repair import read_repair

                value = read_repair(
                    self, idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset, thread
                )
        if tier is not None:
            tier.flash_read(idx, vs, loc, value)
        if self.config.enable_svc:
            t0 = thread.now
            self.svc.admit(idx, key, value, thread)
            if enabled:
                m.phase("get", "svc_admit", thread.now - t0)
        return value

    # ------------------------------------------------------------------
    # scan (§4.4)
    # ------------------------------------------------------------------
    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, bytes]]:
        """Range scan: up to ``count`` pairs with key >= start."""
        self._check_key(start)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            t0 = thread.now
            matches = self.index.scan(start, count, thread)
            if m.enabled:
                m.phase("scan", "index_scan", thread.now - t0)
            # Every HSIT entry the scan needs is known now: one gather,
            # then the walk below runs on DRAM copies.
            t0 = thread.now
            entries = self.hsit.read_entries(map(itemgetter(1), matches), thread)
            if m.enabled:
                m.phase("scan", "hsit_gather", thread.now - t0)
            # The fetch is a pipeline: classify every key, put the flash
            # reads on the rings, copy the in-memory values while they
            # fly, then take each run as it lands.
            t0 = thread.now
            results: Dict[bytes, bytes] = {}
            # key -> its PWB location or its live SVC entry, in key order
            copies: Dict[bytes, Union[ptr.Location, SVCEntry]] = {}
            repairs: List[Tuple[bytes, int, ptr.Location]] = []
            misses: Dict[
                int, List[Tuple[int, int, Tuple[int, bytes, ptr.Location]]]
            ] = {}
            cached_as: Dict[bytes, int] = {}  # key -> SVC entry id
            # Bound hot callables once: the loops below run per matched
            # key and these attribute chains dominated their cost.
            enable_svc = self.config.enable_svc
            svc = self.svc
            svc_entries_get = svc.entries.get
            storages = self.storages
            # 1. Classify: nothing charged, nothing mutated.
            for (key, idx), (loc, entry_id) in zip(matches, entries):
                # The medium field, not the in_pwb/is_null properties:
                # descriptor calls, per key (as in _read_value).
                medium = loc.medium
                if medium == ptr.MEDIUM_PWB:
                    copies[key] = loc
                    continue
                if medium == ptr.MEDIUM_NULL:
                    continue
                if entry_id is not None and enable_svc:
                    entry = svc_entries_get(entry_id)
                    if entry is not None and not entry.freed:
                        # The gather just decoded where the value sits.
                        entry.slot = loc
                        copies[key] = entry
                        continue
                vs_id = loc.vs_id
                item = (loc.chunk_id, loc.vs_offset, (idx, key, loc))
                if vs_id in misses:
                    misses[vs_id].append(item)
                else:
                    misses[vs_id] = [item]
            # A dead device's misses go to read-repair instead, in key
            # order.
            if misses:
                dead = self._dead_vs_ids()
                if dead:
                    for vs_id in dead.intersection(misses):
                        repairs.extend(
                            (key, idx, loc)
                            for _chunk, _offset, (idx, key, loc) in misses.pop(vs_id)
                        )
                    repairs.sort()
            # 2. Submit to every SSD at once: each storage's reads on
            # its ring, records that sit back to back merged into one
            # request — where scan-aware reorganisation pays off.
            landing: List[Tuple[float, int, int, IORequest]] = []
            if misses:
                pos = 0
                for vs_id, items in misses.items():
                    requests = storages[vs_id].plan_reads(sorted(items))
                    self.combiners[vs_id].submit(thread, requests, m)
                    for req in requests:
                        landing.append((req.completion, pos, vs_id, req))
                        pos += 1
                if pos > 1:
                    landing.sort()
            if m.enabled:
                m.phase("scan", "submit", thread.now - t0)
            # 3. Copy while the reads fly, in key order; the repairs go
            # last: each is a chunk write and a publish, and no copy
            # should read state that a write has moved on from what
            # classify saw.
            t0 = thread.now
            if copies:
                pwbs = self.pwbs
                svc_lookup = svc.lookup
                for key, found in copies.items():
                    if found.__class__ is SVCEntry:
                        entry_id = found.entry_id
                        results[key] = svc_lookup(entry_id, thread, found)
                        cached_as[key] = entry_id
                    else:
                        _, results[key] = pwbs[found.pwb_id].read(
                            found.pwb_offset, thread
                        )
            for key, idx, loc in repairs:
                from repro.repair import read_repair

                value = read_repair(
                    self, idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset,
                    thread, dead=True,
                )
                results[key] = value
                if enable_svc:
                    # Rewritten from a mirror: a copy, not a landed read.
                    cached_as[key] = svc.admit(idx, key, value, thread, copied=True)
            if m.enabled:
                m.phase("scan", "memory_copy", thread.now - t0)
            # 4. Land each run in completion order (plan order on a
            # tie): parse it, heal what fails its checksum, cache it.
            t0 = thread.now
            waited = 0.0

            def heal(
                chunk_id: int, offset: int, tag: Tuple[int, bytes, ptr.Location]
            ) -> bytes:
                from repro.repair import read_repair

                idx, key, loc = tag
                return read_repair(
                    self, idx, key, loc.vs_id, chunk_id, offset, thread
                )

            for completion, _pos, vs_id, req in landing:
                if completion > thread.now:
                    waited += completion - thread.now
                    thread.wait_until(completion)
                fetched = storages[vs_id].parse_reads((req,), heal)
                for _chunk, _offset, (idx, key, loc), value in fetched:
                    results[key] = value
                    if enable_svc:
                        cached_as[key] = svc.admit(idx, key, value, thread, slot=loc)
            if enable_svc and self.config.svc_scan_aware:
                # Chained in key order, which is the order of the walk.
                svc.link_scan_chain(
                    [cached_as[key] for key, _ in matches if key in cached_as]
                )
            if m.enabled:
                m.phase("scan", "flash_wait", waited)
                m.phase("scan", "land", thread.now - t0 - waited)
            self.scans += 1
            return [(key, results[key]) for key, _ in matches if key in results]
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        """Remove a key. Returns True when it existed."""
        self._check_key(key)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            t0 = thread.now
            idx = self.index.lookup(key, thread)
            if m.enabled:
                m.phase("delete", "index_lookup", thread.now - t0)
            if idx is None:
                return False
            self.crash_point.maybe_crash("delete.begin")
            t0 = thread.now
            self.index.delete(key, thread)
            old_word, svc_word = self.hsit.publish_location_word(idx, 0, thread)
            self._supersede_word(idx, old_word, svc_word, thread)
            self.svc.refills.pop(idx, None)
            if m.enabled:
                m.phase("delete", "publish", thread.now - t0)
            self.crash_point.maybe_crash("delete.published")
            # The HSIT entry rejoins the free list after two epochs (§5.4).
            self.epoch.retire(lambda i=idx: self.hsit.free(i))
            if self.tiering is not None and self.tiering.temperature:
                self.tiering.tracker.forget(idx)
            self.deletes += 1
            return True
        finally:
            self.epoch.exit(thread.tid)
            self._tick()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    def flush(self, thread: Optional[VThread] = None) -> None:
        """Drain PWBs into Value Storage and finish background work."""
        at = self.clock.now
        for pwb in self.pwbs:
            pwb.poll(float("inf"))
            if pwb.used > 0:
                self._reclaim(pwb, at)
                pwb.poll(float("inf"))
        self._run_cache_maintenance()
        while self.tiering is not None and self.tiering.pending:
            self.tiering.drain()
        for _ in range(3):
            self.epoch.try_advance()

    def close(self) -> None:
        self.flush()
        self.epoch.drain()

    def crash(self) -> None:
        """Simulate power failure across all devices.  The engine is
        dead from here on; nothing is wiped, because nothing of it is
        used again — :meth:`recover` builds another."""
        self.media.power_failure()
        self._crashed = True

    def recover(self, recovery_threads: int = 4) -> "RecoveryReport":
        """Restart: a new engine over the surviving media, brought up
        to date by the §5.5 pass.  Handles on components (``store.hsit``,
        ``store.svc``, ...) taken before this call name dead objects."""
        from repro.core.recovery import recover

        self._attach()
        report = recover(self, recovery_threads=recovery_threads)
        self._crashed = False
        return report

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def ssd_bytes_written(self) -> int:
        # Cold-pool writes count too: WAF must charge demotion traffic.
        return sum(ssd.bytes_written for ssd in self.ssds + self.cold_ssds)

    def waf(self) -> float:
        """SSD-level write amplification (SSD writes / application writes)."""
        if self.bytes_put == 0:
            return 0.0
        return self.ssd_bytes_written() / self.bytes_put

    def nvm_bytes_used(self) -> int:
        return self.nvm.used

    def stats(self) -> Dict[str, float]:
        stats = {
            "puts": self.puts,
            "gets": self.gets,
            "scans": self.scans,
            "deletes": self.deletes,
            "reclaims": self.reclaims,
            "gc_runs": sum(vs.gc_runs for vs in self.storages),
            "svc_hits": self.svc.hits,
            "svc_admissions": self.svc.admissions,
            "svc_refreshes": self.svc.refreshes,
            "svc_evictions": self.svc.evictions,
            "scan_writebacks": self.svc.scan_writebacks,
            "waf": self.waf(),
            "ssd_bytes_written": self.ssd_bytes_written(),
            "nvm_bytes_used": self.nvm_bytes_used(),
            "hsit_entries": self.hsit.allocations - self.hsit.frees,
        }
        # A subsystem's counts are present only when it is on, so a
        # metrics JSON without it stays byte-identical to a build
        # without its code: checksums, the fault injector, the cache.
        if self.config.enable_checksums:
            stats["corruption_detected"] = self.corruption_detected
        if self.injector is not None:
            stats["slow_injections"] = self.injector.slow_injections
            stats["retry_exhausted"] = self.retry_exec.exhausted
        if self.read_cache is not None:
            stats.update(self.read_cache.stats())
        # Same contract for placement: its surface exists only when
        # the cold pool does.
        if self.tiering is not None:
            stats.update(self.tiering.stats())
        return stats
