"""The SVC's bookkeeping by reference decides exactly what it did by id.

:class:`IdLinkedSVC` is the cache as it was when its scan chains, LRU
lists and request queue named entries by id and reached each one
through ``entries``: those methods are kept here verbatim as the
oracle.  A Hypothesis test drives it and :class:`ScanAwareValueCache`,
each on a store of its own, through the same stitched overlapping
scans, admissions, touches, invalidations, evictions, write-backs and
epoch drains, and requires the same victims in the same order, the
same chain for every eviction and every live entry, the same freed
entries and retired slots, the same LRU orders and the same write-back
counts, virtual time and HSIT words.
"""

from collections import deque
from functools import partial
from typing import Deque, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochManager
from repro.core.hsit import HSIT
from repro.core import pointers as ptr
from repro.core.svc import ACTIVE_SHARE, SVCEntry, ScanAwareValueCache, _BG_OP_COST
from repro.core.value_storage import ValueStorage
from repro.sim.vthread import VThread
from repro.storage.base import PAGE_SIZE
from repro.storage.dram import DRAMDevice
from repro.storage.nvm import NVMDevice
from repro.storage.specs import DRAM_SPEC, FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice
from tests.conftest import detached_svc

MB = 1024**2


class IdLinkedSVC(ScanAwareValueCache):
    """The id-linked bookkeeping: ``scan_prev``/``scan_next`` hold entry
    ids, the LRU lists map id to ``None``, the queue holds ids, and
    every hop resolves its id through ``entries``.  Eviction decisions
    and write-backs (``_writeback_chain``, ``_rewrite``) are inherited:
    they did not change.  ``_drop`` is the eviction and invalidation
    tail as it was, around the id-linked ``_logical_free``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending: Deque[Tuple[str, int]] = deque()

    def _charge_of(self, value: bytes) -> int:
        if self.page_mode:
            pages = -(-len(value) // PAGE_SIZE)
            return pages * PAGE_SIZE
        return len(value)

    def admit(self, hsit_idx, key, value, thread=None, copied=False, slot=None):
        entry_id = self._next_id
        self._next_id += 1
        charged = self._charge_of(value)
        entry = SVCEntry(entry_id, hsit_idx, key, value, charged, slot)
        self.entries[entry_id] = entry
        self.used += charged
        if copied or thread is None:
            self.dram.charge_write(thread, len(value))
        else:
            self.dram.charge_write_async(thread.now, len(value))
        self.hsit.set_svc(hsit_idx, entry_id, thread)
        self._pending.append(("admit", entry_id))
        self.admissions += 1
        return entry_id

    def lookup(self, entry_id, thread=None, entry=None):
        if entry is None:
            entry = self.entries.get(entry_id)
            if entry is None or entry.freed:
                return None
        self.dram.read(thread, len(entry.value))
        self._pending.append(("touch", entry_id))
        self.hits += 1
        return entry.value

    def _drop(self, entry: SVCEntry, thread, evicted: bool = True) -> None:
        if entry.freed:
            return
        if evicted:
            self.hsit.clear_svc(entry.hsit_idx, thread)
        self._logical_free(entry)
        if evicted:
            self.evictions += 1
        self.epoch.retire(partial(self.entries.pop, entry.entry_id, None))

    def _logical_free(self, entry: SVCEntry) -> None:
        entry.freed = True
        entry.value = None
        self._unchain(entry)
        self.used -= entry.charged
        if entry.list_name == "active":
            self.active.pop(entry.entry_id, None)
            self.active_bytes -= entry.charged
        elif entry.list_name == "inactive":
            self.inactive.pop(entry.entry_id, None)
        entry.list_name = ""

    def link_scan_chain(self, entry_ids: List[int]) -> None:
        if not self.scan_aware:
            return
        live = [
            eid
            for eid in entry_ids
            if eid in self.entries and not self.entries[eid].freed
        ]
        for prev_id, next_id in zip(live, live[1:]):
            self.entries[prev_id].scan_next = next_id
            self.entries[next_id].scan_prev = prev_id

    def _unchain(self, entry: SVCEntry) -> None:
        if entry.scan_prev is not None:
            prev = self.entries.get(entry.scan_prev)
            if prev is not None:
                prev.scan_next = entry.scan_next
        if entry.scan_next is not None:
            nxt = self.entries.get(entry.scan_next)
            if nxt is not None:
                nxt.scan_prev = entry.scan_prev
        entry.scan_prev = None
        entry.scan_next = None

    def _chain_of(self, entry: SVCEntry) -> List[SVCEntry]:
        entries_get = self.entries.get
        first = entry
        for _ in range(self.MAX_CHAIN // 2 - 1):
            if first.scan_prev is None:
                break
            prev = entries_get(first.scan_prev)
            if prev is None or prev.freed:
                break
            first = prev
        chain = []
        node: Optional[SVCEntry] = first
        while node is not None and len(chain) < self.MAX_CHAIN:
            if not node.freed:
                chain.append(node)
            node = entries_get(node.scan_next) if node.scan_next is not None else None
        return chain

    def process_background(self, bg, storages) -> None:
        popleft = self._pending.popleft
        entries_get = self.entries.get
        if self._pending:
            now = bg.now
            cpu = bg.cpu_time
            while self._pending:
                op, entry_id = popleft()
                now = now + _BG_OP_COST
                cpu += _BG_OP_COST
                entry = entries_get(entry_id)
                if entry is None or entry.freed:
                    continue
                if op == "admit":
                    if entry.list_name == "":
                        self.inactive[entry_id] = None
                        entry.list_name = "inactive"
                elif op == "touch":
                    self._touch(entry)
            bg.now = now
            bg.cpu_time = cpu
            clock = bg.clock
            if now > clock._now:
                clock._now = now
        self._balance_active()
        while self.used > self.capacity:
            if not self._evict_one(bg, storages):
                break

    def _touch(self, entry: SVCEntry) -> None:
        if entry.list_name == "inactive":
            self.inactive.pop(entry.entry_id, None)
            self.active[entry.entry_id] = None
            entry.list_name = "active"
            self.active_bytes += entry.charged
        elif entry.list_name == "active":
            self.active.move_to_end(entry.entry_id)

    def _balance_active(self) -> None:
        limit = self.capacity * ACTIVE_SHARE
        while self.active and self.active_bytes > limit:
            entry_id, _ = self.active.popitem(last=False)
            entry = self.entries[entry_id]
            entry.list_name = "inactive"
            self.active_bytes -= entry.charged
            self.inactive[entry_id] = None

    def _evict_one(self, bg, storages) -> bool:
        if self.inactive:
            entry_id = next(iter(self.inactive))
        elif self.active:
            entry_id = next(iter(self.active))
        else:
            return False
        entry = self.entries.get(entry_id)
        if entry is None or entry.freed:
            self.inactive.pop(entry_id, None)
            self.active.pop(entry_id, None)
            return True
        if self.scan_aware and (
            entry.scan_prev is not None or entry.scan_next is not None
        ):
            self._writeback_chain(bg, entry, storages)
        else:
            self._drop(entry, bg)
        return True


_KEYS = 10

_OPS = st.one_of(
    st.tuples(
        st.just("scan"),
        st.lists(st.integers(0, _KEYS - 1), min_size=2, max_size=8, unique=True),
    ),
    st.tuples(st.just("admit"), st.integers(0, _KEYS - 1)),
    st.tuples(st.just("touch"), st.integers(0, 31)),
    st.tuples(st.just("invalidate"), st.integers(0, 31)),
    st.tuples(st.just("writeback"), st.integers(0, 31)),
    st.tuples(st.just("evict"), st.just(0)),
    st.tuples(st.just("background"), st.just(0)),
    st.tuples(st.just("drain"), st.just(0)),
)


class _Run:
    """One cache on a store of its own, with what its evictions did."""

    def __init__(self, cls) -> None:
        self.hsit = HSIT(NVMDevice(), capacity=256)
        self.epoch = EpochManager()
        # Room for about ten of the values below: scans overflow it.
        self.svc = detached_svc(
            DRAMDevice(DRAM_SPEC.with_capacity(4 * MB)), 1200, self.hsit, self.epoch,
            cls=cls,
        )
        self.vs = ValueStorage(
            0, SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(4 * MB)), chunk_size=16 * 1024
        )
        self.bg = VThread(-1, name="bg", background=True)
        self.keys = [b"k%02d" % i for i in range(_KEYS)]
        self.idxs = []
        for key in reversed(self.keys):  # scattered: later keys sit first
            idx = self.hsit.allocate()
            ((c, o, _),), _ = self.vs.write_records(0.0, [(idx, b"v" + key)])
            self.hsit.publish_location(idx, ptr.encode_vs(0, c, o))
            self.idxs.insert(0, idx)
        self.newest = {}  # key number -> its latest entry id
        self.victims = []  # entry ids in the order they were evicted
        self.chains = []  # each chain eviction's members, as entry ids
        svc = self.svc
        drop, chain_of = svc._drop, svc._chain_of

        def recording_drop(entry, bg, evicted=True):
            if evicted:
                self.victims.append(entry.entry_id)
            drop(entry, bg, evicted)

        def recording_chain_of(entry):
            chain = chain_of(entry)
            self.chains.append([m.entry_id for m in chain])
            return chain

        svc._drop = recording_drop
        svc._chain_of = recording_chain_of

    def live(self) -> List[SVCEntry]:
        return [e for e in self.svc.entries.values() if not e.freed]

    def admit(self, k: int) -> int:
        idx = self.idxs[k]
        loc = ptr.decode(ptr.clear_dirty(self.hsit.location_word(idx)))
        value = b"v" * (40 + 10 * k)
        self.newest[k] = self.svc.admit(idx, self.keys[k], value, slot=loc)
        return self.newest[k]

    def apply(self, op: str, arg) -> None:
        svc, storages = self.svc, [self.vs]
        if op == "scan":
            svc.link_scan_chain([
                self.newest[k] if svc.lookup(self.newest.get(k, -1)) else self.admit(k)
                for k in sorted(arg)
            ])
        elif op == "admit":
            self.admit(arg)
        elif op == "evict":
            svc.process_background(self.bg, storages)
            svc._evict_one(self.bg, storages)
        elif op == "background":
            svc.process_background(self.bg, storages)
        elif op == "drain":
            self.epoch.drain()
        elif self.live():
            entry = self.live()[arg % len(self.live())]
            if op == "touch":
                svc.lookup(entry.entry_id)
            elif op == "invalidate":
                self.hsit.clear_svc(entry.hsit_idx)
                svc.invalidate(entry.entry_id)
            else:
                svc._writeback_chain(self.bg, entry, storages)

    def state(self):
        """Everything the bookkeeping decides, in entry ids."""
        svc = self.svc
        walk = type(svc)._chain_of
        return dict(
            victims=list(self.victims),
            chains=list(self.chains),
            walks={
                e.entry_id: [m.entry_id for m in walk(svc, e)] for e in self.live()
            },
            freed={eid for eid, e in svc.entries.items() if e.freed},
            slots=set(svc.entries),
            inactive=list(svc.inactive),
            active=list(svc.active),
            used=(svc.used, svc.active_bytes),
            counts=(svc.evictions, svc.scan_writebacks, svc.writeback_values),
            vt=(self.bg.now, self.bg.cpu_time),
            words=[self.hsit.location_word(idx) for idx in self.idxs],
        )


class TestReferenceLinksMatchIdLinks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, min_size=4, max_size=60))
    def test_same_decisions(self, ops):
        new, old = _Run(ScanAwareValueCache), _Run(IdLinkedSVC)
        for op, arg in ops:
            new.apply(op, arg)
            old.apply(op, arg)
            assert new.state() == old.state(), (op, arg)
            # What a write-back would write is never a freed value.
            for entry in new.live():
                walked = ScanAwareValueCache._chain_of(new.svc, entry)
                assert all(m.value is not None for m in walked)

    @staticmethod
    def _one_sided(cls):
        """Stitched scans that leave k1 -> k3 and k3 <- k4 one-sided,
        then free k3: k1's ``scan_next`` and k4's ``scan_prev`` still
        name it, while k2 -> k5 joins around it."""
        run = _Run(cls)
        svc = run.svc
        e = {k: run.admit(k) for k in (1, 2, 3, 4, 5)}
        for scan in ((1, 3), (2, 3), (3, 4), (4, 5), (3, 5)):
            svc.link_scan_chain([e[k] for k in scan])
        run.hsit.clear_svc(svc.entries[e[3]].hsit_idx)
        svc.invalidate(e[3])
        if cls is ScanAwareValueCache:
            k3 = svc.entries[e[3]]
            assert svc.entries[e[1]].scan_next is k3
            assert svc.entries[e[4]].scan_prev is k3 and k3.freed
        return run, e

    def _walk(self, run, e):
        return [m.key for m in type(run.svc)._chain_of(run.svc, run.svc.entries[e[1]])]

    def test_a_walk_passes_a_freed_entry_while_its_slot_stands(self):
        for cls in (ScanAwareValueCache, IdLinkedSVC):
            run, e = self._one_sided(cls)
            assert self._walk(run, e) == [b"k01"]
            # Unlinking k4 writes k3's scan_next: the walk now goes on.
            run.hsit.clear_svc(run.svc.entries[e[4]].hsit_idx)
            run.svc.invalidate(e[4])
            assert self._walk(run, e) == [b"k01", b"k05"]
            # Once k3's slot is retired, the link to it ends the walk.
            run.epoch.drain()
            assert self._walk(run, e) == [b"k01"]

    def test_an_unlink_after_retirement_leaves_the_walk_cut(self):
        for cls in (ScanAwareValueCache, IdLinkedSVC):
            run, e = self._one_sided(cls)
            run.epoch.drain()
            run.hsit.clear_svc(run.svc.entries[e[4]].hsit_idx)
            run.svc.invalidate(e[4])
            assert self._walk(run, e) == [b"k01"]
