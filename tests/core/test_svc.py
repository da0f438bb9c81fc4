import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epoch import EpochManager
from repro.core.hsit import HSIT
from repro.core import pointers as ptr
from repro.core.svc import ScanAwareValueCache
from repro.core.value_storage import ValueStorage
from repro.sim.vthread import VThread
from repro.storage.dram import DRAMDevice
from repro.storage.nvm import NVMDevice
from repro.storage.specs import DRAM_SPEC, FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice
from tests.conftest import count_calls, detached_svc

KB = 1024
MB = 1024**2


@pytest.fixture
def env(nvm):
    hsit = HSIT(nvm, capacity=1024)
    epoch = EpochManager()
    dram = DRAMDevice(DRAM_SPEC.with_capacity(4 * MB))
    svc = detached_svc(dram, capacity=4096, hsit=hsit, epoch=epoch)
    ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(16 * MB))
    vs = ValueStorage(0, ssd, chunk_size=16 * 1024)
    bg = VThread(-1, name="bg", background=True)
    return hsit, epoch, svc, vs, bg


def _cache_from_vs(hsit, svc, vs, key, value):
    """Write a record to VS, point HSIT at it, then cache it."""
    idx = hsit.allocate()
    ((c, o, _),), _ = vs.write_records(0.0, [(idx, value)])
    hsit.publish_location(idx, ptr.encode_vs(0, c, o))
    entry_id = svc.admit(idx, key, value)
    return idx, entry_id, (c, o)


class TestAdmissionLookup:
    def test_admit_makes_value_reachable_via_hsit(self, env):
        hsit, _, svc, vs, _ = env
        idx, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"cached")
        assert hsit.read_svc(idx) == entry_id
        assert svc.lookup(entry_id) == b"cached"
        assert svc.hits == 1

    def test_lookup_unknown_entry(self, env):
        _, _, svc, _, _ = env
        assert svc.lookup(999) is None

    def test_invalidate_hides_entry(self, env):
        hsit, _, svc, vs, _ = env
        idx, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"v")
        hsit.clear_svc(idx)
        svc.invalidate(entry_id)
        assert svc.lookup(entry_id) is None

    def test_invalidate_frees_capacity_immediately(self, env):
        hsit, _, svc, vs, _ = env
        _, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"v" * 100)
        assert svc.used == 100
        svc.invalidate(entry_id)
        assert svc.used == 0

    def test_physical_free_waits_for_epochs(self, env):
        hsit, epoch, svc, vs, _ = env
        _, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"v")
        svc.invalidate(entry_id)
        assert entry_id in svc.entries  # slot retained, bytes released
        epoch.drain()
        assert entry_id not in svc.entries

    def test_page_mode_charges_full_pages(self, nvm):
        hsit = HSIT(nvm, 16)
        svc = detached_svc(
            DRAMDevice(DRAM_SPEC), 1 << 20, hsit, EpochManager(), page_mode=True
        )
        idx = hsit.allocate()
        svc.admit(idx, b"k", b"v" * 100)
        assert svc.used == 4096

    def test_capacity_validation(self, nvm):
        with pytest.raises(ValueError):
            detached_svc(
                DRAMDevice(DRAM_SPEC), 0, HSIT(nvm, 4), EpochManager()
            )


def _fresh_cache():
    hsit = HSIT(NVMDevice(), capacity=64)
    return hsit, detached_svc(DRAMDevice(DRAM_SPEC), 1 << 20, hsit, EpochManager())


def _copy_time(nbytes):
    """What one DRAM copy of ``nbytes`` costs a thread on an idle channel."""
    return DRAMDevice(DRAM_SPEC).charge_write(VThread(0), nbytes)


class TestDramCharge:
    """A flash read lands its value in DRAM by DMA, and the SVC keeps
    that buffer: the bytes are booked on the DRAM write channel but no
    thread waits for them.  A value copied into a new buffer (a refill
    from an NVM gather) still makes its thread wait for the copy."""

    VALUE = b"v" * 32 * 1024

    def test_landed_admission_waits_for_no_copy(self):
        hsit, svc = _fresh_cache()
        reader = VThread(0)
        svc.admit(hsit.allocate(), b"k", self.VALUE, reader)
        assert svc.dram.bytes_written == len(self.VALUE)
        assert 0 < reader.now < _copy_time(len(self.VALUE))

    def test_refill_waits_for_its_copy_on_the_reclaim_thread(self):
        """The same value, cached once by a refill and once as a landed
        read, each on an idle cache: the refill costs one copy more."""
        hsit, svc = _fresh_cache()
        idx = hsit.allocate()
        svc.refills[idx] = b"k"
        reclaimer = VThread(-1, background=True)
        svc.refill(idx, self.VALUE, reclaimer)
        assert svc.dram.bytes_written == len(self.VALUE)
        assert svc.refreshes == 1 and svc.admissions == 0
        hsit, svc = _fresh_cache()
        reader = VThread(0)
        svc.admit(hsit.allocate(), b"k", self.VALUE, reader)
        copy = _copy_time(len(self.VALUE))
        assert reclaimer.now - reader.now == pytest.approx(copy)

    def test_landed_bytes_still_hold_the_write_channel(self):
        """Four refills booked at the instant a read lands its value end
        later than the same four alone, by the landed bytes' transfer,
        though the reader did not wait for them."""

        def refill_burst(landed_first):
            hsit, svc = _fresh_cache()
            reader = VThread(0)
            if landed_first:
                svc.admit(hsit.allocate(), b"k", self.VALUE, reader)
                assert reader.now < _copy_time(len(self.VALUE))
            reclaimer = VThread(-1, background=True)
            for i in range(4):
                idx = hsit.allocate()
                svc.refills[idx] = b"r%d" % i
                svc.refill(idx, self.VALUE, reclaimer)
            return reclaimer.now

        transfer = len(self.VALUE) / DRAM_SPEC.write_bandwidth
        assert refill_burst(True) - refill_burst(False) > 0.9 * transfer


class Test2Q:
    def test_admission_goes_to_inactive(self, env):
        hsit, _, svc, vs, bg = env
        _, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"v")
        svc.process_background(bg, [vs])
        assert svc.entries[entry_id].list_name == "inactive"

    def test_second_access_promotes(self, env):
        hsit, _, svc, vs, bg = env
        _, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"v")
        svc.process_background(bg, [vs])
        svc.lookup(entry_id)
        svc.process_background(bg, [vs])
        assert svc.entries[entry_id].list_name == "active"

    def test_active_list_balanced(self, env):
        hsit, _, svc, vs, bg = env
        ids = []
        for i in range(8):
            _, eid, _ = _cache_from_vs(hsit, svc, vs, b"k%d" % i, b"v" * 400)
            ids.append(eid)
        svc.process_background(bg, [vs])
        for eid in ids:
            svc.lookup(eid)
        svc.process_background(bg, [vs])
        # active share is 50% of 4096 = 2048 -> at most ~5 x 400B active
        assert svc.active_bytes <= svc.capacity * 0.5 + 400

    def test_eviction_from_inactive_when_over_capacity(self, env):
        hsit, _, svc, vs, bg = env
        entries = []
        for i in range(15):
            _, eid, _ = _cache_from_vs(hsit, svc, vs, b"k%02d" % i, b"v" * 400)
            entries.append(eid)
        svc.process_background(bg, [vs])
        assert svc.used <= svc.capacity
        assert svc.evictions > 0
        # oldest admissions evicted first
        assert svc.lookup(entries[0]) is None
        assert svc.lookup(entries[-1]) is not None

    def test_eviction_clears_hsit_word(self, env):
        hsit, _, svc, vs, bg = env
        first_idx, first_eid, _ = _cache_from_vs(hsit, svc, vs, b"k0", b"v" * 2000)
        _cache_from_vs(hsit, svc, vs, b"k1", b"v" * 2000)
        _cache_from_vs(hsit, svc, vs, b"k2", b"v" * 2000)
        svc.process_background(bg, [vs])
        assert hsit.read_svc(first_idx) is None


def _in_key_order(svc, ids):
    """Entry ids sorted by their keys: the order ``Prism.scan`` links."""
    return sorted(ids, key=lambda eid: svc.entries[eid].key)


class TestScanChains:
    def test_link_and_chain_walk(self, env):
        hsit, _, svc, vs, _ = env
        ids = []
        for i in range(5):
            _, eid, _ = _cache_from_vs(hsit, svc, vs, b"k%d" % i, b"v")
            ids.append(eid)
        svc.link_scan_chain(ids)
        chain = svc._chain_of(svc.entries[ids[2]])
        assert [e.entry_id for e in chain] == ids

    def test_linking_disabled_when_not_scan_aware(self, nvm):
        hsit = HSIT(nvm, 64)
        svc = detached_svc(
            DRAMDevice(DRAM_SPEC), 1 << 20, hsit, EpochManager(), scan_aware=False
        )
        ids = []
        for i in range(3):
            idx = hsit.allocate()
            ids.append(svc.admit(idx, b"k%d" % i, b"v"))
        svc.link_scan_chain(ids)
        assert svc.entries[ids[0]].scan_next is None

    def test_chain_writeback_rewrites_contiguously(self, env):
        hsit, _, svc, vs, bg = env
        ids = []
        idxs = []
        # interleave writes so VS placement is scattered by key
        for i in (3, 0, 4, 1, 2):
            idx, eid, _ = _cache_from_vs(hsit, svc, vs, b"k%d" % i, b"val%d" % i)
            ids.append((b"k%d" % i, eid))
            idxs.append((b"k%d" % i, idx))
        ids.sort()
        idxs.sort()
        svc.link_scan_chain([eid for _, eid in ids])
        svc.process_background(bg, [vs])
        # force eviction of a chain member
        read_before = hsit.nvm.bytes_read
        svc._writeback_chain(bg, svc.entries[ids[0][1]], [vs])
        assert svc.scan_writebacks == 1
        # Each of the 5 entries is loaded once to plan the move and
        # once by the publish CAS.
        assert hsit.nvm.bytes_read - read_before == 2 * 5 * 16
        # all members now contiguous in one chunk, ascending offsets
        locs = [hsit.read_location(idx) for _, idx in idxs]
        assert len({(l.vs_id, l.chunk_id) for l in locs}) == 1
        offsets = [l.vs_offset for l in locs]
        assert offsets == sorted(offsets)
        # and the data survived the move
        for (key, idx), loc in zip(idxs, locs):
            back, value = vs.read_record_raw(loc.chunk_id, loc.vs_offset)
            assert back == idx
            assert value == b"val" + key[-1:]

    def test_contiguous_chain_not_rewritten(self, env):
        hsit, _, svc, vs, bg = env
        idx_list = [hsit.allocate() for _ in range(4)]
        records = [(idx, b"v%d" % i) for i, idx in enumerate(idx_list)]
        placements, _ = vs.write_records(0.0, records)
        ids = []
        for (idx, val), (c, o, _s) in zip(records, placements):
            hsit.publish_location(idx, ptr.encode_vs(0, c, o))
            ids.append(svc.admit(idx, val, val))
        svc.link_scan_chain(ids)
        writes_before = vs.chunk_writes
        read_before = hsit.nvm.bytes_read
        svc._writeback_chain(bg, svc.entries[ids[0]], [vs])
        assert vs.chunk_writes == writes_before  # already contiguous
        assert svc.scan_writebacks == 0
        assert hsit.nvm.bytes_read - read_before == 4 * 16  # one load a member

    @staticmethod
    def _contiguous_chain(hsit, svc, vs):
        """Four records written as one run, each cached with the slot
        the read that fetched it recorded; returns their entry ids."""
        idx_list = [hsit.allocate() for _ in range(4)]
        records = [(idx, b"v%d" % i) for i, idx in enumerate(idx_list)]
        placements, _ = vs.write_records(0.0, records)
        ids = []
        for (idx, val), (c, o, _s) in zip(records, placements):
            word = ptr.encode_vs(0, c, o)
            hsit.publish_location(idx, word)
            ids.append(svc.admit(idx, val, val, slot=ptr.decode(word)))
        svc.link_scan_chain(ids)
        return ids

    def test_recorded_slots_spare_the_gather(self, env, monkeypatch):
        hsit, _, svc, vs, bg = env
        ids = self._contiguous_chain(hsit, svc, vs)
        gathers = []
        monkeypatch.setattr(hsit, "read_entries", lambda *a: gathers.append(a))
        writes_before = vs.chunk_writes
        read_before = hsit.nvm.bytes_read
        svc._writeback_chain(bg, svc.entries[ids[1]], [vs])
        assert gathers == []
        assert hsit.nvm.bytes_read == read_before
        assert vs.chunk_writes == writes_before and svc.scan_writebacks == 0
        # Decided all the same: the victim is gone, the chain dissolved.
        assert svc.entries[ids[1]].freed and svc.evictions == 1
        assert all(
            svc.entries[eid].scan_prev is None and svc.entries[eid].scan_next is None
            for eid in ids
        )

    def test_a_stale_slot_takes_the_gather(self, env):
        hsit, _, svc, vs, bg = env
        ids = self._contiguous_chain(hsit, svc, vs)
        # Move the second member, as a GC round would: write, publish,
        # invalidate the slot its entry still records.
        moved = svc.entries[ids[1]]
        ((c, o, _),), _ = vs.write_records(0.0, [(moved.hsit_idx, moved.value)])
        hsit.publish_location(moved.hsit_idx, ptr.encode_vs(0, c, o))
        vs.invalidate(moved.slot.chunk_id, moved.slot.vs_offset)
        read_before = hsit.nvm.bytes_read
        svc._writeback_chain(bg, svc.entries[ids[0]], [vs])
        assert hsit.nvm.bytes_read - read_before >= 4 * 16

    def test_a_lone_member_takes_no_gather(self, env):
        hsit, _, svc, vs, bg = env
        _, eid, _ = _cache_from_vs(hsit, svc, vs, b"k1", b"v")
        _, gone, _ = _cache_from_vs(hsit, svc, vs, b"k2", b"v")
        svc.link_scan_chain([eid, gone])
        entry, freed = svc.entries[eid], svc.entries[gone]
        assert entry.scan_next is freed
        svc.invalidate(gone)
        entry.scan_next = freed  # a neighbour freed since
        assert svc._chain_of(entry) == [entry]
        read_before = hsit.nvm.bytes_read
        svc._writeback_chain(bg, entry, [vs])
        assert hsit.nvm.bytes_read == read_before
        assert entry.freed and entry.scan_next is None

    def test_chain_members_stay_cached_after_writeback(self, env):
        hsit, _, svc, vs, bg = env
        ids = []
        for i in (2, 0, 1):
            _, eid, _ = _cache_from_vs(hsit, svc, vs, b"k%d" % i, b"w%d" % i)
            ids.append(eid)
        svc.process_background(bg, [vs])
        svc.link_scan_chain(_in_key_order(svc, ids))
        victim = svc.entries[ids[0]]
        svc._writeback_chain(bg, victim, [vs])
        live = [eid for eid in ids if svc.lookup(eid) is not None]
        assert len(live) == 2  # only the victim left the cache


# Scan-chain operations for the ordering invariant: a scan over some
# keys (each served by its newest live entry, or cached anew, then all
# linked), a lone admission, invalidating or writing back the n-th live
# entry, an eviction, and epochs passing.
_CHAIN_KEYS = 10
_CHAIN_OPS = st.one_of(
    st.tuples(
        st.just("scan"),
        st.lists(st.integers(0, _CHAIN_KEYS - 1), min_size=2, max_size=8, unique=True),
    ),
    st.tuples(st.just("admit"), st.integers(0, _CHAIN_KEYS - 1)),
    st.tuples(st.just("invalidate"), st.integers(0, 31)),
    st.tuples(st.just("writeback"), st.integers(0, 31)),
    st.tuples(st.just("evict"), st.just(0)),
    st.tuples(st.just("drain"), st.just(0)),
)


class TestChainOrder:
    """Keys strictly increase along ``scan_next`` and decrease along
    ``scan_prev``, whatever links, frees and write-backs ran: the
    reason ``_chain_of``'s walks cannot cycle."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_CHAIN_OPS, min_size=4, max_size=40))
    def test_links_point_to_greater_keys(self, ops):
        hsit = HSIT(NVMDevice(), capacity=256)
        epoch = EpochManager()
        svc = detached_svc(
            DRAMDevice(DRAM_SPEC.with_capacity(4 * MB)), 1 << 20, hsit, epoch
        )
        vs = ValueStorage(
            0, SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(4 * MB)), chunk_size=16 * 1024
        )
        bg = VThread(-1, name="bg", background=True)
        keys = [b"k%02d" % i for i in range(_CHAIN_KEYS)]
        idxs = []
        for key in reversed(keys):  # scattered: later keys sit first
            idx = hsit.allocate()
            ((c, o, _),), _ = vs.write_records(0.0, [(idx, b"v" + key)])
            hsit.publish_location(idx, ptr.encode_vs(0, c, o))
            idxs.insert(0, idx)
        newest = {}  # key number -> its latest entry id

        def live():
            return [e for e in svc.entries.values() if not e.freed]

        def admit(k):
            loc = ptr.decode(ptr.clear_dirty(hsit.location_word(idxs[k])))
            newest[k] = svc.admit(idxs[k], keys[k], b"v", slot=loc)
            return newest[k]

        for op, arg in ops:
            if op == "scan":
                svc.link_scan_chain([
                    newest[k] if svc.lookup(newest.get(k, -1)) else admit(k)
                    for k in sorted(arg)
                ])
            elif op == "admit":
                admit(arg)
            elif op == "evict":
                svc.process_background(bg, [vs])
                svc._evict_one(bg, [vs])
            elif op == "drain":
                epoch.drain()
            elif live():
                entry = live()[arg % len(live())]
                if op == "invalidate":
                    hsit.clear_svc(entry.hsit_idx)
                    svc.invalidate(entry.entry_id)
                else:
                    svc._writeback_chain(bg, entry, [vs])
            for entry in svc.entries.values():
                nxt, prev = entry.scan_next, entry.scan_prev
                assert nxt is None or nxt.key > entry.key
                assert prev is None or prev.key < entry.key
            for entry in live():
                chain = svc._chain_of(entry)
                # A freed entry may be linked to, never walked into.
                assert all(not m.freed for m in chain)
                walked = [m.key for m in chain]
                assert walked == sorted(set(walked))


class TestBackgroundCallBudget:
    """Python + C calls ``process_background`` makes per eviction, once
    its queue is drained: a plain eviction, and the eviction of a
    settled scan chain of eight (its slots recorded, valid and in
    order), which walks, checks and dissolves the chain with no HSIT
    load.  Sixteen runs are admitted member by member, so the first
    victims are the runs' heads; capacity is lowered by ``k`` values to
    evict exactly ``k``."""

    VALUE = b"v" * 100
    RUNS = 16

    def _cache(self, length):
        hsit = HSIT(NVMDevice(), capacity=1024)
        svc = detached_svc(
            DRAMDevice(DRAM_SPEC.with_capacity(4 * MB)), 1 << 20, hsit, EpochManager()
        )
        vs = ValueStorage(
            0, SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(16 * MB)), chunk_size=64 * KB
        )
        runs = []
        for r in range(self.RUNS):
            idxs = [hsit.allocate() for _ in range(length)]
            placements, _ = vs.write_records(0.0, [(i, self.VALUE) for i in idxs])
            run = []
            for m, (idx, (c, o, _s)) in enumerate(zip(idxs, placements)):
                word = ptr.encode_vs(0, c, o)
                hsit.publish_location(idx, word)
                run.append((idx, b"r%02dm%02d" % (r, m), ptr.decode(word)))
            runs.append(run)
        ids = [[] for _ in runs]
        for m in range(length):
            for r, run in enumerate(runs):
                idx, key, slot = run[m]
                ids[r].append(svc.admit(idx, key, self.VALUE, slot=slot))
        if length > 1:
            for run_ids in ids:
                svc.link_scan_chain(run_ids)
        bg = VThread(-1, name="bg", background=True)
        svc.process_background(bg, [vs])
        return svc, vs, bg

    def _calls(self, length, k):
        svc, vs, bg = self._cache(length)
        svc.capacity = svc.used - k * len(self.VALUE)
        loaded = svc.hsit.nvm.bytes_read
        calls = count_calls(svc.process_background, bg, [vs])
        assert svc.evictions == k and svc.scan_writebacks == 0
        assert svc.hsit.nvm.bytes_read == loaded
        return calls

    # Measured 9 and 40 on CPython 3.11 (3.12: 9 and 39); 10 and 41
    # while _drop freed its victim through _logical_free, 14 and 68
    # while the lists, links and queue named entries by id.
    @pytest.mark.parametrize(
        "length, budget", [(1, 9), (8, 40)], ids=["plain", "chain_of_8"]
    )
    def test_calls_per_eviction(self, length, budget):
        few, many = 2, 10
        per_eviction = (self._calls(length, many) - self._calls(length, few)) / (
            many - few
        )
        assert per_eviction <= budget


class TestFreedBytes:
    """Each free path drops the entry's value at once; only its
    ``entries`` slot waits two epochs for readers (§5.4)."""

    @staticmethod
    def _freed(svc, epoch, entry_id):
        entry = svc.entries[entry_id]
        assert entry.freed and entry.value is None
        epoch.drain()
        assert entry_id not in svc.entries

    def test_invalidate_releases_the_value(self, env):
        hsit, epoch, svc, vs, _ = env
        idx, entry_id, _ = _cache_from_vs(hsit, svc, vs, b"k", b"v" * 100)
        hsit.clear_svc(idx)
        svc.invalidate(entry_id)
        self._freed(svc, epoch, entry_id)

    def test_eviction_releases_the_value(self, env):
        hsit, epoch, svc, vs, bg = env
        ids = [
            _cache_from_vs(hsit, svc, vs, b"k%d" % i, b"v" * 2000)[1]
            for i in range(3)
        ]
        svc.process_background(bg, [vs])
        assert svc.evictions == 1
        self._freed(svc, epoch, ids[0])

    def test_chain_writeback_releases_only_the_victim(self, env):
        hsit, epoch, svc, vs, bg = env
        ids = []
        for i in (2, 0, 1):
            _, eid, _ = _cache_from_vs(hsit, svc, vs, b"k%d" % i, b"w%d" % i)
            ids.append(eid)
        svc.process_background(bg, [vs])
        svc.link_scan_chain(_in_key_order(svc, ids))
        svc._writeback_chain(bg, svc.entries[ids[0]], [vs])
        assert svc.scan_writebacks == 1
        for eid, value in zip(ids[1:], (b"w0", b"w1")):
            assert svc.entries[eid].value == value
        self._freed(svc, epoch, ids[0])
        assert svc.lookup(ids[1]) == b"w0" and svc.lookup(ids[2]) == b"w1"

    def test_retired_copies_hold_no_bytes_under_churn(self):
        """Sixteen readers, uniform over five times the cache: evicted
        copies wait for epochs, but the bytes still reachable from the
        cache are its live entries' alone."""
        from repro.bench.runner import preload, run_workload
        from repro.core.prism import Prism
        from repro.workloads.ycsb import WorkloadSpec
        from tests.conftest import KB, small_prism_config

        store = Prism(small_prism_config(num_threads=16, svc_capacity=64 * KB))
        preload(store, 80, value_size=4 * KB)
        spec = WorkloadSpec(name="C-uniform", read=1.0, distribution="uniform")
        run_workload(store, spec, 2_000, 80, num_threads=16,
                     value_size=4 * KB, collect_metrics=False)
        svc = store.svc
        assert svc.evictions > 0 and store.epoch.pending > 0
        held = sum(len(e.value) for e in svc.entries.values() if e.value is not None)
        assert held <= svc.capacity


def test_crash_empties_cache():
    """Nothing empties the cache: the restart builds another, and
    recovery clears the HSIT words that named the old one's entries."""
    from repro.core.prism import Prism
    from tests.conftest import small_prism_config

    store = Prism(small_prism_config())
    store.put(b"k", b"v" * 100)
    store.flush()
    assert store.get(b"k") == b"v" * 100  # from Value Storage: admitted
    idx = store.index.lookup(b"k")
    old = store.svc
    assert len(old) == 1 and store.hsit.read_svc(idx) is not None
    store.crash()
    store.recover()
    assert store.svc is not old
    assert len(store.svc) == 0
    assert store.svc.used == 0
    assert store.hsit.read_svc(idx) is None
    assert store.get(b"k") == b"v" * 100
