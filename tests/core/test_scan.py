"""Range scans: the fetch overlaps every Value Storage (one batch per
SSD) and hides the in-memory copies behind the flash reads, runs land
in completion order, faults on any storage still repair or raise
typed, results equal point reads, and the host cost per key is
budgeted."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.repair
from repro.core import pointers as ptr
from repro.core.prism import Prism
from repro.core.pwb import PersistentWriteBuffer
from repro.faults.errors import ReadDegradedError, UnrecoverableCorruptionError
from repro.faults.injector import FaultConfig
from repro.sim.vthread import VThread
from repro.storage.dram import DRAMDevice
from tests import digests
from tests.conftest import KB, count_calls, small_prism_config
from tests.core.test_prism import timed_svc_publishes
from tests.repair.test_repair import _rot_primary


def _place(store, vs_id, keyed_values):
    """Index ``(key, value)`` pairs whose only copy is one contiguous
    run in a fresh chunk of Value Storage ``vs_id`` — cold: not in a
    PWB, not in the SVC."""
    vs = store.storages[vs_id]
    idxs = [store.hsit.allocate() for _ in keyed_values]
    placements, _ = vs.write_records(
        0.0, [(idx, value) for idx, (_, value) in zip(idxs, keyed_values)]
    )
    for idx, (key, _), (chunk, off, _) in zip(idxs, keyed_values, placements):
        store.hsit.publish_location(idx, ptr.encode_vs(vs_id, chunk, off))
        store.index.insert(key, idx)


def _pairs(parity, size, n=10):
    """The first ``n`` keys of one parity out of k00..k19, with
    ``size``-byte values."""
    return [(b"k%02d" % i, bytes([i]) * size) for i in range(parity, 2 * n, 2)]


# The phases of one scan, in order; the last four are its fetch.
FETCH = ("submit", "memory_copy", "flash_wait", "land")
SCAN_PHASES = ("index_scan", "hsit_gather") + FETCH


def _phase_totals(store):
    return [store.metrics.histogram(f"phase.scan.{name}").total for name in SCAN_PHASES]


def _scan_latency(on_vs0, on_vs1, **config):
    store = Prism(small_prism_config(chunk_size=256 * KB, **config))
    if on_vs0:
        _place(store, 0, on_vs0)
    if on_vs1:
        _place(store, 1, on_vs1)
    t = VThread(0, store.clock)
    got = store.scan(b"k00", 20, t)
    assert got == sorted(on_vs0 + on_vs1)
    return t.now


class TestFetchOverlapsStorages:
    def test_two_ssd_scan_waits_for_the_slower_device_only(self):
        """Cold records on both SSDs: the scan is done a few µs after
        the slower storage's fetch alone would be — the other storage
        adds its keys' index walk, one submission and their cache
        admission, but no device wait — not after the two fetches back
        to back."""
        light, heavy = _pairs(0, 1 * KB, n=3), _pairs(1, 12 * KB)
        only0 = _scan_latency(light, [])
        only1 = _scan_latency([], heavy)
        both = _scan_latency(light, heavy)
        assert min(only0, only1) > 50e-6  # each alone pays a device read
        assert max(only0, only1) <= both < max(only0, only1) + 8e-6
        assert both < only0 + only1 - 40e-6

    def test_one_ssd_scan_keeps_its_exact_clock(self):
        """Nothing to overlap on one SSD: after the gather of its 20
        HSIT entries (two waves) the fetch is the blocking fetch, bit
        for bit."""
        now = _scan_latency(_pairs(0, 1 * KB) + _pairs(1, 12 * KB), [], num_ssds=1)
        assert repr(now) == "7.093641981365716e-05"

    def test_fetch_phase_is_end_to_end_while_ssd_waits_overlap(self):
        """``read.ssd_wait`` gets one sample per storage and they
        overlap in time, so their sum exceeds the scan's fetch — its
        ``submit`` + ``memory_copy`` + ``flash_wait`` + ``land`` phases,
        which are end to end."""
        store = Prism(small_prism_config(chunk_size=256 * KB, enable_metrics=True))
        _place(store, 0, _pairs(0, 1 * KB))
        _place(store, 1, _pairs(1, 12 * KB))
        store.scan(b"k00", 20, VThread(0, store.clock))
        waits = store.metrics.histogram("phase.read.ssd_wait")
        fetch = [store.metrics.histogram(f"phase.scan.{name}") for name in FETCH]
        assert waits.count == 2
        assert [phase.count for phase in fetch] == [1, 1, 1, 1]
        fetch_total = sum(phase.total for phase in fetch)
        assert waits.total > fetch_total > waits.max_ns / 1e9

    def test_hsit_gather_is_its_own_phase(self):
        """Walk, gather and the four fetch phases partition the scan;
        the gather of 20 entries is two waves of one 0.30 us NVM
        latency each, not 40 word loads."""
        store = Prism(small_prism_config(chunk_size=256 * KB, enable_metrics=True))
        _place(store, 0, _pairs(0, 1 * KB))
        _place(store, 1, _pairs(1, 12 * KB))
        t = VThread(0, store.clock)
        store.scan(b"k00", 20, t)
        phases = [
            store.metrics.histogram(f"phase.scan.{name}") for name in SCAN_PHASES
        ]
        assert [phase.count for phase in phases] == [1] * 6
        gather = phases[1]
        assert 0.60e-6 < gather.total < 0.70e-6
        assert sum(phase.total for phase in phases) == pytest.approx(t.now)


class TestFetchPipeline:
    """The fetch submits every flash read, copies the PWB and SVC
    values while they fly, then lands each run in completion order."""

    def _fetch_time(self, hot, cold):
        """Latency of one scan over ``hot`` (values on SSD 0, each read
        once so the SVC holds it) and ``cold`` (one run on SSD 1),
        without its index walk and HSIT gather."""
        store = Prism(small_prism_config(chunk_size=256 * KB, enable_metrics=True))
        if hot:
            _place(store, 0, hot)
        if cold:
            _place(store, 1, cold)
        t = VThread(0, store.clock)
        for key, _ in hot:
            store.get(key, t)
        before, start = _phase_totals(store), t.now
        assert store.scan(b"k00", 20, t) == sorted(hot + cold)
        walk, gather = (a - b for a, b in zip(_phase_totals(store)[:2], before))
        return t.now - start - walk - gather

    def test_svc_copies_hide_behind_the_flash_read(self):
        """Ten SVC hits beside one flash run cost nothing on top of that
        run's submit + flash read + admits — not copies + flash +
        admits, the price of copying before the submit."""
        hot, cold = _pairs(0, 4 * KB), _pairs(1, 4 * KB)
        copies = self._fetch_time(hot, [])
        flash = self._fetch_time([], cold)
        both = self._fetch_time(hot, cold)
        assert copies > 3e-6 and flash > 50e-6
        assert both <= flash + 1e-12
        assert both < copies + flash - 3e-6

    def test_runs_land_in_completion_order(self):
        """Storage 0's run is submitted first but is slower: storage 1's
        records are admitted first.  What the scan returns and the
        scan chain stay in key order."""
        store = Prism(small_prism_config(chunk_size=256 * KB))
        heavy, light = _pairs(0, 12 * KB), _pairs(1, 1 * KB, n=3)
        _place(store, 0, heavy)
        _place(store, 1, light)
        assert store.scan(b"k00", 20, VThread(0, store.clock)) == sorted(heavy + light)
        entries = store.svc.entries
        admitted = [entry.key for _, entry in sorted(entries.items())]
        assert admitted == [key for key, _ in light + heavy]
        node = next(entry for entry in entries.values() if entry.key == b"k00")
        chain = [node.key]
        while node.scan_next is not None:
            node = node.scan_next
            chain.append(node.key)
        assert chain == sorted(key for key, _ in heavy + light)

    def test_landing_costs_the_svc_word_publishes_alone(self):
        """Each landed record becomes an SVC entry without a DRAM copy:
        the ``land`` phase of a scan of ten cold 4 KB values is its ten
        SVC-word publishes, less than the ten copies it used to wait
        for."""
        store = Prism(small_prism_config(chunk_size=256 * KB, enable_metrics=True))
        cold = _pairs(0, 4 * KB)
        _place(store, 0, cold)
        spans = timed_svc_publishes(store)
        written = store.dram.bytes_written
        assert store.scan(b"k00", 20, VThread(0, store.clock)) == cold
        land = store.metrics.histogram("phase.scan.land").total
        assert len(spans) == len(cold)
        assert land == pytest.approx(sum(spans), abs=1e-15)
        copy = DRAMDevice().charge_write(VThread(0), 4 * KB)
        assert land < len(cold) * copy
        assert store.dram.bytes_written - written == 4 * KB * len(cold)

    def test_copies_precede_repairs(self, monkeypatch):
        """PWB-resident keys interleaved with keys on a dead SSD that
        has a mirror: the scan returns every value, and every PWB copy
        is made before the first repair — a repair is a chunk write and
        a publish, and the copies read what classify saw."""
        store = _faulty_store()
        odd = _pairs(1, 1 * KB)  # _faulty_store put these on SSD 1
        fresh = [(key, b"p" * 300) for key, _ in _pairs(0, 1 * KB)]
        for key, value in fresh:
            store.put(key, value)
        store.injector.kill_device(store.storages[1].ssd.name)
        log = []
        pwb_read = PersistentWriteBuffer.read
        read_repair = repro.repair.read_repair

        def logged(name, fn):
            def call(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(PersistentWriteBuffer, "read", logged("copy", pwb_read))
        monkeypatch.setattr(repro.repair, "read_repair", logged("repair", read_repair))
        assert store.scan(b"k00", 20) == sorted(fresh + odd)
        assert log == ["copy"] * len(fresh) + ["repair"] * len(odd)

    def test_phases_add_up_to_each_scan(self):
        """Over scans that mix PWB, SVC and both SSDs, the six phases of
        each scan sum to its end-to-end latency."""
        store = Prism(
            small_prism_config(
                pwb_capacity=8 * KB, svc_capacity=6 * KB, chunk_size=4 * KB,
                enable_metrics=True,
            )
        )
        t = VThread(0, store.clock)
        keys = [b"k%02d" % i for i in range(40)]
        for i, key in enumerate(keys):
            store.put(key, bytes([i + 1]) * 300, t)
        store.flush()
        for key in keys[::3]:
            store.get(key, t)
        for key in keys[::5]:
            store.put(key, b"new" * 50, t)
        for start, count in [(0, 40), (3, 9), (17, 20), (0, 40)]:
            before, t0 = _phase_totals(store), t.now
            store.scan(keys[start], count, t)
            spent = sum(a - b for a, b in zip(_phase_totals(store), before))
            assert abs(spent - (t.now - t0)) < 1e-12


def test_scan_run_is_byte_identical_to_manifest():
    """Seeded YCSB-E on two SSDs, pinned bit for bit: metrics and final
    vtime match ``tests/digests.json``.  The scenario itself fails if
    no scan fetches from both storages or no chain is written back."""
    _store, digest = digests.ycsb_e_scan()
    assert digest == digests.expected("ycsb_e_scan")


# ---------------------------------------------------------------------------
# faults on the second storage of a scan
# ---------------------------------------------------------------------------
def _faulty_store(**overrides):
    config = dict(
        chunk_size=256 * KB, enable_checksums=True, mirror_chunks=True,
        enable_metrics=True, faults=FaultConfig(),
    )
    config.update(overrides)
    store = Prism(small_prism_config(**config))
    _place(store, 0, _pairs(0, 1 * KB))
    _place(store, 1, _pairs(1, 1 * KB))
    return store


def _rot(store, key):
    """Rot ``key``'s record on its primary SSD; returns where it is."""
    loc = store.hsit.read_location(store.index.lookup(key))
    _rot_primary(store, loc.vs_id, loc)
    return loc


class TestFaultsOnTheSecondStorage:
    EXPECT = sorted(_pairs(0, 1 * KB) + _pairs(1, 1 * KB))

    def test_corrupt_record_is_repaired_from_the_mirror(self):
        store = _faulty_store()
        loc = _rot(store, b"k07")
        assert loc.vs_id == 1  # submitted second, parsed second
        assert store.scan(b"k00", 20) == self.EXPECT
        assert store.stats()["corruption_detected"] == 1
        assert len(store.events.of_kind("repair")) == 1
        assert store.scan(b"k00", 20) == self.EXPECT  # healed, and cached

    def test_corrupt_record_without_a_copy_is_typed_loss(self):
        store = _faulty_store(mirror_chunks=False)
        _rot(store, b"k07")
        with pytest.raises(UnrecoverableCorruptionError) as err:
            store.scan(b"k00", 20)
        assert err.value.key == b"k07"

    def test_dead_device_is_served_from_its_mirror(self):
        store = _faulty_store()
        store.injector.kill_device(store.storages[1].ssd.name)
        assert store.scan(b"k00", 20) == self.EXPECT

    def test_exactly_the_dead_storages_misses_are_repaired(self, monkeypatch):
        """SSD 1 dies mid-run, after some of its keys were cached and
        some rewritten into the PWB: the scan sends exactly the keys it
        would have read from SSD 1 to ``read_repair`` (as dead-device
        repairs), reads SSD 0's misses from flash, and returns what
        point reads return."""
        store = _faulty_store()
        t = VThread(0, store.clock)
        model = dict(self.EXPECT)
        for key in (b"k01", b"k02", b"k09"):
            store.get(key, t)
        for key in (b"k05", b"k06"):
            model[key] = b"p" * 300
            store.put(key, model[key], t)
        store.injector.kill_device(store.storages[1].ssd.name, at=t.now)
        svc = store.svc
        on_dead_flash = []
        for key in model:
            loc, entry_id = store.hsit.read_entry(store.index.lookup(key))
            cached = entry_id in svc.entries and not svc.entries[entry_id].freed
            if loc.in_vs and loc.vs_id == 1 and not cached:
                on_dead_flash.append(key)
        assert on_dead_flash == [b"k%02d" % i for i in (3, 7, 11, 13, 15, 17, 19)]
        repaired = []
        read_repair = repro.repair.read_repair

        def logged(store, idx, key, vs_id, chunk_id, offset, thread, dead=False):
            repaired.append((key, vs_id, dead))
            return read_repair(store, idx, key, vs_id, chunk_id, offset, thread, dead)

        monkeypatch.setattr(repro.repair, "read_repair", logged)
        got = store.scan(b"k00", 20, t)
        assert repaired == [(key, 1, True) for key in on_dead_flash]
        assert got == sorted(model.items())
        assert got == [(key, store.get(key, t)) for key in sorted(model)]

    def test_dead_device_without_a_mirror_is_read_degraded(self):
        store = _faulty_store(mirror_chunks=False)
        store.injector.kill_device(store.storages[1].ssd.name)
        with pytest.raises(ReadDegradedError) as err:
            store.scan(b"k00", 20)
        assert err.value.device == store.storages[1].ssd.name
        # The healthy storage's half still scans.
        assert store.scan(b"k18", 1) == self.EXPECT[18:19]


# ---------------------------------------------------------------------------
# scan == sorted point reads, whatever mix of PWB / SVC / Value Storage
# ---------------------------------------------------------------------------
_KEYS = [b"k%02d" % i for i in range(40)]
_key = st.sampled_from(_KEYS)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _key, st.integers(min_value=1, max_value=6)),
        st.tuples(st.just("delete"), _key),
        st.tuples(st.just("flush")),
        st.tuples(st.just("get"), _key),
        st.tuples(st.just("scan"), _key, st.integers(min_value=1, max_value=40)),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(num_ssds=st.integers(min_value=1, max_value=3), ops=_ops)
def test_scan_equals_sorted_point_reads(num_ssds, ops):
    """Random put / delete / flush / get / scan interleavings on 1-3
    SSDs, with an SVC of a dozen values so that scans find their range
    spread over PWB, cache and every storage: each scan returns exactly
    the model's pairs, and each pair is what ``get`` returns."""
    store = Prism(
        small_prism_config(
            num_ssds=num_ssds, pwb_capacity=8 * KB, svc_capacity=6 * KB,
            chunk_size=4 * KB,
        )
    )
    threads = [VThread(i, store.clock) for i in range(2)]
    # Start cold: every key on flash, spread over the SSDs by reclaim.
    model = {key: bytes([i + 1]) * 300 for i, key in enumerate(_KEYS)}
    for i, (key, value) in enumerate(model.items()):
        store.put(key, value, threads[i % 2])
    store.flush()
    for n, op in enumerate(ops):
        t = threads[n % 2]
        if op[0] == "put":
            value = bytes([n % 251 + 1]) * (op[2] * 97)
            store.put(op[1], value, t)
            model[op[1]] = value
        elif op[0] == "delete":
            assert store.delete(op[1], t) == (model.pop(op[1], None) is not None)
        elif op[0] == "flush":
            store.flush()
        elif op[0] == "get":
            assert store.get(op[1], t) == model.get(op[1])
        else:
            expect = sorted(kv for kv in model.items() if kv[0] >= op[1])[: op[2]]
            assert store.scan(op[1], op[2], t) == expect
            assert [(k, store.get(k, t)) for k, _ in expect] == expect
    store.flush()
    assert store.scan(_KEYS[0], len(_KEYS)) == sorted(model.items())


# ---------------------------------------------------------------------------
# host cost per returned key
# ---------------------------------------------------------------------------
class TestScanCallBudget:
    """Python + C calls of one ``Prism.scan`` (metrics off), fixed part
    and per-key part, on the two extremes of a range: every value in
    the SVC, and every value cold on flash in one contiguous run.  Per
    key, a hit is its share of the HSIT gather (one channel request,
    one entry decode) and the SVC touch; a miss is its share of the
    gather, the slot size, the record parse and the SVC admission.  The
    fixed part holds the gather's own frames."""

    KEYS = 64

    def _store(self):
        store = Prism(small_prism_config(chunk_size=256 * KB, svc_capacity=1024 * KB))
        _place(store, 0, [(b"k%02d" % i, bytes([i]) * 512) for i in range(self.KEYS)])
        return store, VThread(0, store.clock)

    # Measured 18.02 per key + 49.86 and 10.02 per key + 27.86 on
    # CPython 3.11 (3.12: the same per key, 46.86 and 24.86 fixed);
    # the hit range paid one fixed call more while the scan listed its
    # HSIT indexes in a comprehension;
    # 26.02 + 52.86 and 15.02 + 29.86 while the HSIT gather appended
    # each address, split each entry through _decode_entry and sliced
    # it out of its page through gather_pages, a channel request read
    # its bucket with dict.get, and classify called _device_dead and
    # misses.setdefault per miss;
    # a miss paid one call more per key while its SVC admission took
    # len(value) twice, and one more while its record header was
    # unpacked as two int.from_bytes; 29.39 + 67.86 and 16.02 + 29.86 while an NVM load went through
    # ``_read_raw`` and a multi-page read paid a divmod, a min and a
    # dict.get per page; one call more per key each while a hit went
    # through ``DRAMDevice.read`` and an admission through
    # ``_charge_of``; a miss paid one call more per key while its
    # admission waited for a DRAM copy, 41.4 + 64 and 23.1 + 26 while
    # each key paid two HSIT word loads, 52.4 and 30.0 per key before
    # the scan path went per leaf and per run.
    @pytest.mark.parametrize(
        "cached, per_key_budget, fixed_budget",
        [(False, 18.1, 50), (True, 10.1, 28)],
        ids=["all_miss_range", "all_hit_range"],
    )
    def test_calls_per_returned_key(self, cached, per_key_budget, fixed_budget):
        few, many = 8, self.KEYS
        calls = {}
        for n in (few, many):
            store, t = self._store()
            if cached:
                store.scan(b"k00", many, t)  # admit everything
            calls[n] = count_calls(store.scan, b"k00", n, t)
        per_key = (calls[many] - calls[few]) / (many - few)
        assert per_key <= per_key_budget
        assert calls[few] - few * per_key <= fixed_budget
