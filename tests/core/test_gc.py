"""Garbage collection in Value Storage (§5.2, Figure 17)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prism import Prism
from repro.core.value_storage import ValueStorage
from repro.sim.vthread import VThread
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice
from tests.conftest import small_prism_config

KB = 1024
MB = 1024**2


@pytest.fixture
def tight_store():
    """Value Storage barely larger than the working set, so GC must run."""
    return Prism(
        small_prism_config(
            num_ssds=1,
            ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(512 * KB),
            chunk_size=16 * KB,
            pwb_capacity=32 * KB,
            gc_free_threshold=0.4,
            svc_capacity=32 * KB,
        )
    )


def _churn(store, t, rounds=60, keys=300, seed=5):
    """Scattered updates: each reclamation mixes hot and cold keys, so
    old chunks stay partially live and the log fragments — the
    condition GC exists for."""
    import random

    rng = random.Random(seed)
    expected = {}
    for round_no in range(rounds):
        for _ in range(60):
            i = rng.randrange(keys)
            value = bytes([round_no % 256, i % 256]) * 200
            store.put(b"g%03d" % i, value, t)
            expected[b"g%03d" % i] = value
    return expected


def test_gc_triggers_under_space_pressure(tight_store):
    t = VThread(0, tight_store.clock)
    _churn(tight_store, t)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    assert tight_store.events.of_kind("gc")


def test_gc_preserves_all_live_values(tight_store):
    t = VThread(0, tight_store.clock)
    expected = _churn(tight_store, t)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    for key, value in expected.items():
        assert tight_store.get(key, t) == value


def test_gc_reclaims_free_chunks(tight_store):
    t = VThread(0, tight_store.clock)
    _churn(tight_store, t)
    vs = tight_store.storages[0]
    # GC kept the store from running out of chunks entirely
    assert vs.free_chunks > 0
    assert vs.gc_moved_bytes > 0


def test_gc_survives_crash_afterwards(tight_store):
    t = VThread(0, tight_store.clock)
    expected = _churn(tight_store, t, rounds=45)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    tight_store.crash()
    tight_store.recover()
    for key, value in expected.items():
        assert tight_store.get(key, t) == value


def test_gc_runs_off_critical_path(tight_store):
    """GC charges the background thread, not the writer (beyond device
    contention): foreground latencies stay bounded."""
    import random

    t = VThread(0, tight_store.clock)
    rng = random.Random(5)
    worst = 0.0
    for round_no in range(60):
        for _ in range(60):
            i = rng.randrange(300)
            before = t.now
            tight_store.put(b"g%03d" % i, bytes([round_no % 256]) * 200, t)
            worst = max(worst, t.now - before)
    assert sum(vs.gc_runs for vs in tight_store.storages) > 0
    # An in-path GC would cost milliseconds; bounded stalls only.
    assert worst < 2e-3


def test_space_squeezed_run_is_byte_identical_to_seed():
    """Reclaim + local GC under space pressure: metrics, final vtime,
    mover event log and crash-label census match the manifest
    (``tests/digests.py``; the scenario fails if GC stops running)."""
    from tests import digests

    _store, digest = digests.ycsb_a_gc()
    assert digest == digests.expected("ycsb_a_gc")


# ----------------------------------------------------------------------
# what a round reads: its victims' live records, as runs, on the ring
# ----------------------------------------------------------------------
def _fragmented_store(value_size, keys, keep, **overrides):
    """One SSD, GC only when called: ``keys`` values written, then all
    but the keys ``keep(i)`` names overwritten, so the first chunks are
    left partly live — the victims the next round picks."""
    config = dict(
        num_threads=1,
        num_ssds=1,
        ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(32 * MB),
        gc_free_threshold=0.0,
        enable_svc=False,
    )
    config.update(overrides)
    store = Prism(small_prism_config(**config))
    t = VThread(0, store.clock)
    for i in range(keys):
        store.put(b"f%04d" % i, bytes([i % 251]) * value_size, t)
    store.flush()
    for i in range(keys):
        if not keep(i):
            store.put(b"f%04d" % i, bytes([(i + 1) % 251]) * value_size, t)
    store.flush()
    return store, t


def _record_victims(vs):
    """Wrap ``vs.gc_victims``: the returned dict fills with the round's
    victims and the flash bytes (header + value) of their live slots."""
    seen = {}
    pick = vs.gc_victims

    def gc_victims(count):
        victims = pick(count)
        seen["victims"] = victims
        seen["live_bytes"] = sum(
            vs.header_size + slot.size
            for chunk_id in victims
            for slot in vs.live_records_of(chunk_id)
        )
        return victims

    vs.gc_victims = gc_victims
    return seen


def _quiet(store, t):
    """A time after every device has gone idle."""
    return max(t.now, store.clock.now, store._bg_gc.now, store._bg_reclaim.now) + 1e-3


def test_gc_round_reads_only_its_live_records():
    """Bytes read from flash are Σ(header + size) over the victims' live
    slots, not one whole chunk per victim."""
    store, t = _fragmented_store(1000, 96, keep=lambda i: i % 5 == 0)
    vs = store.storages[0]
    seen = _record_victims(vs)
    before = vs.ssd.bytes_read
    store._gc(vs, _quiet(store, t))
    read = vs.ssd.bytes_read - before
    assert len(seen["victims"]) == store.config.gc_batch_chunks
    assert read == seen["live_bytes"] < len(seen["victims"]) * vs.chunk_size
    assert store.events.of_kind("gc")[-1]["read_bytes"] == read


def test_gc_round_leaves_the_read_channel_to_foreground_misses():
    """Eight 512 KiB victims about 10 % live: a foreground miss on the
    same SSD issued as the round starts — or while its reads are on the
    channel — waits behind the round's live bytes at most, not behind
    4 MiB of whole chunks."""
    store, t = _fragmented_store(
        8 * KB, 8 * 64, keep=lambda i: i % 10 == 0,
        chunk_size=512 * KB, pwb_capacity=1 * MB,
    )
    vs = store.storages[0]
    seen = _record_victims(vs)
    start = _quiet(store, t)
    store._gc(vs, start)
    assert len(seen["victims"]) == 8
    assert seen["live_bytes"] < 0.15 * 8 * vs.chunk_size
    bound = (
        2 * vs.ssd.spec.read_latency
        + seen["live_bytes"] / vs.ssd.read_channel.bandwidth
    )
    for i, delay in enumerate((0.0, 10e-6, 20e-6)):
        reader = VThread(i, store.clock)
        reader.now = start + delay
        key = b"f%04d" % (i + 1)
        assert store.get(key, reader) == bytes([i + 2]) * (8 * KB)
        assert reader.now - (start + delay) < bound


def _run_of_three(store):
    """A victim-to-be's run of at least three live records, back to back."""
    vs = store.storages[0]
    for chunk_id in sorted(vs._chunks):
        live = vs.live_records_of(chunk_id)
        for a, b, c in zip(live, live[1:], live[2:]):
            if a.offset + vs.header_size + a.size == b.offset and (
                b.offset + vs.header_size + b.size == c.offset
            ):
                return [(chunk_id, s.offset, s.hsit_idx) for s in (a, b, c)]
    raise AssertionError("no multi-record run to rot")


def _rot(vs, chunk_id, offset):
    """Flip payload bytes of one record on the primary SSD only."""
    at = chunk_id * vs.chunk_size + offset + vs.header_size
    vs.ssd.write_raw(at, bytes(b ^ 0xFF for b in vs.ssd.read_raw(at, 8)))


@pytest.mark.parametrize("mirror", [True, False], ids=["healed", "skipped"])
def test_corrupt_record_inside_a_run(mirror):
    """A record rotted in the middle of a multi-record run is healed
    from the mirror, or left in place with ``gc_skipped_corrupt``; its
    run-mates move either way."""
    store, t = _fragmented_store(
        1000, 96, keep=lambda i: i % 8 < 3,
        enable_checksums=True, mirror_chunks=mirror, gc_batch_chunks=2,
    )
    vs = store.storages[0]
    seen = _record_victims(vs)
    (_, _, i0), (chunk_id, offset, rotten), (_, _, i2) = _run_of_three(store)
    _, value = vs.read_record_raw(chunk_id, offset)
    _rot(vs, chunk_id, offset)
    store._gc(vs, _quiet(store, t))
    assert chunk_id in seen["victims"]
    for idx in (i0, i2):
        assert store.hsit.read_location(idx).chunk_id != chunk_id
    skipped = store.events.of_kind("gc_skipped_corrupt")
    if mirror:
        assert not skipped
        loc = store.hsit.read_location(rotten)
        assert loc.chunk_id != chunk_id
        assert vs.read_record_raw(loc.chunk_id, loc.vs_offset) == (rotten, value)
    else:
        assert [(e["chunk"], e["offset"]) for e in skipped] == [(chunk_id, offset)]
        assert vs.is_valid(chunk_id, offset)
        assert store.hsit.read_location(rotten).vs_offset == offset


def test_device_error_on_a_run_read_leaves_every_slot_valid():
    from repro.faults.errors import TransientReadError

    store, t = _fragmented_store(1000, 96, keep=lambda i: i % 5 == 0)
    vs = store.storages[0]
    live = {
        (chunk_id, slot.offset): slot.hsit_idx
        for chunk_id in list(vs._chunks)
        for slot in vs.live_records_of(chunk_id)
    }
    reads = []
    read_async = vs.ssd.read_async

    def failing(at, offset, size):
        reads.append(offset)
        if len(reads) == 2:
            raise TransientReadError(vs.ssd.name, "read")
        return read_async(at, offset, size)

    vs.ssd.read_async = failing
    store._gc(vs, _quiet(store, t))
    assert len(reads) == 2
    failed = store.events.of_kind("gc_failed")[-1]
    assert (failed["phase"], failed["read_bytes"]) == ("read", 0)
    assert not store.events.of_kind("gc")
    for (chunk_id, offset), idx in live.items():
        assert vs.is_valid(chunk_id, offset)
        loc = store.hsit.read_location(idx)
        assert (loc.chunk_id, loc.vs_offset) == (chunk_id, offset)


# ----------------------------------------------------------------------
# the other mover: what a PWB reclaim reads, and when
# ----------------------------------------------------------------------
def _buffered_store(keys, **overrides):
    """One thread, one SSD, no GC, no SVC, a watermark no put reaches:
    ``keys`` values of 1000-1006 bytes, then every even key written
    again, so a third of the window's records are dead.  Returns the
    store, its thread and each key's final value."""
    config = dict(
        num_threads=1,
        num_ssds=1,
        pwb_capacity=1 * MB,
        pwb_watermark=0.95,
        gc_free_threshold=0.0,
        enable_svc=False,
    )
    config.update(overrides)
    store = Prism(small_prism_config(**config))
    t = VThread(0, store.clock)
    final = {}
    for i in list(range(keys)) + list(range(0, keys, 2)):
        key = b"r%04d" % i
        final[key] = bytes([len(final) % 251 + 1]) * (1000 + i % 7)
        store.put(key, final[key], t)
    assert store.reclaims == 0
    return store, t, final


def _read_phase(store):
    """Wrap ``_place_reclaimed``: the returned dict fills with the NVM
    bytes read between the call below and the survivors' placement."""
    seen = {}
    place = store._place_reclaimed

    def placed(live, bg):
        seen["read"] = store.nvm.bytes_read - seen["before"]
        return place(live, bg)

    store._place_reclaimed = placed
    seen["before"] = store.nvm.bytes_read
    return seen


@pytest.mark.parametrize("checksums", [False, True], ids=["plain", "checked"])
def test_reclaim_reads_headers_pointer_words_and_moved_values(checksums):
    """Bytes read are each record's header and 8-byte forward pointer,
    plus the values of the live records only — of every record under
    checksums, whose CRC covers the header that decided a record's
    fate.  The ``reclaim`` event reports the same number."""
    store, t, final = _buffered_store(60, enable_checksums=checksums)
    pwb = store.pwbs[0]
    records = [pwb.peek(offset)[1] for offset in pwb._offsets]
    assert len(records) == 90
    seen = _read_phase(store)
    store._reclaim(pwb, _quiet(store, t))
    event = store.events.of_kind("reclaim")[-1]
    values = records if checksums else final.values()
    expect = len(records) * (pwb.header_size + 8) + sum(map(len, values))
    assert seen["read"] == event["read_bytes"] == expect
    assert event["live_records"] == len(final)
    for key, value in final.items():
        assert store.get(key, t) == value
        assert store.hsit.read_location(store.index.lookup(key)).in_vs


def test_reclaim_leaves_the_nvm_read_channel_to_foreground_loads():
    """A ≈ 400 KB window, two thirds live: an HSIT load stamped at the
    reclaim's start, or 10 or 20 µs into it, waits less than one 10 µs
    channel bucket plus the read latency — not behind the whole window
    booked as one request, ≈ 57 µs of channel time."""
    store, t, final = _buffered_store(270)
    pwb = store.pwbs[0]
    assert pwb.used > 400 * KB
    nvm = store.nvm
    start = _quiet(store, t)
    store._reclaim(pwb, start)
    assert store.reclaims == 1
    bound = nvm.read_channel.bucket + nvm.spec.read_latency
    idxs = [store.index.lookup(key) for key in final]
    for i, delay in enumerate((0.0, 10e-6, 20e-6)):
        reader = VThread(i + 1, store.clock)
        reader.now = start + delay
        store.hsit.read_entry(idxs[i], reader)
        assert reader.now - (start + delay) < bound


def test_a_chain_of_dependent_loads_waits_one_bucket_at_most_in_all():
    """An index walk is a chain of dependent NVM loads.  Stamped every
    10 µs through a reclaim, a chain of 20 HSIT loads ends within its
    idle-channel time plus one 10 µs bucket.  A values gather that
    filled the buckets it ran in made each link wait for its bucket's
    fill to end (≈ 43 µs for this chain)."""
    store, t, final = _buffered_store(270)
    start = _quiet(store, t)
    store._reclaim(store.pwbs[0], start)
    duration = store.events.of_kind("reclaim")[-1]["duration"]
    nvm = store.nvm
    idle = 20 * (nvm.spec.read_latency + 16 / nvm.spec.read_bandwidth)
    bound = idle + nvm.read_channel.bucket
    idxs = [store.index.lookup(key) for key in final][:20]
    stamps = [start + i * 10e-6 for i in range(int(duration / 10e-6) + 1)]
    assert len(stamps) > 20
    for i, at in enumerate(stamps):
        reader = VThread(i + 1, store.clock)
        reader.now = at
        for idx in idxs:
            store.hsit.read_entry(idx, reader)
        assert reader.now - at < bound


def test_no_reclaim_request_is_larger_than_one_record(monkeypatch):
    """Every request a reclaim puts on the NVM read channel is at most
    one header or one value: a bulk charge for the window cannot come
    back unnoticed."""
    from repro.sim.resources import BandwidthChannel

    store, t, final = _buffered_store(120, enable_checksums=True)
    nvm = store.nvm
    sizes = []
    request = BandwidthChannel.request

    def recorded(channel, at, nbytes, latency=0.0):
        if channel is nvm.read_channel:
            sizes.append(nbytes)
        return request(channel, at, nbytes, latency)

    monkeypatch.setattr(BandwidthChannel, "request", recorded)
    nvm._read_request = nvm.read_channel.request
    store._reclaim(store.pwbs[0], _quiet(store, t))
    assert store.reclaims == 1
    largest = store.pwbs[0].header_size + max(map(len, final.values()))
    assert sizes and max(sizes) <= largest


@pytest.mark.parametrize("field", ["value", "backptr", "size"])
def test_reclaim_rejects_a_damaged_record(field):
    """Under checksums every record of the window is verified before
    anything moves, including a dead one whose backward pointer or size
    was hit: the reclaim raises CorruptionError and releases nothing."""
    from repro.faults.errors import CorruptionError

    store, t, _final = _buffered_store(20, enable_checksums=True)
    pwb = store.pwbs[0]
    dead = pwb._offsets[0]  # key r0000, written again since
    assert store.hsit.read_location(store.index.lookup(b"r0000")).pwb_offset != dead
    # The top byte of the backward pointer (an index far outside the
    # HSIT), of the size (a record past the ring's end), or a payload byte.
    at = pwb.base + dead % pwb.capacity + {"backptr": 7, "size": 11, "value": 20}[field]
    store.nvm._write_raw(at, bytes([store.nvm._read_raw(at, 1)[0] ^ 0x40]))
    tail = pwb.tail
    with pytest.raises(CorruptionError):
        store._reclaim(pwb, _quiet(store, t))
    assert (pwb.tail, pwb.pending_release, store.reclaims) == (tail, None, 0)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=40),
    batches=st.lists(st.integers(1, 6), min_size=1, max_size=40),
    picks=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_planned_runs_read_what_per_record_reads_read(sizes, batches, picks):
    """The shared run planner returns the bytes one request per record
    would, in the same order, merged exactly where records touch."""
    ssd = SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(4 * MB))
    vs = ValueStorage(0, ssd, chunk_size=16 * KB, checksums=True)
    # Batches of random sizes: page-aligned appends and chunk spills
    # leave gaps between some neighbours and none between others.
    records, pos = [], 0
    for count in batches:
        batch = [(pos + i, bytes([pos + i & 0xFF]) * size)
                 for i, size in enumerate(sizes[pos : pos + count])]
        if not batch:
            break
        placements, _ = vs.write_records(0.0, batch)
        records += [(c, o, idx) for (idx, _), (c, o, _) in zip(batch, placements)]
        pos += count
    wanted = [r for r, keep in zip(records, picks) if keep] or records[:1]
    requests = vs.plan_reads(wanted)
    vs.ring.submit(0.0, requests)
    one_each = [
        ssd.read_raw(c * vs.chunk_size + o, vs.header_size + vs.slot_size(c, o))
        for c, o, _ in wanted
    ]
    assert b"".join(req.result for req in requests) == b"".join(one_each)
    # Merged exactly where records touch: no request could join its
    # predecessor.
    for before, after in zip(requests, requests[1:]):
        assert after.offset != before.offset + before.size or (
            after.context[0][0] != before.context[-1][0]
        )
    parsed = vs.parse_reads(requests, heal=None)
    assert [(c, o, idx) for c, o, idx, _ in parsed] == wanted
    assert [value for *_, value in parsed] == [
        vs.read_record_raw(c, o)[1] for c, o, _ in wanted
    ]
