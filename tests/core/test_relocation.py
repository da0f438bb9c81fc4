"""The one relocation primitive, failed at every step (ISSUE 13).

Reclaim, local GC, GC demotion, GC promotion and the read-triggered
promotion drain all move data through ``Prism._relocate``: write the
batch, publish each forward pointer, contain a partial publish.  For
each mover this injects a device error at the batch write and at the
first, middle and last publish (before the pointer lands, and after it
landed but before the mover heard back), then checks that the store is
consistent, nothing acknowledged was lost, the mover reported the
failure the way it always has, and a retry finishes the job.

A structural test keeps the primitive single: a fifth hand-rolled
publish loop in ``core/prism.py`` fails it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

from repro.core import pointers as ptr
from repro.core import prism as prism_module
from repro.core.checker import audit
from repro.core.prism import Prism
from repro.faults.errors import DeviceError
from repro.sim.vthread import VThread
from repro.storage.specs import QLC_SSD_SPEC
from repro.tiering import TierManager
from tests.conftest import KB, small_prism_config

BATCH = 6  # records per mover batch: first, middle and last all differ


def _put_all(store: Prism, prefix: bytes) -> dict:
    """BATCH keys on one thread, so they share a PWB and a reclaim."""
    t = VThread(0, store.clock)
    expect = {}
    for i in range(BATCH):
        key = prefix + b"%02d" % i
        expect[key] = bytes([i]) * 900
        store.put(key, expect[key], t)
    return expect


def _tiered(**overrides) -> Prism:
    return Prism(
        small_prism_config(
            num_ssds=1,
            enable_checksums=True,
            enable_tiering=True,
            num_cold_ssds=1,
            cold_ssd_spec=QLC_SSD_SPEC.with_capacity(4096 * KB),
            **overrides,
        )
    )


def _location(store: Prism, key: bytes) -> ptr.Location:
    idx = store.index.lookup(key, None)
    return ptr.decode(ptr.clear_dirty(store.hsit.location_word(idx)))


def _stored(store: Prism, key: bytes) -> bytes:
    """The value the forward pointer leads to, read without a ``get``:
    a get touches the temperature tracker and queues promotions, which
    would change what the retried mover selects."""
    loc = _location(store, key)
    if loc.in_pwb:
        return store.pwbs[loc.pwb_id].read(loc.pwb_offset)[1]
    return store.storages[loc.vs_id].read_record_raw(loc.chunk_id, loc.vs_offset)[1]


# ----------------------------------------------------------------------
# one scenario per mover
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    store: Prism
    expect: Dict[bytes, bytes]
    run: Callable[[], None]  # trigger the mover once
    label: str  # crash label the mover passes to _relocate
    bg: VThread  # background thread it runs on
    failed_kind: Optional[str]  # event a failed round emits
    done_kind: str  # event a round that moved something emits
    arrived: Callable[[ptr.Location], bool]  # is this record where the mover sends it?


def _reclaim() -> Scenario:
    store = Prism(small_prism_config(enable_checksums=True))
    expect = _put_all(store, b"r")
    pwb = store.pwbs[0]
    return Scenario(
        store, expect, lambda: store._reclaim(pwb, store.clock.now),
        "reclaim", store._bg_reclaim, "reclaim_failed", "reclaim",
        lambda loc: loc.in_vs,
    )


def _reclaim_refill() -> Scenario:
    """A reclaim of updates to keys the SVC held: each record it moves
    also refills the cache, so a publish that fails must leave no
    refill behind for a value that is no longer in a PWB (I5)."""
    store = Prism(small_prism_config(enable_checksums=True))
    expect = _put_all(store, b"h")
    store.flush()
    t = VThread(0, store.clock)
    for key in expect:
        store.get(key, t)  # cached...
        expect[key] = expect[key][:800]
        store.put(key, expect[key], t)  # ...and updated
    assert len(store.svc.refills) == BATCH
    pwb = store.pwbs[0]
    return Scenario(
        store, expect, lambda: store._reclaim(pwb, store.clock.now),
        "reclaim", store._bg_reclaim, "reclaim_failed", "reclaim",
        lambda loc: loc.in_vs,
    )


def _local_gc() -> Scenario:
    store = Prism(small_prism_config(num_ssds=1, enable_checksums=True))
    expect = _put_all(store, b"g")
    store.flush()
    before = {_location(store, key).chunk_id for key in expect}
    vs = store.storages[0]
    return Scenario(
        store, expect, lambda: store._gc(vs, store.clock.now),
        "gc", store._bg_gc, "gc_failed", "gc",
        lambda loc: loc.chunk_id not in before,
    )


def _cold_start(store: Prism) -> None:
    """A new placement policy over the same storages: its tracker has
    seen nothing, so nothing is hot — not even the last put."""
    store.tiering = TierManager(store, store.tiering.fast, store.tiering.cold)


def _gc_demotion() -> Scenario:
    store = _tiered()
    expect = _put_all(store, b"d")
    store.flush()  # recent, so reclaim placed them fast
    assert all(_location(store, k).vs_id == 0 for k in expect)
    _cold_start(store)  # ...and now nothing is hot
    vs = store.storages[0]
    return Scenario(
        store, expect, lambda: store._gc(vs, store.clock.now),
        "tier.demote", store._bg_gc, "gc_failed", "tier_demote",
        lambda loc: loc.vs_id == 1,
    )


def _frozen_cold():
    """Tiered store whose reclaim places every record cold."""
    store = _tiered(
        tier_hot_threshold=16, tier_recency_window=0, tier_promote_threshold=1
    )
    expect = _put_all(store, b"p")
    _cold_start(store)
    store.flush()
    assert all(_location(store, k).vs_id == 1 for k in expect)
    return store, expect


def _gc_promotion() -> Scenario:
    store, expect = _frozen_cold()
    for key in expect:  # rewarm without reading (a read would enqueue)
        store.tiering.tracker.touch(store.index.lookup(key, None))
    vs = store.storages[1]
    return Scenario(
        store, expect, lambda: store._gc(vs, store.clock.now),
        "tier.promote", store._bg_gc, "gc_failed", "tier_promote",
        lambda loc: loc.vs_id == 0,
    )


def _promotion_drain() -> Scenario:
    store, expect = _frozen_cold()

    def run():
        for key, value in expect.items():
            loc = _location(store, key)
            if loc.vs_id == 1:  # still cold: queue it as a cold read would
                store.tiering.enqueue_promotion(
                    store.index.lookup(key, None),
                    ptr.encode_vs(loc.vs_id, loc.chunk_id, loc.vs_offset),
                    value,
                )
        store.tiering.drain()

    # The drain has no failure event: the cold copies stay valid and a
    # later cold read queues the promotion again.
    return Scenario(
        store, expect, run, "tier.promote", store.tiering.bg, None, "tier_promote",
        lambda loc: loc.vs_id == 0,
    )


MOVERS = {
    "reclaim": _reclaim,
    "reclaim_refill": _reclaim_refill,
    "local_gc": _local_gc,
    "gc_demotion": _gc_demotion,
    "gc_promotion": _gc_promotion,
    "promotion_drain": _promotion_drain,
}

# (failing step, does the failing publish land first?, reported phase)
FAILURES = [("write", False, "write")] + [
    (step, lands, "publish")
    for step in ("first", "middle", "last")
    for lands in (False, True)
]


def _inject(store: Prism, label: str, bg: VThread, step: str, lands: bool) -> list:
    """Fail the first ``_relocate`` call with this label on this thread.

    Returns a list that receives the size of the batch that was hit.
    """
    real_relocate = store._relocate
    real_write = store._retrying_write
    real_publish = store.hsit.publish_location_word
    hit: list = []
    state = {"armed": False, "fail_at": -1, "publishes": 0}

    def relocate(dest, entries, thread, lbl):
        if lbl == label and thread is bg and not hit:
            hit.append(len(entries))
            n = len(entries)
            state["fail_at"] = {"first": 0, "middle": n // 2, "last": n - 1}.get(step, -1)
            state["armed"], state["publishes"] = True, 0
        try:
            return real_relocate(dest, entries, thread, lbl)
        finally:
            state["armed"] = False

    def write(vs, at, records):
        if state["armed"] and step == "write":
            raise DeviceError(vs.ssd.name, "injected write failure")
        return real_write(vs, at, records)

    def publish(idx, word, thread=None):
        if state["armed"]:
            index = state["publishes"]
            state["publishes"] += 1
            if index == state["fail_at"]:
                if lands:
                    real_publish(idx, word, thread)
                raise DeviceError("nvm0", "injected publish failure")
        return real_publish(idx, word, thread)

    store._relocate = relocate
    store._retrying_write = write
    store.hsit.publish_location_word = publish
    return hit


def _kinds(store: Prism, since: int) -> list:
    return [e["kind"] for e in store.events.events[since:]]


@pytest.mark.parametrize("step,lands,phase", FAILURES)
@pytest.mark.parametrize("mover", sorted(MOVERS))
def test_failed_relocation_is_contained_and_retryable(mover, step, lands, phase):
    sc = MOVERS[mover]()
    store = sc.store
    hit = _inject(store, sc.label, sc.bg, step, lands)
    pwb = store.pwbs[0]
    window = (pwb.tail, pwb.head, pwb.pending_release)
    setup_events = len(store.events)

    sc.run()

    assert hit == [BATCH], f"{mover} never reached _relocate({sc.label!r})"
    report = audit(store)
    assert report.ok, report.violations[:3]
    assert sc.done_kind not in _kinds(store, setup_events)
    if sc.failed_kind is not None:
        failures = store.events.of_kind(sc.failed_kind)
        assert len(failures) == 1
        # A failed cross-tier batch aborts the GC round that ran it.
        cross_tier = sc.failed_kind == "gc_failed" and sc.label != "gc"
        assert failures[0]["phase"] == ("relocate" if cross_tier else phase)
        if sc.failed_kind == "gc_failed":
            # The round read its victims before it failed.
            assert failures[0]["read_bytes"] > 0
    if sc.label == "reclaim":
        # Some entries may still point into the window: it must stay.
        assert (pwb.tail, pwb.head, pwb.pending_release) == window
    for key, value in sc.expect.items():
        assert _stored(store, key) == value
    # Exactly the entries published before the error (plus the failing
    # one, if its pointer landed) moved; the rest are where they were.
    arrived = sum(sc.arrived(_location(store, key)) for key in sc.expect)
    fail_at = {"first": 0, "middle": BATCH // 2, "last": BATCH - 1}.get(step, 0)
    assert arrived == fail_at + lands

    sc.run()  # the retry meets no fault and finishes the job

    if arrived < BATCH or mover in ("reclaim", "reclaim_refill", "local_gc"):
        # (a cross-tier round with nothing left to move emits nothing)
        assert sc.done_kind in _kinds(store, setup_events)
    if sc.failed_kind is not None:
        assert len(store.events.of_kind(sc.failed_kind)) == 1
    report = audit(store)
    assert report.ok, report.violations[:3]
    assert not store.svc.refills
    for key, value in sc.expect.items():
        assert sc.arrived(_location(store, key))
        assert store.get(key) == value


def test_a_gc_round_that_fails_at_its_write_reports_what_it_read():
    """The failed round read the same victims as the retry that
    succeeds: its ``gc_failed`` event carries the same ``read_bytes``
    as the retry's ``gc`` event."""
    sc = _local_gc()
    since = len(sc.store.events)
    _inject(sc.store, sc.label, sc.bg, "write", False)
    sc.run()
    sc.run()
    events = sc.store.events.events[since:]
    failed = [e for e in events if e["kind"] == "gc_failed"]
    done = [e for e in events if e["kind"] == "gc"]
    assert [e["phase"] for e in failed] == ["write"] and len(done) == 1
    assert failed[0]["read_bytes"] == done[0]["read_bytes"] > 0


# ----------------------------------------------------------------------
# structure: the primitive stays single
# ----------------------------------------------------------------------
def test_prism_has_exactly_one_publish_and_contain_path():
    source = Path(prism_module.__file__).read_text()
    code = "\n".join(
        line for line in source.splitlines() if not line.lstrip().startswith("#")
    )
    assert len(re.findall(r"resolve_partial_publish\(", code)) == 1
    for suffix in (".pre_publish", ".published"):
        assert len(re.findall(re.escape(f'"{suffix}"'), code)) == 1, suffix
    # ...and both crash points are built from the caller's label.
    assert 'label + ".pre_publish"' in code
    assert 'label + ".published"' in code
