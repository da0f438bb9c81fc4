"""The one relocation primitive, failed at every step.

Reclaim, local GC, GC demotion, GC promotion, the read-triggered
promotion drain, the SVC's chain write-back and recovery's PWB flush
all move data through ``Prism._relocate``: write the batch, publish
each forward pointer, contain a partial publish.  For each mover this
injects a device error at the batch write and at the first, middle and
last publish (before the pointer lands, and after it landed but before
the mover heard back), then checks that the store is consistent,
nothing acknowledged was lost, the mover reported the failure the way
it always has, and a retry finishes the job.

A structural test keeps the primitive single: a hand-rolled publish
loop anywhere in ``src/repro`` other than repair's fails it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

import repro
from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.prism import Prism
from repro.core.svc import ScanAwareValueCache
from repro.faults.errors import DeviceError
from repro.faults.injector import FaultConfig
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
        return store.pwbs[loc.pwb_id].read(loc.pwb_offset, None)[1]
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


def _inject(
    store: Prism, label: str, bg: Optional[VThread], step: str, lands: bool
) -> list:
    """Fail the first ``_relocate`` call with this label on this thread
    (on any thread when ``bg`` is None: recovery makes its own).

    Returns a list that receives the size of the batch that was hit.
    """
    real_relocate = store._relocate
    real_write = store._retrying_write
    hit: list = []
    state = {"armed": False, "fail_at": -1, "publishes": 0}

    def relocate(dest, entries, thread, lbl):
        # Read at call time: a recovery builds a new HSIT.
        hsit = store.hsit
        real_publish = hsit.publish_location_word

        def publish(idx, word, thread=None):
            if state["armed"]:
                index = state["publishes"]
                state["publishes"] += 1
                if index == state["fail_at"]:
                    if lands:
                        real_publish(idx, word, thread)
                    raise DeviceError("nvm0", "injected publish failure")
            return real_publish(idx, word, thread)

        if lbl == label and (bg is None or thread is bg) and not hit:
            hit.append(len(entries))
            n = len(entries)
            state["fail_at"] = {"first": 0, "middle": n // 2, "last": n - 1}.get(step, -1)
            state["armed"], state["publishes"] = True, 0
            hsit.publish_location_word = publish
        try:
            return real_relocate(dest, entries, thread, lbl)
        finally:
            state["armed"] = False
            hsit.__dict__.pop("publish_location_word", None)

    def write(vs, at, records):
        if state["armed"] and step == "write":
            raise DeviceError(vs.ssd.name, "injected write failure")
        return real_write(vs, at, records)

    store._relocate = relocate
    store.svc.relocate = relocate  # the SVC holds the one it was built with
    store._retrying_write = write
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


# ----------------------------------------------------------------------
# the movers that report no event: chain write-back and recovery's flush
# ----------------------------------------------------------------------
def _slot(loc: ptr.Location) -> tuple:
    return loc.medium, loc.vs_id, loc.chunk_id, loc.vs_offset


def _writeback() -> Scenario:
    """A scan chain over keys that sit in Value Storage in reverse key
    order, so evicting a member rewrites all of them."""
    store = Prism(small_prism_config(num_ssds=1, enable_checksums=True))
    t = VThread(0, store.clock)
    expect = {b"w%02d" % i: bytes([i]) * 900 for i in range(BATCH)}
    for key in sorted(expect, reverse=True):
        store.put(key, expect[key], t)
    store.flush()
    before = {_slot(_location(store, key)) for key in expect}
    first = min(expect)
    bg = store._bg_cache

    def run():
        store.scan(first, BATCH, t)  # caches the range and chains it
        svc = store.svc
        victim = next(e for e in svc.entries.values() if e.key == first and not e.freed)
        bg.now = max(bg.now, store.clock.now)
        svc._writeback_chain(bg, victim, store.storages)

    return Scenario(
        store, expect, run, "writeback", bg, None, "",
        lambda loc: _slot(loc) not in before,
    )


ROTTED = b"v00"  # the recover scenario's record with a rotted primary


def _recover() -> Scenario:
    """BATCH - 1 live PWB records and one Value Storage record whose
    primary copy rotted: a recovery flushes all of them, the rotted one
    healed from its mirror and last in the batch."""
    store = Prism(
        small_prism_config(
            enable_checksums=True, mirror_chunks=True, faults=FaultConfig()
        )
    )
    t = VThread(0, store.clock)
    expect = {ROTTED: b"h" * 900}
    store.put(ROTTED, expect[ROTTED], t)
    store.flush()
    rotted = _location(store, ROTTED)
    vs = store.storages[rotted.vs_id]
    store.injector.corrupt_at_rest(
        vs.ssd,
        rotted.chunk_id * vs.chunk_size + rotted.vs_offset,
        vs.plan_reads([(rotted.chunk_id, rotted.vs_offset, None)])[0].size,
    )
    for i in range(1, BATCH):
        key = b"v%02d" % i
        expect[key] = bytes([i]) * 900
        store.put(key, expect[key], t)

    def run():
        store.crash()
        store.recover()

    return Scenario(
        store, expect, run, "recover", None, None, "",
        lambda loc: loc.in_vs and _slot(loc) != _slot(rotted),
    )


QUIET_MOVERS = {"writeback": _writeback, "recover": _recover}


@pytest.mark.parametrize("step,lands,phase", FAILURES)
@pytest.mark.parametrize("mover", sorted(QUIET_MOVERS))
def test_failed_writeback_or_flush_is_contained_and_retryable(mover, step, lands, phase):
    """The chain write-back counts only a batch that landed; the
    recovery flush leaves what it could not move in the PWBs."""
    sc = QUIET_MOVERS[mover]()
    store = sc.store
    hit = _inject(store, sc.label, sc.bg, step, lands)

    sc.run()

    assert hit == [BATCH], f"{mover} never reached _relocate({sc.label!r})"
    arrived = [key for key in sc.expect if sc.arrived(_location(store, key))]
    violations = audit(store).violations
    if mover == "recover" and ROTTED not in arrived:
        # Still the rotted copy, which I7 reports as it did before the
        # crash: the heal is what the retry finishes.
        rotted = [v for v in violations if v.startswith(f"I7: corrupt VS record for {ROTTED!r}")]
        assert len(rotted) == 1
        violations = [v for v in violations if v not in rotted]
    assert violations == []
    fail_at = {"first": 0, "middle": BATCH // 2, "last": BATCH - 1}.get(step, 0)
    assert len(arrived) == fail_at + lands
    if mover == "writeback":
        assert store.svc.scan_writebacks == 0
        for key, value in sc.expect.items():
            assert _stored(store, key) == value
    else:
        # Records still pointing into a PWB were adopted by it.
        in_pwb = [key for key in sc.expect if _location(store, key).in_pwb]
        assert set(in_pwb) == set(sc.expect) - set(arrived) - {ROTTED}
        assert len(store.pwbs[0]._offsets) == BATCH - 1
        for key in in_pwb:
            assert _stored(store, key) == sc.expect[key]

    def in_order() -> bool:
        locs = [_location(store, key) for key in sorted(sc.expect)]
        return ScanAwareValueCache._already_contiguous(locs)

    scattered = not in_order()

    sc.run()  # the retry meets no fault and finishes the job

    report = audit(store)
    assert report.ok, report.violations[:3]
    if mover == "writeback":
        # ...which is a chain in key order, rewritten only if it was
        # still scattered.
        assert in_order()
        assert store.svc.scan_writebacks == scattered
    else:
        assert all(sc.arrived(_location(store, key)) for key in sc.expect)
    for key, value in sc.expect.items():
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
def _callers(name: str) -> set:
    """``module:qualname`` of every function under ``src/repro`` that
    names ``name`` — a function or a method, called or taken as a local
    alias, as ``_relocate`` does on its hot loop."""
    root = Path(repro.__file__).parent
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == name) or (
                isinstance(child, ast.Name) and child.id == name
            ):
                found.add(f"{module}:{'.'.join(scope)}")
            visit(child, module, scope)

    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, [])
    return found


def test_the_package_has_one_publish_and_contain_path():
    """Every mover publishes through ``Prism._relocate``.  Repair's
    ``_rewrite`` is the one named exception: its caller needs the typed
    write error, and it retires old copies with ``_supersede_word``."""
    relocate = "repro.core.prism:Prism._relocate"
    repair = "repro.repair.repair:_rewrite"
    assert _callers("resolve_partial_publish") == {relocate, repair}
    assert _callers("publish_location_word") == {
        "repro.core.prism:Prism.put",
        "repro.core.prism:Prism.delete",
        relocate,
        repair,
        "repro.core.hsit:HSIT.publish_location",  # the decoding view...
    }
    assert _callers("publish_location") == set()  # ...which nothing calls
    # Both crash points are built from the mover's label, in one place.
    code = "\n".join(
        line
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for line in path.read_text().splitlines()
        if not line.lstrip().startswith("#")
    )
    for suffix in (".pre_publish", ".published"):
        assert code.count(f'label + "{suffix}"') == 1, suffix
