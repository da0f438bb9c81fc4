"""A point read is a scan of one key: ``Prism.get`` reads its value
through ``Prism._fetch``, the pipeline a scan uses, instead of a point
path of its own.

The oracle, :class:`PointPathPrism`, is the store with that point path
put back (``get`` and ``_read_value`` as they were before the two paths
became one).  Its one departure is the decision the merge resolved: a
value rewritten from a mirror because its device is dead is admitted to
the SVC as a copy (``copied=True``) with no slot, as a scan always
admitted it.  Seeded op sequences over every feature composition run
on both, and every op must return the same value (or raise the same
error) at the same virtual time; the stores must end with the same
clock, the same ``stats()``, the same events and the same metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pointers as ptr
from repro.core.prism import Prism
from repro.core.record import parse
from repro.faults.errors import CorruptionError
from repro.repair import read_repair
from repro.sim.vthread import VThread
from tests.conftest import FEATURE_CONFIGS, KB, small_prism_config
from tests.repair.test_repair import _rot_primary


class PointPathPrism(Prism):
    """The store with its own point-read path: the oracle."""

    def get(self, key, thread=None):
        self._check_key(key)
        thread = self._thread(thread)
        m = self.metrics
        self.epoch.enter(thread.tid)
        try:
            self.gets += 1
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

    def _read_value(self, idx, key, thread):
        m = self.metrics
        enabled = m.enabled
        tier = self.tiering
        if tier is not None and tier.temperature:
            tier.tracker.touch(idx)
        loc, entry_id = self.hsit.read_entry(idx, thread)
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
        dead = self._device_dead(vs.ssd.name)
        if dead:
            value = read_repair(
                self, idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset, thread,
                dead=True,
            )
        else:
            # The one request ValueStorage.record_request built.
            (req,) = vs.plan_reads([(loc.chunk_id, loc.vs_offset, None)])
            raw = self.combiners[loc.vs_id].read_one(thread, req, m)
            try:
                _, value = parse(raw, vs.checksums, vs.ssd.name)
            except CorruptionError:
                value = read_repair(
                    self, idx, key, loc.vs_id, loc.chunk_id, loc.vs_offset, thread
                )
        if tier is not None:
            tier.flash_read(idx, vs, loc, value)
        if self.config.enable_svc:
            t0 = thread.now
            # The resolved decision: a dead device's value, rewritten
            # from its mirror, is a copy, as a scan admits it.
            self.svc.admit(idx, key, value, thread, copied=dead)
            if enabled:
                m.phase("get", "svc_admit", thread.now - t0)
        return value


KEYS = [b"k%02d" % i for i in range(24)]

# put(key, size) / get / scan(start, count) / delete / flush, and on a
# store with an injector: rot a key's primary copy, kill SSD 1.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(1, 3 * KB)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("scan"), st.sampled_from(KEYS), st.integers(1, 12)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("rot"), st.sampled_from(KEYS)),
        st.tuples(st.just("kill")),
    ),
    min_size=20,
    max_size=120,
)

CASES = {
    f"{name}-svc_{'on' if svc else 'off'}": dict(
        FEATURE_CONFIGS[name], enable_svc=svc
    )
    for name in sorted(FEATURE_CONFIGS)
    for svc in (True, False)
}


def _build(cls, config):
    # Small buffers and chunks: reclaims, GC and SVC evictions happen
    # within a short sequence, so reads meet every medium.
    store = cls(
        small_prism_config(
            **{
                "pwb_capacity": 16 * KB,
                "svc_capacity": 12 * KB,
                "chunk_size": 16 * KB,
                "enable_metrics": True,
                **config,
            }
        )
    )
    # Every key lands somewhere before the sequence starts.
    t = VThread(0, store.clock)
    for i, key in enumerate(KEYS):
        store.put(key, bytes([i + 1]) * (200 + 37 * i), t)
    store.flush()
    return store


def _step(store, op, thread):
    """Apply one op; returns what it returned or the error it raised."""
    kind = op[0]
    try:
        if kind == "put":
            value = bytes([op[2] % 251 + 1]) * op[2]
            return store.put(op[1], value, thread)
        if kind == "get":
            return store.get(op[1], thread)
        if kind == "scan":
            return store.scan(op[1], op[2], thread)
        if kind == "delete":
            return store.delete(op[1], thread)
        if kind == "flush":
            return store.flush(thread)
        if store.injector is None:
            return "no injector"
        if kind == "kill":
            return store.injector.kill_device(store.storages[1].ssd.name, at=thread.now)
        idx = store.index.lookup(op[1])
        if idx is None:
            return "absent"
        loc = store.hsit.read_location(idx)
        if not loc.in_vs or store._device_dead(store.storages[loc.vs_id].ssd.name):
            return "not on a live flash copy"
        return _rot_primary(store, loc.vs_id, loc)
    except Exception as err:  # the same failure on both sides
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12, deadline=None)
@given(ops=OPS, tids=st.lists(st.integers(0, 1), min_size=120, max_size=120))
def test_the_pipeline_reads_what_the_point_path_read(case, ops, tids):
    config = CASES[case]
    stores = [_build(Prism, config), _build(PointPathPrism, config)]
    threads = [
        [VThread(tid, store.clock) for tid in range(config["num_threads"])]
        for store in stores
    ]
    for step, op in enumerate(ops):
        tid = tids[step] % config["num_threads"]
        seen = []
        for store, pool in zip(stores, threads):
            thread = pool[tid]
            start = thread.now
            seen.append((_step(store, op, thread), thread.now - start, thread.now))
        assert seen[0] == seen[1], (step, op)
    new, old = stores
    assert new.clock.now == old.clock.now
    assert new.stats() == old.stats()
    assert new.events.to_list() == old.events.to_list()
    assert new.metrics.to_dict() == old.metrics.to_dict()


def test_the_cases_reach_every_medium_and_both_faults():
    """The fixed build and one sequence read from the PWB, the SVC and
    flash, repair a rotted record and a dead device's record: the
    differential above is not comparing two idle stores."""
    store = _build(Prism, CASES["integrity-svc_on"])
    t = VThread(0, store.clock)
    store.put(KEYS[0], b"p" * 100, t)
    assert store.get(KEYS[0], t) == b"p" * 100  # PWB
    assert store.get(KEYS[1], t) is not None  # flash, then cached
    assert store.get(KEYS[1], t) is not None  # SVC
    _step(store, ("rot", KEYS[2]), t)
    assert store.get(KEYS[2], t) is not None
    assert store.stats()["corruption_detected"] == 1
    _step(store, ("kill",), t)
    on_dead = [
        key for key in KEYS[3:]
        if store.hsit.read_location(store.index.lookup(key)).in_vs
        and store.hsit.read_location(store.index.lookup(key)).vs_id == 1
        and store.hsit.read_svc(store.index.lookup(key)) is None
    ]
    assert on_dead
    repairs = len(store.events.of_kind("repair"))
    assert store.get(on_dead[0], t) is not None
    assert len(store.events.of_kind("repair")) == repairs + 1
    counters = store.metrics.to_dict()["counters"]
    assert counters["read.pwb_hits"] and counters["read.svc_hits"]
    assert counters["read.svc_misses"]
