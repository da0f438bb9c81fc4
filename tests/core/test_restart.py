"""A restart is a reconstruction.

``Prism.recover`` builds a new engine over ``store.media`` with the
``_attach`` that ``__init__`` uses, then runs the §5.5 pass; no
``crash()`` method wipes anything.  So no DRAM-side object may cross a
power failure — checked here by walking the object graph, not by
listing fields — and everything recovery needs it must find on the
media.  ``docs/simulation-model.md`` ("State inventory") is the table
this file enforces.
"""

from __future__ import annotations

import dataclasses
import re
import types
from collections import deque
from functools import partial
from pathlib import Path

import pytest

from repro.core.checker import audit
from repro.core.prism import Prism
from repro.faults.crash_sweep import default_ops, tight_store_config
from repro.faults.errors import ReadDegradedError
from repro.faults.injector import FaultConfig
from repro.sim.vthread import VThread
from repro.storage.base import StorageError
from repro.storage.nvm import RegionMismatchError
from tests import digests
from tests.conftest import FEATURE_CONFIGS, small_prism_config

# What a store keeps across recover() besides its media: the caller's
# configuration and clock, the observers' ledgers, the test hook, and
# the fault environment.  A seventh needs a row in the state inventory.
ALLOWED = ("config", "clock", "metrics", "events", "crash_point", "injector")

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ATOMS = (
    type(None), bool, int, float, complex, str, bytes, bytearray,
    type, types.ModuleType, types.BuiltinFunctionType,
)


def _children(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key, "{key}"
            yield value, f"[{key!r}]"
    elif isinstance(obj, (list, tuple, set, frozenset, deque)):
        for i, item in enumerate(obj):
            yield item, f"[{i}]"
    elif isinstance(obj, types.MethodType):
        yield obj.__self__, ".__self__"
    elif isinstance(obj, types.FunctionType):
        for cell in obj.__closure__ or ():
            yield cell.cell_contents, "<closure>"
        for default in obj.__defaults__ or ():
            yield default, "<default>"
    elif isinstance(obj, partial):
        yield obj.func, ".func"
        yield obj.args, ".args"
        yield obj.keywords, ".keywords"
    else:
        for name, value in getattr(obj, "__dict__", {}).items():
            yield value, f".{name}"
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(obj, name):
                    yield getattr(obj, name), f".{name}"


def walk(root, skip=frozenset()):
    """Everything reachable from ``root`` without entering an object
    whose id is in ``skip``: ``{id: path}`` for every instance of a
    class defined under ``repro``, the ids of all objects visited
    (containers and functions included), and the objects themselves —
    holding them keeps the ids unique."""
    found, visited, alive = {}, set(), []
    stack = [(root, "store")]
    while stack:
        obj, path = stack.pop()
        if isinstance(obj, ATOMS) or id(obj) in visited or id(obj) in skip:
            continue
        visited.add(id(obj))
        alive.append(obj)
        if type(obj).__module__.startswith("repro."):
            found[id(obj)] = path
        stack.extend((child, path + step) for child, step in _children(obj))
    return found, visited, alive


def run_ops(store, ops):
    """The sweep's workload, spread over one client thread per PWB."""
    threads = [VThread(tid, store.clock) for tid in range(store.config.num_threads)]
    for i, op in enumerate(ops):
        getattr(store, op[0])(*op[1:], threads[i % len(threads)])


@pytest.mark.parametrize("features", sorted(FEATURE_CONFIGS))
def test_no_engine_object_outlives_a_restart(features):
    store = Prism(
        tight_store_config(**{"enable_checksums": False, **FEATURE_CONFIGS[features]})
    )
    run_ops(store, default_ops(1200, 200))
    before, _, alive = walk(store)
    fields = dict(vars(store))
    store.crash()
    # Excused: whatever hangs off the media (the plug is pulled, so it
    # must be clean of engine references by now) or off an allowed name.
    excused = set()
    for root in (store.media, *(getattr(store, name) for name in ALLOWED)):
        excused |= walk(root, skip={id(store)})[1]
    store.recover()
    after, _, _ = walk(store)
    survivors = sorted(
        f"{path}: {type(obj).__name__}"
        for obj in alive
        if id(obj) in before and id(obj) not in excused and obj is not store
        for path in [after.get(id(obj))]
        if path is not None
    )
    assert not survivors, "\n".join(survivors)
    # The same for what is not a repro object: containers, counters'
    # iterators, anything mutable hung directly on the store.
    kept = sorted(
        name
        for name, value in fields.items()
        if name not in ALLOWED + ("media",)
        and not isinstance(value, ATOMS)
        and id(value) not in excused
        and vars(store)[name] is value
    )
    assert not kept, kept
    assert audit(store).ok
    run_ops(store, default_ops(300, 200, seed=9))
    assert audit(store).ok


def test_every_store_field_has_a_row_in_the_state_inventory():
    doc = (SRC.parents[1] / "docs" / "simulation-model.md").read_text()
    section = doc[doc.index("#### State inventory"):doc.index("### Crash-sweep scenarios")]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = set(re.findall(r"`(\w+)`", " ".join(row.split("|")[1] for row in rows)))
    store = Prism(small_prism_config(enable_read_cache=True, enable_tiering=True))
    assert set(vars(store)) <= named, sorted(set(vars(store)) - named)
    kept = {
        name for row in rows if "*kept*" in row
        for name in re.findall(r"`(\w+)`", row.split("|")[1])
        if not isinstance(getattr(store, name), int)
    }
    assert kept == set(ALLOWED)


def test_the_walk_sees_what_it_must():
    """The walk's own safety net: the objects PR 17's bug and the
    probe in ISSUE 23 were about are all in its reach."""
    store = Prism(small_prism_config(enable_read_cache=True, enable_tiering=True))
    store.put(b"k", b"v")
    store.delete(b"k")  # a retirement: a closure over the store
    found, _, alive = walk(store)
    seen = {type(obj).__name__ for obj in alive if id(obj) in found}
    assert {
        "EpochManager", "HSIT", "PersistentWriteBuffer", "ValueStorage", "IOUring",
        "WaitList", "ThreadCombiner", "ScanAwareValueCache", "ReadCache",
        "FrequencySketch", "TierManager", "TemperatureTracker", "PACTree", "BTree",
        "RetryExecutor", "VThread", "VLock", "_Leaf", "Media", "NVMDevice",
    } <= seen


def test_the_motivations_survivors_are_fresh_after_recover():
    """ISSUE 23's probe (TIGHT_STORE, 300 keys, 2,301 ops, crash): each
    thing it found crossing the power failure is now rebuilt."""
    store = Prism(tight_store_config(faults=FaultConfig(seed=5)))
    run_ops(store, default_ops(2301, 300))
    # Set by hand what this workload leaves clean.
    store.retry_exec.consecutive["ssd0"] = 2
    store.storages[0]._open_sync[0] = 1
    old = dict(vars(store))
    assert any(c._batch_close > 0 for c in store.combiners)
    assert any(vs.ring._outstanding for vs in store.storages)
    assert all(pwb.head > 0 and pwb._offsets for pwb in store.pwbs)
    assert repr(store._rr_storage) != "count(0)"
    assert store.hsit._alloc_lock.free_at > 0
    assert store._bg_reclaim.now > 0 and store._ops > 0
    store.crash()
    assert store.nvm._retry is None  # the media holds no engine
    store.recover()
    for combiner in store.combiners:
        assert (combiner._batch_close, combiner._batch_count) == (-1.0, 0)
        assert combiner.retry is store.retry_exec
    for vs in store.storages:
        # On the ring: the recovery flush's own chunk writes, nothing older.
        assert len(vs.ring._outstanding) <= vs.ring.requests_submitted
        assert vs.ring.requests_submitted == vs.chunk_writes <= 2
        assert vs._open_sync == {}
        assert vs._alloc_lock.free_at == 0.0
    for pwb in store.pwbs:  # the flush succeeded: they restart empty
        assert (pwb.head, pwb.tail, len(pwb._offsets)) == (0, 0, 0)
        assert pwb.pending_release is None and pwb.reclaim_done_at == 0.0
    # One turn of the rotor: the recovery flush's own placement.
    assert repr(store._rr_storage) == "count(1)"
    assert repr(store._rr_cold) == "count(0)"
    assert store.retry_exec.consecutive == {} and store.retry_exec.retries == 0
    assert store.nvm._retry is store.retry_exec
    assert store.hsit._alloc_lock.free_at == 0.0
    heap = store.media.heap
    handle = heap.root
    while handle:
        leaf = heap.get(handle)
        assert (leaf.lock.free_at, leaf.lock.acquisitions) == (0.0, 0)
        handle = leaf.next_handle
    for name in ("_bg_reclaim", "_bg_gc", "_bg_cache", "_bg_tier", "_default_thread"):
        thread = getattr(store, name)
        assert thread is not old[name] and thread.cpu_time == 0.0
    assert store._ops == 0 and store._gc_active == set()
    assert store.epoch.global_epoch == 0 and store.epoch.pending == 0
    assert store.stats()["hsit_entries"] == len(store)


def test_attaching_again_allocates_nothing_and_refuses_another_layout():
    config = small_prism_config(num_threads=2)
    store = Prism(config)
    t = VThread(0, store.clock)
    for i in range(200):
        store.put(b"k%03d" % i, b"v" * 100, t)
    used, regions = store.nvm.used, dict(store.nvm.regions)
    assert set(regions) == {"hsit.header", "hsit.entries", "pwb0", "pwb1"}
    store.crash()
    store.recover()
    assert (store.nvm.used, store.nvm.regions) == (used, regions)
    for change in (
        dict(hsit_capacity=config.hsit_capacity + 1),
        dict(pwb_capacity=2 * config.pwb_capacity),
        dict(num_threads=3),
        dict(num_threads=1),
    ):
        store.crash()
        store.config = dataclasses.replace(config, **change)
        with pytest.raises(RegionMismatchError):
            store.recover()
        assert (store.nvm.used, store.nvm.regions) == (used, regions)
        with pytest.raises(RuntimeError, match="recover"):
            store.get(b"k000", t)
    store.config = config
    assert store.recover().recovered_keys == 200
    assert store.get(b"k199", t) == b"v" * 100


def test_recovery_that_cannot_flush_hands_the_pwbs_their_records():
    """Every SSD is dead when the store restarts: the live PWB records
    stay where they are, and each new buffer takes its cursors from
    them.  Then the ring wraps, the devices come back, and a second
    restart drains everything — no acked value lost on the way."""
    store = Prism(tight_store_config(num_threads=1, faults=FaultConfig(seed=3)))
    t = VThread(0, store.clock)
    model = {}
    for i in range(40):
        key, value = b"k%03d" % (i % 25), bytes([i + 1]) * 700
        store.put(key, value, t)
        model[key] = value
    in_pwb = {
        key for key in model
        if store.hsit.read_location(store.index.lookup(key)).in_pwb
    }
    assert in_pwb and len(in_pwb) < len(model)  # some already on flash
    store.crash()
    store.injector.kill_devices(
        ssd.name for ssd in store.ssds + store.mirror_ssds
    )
    report = store.recover()
    assert (report.recovered_keys, report.pwb_values_flushed) == (len(model), 0)
    (pwb,) = store.pwbs
    assert list(pwb._offsets) == sorted(
        store.hsit.read_location(store.index.lookup(key)).pwb_offset
        for key in in_pwb
    )
    assert pwb.tail == pwb._offsets[0] and pwb.head > pwb._offsets[-1]
    assert store.stats()["hsit_entries"] == len(store) == len(model)
    assert audit(store).ok
    with pytest.raises(StorageError):  # until nothing more fits
        for i in range(100):
            key, value = b"n%03d" % i, bytes([i + 1]) * 500
            store.put(key, value, t)
            model[key] = value
    assert pwb.head // pwb.capacity > pwb.tail // pwb.capacity  # wrapped
    for key, value in model.items():
        try:
            assert store.get(key, t) == value
        except ReadDegradedError:
            assert key not in in_pwb and key.startswith(b"k")
    store.injector.dead.clear()
    store.crash()
    report = store.recover()
    assert report.pwb_values_flushed == len(model) - (25 - len(in_pwb))
    assert all(pwb.used == 0 for pwb in store.pwbs)
    for key, value in model.items():
        assert store.get(key, t) == value
    assert store.stats()["hsit_entries"] == len(store) == len(model)
    assert audit(store).ok


def test_crash_and_resume_is_byte_identical_to_the_manifest():
    """Metrics, latencies, recovery report, stats, event log and final
    vtime of a run with a restart in the middle (``tests/digests.py``
    names what moved when restart became reconstruction)."""
    _store, digest = digests.store_crash_resume()
    assert digest == digests.expected("store_crash_resume")


def test_no_component_grows_a_crash_or_reset_method():
    """The hand-kept list cannot quietly regrow: outside ``storage/``
    (devices do lose state) the only ``crash`` is ``Prism.crash``, and
    no core, index, cache or tiering component has a ``reset``."""
    crashes, resets = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if not rel.startswith("storage/"):
            crashes += [rel] * len(re.findall(r"^\s*def crash\(", text, re.M))
        if rel.split("/")[0] in ("core", "index", "cache", "tiering"):
            resets += [rel] * len(re.findall(r"^\s*def reset\w*\(", text, re.M))
    assert crashes == ["core/prism.py"]
    assert resets == []
    body = (SRC / "core" / "prism.py").read_text()
    crash = body[body.index("    def crash(self)"):body.index("    def recover(self")]
    statements = [
        line.strip() for line in crash.split('"""')[2].splitlines() if line.strip()
    ]
    assert statements == ["self.media.power_failure()", "self._crashed = True"]
