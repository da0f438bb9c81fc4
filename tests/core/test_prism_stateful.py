"""Hypothesis stateful machine: Prism vs a dict model, with crashes.

Rules interleave puts, gets, deletes, scans, flushes, updates of cached
keys, and full crash+recover cycles; on a store with chunk mirrors, also
bit-rot of a record that sits back to back with another (so a scan reads
it inside a multi-record run) and the death of a primary SSD.  The
invariants after every rule: the store's visible contents equal the
model of acknowledged operations, and every pending SVC refill names a
value still in a PWB.  One machine per feature set of
``tests.conftest.FEATURE_CONFIGS`` — a restart rebuilds every DRAM-side
subsystem, so each one gets its turn.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.checker import audit
from repro.core.prism import Prism
from repro.sim.vthread import VThread
from tests.conftest import FEATURE_CONFIGS, small_prism_config
from tests.repair.test_repair import _rot_primary

keys = st.integers(min_value=0, max_value=60).map(lambda i: b"s%02d" % i)
values = st.binary(min_size=1, max_size=300)


class PrismMachine(RuleBasedStateMachine):
    features = "bare"

    @initialize()
    def setup(self):
        self.store = Prism(small_prism_config(**FEATURE_CONFIGS[self.features]))
        # One client per PWB; writes take turns, so every buffer fills.
        self.threads = [
            VThread(tid, self.store.clock)
            for tid in range(self.store.config.num_threads)
        ]
        self.thread = self.threads[0]
        self.model = {}
        self.crashed = False

    @precondition(lambda self: not self.crashed)
    @rule(key=keys, value=values)
    def put(self, key, value):
        writer = self.threads[self.store.puts % len(self.threads)]
        self.store.put(key, value, writer)
        self.model[key] = value

    @precondition(lambda self: not self.crashed)
    @rule(key=keys)
    def get(self, key):
        assert self.store.get(key, self.thread) == self.model.get(key)

    @precondition(lambda self: not self.crashed)
    @rule(key=keys)
    def delete(self, key):
        assert self.store.delete(key, self.thread) == (key in self.model)
        self.model.pop(key, None)

    @precondition(lambda self: not self.crashed)
    @rule(start=keys, count=st.integers(min_value=1, max_value=8))
    def scan(self, start, count):
        expected = sorted(
            (k, v) for k, v in self.model.items() if k >= start
        )[:count]
        assert self.store.scan(start, count, self.thread) == expected

    @precondition(lambda self: not self.crashed)
    @rule()
    def flush(self):
        self.store.flush()

    @precondition(lambda self: not self.crashed)
    @rule(key=keys, value=values)
    def update_a_cached_key(self, key, value):
        """Flush, read (a Value Storage read caches the key), update: the
        next reclaim refills the cache with the new value."""
        self.store.flush()
        self.get(key)
        self.put(key, value)

    @precondition(lambda self: not self.crashed and self.store.config.mirror_chunks)
    @rule(pick=st.integers(min_value=0, max_value=1000))
    def rot_in_a_run(self, pick):
        """Flush, then rot one record on a live primary SSD that has a
        record right before or right after it in its chunk, and scan
        across it: the scan reads it inside a multi-record run."""
        store = self.store
        store.flush()
        runs = []
        for key, idx in store.index.items():
            loc = store.hsit.read_location(idx)
            if not loc.in_vs or store._vs_dead(store.storages[loc.vs_id]):
                continue
            vs = store.storages[loc.vs_id]
            spans = [
                (slot.offset, slot.offset + vs.header_size + slot.size)
                for slot in vs.live_records_of(loc.chunk_id)
            ]
            mine = next(span for span in spans if span[0] == loc.vs_offset)
            if any(end == mine[0] or start == mine[1] for start, end in spans):
                runs.append((key, loc))
        if runs:
            key, loc = runs[pick % len(runs)]
            _rot_primary(store, loc.vs_id, loc)
            before = [k for k in self.model if k < key]
            self.scan(max(before) if before else key, 3)

    @precondition(lambda self: not self.crashed and self.store.config.mirror_chunks)
    @rule()
    def kill_primary_ssd(self):
        """The first SSD dies for good; a scan of everything then mixes
        repairs from its mirror with PWB and cache copies."""
        self.store.injector.kill_device(self.store.storages[0].ssd.name)
        self.scan(b"s00", len(self.model) or 1)

    @precondition(lambda self: not self.crashed)
    @rule()
    def crash(self):
        self.store.crash()
        self.crashed = True

    @precondition(lambda self: self.crashed)
    @rule()
    def recover(self):
        report = self.store.recover()
        assert report.recovered_keys == len(self.model)
        self.crashed = False

    @invariant()
    def contents_match_when_running(self):
        if not self.crashed and hasattr(self, "store"):
            assert len(self.store) == len(self.model)

    @invariant()
    def refills_wait_in_the_pwbs(self):
        """I5's refill clause, and the bound it gives the map: no more
        refills than records in the PWBs."""
        if not self.crashed and hasattr(self, "store"):
            store = self.store
            assert not [v for v in audit(store).violations if "I5: refill" in v]
            assert len(store.svc.refills) <= sum(len(pwb._offsets) for pwb in store.pwbs)


def _machine(features: str):
    machine = type(f"PrismMachine_{features}", (PrismMachine,), {"features": features})
    machine.TestCase.settings = settings(
        max_examples=15, stateful_step_count=30, deadline=None
    )
    return machine.TestCase


TestPrismStateful = _machine("bare")
TestPrismStatefulIntegrity = _machine("integrity")
TestPrismStatefulTiering = _machine("tiering")
TestPrismStatefulReadCache = _machine("read_cache")
TestPrismStatefulTwoThreads = _machine("two_threads")
