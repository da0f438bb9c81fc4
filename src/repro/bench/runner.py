"""Virtual-threaded workload execution.

The driver keeps a heap of virtual threads ordered by their local
clocks and always advances the earliest one, so operations from
different threads interleave in virtual time exactly as their
latencies dictate — that interleaving is what feeds contention into
the shared resources (device channels, locks, IO rings, the thread
combiner).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.sampler import DeviceSampler
from repro.sim.stats import LatencyRecorder, Timeline
from repro.sim.vthread import VThread
from repro.workloads.generator import InsertSequence, Op, OpStream, make_key, make_value
from repro.workloads.ycsb import WorkloadSpec

# Target number of device-state samples per run; the driver converts
# this into an every-N-ops cadence so short and long runs both get a
# usable timeseries without unbounded memory.
SAMPLE_POINTS = 128


@dataclass
class RunResult:
    """Everything one workload execution produced."""

    store_name: str
    workload: str
    ops: int
    duration: float  # virtual seconds
    latency: LatencyRecorder
    per_kind: Dict[str, LatencyRecorder]
    waf: float
    stats: Dict[str, float] = field(default_factory=dict)
    timeline: Optional[Timeline] = None
    metrics: Optional[Dict[str, object]] = None

    def histogram(self, name: str) -> Dict[str, object]:
        """A recorded histogram summary (e.g. ``op.all``) by name."""
        if not self.metrics:
            raise KeyError(f"run carries no metrics (wanted {name!r})")
        return self.metrics["histograms"][name]

    @property
    def throughput(self) -> float:
        """Operations per virtual second."""
        if self.duration <= 0:
            return 0.0
        return self.ops / self.duration

    @property
    def mops(self) -> float:
        return self.throughput / 1e6

    @property
    def kops(self) -> float:
        return self.throughput / 1e3

    def summary(self) -> str:
        return (
            f"{self.store_name:12} {self.workload:8} "
            f"{self.kops:10.1f} Kops/s  "
            f"avg {self.latency.average():8.1f}us  "
            f"p50 {self.latency.median():8.1f}us  "
            f"p99 {self.latency.p99():8.1f}us  "
            f"waf {self.waf:5.2f}"
        )


def _make_threads(store, count: int) -> List[VThread]:
    now = store.clock.now
    threads = []
    for tid in range(count):
        thread = VThread(tid, store.clock, name=f"app-{tid}")
        thread.now = now
        threads.append(thread)
    return threads


def preload(
    store,
    num_keys: int,
    value_size: int = 1024,
    num_threads: int = 1,
    seed: int = 1,
) -> None:
    """Load the dataset in random order (the paper's LOAD phase),
    without recording metrics."""
    threads = _make_threads(store, num_threads)
    seq = InsertSequence(0, shuffle_span=min(num_keys, 4096), seed=seed)
    heap = [(t.now, i) for i, t in enumerate(threads)]
    heapq.heapify(heap)
    # Honour the "without recording metrics" contract literally: a
    # store with phase tracing enabled gets the null registry for the
    # duration of the load, which also makes preloading large datasets
    # noticeably faster.  Metrics never touch virtual time, so the
    # loaded state is bit-identical either way.
    own = getattr(store, "metrics", None)
    if own is not None and own.enabled:
        store.metrics = NULL_REGISTRY
    else:
        own = None
    heappop = heapq.heappop
    heappush = heapq.heappush
    put = store.put
    seq_next = seq.next
    try:
        for _ in range(num_keys):
            _, i = heappop(heap)
            thread = threads[i]
            key = make_key(seq_next())
            put(key, make_value(key, value_size), thread)
            heappush(heap, (thread.now, i))
    finally:
        if own is not None:
            store.metrics = own


def run_workload(
    store,
    spec: WorkloadSpec,
    num_ops: int,
    num_keys: int,
    num_threads: int = 4,
    value_size: int = 1024,
    theta: float = 0.99,
    seed: int = 2,
    timeline_bucket: Optional[float] = None,
    warmup_ops: int = 0,
    collect_metrics: bool = True,
) -> RunResult:
    """Execute ``num_ops`` of ``spec`` against a loaded store.

    ``warmup_ops`` are executed first without being recorded, so the
    measured window reflects steady-state cache contents.  Stream seeds
    mix in the workload name so back-to-back runs on one store do not
    replay identical key sequences (which would make every cache look
    perfect).

    With ``collect_metrics`` (the default) the run gets a fresh
    :class:`MetricsRegistry`: per-op latency histograms (``op.all``
    plus ``op.<kind>``), periodic device samples (per-SSD queue depth
    and utilization, NVM flush traffic, PWB occupancy), and the store's
    structured GC/reclaim events from the measured window.  If the
    store itself traces phases (``enable_metrics``), its registry is
    swapped for the per-run one so phase histograms land in the same
    snapshot.  Collection only reads virtual time — results are
    bit-identical either way.
    """
    if num_ops < 1:
        raise ValueError(f"need at least one op: {num_ops}")
    threads = _make_threads(store, num_threads)
    insert_seq = (
        InsertSequence(0, shuffle_span=4096, seed=seed)
        if spec.name == "LOAD"
        else None
    )
    mixed_seed = zlib.crc32(f"{seed}:{spec.name}".encode())
    streams = [
        OpStream(
            spec,
            num_keys,
            value_size=value_size,
            theta=theta,
            seed=mixed_seed + i,
            insert_seq=insert_seq,
        )
        for i in range(num_threads)
    ]
    if warmup_ops:
        warm_iters = [
            streams[i].ops(warmup_ops // num_threads) for i in range(num_threads)
        ]
        heap = [(t.now, i) for i, t in enumerate(threads)]
        heapq.heapify(heap)
        live = set(range(num_threads))
        while live:
            _, i = heapq.heappop(heap)
            if i not in live:
                continue
            op = next(warm_iters[i], None)
            if op is None:
                live.discard(i)
                continue
            _execute(store, op, threads[i])
            heapq.heappush(heap, (threads[i].now, i))
    base = num_ops // num_threads
    extra = num_ops % num_threads
    iters = [
        streams[i].ops(base + (1 if i < extra else 0)) for i in range(num_threads)
    ]
    latency = LatencyRecorder("all")
    per_kind: Dict[str, LatencyRecorder] = {}
    timeline = Timeline(timeline_bucket) if timeline_bucket else None
    registry: Optional[MetricsRegistry] = None
    sampler: Optional[DeviceSampler] = None
    restore_store_registry = None
    sample_every = 0
    if collect_metrics:
        registry = MetricsRegistry()
        own = getattr(store, "metrics", None)
        if own is not None and own.enabled:
            # Phase tracing is on: point the store at the per-run
            # registry so phases and op latencies share one snapshot.
            restore_store_registry = own
            store.metrics = registry
        sampler = DeviceSampler(registry, store)
        sample_every = max(1, num_ops // SAMPLE_POINTS)
    start = max(t.now for t in threads)
    executed = 0
    heap = [(t.now, i) for i, t in enumerate(threads)]
    heapq.heapify(heap)
    live = set(range(num_threads))
    ssd_written_before = store.ssd_bytes_written()
    bytes_put_before = store.bytes_put
    if sampler is not None:
        sampler.sample(start)
    # Per-op instruments resolved once, outside the loop: the old
    # ``setdefault(kind, LatencyRecorder(kind))`` built (and discarded)
    # a recorder on *every* op, and the registry f-string lookups ran
    # per op as well.
    hist_all = registry.histogram("op.all") if registry is not None else None
    kind_hists: Dict[str, object] = {}
    heappop = heapq.heappop
    heappush = heapq.heappush
    # The measured loop runs once per simulated op; the dispatch of
    # _execute is inlined and the per-op sinks (sample list append +
    # histogram record, resolved per kind) are bound outside the loop.
    # elapsed is non-negative by clock monotonicity, so the recorders'
    # guard is skipped by appending to the sample lists directly.
    store_get = store.get
    store_put = store.put
    latency_append = latency.samples.append
    hist_all_record = hist_all.record if hist_all is not None else None
    kind_sinks: Dict[str, tuple] = {}
    try:
        while live:
            _, i = heappop(heap)
            if i not in live:
                continue
            thread = threads[i]
            op = next(iters[i], None)
            if op is None:
                live.discard(i)
                if timeline is not None and timeline.drain_at is None:
                    timeline.drain_at = thread.now - start
                continue
            kind = op.kind
            before = thread.now
            if kind == "read":
                store_get(op.key, thread)
            elif kind == "update" or kind == "insert":
                store_put(op.key, op.value, thread)
            elif kind == "scan":
                store.scan(op.key, op.scan_length, thread)
            elif kind == "delete":
                store.delete(op.key, thread)
            else:
                raise ValueError(f"unknown op kind: {kind}")
            elapsed = thread.now - before
            latency_append(elapsed)
            sink = kind_sinks.get(kind)
            if sink is None:
                recorder = per_kind.get(kind)
                if recorder is None:
                    recorder = per_kind[kind] = LatencyRecorder(kind)
                kind_hist = None
                if hist_all_record is not None:
                    kind_hist = kind_hists.get(kind)
                    if kind_hist is None:
                        kind_hist = kind_hists[kind] = registry.histogram(
                            f"op.{kind}"
                        )
                sink = kind_sinks[kind] = (
                    recorder.samples.append,
                    kind_hist.record if kind_hist is not None else None,
                )
            sink[0](elapsed)
            if hist_all_record is not None:
                hist_all_record(elapsed)
                sink[1](elapsed)
            if timeline is not None:
                timeline.record(thread.now - start)
            executed += 1
            if sampler is not None and executed % sample_every == 0:
                sampler.sample(thread.now)
            heappush(heap, (thread.now, i))
    finally:
        if restore_store_registry is not None:
            store.metrics = restore_store_registry
    duration = max(t.now for t in threads) - start
    new_put = store.bytes_put - bytes_put_before
    new_ssd = store.ssd_bytes_written() - ssd_written_before
    waf = (new_ssd / new_put) if new_put else 0.0
    if timeline is not None:
        # The store's structured event log (baselines have none).
        for event in getattr(store, "events", ()):
            if event["kind"] == "gc" and event["at"] >= start:
                timeline.mark(event["at"] - start, "gc")
    metrics_dict: Optional[Dict[str, object]] = None
    if registry is not None:
        if sampler is not None:
            sampler.sample(start + duration)
        store_events = getattr(store, "events", None)
        if store_events is not None:
            for event in getattr(store_events, "events", []):
                if event["at"] >= start:
                    registry.events(str(event["kind"])).events.append(dict(event))
        registry.gauge("ops").set(executed)
        registry.gauge("duration_s").set(duration)
        if duration > 0:
            registry.gauge("throughput_ops").set(executed / duration)
        registry.gauge("waf").set(waf)
        for key, value in store.stats().items():
            registry.gauge(f"stats.{key}").set(value)
        metrics_dict = registry.to_dict()
    return RunResult(
        store_name=store.name,
        workload=spec.name,
        ops=executed,
        duration=duration,
        latency=latency,
        per_kind=per_kind,
        waf=waf,
        stats=store.stats(),
        timeline=timeline,
        metrics=metrics_dict,
    )


def _execute(store, op: Op, thread: VThread) -> None:
    if op.kind == "read":
        store.get(op.key, thread)
    elif op.kind in ("update", "insert"):
        store.put(op.key, op.value, thread)
    elif op.kind == "scan":
        store.scan(op.key, op.scan_length, thread)
    elif op.kind == "delete":
        store.delete(op.key, thread)
    else:
        raise ValueError(f"unknown op kind: {op.kind}")
