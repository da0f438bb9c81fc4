"""Virtual-threaded workload execution.

One closed loop (:func:`closed_loop`) drives everything: it keeps a
heap of virtual threads ordered by their local clocks and always
advances the earliest one, so operations from different threads
interleave in virtual time exactly as their latencies dictate — that
interleaving is what feeds contention into the shared resources
(device channels, locks, IO rings, the thread combiner).

:func:`preload`, the warm-up and the measured window of
:func:`run_workload`, :func:`repro.cluster.runner.run_cluster_workload`
and :func:`repro.workloads.trace.replay` are callers of that loop; they
differ in the op iterators, sinks and mid-run actions they hand it,
and the two drivers share :func:`finish_run` for what follows it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.faults.ledger import WriteLedger
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

# A mid-run action: ``fire(thread)`` runs once, before the first op
# taken when ``at_op`` ops have executed.
Action = Tuple[int, Callable[[VThread], None]]

_WRITES = frozenset(("update", "insert", "delete"))


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

    @property
    def throughput(self) -> float:
        """Operations per virtual second."""
        if self.duration <= 0:
            return 0.0
        return self.ops / self.duration

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


@dataclass
class Window:
    """What one pass of :func:`closed_loop` measured."""

    start: float  # virtual time the window opened
    duration: float  # virtual seconds until the last thread finished
    latency: LatencyRecorder  # one sample per op, counted failures included
    per_kind: Dict[str, LatencyRecorder]
    waf: float  # SSD bytes written per byte put, inside the window
    shed: int  # ops refused before any work (``shed_errors``)
    failed: int  # ops that failed part-way (``failed_errors``)

    @property
    def ops(self) -> int:
        return len(self.latency.samples)


def make_threads(store, count: int, prefix: str = "app") -> List[VThread]:
    return [VThread(tid, store.clock, name=f"{prefix}-{tid}") for tid in range(count)]


def op_streams(
    spec: WorkloadSpec,
    num_keys: int,
    num_threads: int,
    value_size: int,
    theta: float,
    seed: int,
) -> List[OpStream]:
    """One stream per client.  Seeds mix in the workload name so
    back-to-back runs on one store do not replay identical key
    sequences (which would make every cache look perfect)."""
    insert_seq = (
        InsertSequence(0, shuffle_span=4096, seed=seed)
        if spec.name == "LOAD"
        else None
    )
    mixed_seed = zlib.crc32(f"{seed}:{spec.name}".encode())
    return [
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


def split_ops(streams: List[OpStream], num_ops: int) -> List[Iterator[Op]]:
    """``num_ops`` dealt over the streams, the remainder to the first."""
    base, extra = divmod(num_ops, len(streams))
    return [s.ops(base + (1 if i < extra else 0)) for i, s in enumerate(streams)]


def closed_loop(
    target,
    threads: List[VThread],
    iters: Sequence[Iterator[Op]],
    registry: Optional[MetricsRegistry] = None,
    timeline: Optional[Timeline] = None,
    sampler: Optional[DeviceSampler] = None,
    sample_every: int = 1,
    actions: Sequence[Action] = (),
    shed_errors: Tuple[type, ...] = (),
    failed_errors: Tuple[type, ...] = (),
    ledger: Optional[WriteLedger] = None,
    read_split: Optional[Callable[[float], List[float]]] = None,
) -> Window:
    """Pop the earliest virtual thread, run its next op, push it back —
    until every thread's iterator (``iters[i]`` feeds ``threads[i]``;
    threads may share one) has run out.

    Everything beyond that is handed in, and costs a ``None``/empty
    test per op when it is not:

    * sinks — ``registry`` gets ``op.all`` / ``op.<kind>`` histograms,
      ``timeline`` the completions and the time the first thread ran
      dry, ``sampler`` a device sample every ``sample_every`` ops and
      at both ends;
    * ``actions`` — each fires once, earliest first and ties in the
      order given; one whose ``at_op`` is the op count fires after the
      last op, still inside the window;
    * ``shed_errors`` / ``failed_errors`` — exception classes counted
      instead of raised (refused before any work / failed part-way);
      anything else ends the run.  ``ledger`` is fed the writes:
      acknowledged, or — failed — interrupted;
    * ``read_split`` — called before each read with its start time,
      returns one more sample list for that read's latency.
    """
    start = max([t.now for t in threads])
    heap = [(t.now, i) for i, t in enumerate(threads)]
    heapify(heap)
    pending = sorted(actions, key=lambda action: action[0])[::-1]
    latency = LatencyRecorder("all")
    per_kind: Dict[str, LatencyRecorder] = {}
    # elapsed is non-negative by clock monotonicity, so the recorders'
    # guard is skipped by appending to the sample lists directly; the
    # per-kind sinks (sample list append, histogram record) are
    # resolved on a kind's first op.
    latency_append = latency.samples.append
    record_all = registry.histogram("op.all").record if registry is not None else None
    kind_sinks: Dict[str, tuple] = {}
    get = target.get
    put = target.put
    executed = shed = failed = 0
    ssd_written_before = target.ssd_bytes_written()
    bytes_put_before = target.bytes_put
    if sampler is not None:
        sampler.sample(start)
    while heap:
        _, i = heappop(heap)
        thread = threads[i]
        op = next(iters[i], None)
        if op is None:
            if timeline is not None and timeline.drain_at is None:
                timeline.drain_at = thread.now - start
            continue
        while pending and executed >= pending[-1][0]:
            pending.pop()[1](thread)
        kind = op.kind
        split = read_split(thread.now) if read_split is not None and kind == "read" else None
        before = thread.now
        try:
            if kind == "read":
                get(op.key, thread)
            elif kind == "update" or kind == "insert":
                put(op.key, op.value, thread)
            elif kind == "scan":
                target.scan(op.key, op.scan_length, thread)
            elif kind == "delete":
                target.delete(op.key, thread)
            else:
                raise ValueError(f"unknown op kind: {kind}")
        except shed_errors:
            # Refused before any work: definitively not applied, so a
            # shed write is neither acked nor in doubt.
            shed += 1
        except failed_errors:
            failed += 1
            if ledger is not None and kind in _WRITES:
                ledger.interrupt(op.key, before, thread.now, op.value)
        else:
            if ledger is not None and kind in _WRITES:
                ledger.ack(op.key, before, thread.now, op.value)
        elapsed = thread.now - before
        latency_append(elapsed)
        sink = kind_sinks.get(kind)
        if sink is None:
            recorder = per_kind[kind] = LatencyRecorder(kind)
            sink = kind_sinks[kind] = (
                recorder.samples.append,
                registry.histogram(f"op.{kind}").record
                if registry is not None
                else None,
            )
        sink[0](elapsed)
        if record_all is not None:
            record_all(elapsed)
            sink[1](elapsed)
        if split is not None:
            split.append(elapsed)
        if timeline is not None:
            timeline.record(thread.now - start)
        executed += 1
        if sampler is not None and executed % sample_every == 0:
            sampler.sample(thread.now)
        heappush(heap, (thread.now, i))
    while pending:
        pending.pop()[1](thread)
    duration = max([t.now for t in threads]) - start
    if sampler is not None:
        sampler.sample(start + duration)
    new_put = target.bytes_put - bytes_put_before
    new_ssd = target.ssd_bytes_written() - ssd_written_before
    waf = (new_ssd / new_put) if new_put else 0.0
    return Window(start, duration, latency, per_kind, waf, shed, failed)


def window_events(target, start: float) -> List[Dict[str, object]]:
    """The target's structured events from ``start`` on (the baselines
    log none), so a window reports only what happened inside it."""
    return [e for e in getattr(target, "events", ()) if e["at"] >= start]


def finish_run(
    target,
    workload: str,
    window: Window,
    registry: Optional[MetricsRegistry] = None,
    gauges: Optional[Dict[str, float]] = None,
    timeline: Optional[Timeline] = None,
    events: Optional[List[Dict[str, object]]] = None,
    stats: Optional[Dict[str, float]] = None,
) -> RunResult:
    """Turn a window into its :class:`RunResult`; with a ``registry``,
    first complete it — the run gauges plus the caller's ``gauges``,
    ``stats.*``, and the window's events — and snapshot it.  A caller
    that does more work on the target after the window passes the
    ``events`` and ``stats`` it took where the window ended."""
    if stats is None:
        stats = target.stats()
    metrics: Optional[Dict[str, object]] = None
    if registry is not None:
        if events is None:
            events = window_events(target, window.start)
        for event in events:
            registry.events(str(event["kind"])).events.append(dict(event))
        run_gauges = {
            "ops": window.ops, "duration_s": window.duration, "waf": window.waf,
        }
        if window.duration > 0:
            run_gauges["throughput_ops"] = window.ops / window.duration
        run_gauges.update(gauges or {})
        run_gauges.update((f"stats.{key}", value) for key, value in stats.items())
        for name, value in run_gauges.items():
            registry.gauge(name).set(value)
        metrics = registry.to_dict()
    return RunResult(
        store_name=target.name,
        workload=workload,
        ops=window.ops,
        duration=window.duration,
        latency=window.latency,
        per_kind=window.per_kind,
        waf=window.waf,
        stats=stats,
        timeline=timeline,
        metrics=metrics,
    )


def _redirect_phases(store, registry: MetricsRegistry) -> Optional[MetricsRegistry]:
    """Point a store that traces phases (``enable_metrics``) at
    ``registry``; returns its own registry, to be put back after, or
    ``None`` when it traces none.  Metrics never touch virtual time, so
    the simulated state is bit-identical either way."""
    own = getattr(store, "metrics", None)
    if own is None or not own.enabled:
        return None
    store.metrics = registry
    return own


def preload(
    store,
    num_keys: int,
    value_size: int = 1024,
    num_threads: int = 1,
    seed: int = 1,
) -> None:
    """Load the dataset in random order (the paper's LOAD phase),
    without recording metrics."""
    seq = InsertSequence(0, shuffle_span=min(num_keys, 4096), seed=seed)

    def inserts() -> Iterator[Op]:
        for _ in range(num_keys):
            key = make_key(seq.next())
            yield Op("insert", key, make_value(key, value_size))

    # Every thread draws from the one sequence: whichever is earliest
    # inserts the next key.  "Without recording metrics" is honoured
    # literally — a phase-tracing store gets the null registry for the
    # load, which also makes large datasets noticeably faster to load.
    shared = inserts()
    own = _redirect_phases(store, NULL_REGISTRY)
    try:
        closed_loop(store, make_threads(store, num_threads), [shared] * num_threads)
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
    measured window reflects steady-state cache contents.

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
    threads = make_threads(store, num_threads)
    streams = op_streams(spec, num_keys, num_threads, value_size, theta, seed)
    if warmup_ops:
        closed_loop(
            store, threads, [s.ops(warmup_ops // num_threads) for s in streams]
        )
    timeline = Timeline(timeline_bucket) if timeline_bucket else None
    registry = MetricsRegistry() if collect_metrics else None
    own = _redirect_phases(store, registry) if registry is not None else None
    try:
        window = closed_loop(
            store,
            threads,
            split_ops(streams, num_ops),
            registry=registry,
            timeline=timeline,
            sampler=DeviceSampler(registry, store) if registry is not None else None,
            sample_every=max(1, num_ops // SAMPLE_POINTS),
        )
    finally:
        if own is not None:
            store.metrics = own
    if timeline is not None:
        for event in window_events(store, window.start):
            if event["kind"] == "gc":
                timeline.mark(event["at"] - window.start, "gc")
    return finish_run(store, spec.name, window, registry, timeline=timeline)
