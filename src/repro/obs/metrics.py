"""Metric primitives: counters, gauges, histograms, series, events.

Everything here measures *virtual* time and simulated state — recording
never advances any clock, so enabling metrics cannot change simulated
results, only observe them.

The registry comes in two flavours:

* :class:`MetricsRegistry` — the real thing.  Instruments are created
  on first use and keyed by name, so call sites stay one-liners.
* :data:`NULL_REGISTRY` — a shared no-op registry.  Every instrument
  it hands out swallows updates.  Components hold a registry reference
  unconditionally and the disabled path costs one attribute lookup and
  a no-op call, keeping the default configuration zero-cost.

Latency histograms are log-bucketed (HDR-style: power-of-two octaves
with 16 linear sub-buckets each, ≤ ~6% relative error per bucket) so
p50/p90/p99/p999 come from O(1)-space state instead of sorted sample
arrays, no matter how many operations a run records.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Sub-bucket resolution: 16 linear buckets per power-of-two octave.
_SUB_BITS = 4
_SUB = 1 << _SUB_BITS  # 16


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class LatencyHistogram:
    """Log-bucketed latency distribution over virtual seconds.

    Values are quantized to integer nanoseconds and placed into
    HDR-style buckets: values below 16 ns get their own bucket; above
    that, each power-of-two octave is divided into 16 linear
    sub-buckets, bounding relative error at ~6%.  Percentiles report
    the bucket midpoint, in microseconds (the paper's unit).
    """

    __slots__ = ("name", "_buckets", "count", "total", "max_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0  # seconds
        self.max_ns = 0

    # -- bucket arithmetic --------------------------------------------
    @staticmethod
    def _midpoint_ns(index: int) -> float:
        if index < 2 * _SUB:  # linear region covers indices [0, 32)
            return float(index) + 0.5
        exp = (index >> _SUB_BITS) - 1
        mantissa = index - (exp << _SUB_BITS)
        return (mantissa + 0.5) * (1 << exp)

    # -- recording -----------------------------------------------------
    def record(self, seconds: float) -> None:
        # Clamp fp jitter from virtual-time subtraction; observation
        # must never take the store down.  Below _SUB a value is its own
        # bucket; above, the top _SUB_BITS + 1 bits pick it.
        ns = int(seconds * 1e9) if seconds > 0 else 0
        if ns < _SUB:
            idx = ns
        else:
            exp = ns.bit_length() - (_SUB_BITS + 1)
            idx = (exp << _SUB_BITS) + (ns >> exp)
        buckets = self._buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        self.count += 1
        self.total += seconds
        if ns > self.max_ns:
            self.max_ns = ns

    def __len__(self) -> int:
        return self.count

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram, bucket-wise.

        Because both sides quantize to the same HDR bucket layout, a
        merge is exact: percentiles of the merged histogram equal the
        percentiles of recording every sample into one histogram.
        This is how cluster-wide p50/p99 are computed from per-shard
        histograms.  Returns ``self`` for chaining.
        """
        for idx, n in other._buckets.items():
            self._buckets[idx] = self._buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns
        return self

    # -- summaries -----------------------------------------------------
    def percentile(self, p: float) -> float:
        """The ``p``-th percentile in microseconds (bucket midpoint)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        target = (p / 100.0) * self.count
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= target:
                return self._midpoint_ns(idx) / 1e3
        return self.max_ns / 1e3  # pragma: no cover - fp safety net

    def average(self) -> float:
        """Mean latency in microseconds."""
        if self.count == 0:
            return 0.0
        return (self.total / self.count) * 1e6

    def median(self) -> float:
        return self.percentile(50)

    def p90(self) -> float:
        return self.percentile(90)

    def p99(self) -> float:
        return self.percentile(99)

    def p999(self) -> float:
        return self.percentile(99.9)

    def buckets(self) -> Iterator[Tuple[float, int]]:
        """Yield (bucket midpoint in us, count), ascending."""
        for idx in sorted(self._buckets):
            yield self._midpoint_ns(idx) / 1e3, self._buckets[idx]

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "avg_us": self.average(),
            "p50_us": self.median(),
            "p90_us": self.p90(),
            "p99_us": self.p99(),
            "p999_us": self.p999(),
            "max_us": self.max_ns / 1e3,
            "buckets_us": [[mid, n] for mid, n in self.buckets()],
        }


class TimeSeries:
    """Samples of one quantity over virtual time."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def to_dict(self) -> Dict[str, List[float]]:
        return {"t": self.times, "v": self.values}


class EventLog:
    """Structured events (GC runs, reclamations) in virtual time.

    Each event is a plain dict carrying at least ``at`` (virtual time)
    and ``kind``; emitters attach whatever structured fields describe
    the event (victim counts, bytes moved, durations).
    """

    __slots__ = ("name", "events")

    def __init__(self, name: str = "events") -> None:
        self.name = name
        self.events: List[Dict[str, object]] = []

    def emit(self, at: float, kind: str, **fields: object) -> None:
        event: Dict[str, object] = {"at": at, "kind": kind}
        event.update(fields)
        self.events.append(event)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.events)

    def to_list(self) -> List[Dict[str, object]]:
        return list(self.events)


class MetricsRegistry:
    """Named instruments, created on first use.

    Phase attribution uses dotted names: ``phase.<op>.<name>`` for the
    per-phase histograms and ``op.<kind>`` for whole-operation
    latencies, so a JSON consumer can group them without a schema.

    ``prefix`` namespaces every instrument this registry creates (e.g.
    ``shard3/``): two Prism instances living in one process — cluster
    shards — each get their own prefixed registry, so their counters
    stay distinguishable when snapshots are combined into one payload.
    :func:`merge_registries` strips the prefix when folding per-shard
    registries into a cluster-wide view.
    """

    enabled = True

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.event_logs: Dict[str, EventLog] = {}
        # (op, name) -> histogram, so phase() skips the f-string and
        # dict-of-strings lookup on the per-op hot path.  Lives on the
        # registry (not the store) because runners swap store.metrics.
        self._phase_cache: Dict[str, Dict[str, LatencyHistogram]] = {}

    def counter(self, name: str) -> Counter:
        name = self.prefix + name
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        name = self.prefix + name
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> LatencyHistogram:
        name = self.prefix + name
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = LatencyHistogram(name)
        return h

    def timeseries(self, name: str) -> TimeSeries:
        name = self.prefix + name
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = TimeSeries(name)
        return s

    def events(self, name: str) -> EventLog:
        name = self.prefix + name
        e = self.event_logs.get(name)
        if e is None:
            e = self.event_logs[name] = EventLog(name)
        return e

    def phase(self, op: str, name: str, seconds: float) -> None:
        """Attribute ``seconds`` of an ``op`` to one phase.

        Phases are the highest-rate recordings in an instrumented run,
        so the histogram is resolved through a nested string-keyed
        cache (no tuple allocation) and record() is inlined.
        """
        ops = self._phase_cache.get(op)
        if ops is None:
            ops = self._phase_cache[op] = {}
        h = ops.get(name)
        if h is None:
            h = ops[name] = self.histogram(f"phase.{op}.{name}")
        ns = int(seconds * 1e9) if seconds > 0 else 0
        if ns < _SUB:
            idx = ns
        else:
            exp = ns.bit_length() - (_SUB_BITS + 1)
            idx = (exp << _SUB_BITS) + (ns >> exp)
        buckets = h._buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        h.count += 1
        h.total += seconds
        if ns > h.max_ns:
            h.max_ns = ns

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of every instrument."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self.histograms.items())
            },
            "series": {k: s.to_dict() for k, s in sorted(self.series.items())},
            "events": {
                k: e.to_list() for k, e in sorted(self.event_logs.items())
            },
        }


def merge_registries(
    registries: "Sequence[MetricsRegistry]",
    into: Optional[MetricsRegistry] = None,
    strip_prefix: bool = True,
) -> MetricsRegistry:
    """Fold several registries into one cluster-wide view.

    Instruments are matched by name with each source registry's
    ``prefix`` stripped (unless ``strip_prefix=False``), so per-shard
    registries built with prefixes like ``shard0/`` and ``shard1/``
    merge ``shard0/op.get`` and ``shard1/op.get`` into one ``op.get``.

    Merge semantics per instrument type:

    * counters and gauges add (a cluster-wide op count is the sum of
      per-shard counts; gauges here are run totals, not instantaneous
      readings — combining snapshots is the only meaningful merge);
    * histograms merge bucket-wise (exact — see
      :meth:`LatencyHistogram.merge`), which is what makes cluster-wide
      p50/p99 computable from per-shard state;
    * timeseries and event logs concatenate and re-sort by virtual
      time, giving one cluster-wide timeline.
    """
    out = into if into is not None else MetricsRegistry()
    for reg in registries:
        cut = len(reg.prefix) if strip_prefix else 0
        for name, c in reg.counters.items():
            out.counter(name[cut:]).inc(c.value)
        for name, g in reg.gauges.items():
            target = out.gauge(name[cut:])
            target.set(target.value + g.value)
        for name, h in reg.histograms.items():
            out.histogram(name[cut:]).merge(h)
        for name, s in reg.series.items():
            target_series = out.timeseries(name[cut:])
            pairs = sorted(
                list(zip(target_series.times, target_series.values))
                + list(zip(s.times, s.values))
            )
            target_series.times = [t for t, _ in pairs]
            target_series.values = [v for _, v in pairs]
        for name, log in reg.event_logs.items():
            target_log = out.events(name[cut:])
            target_log.events.extend(dict(e) for e in log.events)
            target_log.events.sort(key=lambda e: e["at"])
    return out


# ----------------------------------------------------------------------
# the zero-cost disabled path
# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(LatencyHistogram):
    __slots__ = ()

    def record(self, seconds: float) -> None:
        pass

    def merge(self, other: LatencyHistogram) -> LatencyHistogram:
        return self  # shared instrument: swallowing keeps it empty


class _NullTimeSeries(TimeSeries):
    __slots__ = ()

    def append(self, t: float, value: float) -> None:
        pass


class _NullEventLog(EventLog):
    __slots__ = ()

    def emit(self, at: float, kind: str, **fields: object) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """Swallows every update; shared instruments, nothing stored."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")
        self._series_null = _NullTimeSeries("null")
        self._events = _NullEventLog("null")

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def histogram(self, name: str) -> LatencyHistogram:
        return self._histogram

    def timeseries(self, name: str) -> TimeSeries:
        return self._series_null

    def events(self, name: str) -> EventLog:
        return self._events

    def phase(self, op: str, name: str, seconds: float) -> None:
        pass


NULL_REGISTRY = NullRegistry()
