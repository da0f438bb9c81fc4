"""Layer-specific numbers read from the program's public counters.

Every value is a difference of two snapshots taken around the measured
window, and every ratio is computed here from summed counts.  Summing
per-shard *ratios* is the defect in ``PrismCluster.stats()`` (it
reports ``rc_hit_ratio`` above 3 for four shards); see README findings.
"""

from __future__ import annotations

from typing import Dict, List


def stores_of(store) -> List[object]:
    """The Prism instances behind a store (one, or one per shard)."""
    shards = getattr(store, "shards", None)
    return [s.store for s in shards] if shards is not None else [store]


def snapshot(store) -> Dict[str, float]:
    """Cumulative public counters, summed over shards and devices."""
    c: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        c[key] = c.get(key, 0) + value

    for s in stores_of(store):
        add("puts", s.puts)
        add("bytes_put", s.bytes_put)
        add("pwb.reclaims", s.reclaims)
        add("hsit.reader_flushes", s.hsit.reader_flushes)
        add("nvm.flushes", s.nvm.flushes)
        add("nvm.fences", s.nvm.fences)
        add("nvm.bytes_flushed", s.nvm.bytes_flushed)
        add("nvm.bytes_used", s.nvm_bytes_used())
        for vs in s.storages:
            add("vs.chunk_writes", vs.chunk_writes)
            add("vs.gc_runs", vs.gc_runs)
            add("vs.gc_moved_bytes", vs.gc_moved_bytes)
            add("vs.used_bytes", vs.used_bytes())
            add("ring.requests", vs.ring.requests_submitted)
            add("ring.batches", vs.ring.batches_submitted)
            ssd = vs.ssd
            add("ssd.devices", 1)
            add("ssd.bytes_written", ssd.bytes_written)
            add("ssd.read_ios", ssd.read_ios)
            add("ssd.write_ios", ssd.write_ios)
            add(
                "ssd.busy_s",
                ssd.bytes_read / ssd.spec.read_bandwidth
                + ssd.bytes_written / ssd.spec.write_bandwidth,
            )
        for combiner in s.combiners:
            add("tcq.batches", combiner.batches)
            add("tcq.requests", combiner.combined_requests)
        svc = s.svc
        add("svc.hits", svc.hits)
        add("svc.admissions", svc.admissions)
        add("svc.evictions", svc.evictions)
        add("svc.scan_writebacks", svc.scan_writebacks)
        add("svc.writeback_values", svc.writeback_values)
        add("index.splits", s.index.splits)
        rc = s.read_cache
        if rc is not None:
            add("rc.hits", rc.hits)
            add("rc.misses", rc.misses)
            add("rc.evictions", rc.evictions)
            add("rc.invalidations", rc.invalidations)
            add("rc.rejections", rc.rejections)
    for shard in getattr(store, "shards", ()):
        add("shard.repl_applied", shard.repl_applied)
        add("shard.repl_dropped", shard.repl_dropped)
        add("admission.admitted", shard.admission.admitted)
        add("admission.shed", shard.admission.shed_queue + shard.admission.shed_rate)
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def window_metrics(
    before: Dict[str, float],
    after: Dict[str, float],
    ops: int,
    client_puts: int,
    value_size: int,
    vt_seconds: float,
) -> Dict[str, float]:
    """Per-layer metrics of one window from its two snapshots.

    ``client_puts`` counts the driver's update+insert ops; a user byte
    is a byte a client put, so replica writes count as amplification.
    """
    d = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    user_bytes = client_puts * value_size
    return {
        "core.pwb.reclaims": d["pwb.reclaims"],
        "core.hsit.reader_flushes": d["hsit.reader_flushes"],
        "storage.nvm.flushes_per_op": _ratio(d["nvm.flushes"], ops),
        "storage.nvm.fences_per_op": _ratio(d["nvm.fences"], ops),
        "storage.nvm.bytes_flushed_per_user_byte": _ratio(
            d["nvm.bytes_flushed"], user_bytes
        ),
        "core.value_storage.chunk_writes": d["vs.chunk_writes"],
        "core.value_storage.gc_runs": d["vs.gc_runs"],
        "core.value_storage.gc_moved_bytes_per_user_byte": _ratio(
            d["vs.gc_moved_bytes"], user_bytes
        ),
        "storage.ssd.bytes_written_per_user_byte": _ratio(
            d["ssd.bytes_written"], user_bytes
        ),
        "storage.ssd.read_ios_per_op": _ratio(d["ssd.read_ios"], ops),
        "storage.ssd.write_ios_per_op": _ratio(d["ssd.write_ios"], ops),
        "storage.ssd.util": _ratio(
            d["ssd.busy_s"], after["ssd.devices"] * vt_seconds
        ),
        # The SVC is only consulted for values in Value Storage; every
        # miss fetches from SSD and admits, so admissions are the misses.
        "core.svc.hit_ratio": _ratio(
            d["svc.hits"], d["svc.hits"] + d["svc.admissions"]
        ),
        "core.svc.evictions": d["svc.evictions"],
        "core.svc.scan_writebacks": d["svc.scan_writebacks"],
        "core.svc.writeback_values": d["svc.writeback_values"],
        "core.tcq.avg_batch": _ratio(d["tcq.requests"], d["tcq.batches"]),
        # SQEs per submission syscall: a ring batch is one syscall
        # (writes), and so is each batch a combining leader closes.
        "storage.iouring.avg_batch": _ratio(
            d["ring.requests"], d["ring.batches"] + d["tcq.batches"]
        ),
        "index.pactree.splits": d["index.splits"],
        "cache.read_cache.hit_ratio": _ratio(
            d.get("rc.hits", 0), d.get("rc.hits", 0) + d.get("rc.misses", 0)
        ),
        "cache.read_cache.evictions": d.get("rc.evictions", 0),
        "cache.read_cache.invalidations": d.get("rc.invalidations", 0),
        "cache.read_cache.rejections": d.get("rc.rejections", 0),
        # Shard-level puts beyond the one the client asked for.
        "cluster.router.replica_writes_per_put": _ratio(
            d["puts"] - client_puts, client_puts
        ),
        "cluster.shard.repl_applied": d.get("shard.repl_applied", 0),
        "cluster.shard.repl_dropped": d.get("shard.repl_dropped", 0),
        "cluster.admission.shed_ratio": _ratio(
            d.get("admission.shed", 0),
            d.get("admission.shed", 0) + d.get("admission.admitted", 0),
        ),
    }


def space_amp(after: Dict[str, float], live_keys: int, value_size: int) -> float:
    """Bytes held on SSD chunks and NVM per byte of live user data."""
    return _ratio(
        after["vs.used_bytes"] + after["nvm.bytes_used"], live_keys * value_size
    )
