"""Census: which code the program runs, and which knobs anything sets.

Run from the repository root under CPython 3.12 or later (it needs
``sys.monitoring``), with pytest and Hypothesis importable::

    PYTHONPATH=src python3.12 -m tests.census            # writes docs/census.md

It records which lines and functions under ``src/repro`` two kinds of
input reach, all in this one process:

* **tier-1**: ``pytest.main`` with the default (``not slow``) selection;
* **product**: ``python -m repro.bench <name> --smoke`` for every
  experiment, the crash sweep of every scenario (as CI runs them),
  ``perfbench.child --mode untraced`` for every workload at
  ``--scale 1/3``, and every script under ``examples/``.

Everything runs with ``--jobs 1``; code that only a worker process runs
is not seen.  A static pass (:func:`knob_sites`) then finds, for each
field of each config dataclass, every place in the repository that sets
it to something other than its default.

The report lists the line totals, each function that tier-1 alone or
nothing reaches, and every knob, each with its verdict: **kept** with
the reason (:data:`KEPT`; for a knob only tests set,
:data:`TEST_KNOBS`), **test added** (:data:`TESTED`), or **deleted**
(:data:`DELETED`, checked to be gone).  It then lists every site that
moves a device's bytes with no thread to charge
(:class:`UntimedRecorder`), each with its verdict in :data:`UNTIMED`.
An entry without a verdict, or filed under a verdict in
:data:`RETIRED_VERDICTS`, is printed as **unjudged** and makes the exit
status 1.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import runpy
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
REPORT = ROOT / "docs" / "census.md"
# Trees whose code can set a knob; tests are counted apart from the rest.
SITE_TREES = ("src", "examples", "perfbench", "tests")

CONFIG_CLASSES = (
    "repro.core.config:PrismConfig",
    "repro.faults.retry:RetryPolicy",
    "repro.faults.injector:FaultConfig",
    "repro.faults.injector:SlowFault",
    "repro.cluster.router:ClusterConfig",
    "repro.cluster.health:HealthConfig",
    "repro.baselines.lsm.lsm:LSMConfig",
    "repro.baselines.matrixkv:MatrixKVConfig",
    "repro.baselines.rocksdb_nvm:RocksDBNVMConfig",
    "repro.baselines.slmdb:SLMDBConfig",
    "repro.baselines.kvell:KVellConfig",
)

# CI's crash-sweep matrix: every scenario of repro.cluster.crash_sweep.SCENARIOS.
CRASH_SWEEPS = (
    "store", "mirrored", "tiered", "writeback", "cluster", "gray",
    "rebalance-source", "rebalance-target", "rebalance-leaving",
)
PERFBENCH_SCALE = 1 / 3

# ----------------------------------------------------------------------
# Verdicts.  A function is ``module:qualname``; a reason covers every
# function listed under it.  The rule: code goes only when no input
# reaches it and no caller in src/, examples/ or perfbench/ names it;
# safety code (raises, containment, repair) stays.
# ----------------------------------------------------------------------
KEPT: Dict[str, Tuple[str, ...]] = {
    "`perfbench/trace.py` patches it by name (traced mode)": (
        "repro.cluster.ring:HashRing.lookup",
        "repro.cluster.shard:Shard.enqueue",
        "repro.core.hsit:HSIT.publish_location",
        "repro.core.hsit:HSIT.read_location",
        "repro.storage.ssd:SSDDevice.read",
        "repro.storage.ssd:SSDDevice.write",
        "repro.core.tcq:ThreadCombiner.read",
        "repro.core.tcq:ThreadCombiner.read_one",
    ),
    "perfbench's traced mode calls it (`merged_shard_metrics`)": (
        "repro.cluster.router:PrismCluster.merged_shard_metrics",
        "repro.obs.metrics:merge_registries",
        "repro.obs.metrics:LatencyHistogram.merge",
    ),
    "writes the metrics JSON; every census input passes `--metrics-out none`": (
        "repro.bench.report:iter_run_results",
        "repro.bench.report:metrics_payload",
        "repro.bench.report:write_metrics_json",
    ),
    "reached only at full size": (
        "repro.bench.cache:cluster_hot_spread",
        "repro.bench.experiments:_well_formed_gc",
        "repro.sim.stats:Timeline.mark",
        "repro.sim.resources:BandwidthChannel._prune",
        "repro.baselines.slmdb:SLMDB._compact_table",
        "repro.baselines.slmdb:SLMDB._decrement_live",
        "repro.baselines.slmdb:SLMDB._flush_memtable",
        "repro.baselines.slmdb:SLMDB._index_table",
        "repro.baselines.slmdb:SLMDB._index_table_compacted",
        "repro.baselines.slmdb:SLMDB._selective_compaction",
        "repro.baselines.slmdb:SLMDB._slot",
        "repro.baselines.slmdb:SLMDB._trim_page_cache",
        "repro.baselines.slmdb:SLMDB._unslot",
    ),
    "behind a CLI command or flag no census input passes (`figs`, `--profile`)": (
        "repro.bench.__main__:_dump_profile",
        "repro.bench.figs:_run_experiment",
        "repro.bench.figs:run_figs",
    ),
    "runs in a worker process (`--jobs` > 1), which the census does not follow": (
        "repro.parallel:_init_worker",
        "repro.parallel:_invoke",
    ),
    "typed error on a failure path (safety code)": (
        "repro.cluster.errors:RebalanceInProgressError.__init__",
        "repro.cluster.errors:ShardOverloadedError.__init__",
        "repro.cluster.errors:ShardUnavailableError.__init__",
        "repro.cluster.ring:DuplicateShardError.__init__",
        "repro.cluster.ring:LastShardError.__init__",
        "repro.cluster.ring:UnknownShardError.__init__",
        "repro.cluster.router:_ShardOpError.__init__",
        "repro.faults.errors:DeviceDeadError.__init__",
        "repro.faults.errors:NoHealthyStorageError.__init__",
        "repro.faults.errors:ReadDegradedError.__init__",
        "repro.faults.errors:RetryExhaustedError.__init__",
        "repro.faults.errors:StuckIOError.__init__",
        "repro.faults.errors:UnrecoverableCorruptionError.__init__",
    ),
    "containment, repair, recovery or failure reporting (safety code)": (
        "repro.cluster.health:CircuitBreaker._close",
        "repro.cluster.health:HealthMonitor.record_failure",
        "repro.cluster.rebalance:Migration.snapshot",
        "repro.cluster.router:PrismCluster._permanent",
        "repro.core.checker:AuditReport.fail",
        "repro.core.containment:resolve_partial_publish",
        "repro.core.prism:Prism._fetch.<locals>.heal",
        "repro.core.prism:Prism._gc.<locals>.heal",
        "repro.core.pwb:PersistentWriteBuffer.adopt",
        "repro.faults.crash_sweep:_shown",
        "repro.faults.retry:RetryExecutor._give_up",
        "repro.storage.nvm:PersistentHeap.free",
        "repro.storage.raid:RAID0.crash",
    ),
    "a case only tier-1 sets up: rate limits, health with resharding": (
        "repro.cluster.admission:TokenBucket.__init__",
        "repro.cluster.admission:TokenBucket.try_take",
        "repro.cluster.health:HealthMonitor.register",
        "repro.cluster.health:HealthMonitor.set_exempt",
    ),
    "null object: answers the interface while the feature is off": (
        "repro.obs.metrics:NullRegistry.counter",
        "repro.obs.metrics:NullRegistry.events",
        "repro.obs.metrics:NullRegistry.gauge",
        "repro.obs.metrics:NullRegistry.histogram",
        "repro.obs.metrics:NullRegistry.phase",
        "repro.obs.metrics:NullRegistry.timeseries",
        "repro.obs.metrics:_NullCounter.inc",
        "repro.obs.metrics:_NullEventLog.emit",
        "repro.obs.metrics:_NullGauge.set",
        "repro.obs.metrics:_NullHistogram.merge",
        "repro.obs.metrics:_NullHistogram.record",
        "repro.obs.metrics:_NullTimeSeries.append",
        "repro.storage.crash:_NullCrashPoint.arm",
        "repro.storage.crash:_NullCrashPoint.maybe_crash",
    ),
    "abstract method of the `KVStore` interface": (
        "repro.baselines.interface:KVStore.delete",
        "repro.baselines.interface:KVStore.get",
        "repro.baselines.interface:KVStore.put",
        "repro.baselines.interface:KVStore.scan",
        "repro.baselines.interface:KVStore.ssd_bytes_written",
    ),
    "`KVStore` contract only tier-1 drives (`tests/test_differential.py`)": (
        "repro.baselines.interface:KVStore.close",
        "repro.baselines.kvell:KVell.delete",
        "repro.baselines.kvell:KVell.used_bytes",
        "repro.baselines.kvell:_Worker.delete",
        "repro.baselines.lsm.blockstore:BlockStore.used_bytes",
        "repro.baselines.lsm.blockstore:BlockStore.write",
        "repro.baselines.lsm.lsm:LSMStore._make_stores",
        "repro.baselines.lsm.lsm:LSMStore.delete",
        "repro.baselines.lsm.lsm:LSMStore.flush",
        "repro.baselines.lsm.lsm:LSMStore.recovery_time",
        "repro.baselines.rocksdb_nvm:RocksDBNVM.nvm_bytes_written",
        "repro.baselines.slmdb:SLMDB.delete",
        "repro.baselines.slmdb:SLMDB.flush",
        "repro.baselines.slmdb:SLMDB.recovery_time",
        "repro.index.btree:BTree.delete",
        "repro.storage.nvm:NVMDevice.write_durable",
        "repro.storage.raid:RAID0.bytes_read",
        "repro.storage.raid:RAID0.bytes_written",
        "repro.storage.raid:RAID0.scan_time",
        "repro.storage.raid:RAID0.write",
    ),
    "protocol method, called implicitly (`repr`, `len`, `in`, `hash`, `with`)": (
        "repro.baselines.lsm.memtable:MemTable.__contains__",
        "repro.cache.read_cache:ReadCache.__contains__",
        "repro.cache.read_cache:ReadCache.__len__",
        "repro.cluster.rebalance:MoveSpec.__repr__",
        "repro.cluster.ring:HashRing.__len__",
        "repro.cluster.shard:Shard.__repr__",
        "repro.core.checker:AuditReport.__str__",
        "repro.core.pointers:Location.__eq__",
        "repro.core.pointers:Location.__hash__",
        "repro.core.pointers:Location.__repr__",
        "repro.core.pointers:Location._key",
        "repro.core.svc:ScanAwareValueCache.__len__",
        "repro.index.btree:BTree.__contains__",
        "repro.index.btree:BTree.__len__",
        "repro.obs.metrics:EventLog.__len__",
        "repro.obs.metrics:LatencyHistogram.__len__",
        "repro.obs.metrics:TimeSeries.__len__",
        "repro.sim.clock:VirtualClock.__repr__",
        "repro.sim.resources:VLock.__enter__",
        "repro.sim.vthread:VThread.__repr__",
        "repro.storage.base:Device.__repr__",
    ),
    "called through `getattr(chooser, \"grow\")` on inserts; tier-1 drives it": (
        "repro.workloads.zipfian:HotKeyStormGenerator.grow",
        "repro.workloads.zipfian:LatestGenerator.grow",
    ),
    "test oracle: the verdict of a report, which the tests assert on": (
        "repro.core.checker:AuditReport.ok",
        "repro.repair.repair:RebuildReport.ok",
    ),
    "test oracle: a read-only count or view of state the product never "
    "asks for, which crash, restart, leak and routing tests assert on": (
        "repro.cluster.health:HealthMonitor.is_gray",
        "repro.cluster.ring:HashRing.shards",
        "repro.core.epoch:EpochManager.pending",
        "repro.core.hsit:HSIT.allocated_entries",
        "repro.core.tcq:ThreadCombiner.average_batch",
        "repro.storage.nvm:NVMDevice.unflushed_lines",
    ),
    "test oracle: the inverse of `decode`, which the round-trip "
    "properties check it against": (
        "repro.core.pointers:encode",
    ),
}
# Verdicts that judge nothing: an entry still filed under one is unjudged.
RETIRED_VERDICTS = ("test-only API: a candidate to delete with its tests",)
# Knobs that only tests set to a non-default value, each with why it is
# a field and not a constant (``tests/test_knobs.py`` requires one).
TEST_KNOBS: Dict[str, str] = {
    "PrismConfig.pwb_watermark":
        "calibration: how full a PWB gets before reclaim starts",
    "PrismConfig.gc_batch_chunks":
        "calibration: how many victim chunks one GC round takes",
    "RetryPolicy.max_retries": "calibration: retries before a typed give-up",
    "RetryPolicy.backoff_base": "calibration: virtual seconds before the first retry",
    "RetryPolicy.backoff_factor": "calibration: growth of each further backoff",
    "RetryPolicy.fail_threshold":
        "calibration: consecutive failures that declare a device dead",
    "FaultConfig.stuck_timeout":
        "calibration: virtual time a stuck IO costs its submitter",
    "ClusterConfig.rate_limit_ops":
        "token-bucket admission: perfbench reads `admission.shed_rate`; goes "
        "with admission once the next `[benchmark]` change stops reading it",
    "ClusterConfig.rate_burst":
        "token-bucket admission: goes with `rate_limit_ops`",
    "ClusterConfig.replication_mode":
        "async replication: perfbench reads `Shard.repl_applied`/`repl_dropped`; "
        "goes with them once the next `[benchmark]` change stops reading them",
    "HealthConfig.ewma_alpha": "calibration: weight of the newest latency sample",
    "HealthConfig.min_samples": "calibration: observations before a shard is judged",
    "HealthConfig.gray_factor": "calibration: score over peer median that is gray",
    "HealthConfig.open_after": "calibration: gray verdicts that open a breaker",
    "HealthConfig.reset_timeout": "calibration: virtual seconds a breaker stays open",
    "HealthConfig.probe_successes": "calibration: healthy probes that close a breaker",
    "HealthConfig.hedge_quantile": "calibration: latency quantile that fires a hedge",
    "HealthConfig.hedge_min_delay": "calibration: floor of the hedge delay",
    "LSMConfig.memtable_bytes": "LSM sizing: tests shrink it to reach flushes",
    "LSMConfig.l1_target_bytes": "LSM sizing: tests shrink it to reach compactions",
    "LSMConfig.sstable_target_bytes": "LSM sizing: tests shrink it to cut many tables",
    "LSMConfig.wal_capacity": "LSM sizing: tests shrink it to reach WAL wrap",
    "LSMConfig.max_compaction_lag": "LSM sizing: tests shrink it to reach write stalls",
    "SLMDBConfig.sstable_target_bytes": "SLM-DB sizing: tests shrink it to cut many tables",
    "SLMDBConfig.max_compaction_lag": "SLM-DB sizing: tests shrink it to reach write stalls",
    "SLMDBConfig.os_page_cache_bytes": "SLM-DB sizing: tests shrink it to reach misses",
}
TESTED: Dict[str, str] = {}
# What the subtractions removed; the report checks each is gone.
DELETED: Dict[str, str] = {
    **dict.fromkeys((
        "repro.core.epoch:EpochManager.register",
        "repro.obs.metrics:MetricsRegistry.attach_events",
        "repro.obs.metrics:NullRegistry.attach_events",
        "repro.obs.metrics:LatencyHistogram._index",
        "repro.storage.nvm:PersistentHeap._fields",
        "repro.sim.resources:BandwidthChannel.utilization",
        "repro.core.pwb:PersistentWriteBuffer.free_space",
        "repro.core.svc:ScanAwareValueCache.pending_work",
        "repro.cluster.health:HealthMonitor.state",
        "repro.cluster.runner:ClusterRunResult.summary",
        "repro.baselines.lsm.blockstore:BlockStore.bytes_written",
        "repro.baselines.lsm.lsm:LSMStore._persist_memtable_entry",
    ), "nothing reached or called it"),
    **dict.fromkeys((
        "repro.storage.raid:RAID0.degraded_read",
        "repro.storage.raid:RAID0._dead_members",
    ), "only its own tests called it"),
    **dict.fromkeys((
        "repro.storage.base:_NullFaultInjector.before_io",
        "repro.storage.base:_NullFaultInjector.before_flush",
        "repro.storage.base:_NullFaultInjector.corrupt_write",
        "repro.storage.base:_NullFaultInjector.is_dead",
        "repro.storage.base:_NullFaultInjector.kill_device",
    ), "every hook site tests the armed bit first; the null injector is never armed"),
    **dict.fromkeys((
        "repro.storage.iouring:split_into_batches",
        "repro.core.tcq:ThreadCombiner.coalescing_limit",
        "repro.storage.ssd:SSDDevice._page",
        "repro.storage.nvm:NVMDevice._page",
        "repro.storage.nvm:NVMDevice._write_raw",
        "repro.core.svc:ScanAwareValueCache._logical_free",
    ), "a cold read miss walks batches by index, pages through one gather/scatter pair, and frees an SVC entry in _drop"),
    **dict.fromkeys((
        "repro.core.pwb:PersistentWriteBuffer._parse",
        "repro.core.value_storage:ValueStorage._frame",
        "repro.core.value_storage:ValueStorage.parse_record",
        "repro.core.value_storage:ValueStorage.slot_size",
        "repro.core.value_storage:record_crc",
        "repro.core.recovery:_mirror_copy",
        "repro.repair.repair:_mirror_dead",
        "repro.core.prism:Prism._vs_dead",
        "repro.core.prism:Prism._repair_read",
    ), "the record format lives in repro.core.record, a mirror copy has one reader "
       "(ValueStorage.read_record_mirror via repair.mirror_value), and the read "
       "path's heal is repair.read_repair"),
    **dict.fromkeys((
        "repro.cluster.errors:ShardDrainingError.__init__",
        "repro.cluster.admission:AdmissionController.start_drain",
        "repro.cluster.admission:AdmissionController.stop_drain",
        "repro.cluster.shard:Shard.start_drain",
        "repro.cluster.shard:Shard.retire",
        "repro.cluster.shard:Shard.kill",
        "repro.cluster.router:PrismCluster._admission_for",
        "repro.cluster.router:PrismCluster._start_migration",
        "repro.cluster.router:PrismCluster._end_migration",
        "repro.cluster.rebalance:Migration.on_shard_failed",
        "repro.cluster.rebalance:Migration._abort",
    ), "no write routes to a draining shard, so it needs no gate; "
       "repro.cluster.membership writes membership: add, remove, fail, settle"),
    **dict.fromkeys((
        "PrismConfig.dram_spec",
        "PrismConfig.read_cache_sketch_width",
        "PrismConfig.index_leaf_capacity",
        "PrismConfig.epoch_advance_every",
        "PrismConfig.scrub_bandwidth",
        "PrismConfig.tier_sketch_width",
        "ClusterConfig.ring_seed",
        "ClusterConfig.auto_rebuild",
        "HealthConfig.enable_hedging",
        "HealthConfig.hedge_window",
        "HealthConfig.hedge_median_cap",
        "LSMConfig.l0_limit",
        "LSMConfig.level_ratio",
        "LSMConfig.compaction_cpu_per_byte",
        "LSMConfig.write_cpu",
        "LSMConfig.read_cpu",
        "LSMConfig.block_miss_overhead",
        "LSMConfig.block_parse_cost",
        "LSMConfig.scan_entry_cpu",
        "LSMConfig.readahead_blocks",
        "LSMConfig.cache_lock_cost",
        "MatrixKVConfig.column_fraction",
        "SLMDBConfig.live_ratio_threshold",
        "SLMDBConfig.compaction_cpu_per_byte",
        "SLMDBConfig.write_cpu",
        "SLMDBConfig.read_cpu",
        "SLMDBConfig.page_cache_hit_cost",
        "SLMDBConfig.index_insert_cost",
        "KVellConfig.page_size",
        "KVellConfig.worker_cpu_cost",
        "KVellConfig.injector_cost",
        "KVellConfig.batch_window",
        "KVellConfig.scan_candidate_cpu",
    ), "nothing set it; now a module constant or a plain default"),
    "HealthConfig.enable_breaker":
        "only its own test set it; the breaker is always on",
    **dict.fromkeys((
        "HealthConfig.op_deadline",
        "repro.faults.errors:DeadlineExceededError.__init__",
        "repro.faults.retry:RetryExecutor._past_deadline",
        "RetryPolicy.jitter",
        "RetryPolicy.jitter_seed",
    ), "per-op deadlines and retry jitter: only tests turned them on"),
    **dict.fromkeys((
        "FaultConfig.max_faults",
        "repro.faults.injector:FaultInjector._budget_left",
        "FaultConfig.dead_devices",
        "FaultConfig.slow",
    ), "a second way into the injector; tests call `kill_device` / "
       "`add_slow_fault`"),
    **dict.fromkeys((
        "SlowFault.add_latency",
        "SlowFault.duration",
        "SlowFault.stall_interval",
        "SlowFault.stall_duration",
        "SlowFault.stall_penalty",
        "repro.faults.injector:SlowFault.active",
        "repro.faults.injector:FaultInjector.clear_slow_faults",
    ), "a fail-slow shape nothing injects; a gray device is `multiplier` "
       "from `start` on"),
    **dict.fromkeys((
        "repro.baselines.lsm.bloom:BloomFilter.size_bytes",
        "repro.baselines.lsm.memtable:MemTable.max_key",
        "repro.baselines.lsm.memtable:MemTable.min_key",
        "repro.bench.report:ratio",
        "repro.bench.runner:RunResult.mops",
        "repro.cluster.admission:AdmissionController.enabled",
        "repro.cluster.health:HealthMonitor.snapshot",
        "repro.cluster.ring:HashRing.ownership_histogram",
        "repro.cluster.ring:HashRing.remove_shard",
        "repro.core.epoch:EpochManager.unregister",
        "repro.core.pointers:medium_of",
        "repro.index.btree:BTree._leftmost",
        "repro.index.btree:BTree.items",
        "repro.index.btree:BTree.keys",
        "repro.index.btree:BTree.range_items",
        "repro.sim.clock:VirtualClock.observe",
        "repro.sim.clock:VirtualClock.reset",
        "repro.sim.resources:FIFOServer.utilization",
        "repro.sim.stats:LatencyRecorder.record",
        "repro.sim.stats:LatencyRecorder.summary",
        "repro.sim.vthread:VThread.fork_background",
        "repro.storage.base:Device.reset_accounting",
        "repro.storage.dram:DRAMDevice.allocate",
        "repro.storage.dram:DRAMDevice.crash",
        "repro.storage.dram:DRAMDevice.free",
        "repro.storage.dram:DRAMDevice.release",
        "repro.storage.dram:DRAMDevice.would_fit",
    ), "test-only API: deleted with its tests"),
    **dict.fromkeys((
        "repro.bench.runner:RunResult.histogram",
        "repro.storage.specs:format_catalog",
    ), "only the deleted `benchmarks/` suite called it"),
    **dict.fromkeys((
        "PrismConfig.combine_window",
        "PrismConfig.timeout_window",
        "ClusterConfig.vnodes",
    ), "the store only forwarded it; `ThreadCombiner` and `HashRing` keep their "
       "own defaults, which their tests tune"),
    "PrismConfig.retry":
        "nothing set it; the store's retry executor takes `RetryPolicy()`",
    "KVellConfig.workers_per_ssd":
        "only a test set it; now the module constant `WORKERS_PER_SSD`",
    **dict.fromkeys((
        "repro.cache.read_cache:ReadCache.__init__(sketch_width)",
        "repro.tiering.temperature:TemperatureTracker.__init__(sketch_width)",
        "repro.core.svc:ScanAwareValueCache.__init__(page_size)",
        "repro.core.tcq:ThreadCombiner.__init__(timeout_window)",
        "repro.bench.stores:build_kvell(workers_per_ssd)",
        "repro.bench.cluster:cluster_failover(replication_mode)",
        "repro.bench.cluster:rf2_leg(replication_mode)",
        "repro.bench.rebalance:cluster_rebalance(replication_mode)",
    ), "every caller left it at its default"),
    "repro.cluster.router:MODE_SYNC":
        "sync replication: only its own test ran it; quorum and async remain",
    **dict.fromkeys((
        "repro.storage.nvm:NVMDevice.load_word",
        "repro.core.hsit:HSIT._store_word",
    ), "no measured path ran it: `load(thread, addr, 8)` and `NVMDevice.store_word` are the one plain path"),
    **dict.fromkeys((
        "repro.bench.stores:build_kvell(page_cache)",
        "repro.bench.stores:build_kvell(ssd_capacity)",
        "repro.bench.stores:build_matrixkv(block_cache)",
        "repro.bench.stores:build_matrixkv(container)",
        "repro.bench.stores:build_matrixkv(ssd_capacity)",
        "repro.bench.stores:build_rocksdb_nvm(block_cache)",
        "repro.bench.stores:build_slmdb(memtable)",
        "repro.bench.stores:build_slmdb(ssd_capacity)",
        "repro.bench.experiments:large_dataset(num_keys)",
        "repro.bench.experiments:large_dataset(num_ops)",
        "repro.bench.experiments:large_dataset(num_threads)",
        "repro.bench.experiments:ssd_scaling(ssd_counts)",
        "repro.bench.experiments:ssd_scaling(workloads)",
        "repro.bench.experiments:ssd_scaling(num_keys)",
        "repro.bench.experiments:ssd_scaling(num_ops)",
        "repro.bench.experiments:ssd_scaling(num_threads)",
        "repro.bench.experiments:buffer_size_sweep(pwb_sizes)",
        "repro.bench.experiments:buffer_size_sweep(svc_sizes)",
        "repro.bench.experiments:buffer_size_sweep(num_keys)",
        "repro.bench.experiments:buffer_size_sweep(num_ops)",
        "repro.bench.experiments:buffer_size_sweep(num_threads)",
        "repro.bench.experiments:multicore_scalability(thread_counts)",
        "repro.bench.experiments:multicore_scalability(workloads)",
        "repro.bench.experiments:multicore_scalability(num_keys)",
        "repro.bench.experiments:multicore_scalability(num_ops)",
        "repro.bench.experiments:ablations(num_keys)",
        "repro.bench.experiments:ablations(num_ops)",
        "repro.bench.experiments:ablations(num_threads)",
        "repro.bench.experiments:scrub_sweep(corrupt_fraction)",
        "repro.bench.cluster:cluster_failover(kill_shard)",
        "repro.bench.cluster:cluster_failover(kill_fraction)",
        "repro.bench.rebalance:cluster_rebalance(num_shards)",
        "repro.bench.rebalance:cluster_rebalance(at_fraction)",
        "repro.bench.rebalance:check_rebalance(blip_factor)",
        "repro.bench.tiering:tiering_comparison(num_threads)",
        "repro.bench.tiering:tiering_comparison(theta)",
        "repro.bench.tiering:tier_run(num_threads)",
        "repro.bench.tiering:tier_run(theta)",
        "repro.bench.tiering:tier_run(value_size)",
        "repro.bench.tiering:check_read_p99(limit)",
        "repro.bench.cache:storm_comparison(num_threads)",
        "repro.bench.cache:storm_comparison(cache_capacity)",
        "repro.bench.cache:storm_comparison(theta)",
        "repro.bench.cache:cache_sweep(value_size)",
        "repro.bench.cache:check_hit_ratio(minimum)",
        "repro.bench.cache:cluster_hot_spread(num_shards)",
        "repro.bench.cache:cluster_hot_spread(cache_capacity)",
        "repro.bench.cache:cluster_hot_spread(hot_key_threshold)",
        "repro.bench.cache:cluster_hot_spread(theta)",
        "repro.bench.cache:cluster_hot_spread(value_size)",
        "repro.bench.grayfail:grayfail_comparison(clients_per_shard)",
        "repro.bench.grayfail:grayfail_comparison(multiplier)",
        "repro.bench.grayfail:gray_leg(clients_per_shard)",
        "repro.bench.figs:run_figs(jobs)",
        "repro.bench.figs:run_figs(metrics_dir)",
        "repro.bench.report:format_table(col_width)",
        "repro.bench.report:throughput_table(unit)",
    ), "every caller left it at its default"),
    **dict.fromkeys((
        "repro.bench.cluster:check_scaling",
        "repro.bench.cluster:check_failover",
        "repro.bench.grayfail:check_tail",
        "repro.bench.grayfail:check_overhead",
        "repro.bench.cache:check_read_p99",
        "repro.bench.tiering:check_cost_per_op",
        "repro.bench.tiering:check_demotion_waf",
        "repro.bench.__main__:_cluster_gates",
        "repro.bench.__main__:_grayfail_gates",
        "repro.bench.__main__:_rebalance_gates",
        "repro.bench.__main__:_cache_gates",
        "repro.bench.__main__:_tiering_gates",
    ), "folded into its row's one `check_*`, which returns `List[Gate]`"),
    **dict.fromkeys((
        "repro.bench.__main__:_fig10_run",
        "repro.bench.__main__:_fig17_run",
        "repro.bench.__main__:_scalars_run",
        "repro.bench.__main__:_tiering_run",
        "repro.bench.__main__:_cluster_run",
        "repro.bench.__main__:_cache_run",
        "repro.bench.experiments:nutanix_run",
    ), "the row names its run in the experiment's module (`large_dataset`, "
       "`gc_timeline`, `scalars`, `tiering_comparison`, `cluster_run`, `cache_run`)"),
    **dict.fromkeys((
        "repro.core.prism:Prism._read_value",
        "repro.core.prism:Prism._dead_vs_ids",
        "repro.core.value_storage:ValueStorage.record_request",
    ), "a point read is a scan of one key: get and scan read through Prism._fetch, "
       "which plans a read with ValueStorage.plan_reads and tests the dead devices once"),
}


# ----------------------------------------------------------------------
# Untimed device access.  A site is the function a thread-less access
# starts from (:class:`UntimedRecorder`); a reason begins with its kind,
# one of :data:`UNTIMED_KINDS`, and covers every site listed under it.
# ----------------------------------------------------------------------
DEVICE_ENTRY_POINTS = (
    "repro.storage.nvm:NVMDevice.load",
    "repro.storage.nvm:NVMDevice.load_gather",
    "repro.storage.nvm:NVMDevice._read_raw",
    "repro.storage.ssd:SSDDevice.read",
    "repro.storage.ssd:SSDDevice.read_raw",
    "repro.storage.dram:DRAMDevice.read",
    "repro.storage.nvm:PersistentHeap.get",
)
UNTIMED_KINDS = ("priced elsewhere", "audit", "recovery")
UNTIMED: Dict[str, Tuple[str, ...]] = {
    "priced elsewhere: the read was charged when it was queued "
    "(`read_async` just before); `read_raw` hands its bytes back": (
        "repro.storage.iouring:IOUring.submit",
        "repro.storage.iouring:IOUring.submit_one",
        "repro.storage.raid:RAID0.read_async",
        "repro.baselines.lsm.blockstore:BlockStore.read_async",
    ),
    "priced elsewhere: `RAID0.read` charges each member's read channel "
    "itself (`dev.read_channel.request`)": (
        "repro.storage.raid:RAID0.read",
    ),
    "priced elsewhere: KVell takes a page's bytes, then charges the page on "
    "its worker's ring unless its page cache holds it (`ring.submit_one`, "
    "`ring.submit`)": (
        "repro.baselines.kvell:KVell.scan",
        "repro.baselines.kvell:_Worker._read_page",
    ),
    "priced elsewhere: a compaction charges each input table whole "
    "(`table_store.read_async`) before it parses the blocks": (
        "repro.baselines.lsm.sstable:SSTable.all_items",
    ),
    "priced elsewhere: the next line charges the leaf "
    "(`PersistentHeap.charge_read`)": (
        "repro.index.pactree:PACTree.scan",
        "repro.index.pactree:PACTree.recover",
        "repro.index.pactree:PACTree.items",
    ),
    "priced elsewhere: the copy's header gives its size, and the record is "
    "then one read of the mirror on the caller's thread (`mirror.read`)": (
        "repro.core.value_storage:ValueStorage.read_record_mirror",
    ),
    "priced elsewhere: a split reads the neighbour leaf it re-links, and "
    "charges the write of it (`heap.commit(old_next, thread)`)": (
        "repro.index.pactree:PACTree._split",
    ),
    "priced elsewhere: the scrub pass charges the whole chunk "
    "(`ssd.read_async`) before it verifies its records and refreshes their "
    "mirrors; the audit's use is outside any measured window": (
        "repro.core.value_storage:ValueStorage.read_record_raw",
        "repro.repair.scrubber:Scrubber._refresh_mirror",
    ),
    "priced elsewhere: a background batch takes its fresh chunks with no "
    "thread; the allocation moves no device bytes, and the batch's chunk "
    "writes go on the storage's ring": (
        "repro.core.value_storage:ValueStorage.write_records",
    ),
    "audit: `checker.audit` reads every structure to check the invariants, "
    "between measured windows and after a run, never inside one": (
        "repro.core.checker:audit",
    ),
    "audit: the HSIT's high-water mark, read by the audit, `stats()` and "
    "recovery, none of them inside a measured op": (
        "repro.core.hsit:HSIT.next_unused",
    ),
    "audit: a test and benchmark hook that flips one bit at rest; it models "
    "corruption, not a read": (
        "repro.faults.injector:FaultInjector.corrupt_at_rest",
    ),
    "audit: a walk of every key for a count or a snapshot, outside any "
    "measured op: a cluster's `len` (perfbench's `space_amp`, after its "
    "window), and the integrity experiment's copy of every value before "
    "it damages them": (
        "repro.cluster.router:PrismCluster.__len__.<locals>.<genexpr>",
        "repro.bench.experiments:_scrub_unit",
    ),
    "recovery: a `fail` migration lists the dead member's keys from its "
    "index, the simulator's record of what it held, to count the keys only "
    "it held (`keys_lost`); no device of a dead machine is read": (
        "repro.cluster.rebalance:Migration.plan",
    ),
    "recovery: the restart pass reads headers, PWB records and HSIT words "
    "untimed and charges lumps; ROADMAP item 19 prices each read": (
        "repro.core.recovery:recover",
        "repro.core.recovery:_reclaim_unreachable",
        "repro.core.pwb:PersistentWriteBuffer.peek",
        "repro.core.hsit:HSIT.location_word",
        "repro.core.hsit:HSIT.free_entries",
    ),
}


def _present(name: str, present: Set[str]) -> bool:
    """Whether a :data:`DELETED` entry is still in the tree: a function
    or knob (``present``), a parameter ``module:qualname(param)`` or a
    module constant ``module:NAME``."""
    if name in present:
        return True
    module, _, qual = name.partition(":")
    qual, _, param = qual.partition("(")
    if not (param or qual.isupper()):
        return False  # a function is judged by the code objects alone
    obj = importlib.import_module(module)
    for part in qual.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return not param or param.rstrip(")") in inspect.signature(obj).parameters


def _verdict(name: str) -> str:
    for reason, names in KEPT.items():
        if name in names and reason not in RETIRED_VERDICTS:
            return f"kept: {reason}"
    if name in TESTED:
        return f"test added: {TESTED[name]}"
    return "**unjudged**"


# ----------------------------------------------------------------------
# Static pass: where each config field is set
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Knob:
    owner: str  # the class that declares the field
    name: str
    default: object
    sites: List[str] = dataclasses.field(default_factory=list)
    # The sites that set the field itself (:func:`knob_sites`), not a
    # field of that name through a function keyword.
    direct: Set[str] = dataclasses.field(default_factory=set)

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.name}"

    def split(self) -> Tuple[List[str], List[str]]:
        tests = [s for s in self.sites if s.startswith("tests/")]
        return [s for s in self.sites if not s.startswith("tests/")], tests

    def cite(self, sites: List[str]) -> str:
        """The one site a knob-table row names: the first that sets the
        field itself, else the first function keyword."""
        return next((s for s in sites if s in self.direct), sites[0])


def _config_classes() -> List[type]:
    classes = []
    for spec in CONFIG_CLASSES:
        module, name = spec.split(":")
        classes.append(getattr(importlib.import_module(module), name))
    return classes


def config_knobs() -> List[Knob]:
    """Every field a config dataclass declares itself (an inherited
    field is its base's knob)."""
    knobs = []
    for cls in _config_classes():
        own = cls.__dict__.get("__annotations__", {})
        for f in dataclasses.fields(cls):
            if f.name not in own:
                continue
            if f.default is not dataclasses.MISSING:
                default = f.default
            else:
                default = f.default_factory()
            knobs.append(Knob(cls.__name__, f.name, default))
    return knobs


def _python_files() -> Iterator[Path]:
    for tree in SITE_TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "partial" and call.args:
        func = call.args[0]
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_default(value: ast.AST, knobs: List[Knob]) -> bool:
    """A literal equal to the default of every knob it could set."""
    try:
        literal = ast.literal_eval(value)
    except ValueError:
        return False
    return all(type(literal) is type(k.default) and literal == k.default
               for k in knobs)


def _forwards(name: str, value: ast.AST) -> bool:
    """``name=name``, ``name=cfg.name``, ``name=self.name``: a value
    passed on under its own name, set (if at all) where it came from."""
    return (isinstance(value, ast.Name) and value.id == name) or (
        isinstance(value, ast.Attribute) and value.attr == name
    )


def _is_config_object(node: ast.AST) -> bool:
    """``cfg``, ``config``, ``self.config``, ``store_cfg``: an object
    named as a config, the only kind whose attributes are knobs."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.lower().endswith(("cfg", "config"))


def knob_sites() -> List[Knob]:
    """:func:`config_knobs`, each with every ``path:line`` under
    :data:`SITE_TREES` that sets it to a value other than its default.

    A set is a value that reaches a config field, named as the field:

    * a keyword argument to a config class (it counts for that class,
      or the base that declares the field) or to a function, such as a
      builder or ``dataclasses.replace`` (it counts for every config
      with a field of that name); a keyword to any other class (a name
      that starts upper-case, such as ``ThreadCombiner``) is that
      class's own parameter, and a keyword to a call used as a
      decorator (Hypothesis's ``@given(start=…)``) is the decorator's;
    * a string key in a dict literal that becomes keywords in the same
      file: the literal is a ``**`` operand, or sits (at any depth) in
      the value assigned to a name some call expands as ``**NAME`` or
      ``**NAME[…]``, or is one value of a ``pytest.mark.parametrize``
      parameter that the decorated test expands as ``**NAME``;
    * ``setattr(obj, "name", …)`` or an assignment to ``obj.name``,
      where ``obj`` is named as a config (:func:`_is_config_object`).

    A keyword to the field's config class, to a builder that hands its
    ``**`` keywords to that class (:func:`config_builders`), or a store
    on a config object sets the field itself (``Knob.direct``); the
    knob table cites such a site before a function keyword.

    A value passed on under its own name (:func:`_forwards`) is not a
    set, nor is a literal equal to the default.  A function keyword is
    matched by name, so a builder's own parameter that shares a field's
    name counts for it; a field nothing names never looks set.
    """
    knobs = config_knobs()
    trees = {}
    for path in _python_files():
        rel = path.relative_to(ROOT).as_posix()
        trees[rel] = ast.parse(path.read_text(), filename=rel)
    builders: Dict[str, Set[str]] = {}
    for tree in trees.values():
        for name, classes in config_builders(tree).items():
            builders.setdefault(name, set()).update(classes)
    for rel, tree in trees.items():
        note_sets(knobs, rel, tree, builders)
    return knobs


def config_builders(tree: ast.AST) -> Dict[str, Set[str]]:
    """Function name -> the config classes it calls with its own
    ``**`` parameter (``build_kvell(**overrides)`` builds
    ``KVellConfig(..., **overrides)``)."""
    classes = {cls.__name__ for cls in _config_classes()}
    builders: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.args.kwarg is not None:
            kwarg = node.args.kwarg.arg
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _callee(call) in classes and any(
                    kw.arg is None and isinstance(kw.value, ast.Name)
                    and kw.value.id == kwarg
                    for kw in call.keywords
                ):
                    builders.setdefault(node.name, set()).add(_callee(call))
    return builders


def _expanded(tree: ast.AST) -> Iterator[ast.AST]:
    """The operand of every ``**`` keyword expansion in ``tree``, with
    ``NAME[…]`` taken as ``NAME``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg is None:
                    value = kw.value
                    while isinstance(value, ast.Subscript):
                        value = value.value
                    yield value


def _parametrized_dicts(func: ast.FunctionDef) -> Iterator[ast.Dict]:
    """The dict literals ``func``'s ``parametrize`` decorators give a
    parameter that its body expands as ``**NAME``."""
    expanded = {v.id for v in _expanded(func) if isinstance(v, ast.Name)}
    for deco in func.decorator_list:
        if not (isinstance(deco, ast.Call) and _callee(deco) == "parametrize"
                and len(deco.args) >= 2 and isinstance(deco.args[0], ast.Constant)):
            continue
        names = [name.strip() for name in str(deco.args[0].value).split(",")]
        for row in getattr(deco.args[1], "elts", ()):
            values = getattr(row, "elts", ()) if len(names) > 1 else [row]
            for name, value in zip(names, values):
                if name in expanded and isinstance(value, ast.Dict):
                    yield value


def _keyword_dicts(tree: ast.AST) -> Set[int]:
    """The ids of the dict literals in ``tree`` whose keys become
    keywords (:func:`knob_sites`)."""
    operands, expanded = [], set()
    for value in _expanded(tree):
        if isinstance(value, ast.Name):
            expanded.add(value.id)
        elif isinstance(value, ast.Dict):
            operands.append(value)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            operands.extend(_parametrized_dicts(node))
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id in expanded for t in targets):
            operands.extend(d for d in ast.walk(node.value) if isinstance(d, ast.Dict))
    return {id(d) for d in operands}


def note_sets(
    knobs: List[Knob], rel: str, tree: ast.AST, builders: Dict[str, Set[str]]
) -> None:
    """Add to ``knobs`` every set (:func:`knob_sites`) in ``tree``, the
    parsed source of the file at ``rel``; ``builders`` is
    :func:`config_builders` of every file."""
    by_name: Dict[str, List[Knob]] = {}
    for knob in knobs:
        by_name.setdefault(knob.name, []).append(knob)
    mro = {cls.__name__: {c.__name__ for c in cls.__mro__}
           for cls in _config_classes()}
    keyword_dicts = _keyword_dicts(tree)
    decorators = {
        id(deco)
        for node in ast.walk(tree)
        for deco in getattr(node, "decorator_list", ())
    }

    def note(
        name: str, value: ast.AST, where: str, callee: str = "", direct: bool = False
    ) -> None:
        targets = by_name.get(name)
        if not targets or _forwards(name, value):
            return
        if callee in mro:
            targets = [k for k in targets if k.owner in mro[callee]]
            direct = True
        elif callee[:1].isupper():
            return
        if not targets or _is_default(value, targets):
            return
        built = set().union(*(mro[c] for c in builders.get(callee, ())))
        for knob in targets:
            knob.sites.append(where)
            if direct or knob.owner in built:
                knob.direct.add(where)

    for node in ast.walk(tree):
        where = f"{rel}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            callee = _callee(node)
            for kw in node.keywords:
                if kw.arg is not None and id(node) not in decorators:
                    note(kw.arg, kw.value, where, callee)
            if (callee == "setattr" and len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)
                    and _is_config_object(node.args[0])):
                note(str(node.args[1].value), node.args[2], where, direct=True)
        elif isinstance(node, ast.Dict) and id(node) in keyword_dicts:
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    note(key.value, value, f"{rel}:{key.lineno}")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and _is_config_object(target.value)):
                    note(target.attr, node.value, where, direct=True)


# ----------------------------------------------------------------------
# Dynamic pass: what each input reaches
# ----------------------------------------------------------------------
CO_OPTIMIZED = 0x1  # a function body (not a module or class body)


@dataclasses.dataclass
class Function:
    name: str  # module:qualname
    key: Tuple[str, int, str]  # (filename, first line, qualname), as recorded
    lines: Set[int]

    @property
    def where(self) -> str:
        return f"{Path(self.key[0]).relative_to(ROOT).as_posix()}:{self.key[1]}"


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def executable() -> Tuple[Dict[str, Set[int]], List[Function]]:
    """Lines per file that carry code, and every named function."""
    lines: Dict[str, Set[int]] = {}
    functions: List[Function] = []
    for path in sorted(SRC.rglob("*.py")):
        filename = str(path)
        code = compile(path.read_text(), filename, "exec")
        module = _module_name(path)
        stack = [code]
        lines[filename] = set()
        while stack:
            co = stack.pop()
            own = {ln for _, _, ln in co.co_lines() if ln}
            lines[filename] |= own
            if co.co_flags & CO_OPTIMIZED and not co.co_name.startswith("<"):
                functions.append(Function(
                    f"{module}:{co.co_qualname}",
                    (filename, co.co_firstlineno, co.co_qualname),
                    own,
                ))
            stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    functions.sort(key=lambda fn: fn.key)
    return lines, functions


class Recorder:
    """``sys.monitoring`` LINE and PY_START events under ``src/repro``.

    Each event fires once per location and is then disabled, so a
    recorded phase costs almost nothing after its first pass; starting
    a new phase re-arms every location."""

    TOOL = 1  # sys.monitoring.COVERAGE_ID; cProfile holds PROFILER_ID

    def __init__(self) -> None:
        self.prefix = str(SRC) + os.sep
        self.lines: Set[Tuple[str, int]] = set()
        self.starts: Set[Tuple[str, int, str]] = set()

    def _line(self, code, line):
        if code.co_filename.startswith(self.prefix):
            self.lines.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    def _start(self, code, offset):
        if code.co_filename.startswith(self.prefix):
            self.starts.add((code.co_filename, code.co_firstlineno, code.co_qualname))
        return sys.monitoring.DISABLE

    @contextlib.contextmanager
    def phase(self) -> Iterator["Recorder"]:
        mon = sys.monitoring
        mon.use_tool_id(self.TOOL, "census")
        mon.register_callback(self.TOOL, mon.events.LINE, self._line)
        mon.register_callback(self.TOOL, mon.events.PY_START, self._start)
        mon.restart_events()
        mon.set_events(self.TOOL, mon.events.LINE | mon.events.PY_START)
        try:
            yield self
        finally:
            mon.set_events(self.TOOL, 0)
            mon.free_tool_id(self.TOOL)


@dataclasses.dataclass
class UntimedSite:
    lines: Set[str] = dataclasses.field(default_factory=set)  # path:line
    entry_points: Set[str] = dataclasses.field(default_factory=set)
    calls: int = 0
    inputs: Set[str] = dataclasses.field(default_factory=set)


class UntimedRecorder:
    """``sys.monitoring`` PY_START of each :data:`DEVICE_ENTRY_POINTS`
    function.  A call whose ``thread`` is None (``read_raw``,
    ``_read_raw`` and ``PersistentHeap.get`` take none) is traced back
    to its site, ``module:qualname``: the first caller not itself
    handed ``thread=None``.  A raw read that a recorded entry point
    makes is that entry point's, and a site outside ``src/repro`` (a
    test reading state) is not one."""

    TOOL = 3  # a free tool id: not the debugger, coverage or profiler one

    def __init__(self) -> None:
        self.prefix = str(SRC) + os.sep
        self.codes: Dict[object, str] = {}
        self.takes_thread: Dict[object, bool] = {}
        self.sites: Dict[str, UntimedSite] = {}
        self.input = ""

    def _takes_thread(self, code) -> bool:
        takes = self.takes_thread.get(code)
        if takes is None:
            args = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
            takes = self.takes_thread[code] = "thread" in args
        return takes

    def _start(self, code, offset):
        frame = sys._getframe(1)
        if self._takes_thread(code) and frame.f_locals["thread"] is not None:
            return
        caller = frame.f_back
        if caller.f_code in self.codes:
            return
        while self._takes_thread(caller.f_code) and caller.f_locals["thread"] is None:
            caller = caller.f_back
        origin = caller.f_code
        if not origin.co_filename.startswith(self.prefix):
            return
        path = Path(origin.co_filename)
        name = f"{_module_name(path)}:{origin.co_qualname}"
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = UntimedSite()
        site.lines.add(f"{path.relative_to(ROOT).as_posix()}:{caller.f_lineno}")
        site.entry_points.add(self.codes[code])
        site.calls += 1
        site.inputs.add(self.input)

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator["UntimedRecorder"]:
        # Imported here, inside the coverage phase entered first, so that
        # the device modules' top level is credited to an input.
        for spec in DEVICE_ENTRY_POINTS:
            module, qual = spec.split(":")
            obj = importlib.import_module(module)
            for part in qual.split("."):
                obj = getattr(obj, part)
            self.codes[obj.__code__] = qual
        mon = sys.monitoring
        mon.use_tool_id(self.TOOL, "census-untimed")
        mon.register_callback(self.TOOL, mon.events.PY_START, self._start)
        for code in self.codes:
            mon.set_local_events(self.TOOL, code, mon.events.PY_START)
        self.input = name
        try:
            yield self
        finally:
            for code in self.codes:
                mon.set_local_events(self.TOOL, code, 0)
            mon.free_tool_id(self.TOOL)


@contextlib.contextmanager
def _quiet() -> Iterator[None]:
    with contextlib.redirect_stdout(io.StringIO()):
        yield


def _call(main, argv: List[str]) -> None:
    try:
        main(argv)
    except SystemExit:
        pass  # a failed gate is still a reached gate


def run_tier1() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))


def run_product() -> None:
    from repro.bench.__main__ import EXPERIMENTS, main as bench
    from repro.faults.crash_sweep import main as sweep
    from perfbench.child import main as child
    from perfbench.workloads import WORKLOADS

    with _quiet():
        for name in sorted(EXPERIMENTS):
            _call(bench, [name, "--smoke", "--metrics-out", "none", "--jobs", "1"])
        for scenario in CRASH_SWEEPS:
            _call(sweep, ["--scenario", scenario, "--ops", "200", "--keys", "40",
                          "--fuzz", "10", "--jobs", "1"])
        for name in sorted(WORKLOADS):
            _call(child, ["--workload", name, "--seed", "1",
                          "--scale", repr(PERFBENCH_SCALE), "--mode", "untraced"])
        argv = sys.argv
        for path in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = argv


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f} %" if whole else "-"


def _function_rows(functions: List[Function]) -> List[str]:
    rows = ["| function | where | lines | verdict |", "|---|---|---:|---|"]
    for fn in functions:
        rows.append(f"| `{fn.name}` | `{fn.where}` | {len(fn.lines)} "
                    f"| {_verdict(fn.name)} |")
    return rows


def _untimed_verdict(name: str) -> str:
    for reason, names in UNTIMED.items():
        if name in names and reason.startswith(UNTIMED_KINDS):
            return reason
    return "**unjudged**"


def _untimed_rows(
    functions: List[Function], reached: Dict[str, UntimedSite]
) -> Tuple[List[str], int]:
    """The untimed-access table and how many of its rows carry no
    verdict.  A verdict that names a function no input reached is
    listed with no calls, and is **stale** if the tree has no such
    function."""
    where = {fn.name: fn.where for fn in functions}
    judged = {name for group in UNTIMED.values() for name in group}
    rows = ["| site | calls from | entry points | calls | reached by | verdict |",
            "|---|---|---|---:|---|---|"]
    unjudged = 0
    for name in sorted(set(reached) | judged):
        site = reached.get(name, UntimedSite())
        verdict = _untimed_verdict(name)
        if name not in reached and name not in where:
            verdict = "**stale**: no such function"
        unjudged += verdict.startswith("**")
        lines = ", ".join(f"`{ln}`" for ln in sorted(site.lines)) or f"`{where.get(name, '-')}`"
        entry = ", ".join(f"`{e}`" for e in sorted(site.entry_points)) or "-"
        inputs = ", ".join(sorted(site.inputs)) or "nothing"
        rows.append(f"| `{name}` | {lines} | {entry} | {site.calls} | {inputs} "
                    f"| {verdict} |")
    return rows, unjudged


def _knob_verdict(knob: Knob) -> str:
    product, tests = knob.split()
    if product:
        return f"kept: set at `{knob.cite(product)}`"
    if tests and knob.label in TEST_KNOBS:
        return f"kept: {TEST_KNOBS[knob.label]} (`{knob.cite(tests)}`)"
    return "**unjudged**"


def report(
    lines: Dict[str, Set[int]],
    functions: List[Function],
    tier1: Recorder,
    product: Recorder,
    knobs: List[Knob],
    untimed: Dict[str, UntimedSite],
) -> Tuple[str, int]:
    """The Markdown report and how many entries carry no verdict."""
    def reached(rec: Recorder) -> Set[Tuple[str, int]]:
        return {(f, ln) for f, ln in rec.lines if ln in lines.get(f, ())}

    total = sum(len(v) for v in lines.values())
    by_product = reached(product)
    by_tier1 = reached(tier1) - by_product
    nothing = total - len(by_product) - len(by_tier1)

    only_tier1 = [f for f in functions
                  if f.key in tier1.starts and f.key not in product.starts]
    unreached = [f for f in functions
                 if f.key not in tier1.starts and f.key not in product.starts]
    present = {fn.name for fn in functions} | {k.label for k in knobs}

    out = [
        "# Census: what runs, and what gets set",
        "",
        "Generated by `PYTHONPATH=src python3.12 -m tests.census` "
        f"(CPython {sys.version.split()[0]}); do not edit by hand.  "
        "`tests/census.py` says what each input is and holds the verdicts.",
        "",
        "## Lines under `src/repro`",
        "",
        "| lines | count | share |",
        "|---|---:|---:|",
        f"| executable | {total} | 100.0 % |",
        f"| reached by a product input | {len(by_product)} "
        f"| {_pct(len(by_product), total)} |",
        f"| reached by tier-1 only | {len(by_tier1)} | {_pct(len(by_tier1), total)} |",
        f"| reached by nothing | {nothing} | {_pct(nothing, total)} |",
        "",
        "Product inputs: every experiment at `--smoke`, the CI crash "
        "sweep of every scenario, the four perfbench workloads (`--mode untraced`, "
        "`--scale 1/3`) and `examples/`.",
        "",
        f"## Functions only tier-1 reaches ({len(only_tier1)})",
        "",
        *_function_rows(only_tier1),
        "",
        f"## Functions nothing reaches ({len(unreached)})",
        "",
        *_function_rows(unreached),
        "",
        f"## Knobs ({len(knobs)} fields in {len(CONFIG_CLASSES)} config dataclasses)",
        "",
        "Set sites are places that give the field a value other than "
        "its default (`knob_sites`).",
        "",
        "| knob | set outside tests | set in tests | verdict |",
        "|---|---:|---:|---|",
    ]
    for knob in knobs:
        product_sites, test_sites = knob.split()
        out.append(f"| `{knob.label}` | {len(product_sites)} | {len(test_sites)} "
                   f"| {_knob_verdict(knob)} |")
    untimed_rows, untimed_unjudged = _untimed_rows(functions, untimed)
    out += [
        "", f"## Untimed device access ({len(untimed_rows) - 2} sites)", "",
        "Every call of a device entry point that moves bytes with no thread "
        "to charge (`" + "`, `".join(e.split(":")[1] for e in DEVICE_ENTRY_POINTS)
        + "`; `read_raw` and `PersistentHeap.get` take none), traced back "
        "to its site: the first caller not itself handed `thread=None` "
        "(`UntimedRecorder`).  A verdict is one of: "
        + ", ".join(UNTIMED_KINDS) + ".",
        "",
        *untimed_rows,
    ]
    out += ["", f"## Deleted ({len(DELETED)})", "",
            "| what | verdict |", "|---|---|"]
    for name, reason in DELETED.items():
        verdict = "**still present**" if _present(name, present) else "deleted"
        out.append(f"| `{name}` | {verdict}: {reason} |")
    unjudged = (
        sum(1 for fn in only_tier1 + unreached if _verdict(fn.name) == "**unjudged**")
        + sum(1 for k in knobs if _knob_verdict(k) == "**unjudged**")
        + sum(1 for name in DELETED if _present(name, present))
        + untimed_unjudged
    )
    return "\n".join(out) + "\n", unjudged


def main() -> int:
    if sys.version_info < (3, 12):
        sys.exit("tests.census needs CPython 3.12 or later (sys.monitoring)")
    os.chdir(ROOT)
    # Product first: a module's top level runs once, at its first
    # import, and is credited to whichever input imported it.
    tier1, product, untimed = Recorder(), Recorder(), UntimedRecorder()
    with product.phase(), untimed.phase("product"):
        run_product()
    with tier1.phase(), untimed.phase("tier-1"):
        status = run_tier1()
    print(f"tier-1 exit status {status}", file=sys.stderr)
    lines, functions = executable()
    text, unjudged = report(
        lines, functions, tier1, product, knob_sites(), untimed.sites
    )
    REPORT.write_text(text)
    print(f"census: {REPORT} ({unjudged} unjudged)", file=sys.stderr)
    return 1 if unjudged else 0


if __name__ == "__main__":
    sys.exit(main())
