"""Configuration for a Prism instance.

Defaults are scaled-down versions of the paper's evaluation setup
(Table 1): eight Samsung 980 Pro SSDs, a 16 GB NVM write buffer, and a
20 GB DRAM cache, shrunk so simulations stay laptop-sized.  Every
design choice the paper evaluates or ablates is a switch here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.injector import FaultConfig
from repro.core.tcq import MODE_SYNC, MODE_THREAD_COMBINING, MODE_TIMEOUT_ASYNC
from repro.storage.specs import (
    FLASH_SSD_GEN4_SPEC,
    NVM_SPEC,
    DRAM_SPEC,
    QLC_SSD_SPEC,
    DeviceSpec,
)

MB = 1024**2
GB = 1024**3

# Tiering placement policies (ISSUE 9).
TIER_TEMPERATURE = "temperature"  # hot data fast, cold data demoted
TIER_SPREAD = "spread"  # round-robin over every tier (no-tiering baseline)


@dataclass
class PrismConfig:
    """Everything tunable about a Prism instance."""

    # Parallelism
    num_threads: int = 4

    # Devices
    num_ssds: int = 2
    ssd_spec: DeviceSpec = field(default_factory=lambda: FLASH_SSD_GEN4_SPEC)
    nvm_spec: DeviceSpec = field(default_factory=lambda: NVM_SPEC)

    # Persistent Write Buffer (per thread)
    pwb_capacity: int = 4 * MB
    pwb_watermark: float = 0.5  # reclamation trigger (§4.3)
    enable_pwb: bool = True  # ablation: False -> sync writes to SSD

    # Scan-aware Value Cache
    svc_capacity: int = 32 * MB
    enable_svc: bool = True
    svc_scan_aware: bool = True  # ablation: plain 2Q without chains
    svc_page_mode: bool = False  # ablation: page-granularity accounting

    # DRAM read-cache tier (ISSUE 6).  Off by default: with the cache
    # off the store never constructs one and the read path is
    # bit-identical to a build without the subsystem.  Enabled, point
    # reads consult a TinyLFU-admitted value cache *before* the index,
    # so hot keys are served at DRAM latency; every put/delete/GC-
    # relocation publish invalidates the cached copy synchronously.
    enable_read_cache: bool = False
    read_cache_capacity: int = 8 * MB

    # Value Storage
    chunk_size: int = 512 * 1024
    queue_depth: int = 64
    gc_free_threshold: float = 0.15  # GC when free-chunk fraction drops below
    gc_batch_chunks: int = 8

    # Read path
    read_batching: str = MODE_THREAD_COMBINING  # "tc" | "ta" | "sync"

    # HSIT
    hsit_capacity: int = 1_000_000

    # Observability: when True the store builds a real MetricsRegistry
    # and traces per-op phase latencies; when False (default) it holds
    # the shared no-op registry and tracing costs nothing.
    enable_metrics: bool = False

    # End-to-end integrity (ISSUE 3).  All off by default: with every
    # switch off the on-media record format, IO sizes, and timings are
    # bit-identical to a build without the integrity subsystem.
    # enable_checksums grows the record header by a CRC32 (verified on
    # every read path; mismatch -> typed CorruptionError).
    enable_checksums: bool = False
    # mirror_chunks duplicates every Value Storage chunk write onto a
    # dedicated mirror SSD per storage (repair source for corrupt or
    # dead primaries).
    mirror_chunks: bool = False

    # Hot/cold tiered data placement (ISSUE 9).  Off by default: the
    # store then builds no cold pool and no temperature tracker, and
    # runs are bit-identical to a build without the tiering subsystem.
    # Enabled, a pool of cheap high-capacity cold SSDs joins Value
    # Storage; GC/reclamation demote cold values onto it and re-access
    # promotes them back through the normal write path.
    enable_tiering: bool = False
    num_cold_ssds: int = 2
    cold_ssd_spec: DeviceSpec = field(default_factory=lambda: QLC_SSD_SPEC)
    # "temperature" places by hotness; "spread" round-robins new data
    # across every storage regardless of tier — the baseline where
    # cold-tier spills dominate.
    tier_policy: str = TIER_TEMPERATURE
    # Sketch estimate at or above which a record counts as hot (stays
    # on, or returns to, the fast tier during GC).
    tier_hot_threshold: int = 2
    # Cold-tier read frequency that triggers promotion back to fast.
    tier_promote_threshold: int = 2
    # Ops-counted recency window: a record touched within the last N
    # operations is protected from demotion (the clock bit).
    tier_recency_window: int = 2048
    # Promotion needs this much free-chunk headroom on the fast target,
    # or it would immediately thrash against demotion.
    tier_fast_headroom: float = 0.05

    # Fault injection: None (default) leaves every device on the null
    # injector — runs are bit-identical to a build without the fault
    # subsystem.  A FaultConfig attaches a seeded injector to the SSDs
    # and the NVM DIMM; it costs nothing until it is armed (a rate
    # above zero, or the first kill_device / add_slow_fault), and is
    # needed to kill or slow the store's devices at run time.
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError(f"need at least one thread: {self.num_threads}")
        if self.num_ssds < 1:
            raise ValueError(f"need at least one SSD: {self.num_ssds}")
        if not 0.0 < self.pwb_watermark < 1.0:
            raise ValueError(f"watermark must be in (0, 1): {self.pwb_watermark}")
        if not 0.0 <= self.gc_free_threshold < 1.0:
            raise ValueError(
                f"gc threshold must be in [0, 1): {self.gc_free_threshold}"
            )
        if self.enable_read_cache and self.read_cache_capacity <= 0:
            raise ValueError(
                f"read cache capacity must be positive: {self.read_cache_capacity}"
            )
        if self.enable_tiering:
            if self.num_cold_ssds < 1:
                raise ValueError(
                    f"tiering needs at least one cold SSD: {self.num_cold_ssds}"
                )
            if self.tier_policy not in (TIER_TEMPERATURE, TIER_SPREAD):
                raise ValueError(f"unknown tier_policy: {self.tier_policy}")
            if self.tier_hot_threshold < 1:
                raise ValueError(
                    f"tier_hot_threshold must be >= 1: {self.tier_hot_threshold}"
                )
            if self.tier_promote_threshold < 1:
                raise ValueError(
                    f"tier_promote_threshold must be >= 1: "
                    f"{self.tier_promote_threshold}"
                )
            if self.tier_recency_window < 0:
                raise ValueError(
                    f"tier_recency_window must be >= 0: {self.tier_recency_window}"
                )
            if not 0.0 <= self.tier_fast_headroom < 1.0:
                raise ValueError(
                    f"tier_fast_headroom must be in [0, 1): {self.tier_fast_headroom}"
                )
        if self.read_batching not in (
            MODE_THREAD_COMBINING,
            MODE_TIMEOUT_ASYNC,
            MODE_SYNC,
        ):
            raise ValueError(f"unknown read_batching: {self.read_batching}")

    def hardware_cost(self) -> float:
        """Rough dollar cost of the configured devices (Table 1)."""
        tb = 1024**4
        ssd = self.num_ssds * self.ssd_spec.cost_per_tb * self.ssd_spec.capacity / tb
        if self.enable_tiering:
            ssd += (
                self.num_cold_ssds
                * self.cold_ssd_spec.cost_per_tb
                * self.cold_ssd_spec.capacity
                / tb
            )
        nvm_bytes = self.pwb_capacity * self.num_threads
        nvm = self.nvm_spec.cost_per_tb * nvm_bytes / tb
        dram = DRAM_SPEC.cost_per_tb * self.svc_capacity / tb
        return ssd + nvm + dram
