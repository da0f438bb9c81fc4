"""Integration tests for hot/cold tiered placement through Prism."""

from __future__ import annotations

import pytest

from repro.core import pointers as ptr
from repro.core.checker import audit
from repro.core.config import TIER_SPREAD, PrismConfig
from repro.core.prism import Prism
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, QLC_SSD_SPEC

KB = 1024


def build_tiered(**overrides) -> Prism:
    base = dict(
        num_threads=2,
        num_ssds=1,
        ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(1024 * KB),
        chunk_size=32 * KB,
        pwb_capacity=64 * KB,
        svc_capacity=32 * KB,
        hsit_capacity=50_000,
        gc_free_threshold=0.3,
        enable_tiering=True,
        num_cold_ssds=1,
        cold_ssd_spec=QLC_SSD_SPEC.with_capacity(4096 * KB),
    )
    base.update(overrides)
    return Prism(PrismConfig(**base))


def freeze_everything_cold(**overrides) -> Prism:
    """A store whose reclaim demotes every record: the hot threshold
    sits above the sketch's max count (15) and the recency window is
    zero, so nothing ever qualifies as hot."""
    return build_tiered(
        tier_hot_threshold=16, tier_recency_window=0,
        tier_promote_threshold=1, **overrides,
    )


def tier_of(store: Prism, key: bytes) -> str:
    idx = store.index.lookup(key, None)
    assert idx is not None
    loc = ptr.decode(ptr.clear_dirty(store.hsit.location_word(idx)))
    assert loc.in_vs, "value still in PWB; flush first"
    return "cold" if store.tiering.is_cold_vs(loc.vs_id) else "fast"


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def test_tiered_layout_fast_then_cold():
    store = build_tiered(num_ssds=2, num_cold_ssds=3)
    assert len(store.ssds) == 2
    assert len(store.cold_ssds) == 3
    assert len(store.storages) == 5
    assert len(store.combiners) == 5
    assert [vs.vs_id for vs in store.storages] == [0, 1, 2, 3, 4]
    assert store.ssds[0].name == "ssd0"
    assert store.cold_ssds[0].name == "cssd0"
    assert not store.tiering.is_cold_vs(1)
    assert store.tiering.is_cold_vs(2)


def test_tiering_off_builds_no_cold_pool():
    store = Prism(PrismConfig(num_ssds=2))
    assert store.cold_ssds == []
    assert store.tiering is None
    assert not any(k.startswith("tier_") for k in store.stats())


def test_tiered_mirrors_cover_both_tiers():
    store = build_tiered(num_ssds=1, num_cold_ssds=2, mirror_chunks=True)
    assert [ssd.name for ssd in store.mirror_ssds] == ["ssd0m", "cssd0m", "cssd1m"]
    for vs, mirror in zip(store.storages, store.mirror_ssds):
        assert vs.mirror is mirror


def test_stats_surface_present_when_tiering_on():
    store = build_tiered()
    stats = store.stats()
    for key in (
        "tier_demotions", "tier_promotions", "tier_promotions_stale",
        "tier_cold_reclaims", "tier_fast_reads", "tier_cold_reads",
        "tier_demoted_bytes", "tier_promoted_bytes", "tier_demotion_waf",
        "tier_fast_occupancy", "tier_cold_occupancy",
        "tier_fast_used_bytes", "tier_cold_used_bytes",
        "tier_cold_bytes_written",
    ):
        assert key in stats, key


# ----------------------------------------------------------------------
# demotion
# ----------------------------------------------------------------------
def test_cold_records_land_on_cold_tier():
    store = freeze_everything_cold()
    vals = {}
    for i in range(80):
        k = b"k%04d" % i
        v = bytes([i % 256]) * 2048
        store.put(k, v)
        vals[k] = v
    store.flush()
    stats = store.stats()
    assert stats["tier_cold_reclaims"] + stats["tier_demotions"] > 0
    assert stats["tier_cold_used_bytes"] > 0
    # Checked before the read-backs: with the promote threshold at 1
    # and room on the fast tier, each of them promotes what it reads.
    assert any(tier_of(store, k) == "cold" for k in vals)
    # Every value still reads back exactly.
    for k, v in vals.items():
        assert store.get(k) == v


def test_hot_records_stay_fast():
    store = build_tiered(tier_hot_threshold=2, tier_recency_window=8)
    hot = b"hotkey"
    store.put(hot, b"x" * 1024)
    for _ in range(6):
        store.get(hot)
    # Fill with cold data to force reclaim cycles.
    for i in range(60):
        store.put(b"cold%04d" % i, bytes([i % 256]) * 2048)
    store.get(hot)
    store.flush()
    assert tier_of(store, hot) == "fast"


# ----------------------------------------------------------------------
# promotion
# ----------------------------------------------------------------------
def test_reread_promotes_back_to_fast():
    store = freeze_everything_cold()
    target = b"warming"
    value = b"w" * 2048
    store.put(target, value)
    for i in range(60):
        store.put(b"filler%03d" % i, bytes([i % 256]) * 2048)
    store.flush()
    assert tier_of(store, target) == "cold"
    # Re-access: the cold read queues a promotion; the next tick
    # drains it through the normal write path.
    got = store.get(target)
    assert got == value
    store.flush()
    assert store.stats()["tier_promotions"] >= 1
    assert tier_of(store, target) == "fast"
    assert store.get(target) == value


def test_stale_promotion_never_clobbers_newer_value():
    """Fresh-key protection: a promotion whose observed word was
    superseded by a client put must be dropped, not published."""
    store = freeze_everything_cold()
    key = b"racer"
    store.put(key, b"old" * 700)
    for i in range(60):
        store.put(b"filler%03d" % i, bytes([i % 256]) * 2048)
    store.flush()
    assert tier_of(store, key) == "cold"
    idx = store.index.lookup(key, None)
    stale_word = ptr.clear_dirty(store.hsit.location_word(idx))
    # Overwrite with a fresh value (lands in the PWB), then hand the
    # tier manager the outdated promotion an unlucky interleaving
    # would have queued.
    new_value = b"new" * 700
    store.put(key, new_value)
    store.tiering.enqueue_promotion(idx, stale_word, b"old" * 700)
    store._drain_promotions()
    assert store.stats()["tier_promotions_stale"] >= 1
    assert store.get(key) == new_value
    store.flush()
    assert store.get(key) == new_value


# ----------------------------------------------------------------------
# spread baseline
# ----------------------------------------------------------------------
def test_spread_policy_round_robins_over_every_tier():
    store = build_tiered(tier_policy=TIER_SPREAD, num_cold_ssds=2)
    for i in range(80):
        store.put(b"k%04d" % i, bytes([i % 256]) * 2048)
    store.flush()
    stats = store.stats()
    # The baseline spills onto the cold tier without any demotions.
    assert stats["tier_cold_used_bytes"] > 0
    assert stats["tier_demotions"] == 0
    assert stats["tier_cold_reclaims"] == 0


# ----------------------------------------------------------------------
# integrity across tiers
# ----------------------------------------------------------------------
def test_audit_green_after_tiered_churn():
    store = freeze_everything_cold(enable_checksums=True)
    vals = {}
    for round_ in range(3):
        for i in range(50):
            k = b"k%04d" % i
            v = bytes([(i + round_) % 256]) * 1536
            store.put(k, v)
            vals[k] = v
        for i in range(0, 50, 3):
            store.get(b"k%04d" % i)
    store.flush()
    report = audit(store)
    assert report.violations == [], report.violations
    for k, v in vals.items():
        assert store.get(k) == v


def test_tiered_store_recovers_after_crash():
    store = freeze_everything_cold(enable_checksums=True)
    vals = {}
    for i in range(60):
        k = b"k%04d" % i
        v = bytes([i % 256]) * 1536
        store.put(k, v)
        vals[k] = v
    store.flush()
    store.crash()
    store.recover()
    assert audit(store).violations == []
    for k, v in vals.items():
        assert store.get(k) == v


def test_hardware_cost_includes_cold_pool():
    tiered = PrismConfig(
        enable_tiering=True, num_cold_ssds=2, cold_ssd_spec=QLC_SSD_SPEC
    )
    flat = PrismConfig()
    assert tiered.hardware_cost() == pytest.approx(
        flat.hardware_cost() + 2 * QLC_SSD_SPEC.cost()
    )
