"""Property test: demotion + promotion round-trip values byte-identically.

Every value pushed through the full tier cycle — PWB → cold-tier
reclaim (demotion) → re-access → promotion back to fast — must come
back bit-for-bit, for arbitrary value bytes and sizes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import pointers as ptr
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, QLC_SSD_SPEC

KB = 1024


def freeze_everything_cold() -> Prism:
    """Reclaim demotes every record: hot threshold above the sketch's
    max count, zero recency window; one cold read promotes."""
    return Prism(
        PrismConfig(
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
            tier_hot_threshold=16,
            tier_recency_window=0,
            tier_promote_threshold=1,
            # SVC off so the second read provably comes from a device
            # (otherwise a DRAM hit could mask a corrupted cold copy).
            enable_svc=False,
        )
    )


def tier_of(store: Prism, idx: int) -> str:
    loc = ptr.decode(ptr.clear_dirty(store.hsit.location_word(idx)))
    assert loc.in_vs
    return "cold" if store.storages[loc.vs_id] in store.tiering.cold else "fast"


@settings(max_examples=15, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=2048), min_size=1, max_size=12))
def test_demote_promote_roundtrip_is_byte_identical(values):
    store = freeze_everything_cold()
    keys = [b"key%03d" % i for i in range(len(values))]
    for k, v in zip(keys, values):
        store.put(k, v)
    # Even with a zero recency window, a key touched at the current
    # tracker tick counts as recent; one sentinel put pushes every
    # tested key out of the window before reclaim classifies them.
    store.put(b"zz-sentinel", b"x")
    store.flush()  # reclaim: everything demotes to the cold tier
    idxs = {k: store.index.lookup(k, None) for k in keys}
    assert all(tier_of(store, idx) == "cold" for idx in idxs.values())
    # Cold reads return the exact bytes and queue promotions.
    for k, v in zip(keys, values):
        assert store.get(k) == v
    store.flush()  # drain any promotions still pending
    stats = store.stats()
    assert stats["tier_cold_reclaims"] + stats["tier_demotions"] >= len(keys)
    assert stats["tier_promotions"] >= 1
    # Promoted values are still byte-identical, now on the fast tier.
    for k, v in zip(keys, values):
        assert store.get(k) == v
    assert any(tier_of(store, idx) == "fast" for idx in idxs.values())
