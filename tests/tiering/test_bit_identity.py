"""Tiering-off bit-identity against the committed digest manifest.

The same scenario the read-cache test runs: with
``enable_tiering=False`` (the default), the storage-list refactor, the
reclaim-batch factoring, the GC partition hook, and the stats()
addition must all leave a seeded YCSB-A run byte-identical — same
metrics JSON, same final virtual time, bit for bit.  The digest in
``tests/digests.json`` pins the tree as of PR 12 (the golden blob was
never committed; see ``tests/digests.py``).
"""

from __future__ import annotations

from tests import digests


def test_tiering_off_run_is_byte_identical_to_seed():
    store, digest = digests.ycsb_a()
    assert store.tiering is None
    assert store.cold_ssds == []
    assert digest == digests.expected("ycsb_a")


def test_tiered_mover_run_is_byte_identical_to_seed():
    """Every tier mover in one seeded run (reclaim-cold, GC demotion,
    spill, read- and GC-triggered promotion): metrics, final vtime,
    mover event log and crash-label census all match the manifest.
    The scenario itself fails if a mover stops firing."""
    _store, digest = digests.tiered_gc()
    assert digest == digests.expected("tiered_gc")
