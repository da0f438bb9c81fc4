"""Cache-off bit-identity against the committed digest manifest.

With ``enable_read_cache=False`` (the default), the refactored read
path, the stats() reshuffle, and the generator threshold hoisting must
all leave a seeded YCSB-A run byte-identical — same metrics JSON, same
final virtual time, bit for bit.  The digest in ``tests/digests.json``
pins the tree as of PR 12 (the pre-cache golden blob this test used to
read was never committed; see ``tests/digests.py``).
"""

from __future__ import annotations

from tests import digests


def test_cache_off_run_is_byte_identical_to_seed():
    store, digest = digests.ycsb_a()
    assert store.read_cache is None
    assert digest == digests.expected("ycsb_a")
