"""Failure containment for multi-record placement publishes.

Every mover follows the same shape: append a batch of records to a
Value Storage log, then publish each new location to the HSIT one entry
at a time.  Two publish loops call this helper: ``Prism._relocate``
(reclamation, GC, tiering, the SVC's scan-aware write-back and
recovery's PWB flush) and repair's ``_rewrite``.  When a device error
interrupts the publish loop, the batch is split three ways:

* entries *before* the failure index are fully published (their old
  copies were superseded as the loop went);
* the entry *at* the failure index is ambiguous — the publish may have
  made the new pointer durable before the error surfaced;
* entries *after* it never published.

Unpublished placements sit in chunks with their validity bit set but no
forward pointer naming them — exactly the "valid but unreachable"
state the auditor's I4-converse check forbids.  This helper invalidates
them (log garbage, reclaimed when the chunk is), and resolves the
ambiguous entry by consulting the HSIT word through the simulator's
omniscient (untimed, never fault-injected) accessor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import pointers as ptr

# One batch entry: (hsit_idx, (chunk_id, offset, size), old_vs, old_chunk, old_off)
# old_vs None means there is no Value Storage copy to supersede (the
# old copy lives in a PWB, or the record is brand new).
PublishEntry = Tuple[int, Tuple[int, int, int], Optional[object], int, int]


def resolve_partial_publish(
    hsit, vs, entries: List[PublishEntry], published: int
) -> None:
    """Clean up after a publish loop that died at index ``published``."""
    for i in range(published, len(entries)):
        hsit_idx, (chunk_id, offset, _size), old_vs, old_chunk, old_off = entries[i]
        landed = False
        if i == published:
            word = ptr.decode(ptr.clear_dirty(hsit.location_word(hsit_idx)))
            landed = (
                word.in_vs
                and word.vs_id == vs.vs_id
                and word.chunk_id == chunk_id
                and word.vs_offset == offset
            )
        if landed:
            # The new pointer did land: treat like a completed publish.
            if old_vs is not None:
                old_vs.invalidate(old_chunk, old_off)
        else:
            vs.invalidate(chunk_id, offset)
