"""The write ledger: what a final read of each key may legally return.

Every durability audit in the repository — the crash sweep's
(:mod:`repro.faults.crash_sweep`) and the cluster workload runner's
(:func:`repro.cluster.runner.run_cluster_workload`, which hands a
ledger to the closed loop) — records writes here and judges
read-backs by the one rule in
:meth:`WriteLedger.legal_values`.  Intervals are in whatever totally
ordered unit the driver has: virtual time for concurrent clients, the
operation index for a sequential replay.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

# An acked or interrupted write: (start, end, value-or-None-for-delete)
WriteRecord = Tuple[float, float, Optional[bytes]]


class WriteLedger:
    """Every write a system acknowledged or left in doubt, as intervals."""

    def __init__(self) -> None:
        self.acked: Dict[bytes, List[WriteRecord]] = {}
        self.interrupted: Dict[bytes, List[WriteRecord]] = {}

    def ack(self, key: bytes, start: float, end: float, value: Optional[bytes]) -> None:
        self.acked.setdefault(key, []).append((start, end, value))

    def interrupt(
        self, key: bytes, start: float, end: float, value: Optional[bytes]
    ) -> None:
        self.interrupted.setdefault(key, []).append((start, end, value))

    def keys(self) -> List[bytes]:
        """Every key written (or attempted), in sorted order."""
        return sorted(set(self.acked) | set(self.interrupted))

    def legal_values(self, key: bytes) -> Set[Optional[bytes]]:
        """Values a linearizable final read of ``key`` may return.

        An acked write is *superseded* when another acked write began
        strictly after it ended — then its value must no longer win.
        Interrupted writes may or may not have applied, so any
        non-superseded interrupted value is also legal (as is the state
        with none of them applied).
        """
        acked = self.acked.get(key, [])
        legal: Set[Optional[bytes]] = {
            value
            for _start, end, value in acked
            if not any(s > end for s, _e, _v in acked)
        }
        for start, end, value in self.interrupted.get(key, []):
            if not any(s > end for s, _e, _v in acked):
                legal.add(value)
        if not acked:
            legal.add(None)  # never (successfully) written
        return legal

    def illegal_finals(
        self, read: Callable[[bytes], object]
    ) -> Iterator[Tuple[bytes, object, Set[Optional[bytes]]]]:
        """Read every written key back through ``read``; yield
        ``(key, final, legal)`` wherever no linearizable history
        produces ``final``.  ``read`` decides what an unreadable key
        counts as (``None`` for "lost", the exception itself for "a
        violation in its own right" — an exception is never legal)."""
        for key in self.keys():
            final = read(key)
            legal = self.legal_values(key)
            if final not in legal:
                yield key, final, legal
