"""Epoch-based reclamation (§5.4).

Freed HSIT entries and evicted SVC entries must not be recycled while
a concurrent reader may still dereference them.  Prism waits for two
epochs: the first guarantees no *new* thread can reach the retired
object, the second that every reader from the previous epoch has
finished.

Threads bracket operations with :meth:`enter` / :meth:`exit`.  The
epoch advances only when every registered thread has passed through a
quiescent state in the current epoch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

# Retired objects are reclaimed after this many epoch advances.
GRACE_EPOCHS = 2


class EpochManager:
    """Global epoch clock with deferred reclamation."""

    def __init__(self) -> None:
        self.global_epoch = 0
        # thread id -> epoch pinned by an in-flight operation (or -1)
        self._pinned: Dict[int, int] = {}
        # thread id -> last epoch in which the thread was seen quiescent
        self._quiescent: Dict[int, int] = {}
        self._retired: List[Tuple[int, Callable[[], None]]] = []
        self.reclaimed = 0

    # ------------------------------------------------------------------
    # thread participation
    # ------------------------------------------------------------------
    def enter(self, tid: int) -> None:
        """Pin the current epoch for an operation; a thread's first
        ``enter`` registers it."""
        q = self._quiescent
        if tid not in q:
            q[tid] = self.global_epoch
        self._pinned[tid] = self.global_epoch

    def exit(self, tid: int) -> None:
        """Leave the critical region; the thread becomes quiescent."""
        if tid not in self._pinned:
            raise KeyError(f"thread {tid} never entered an epoch")
        self._pinned[tid] = -1
        self._quiescent[tid] = self.global_epoch

    # ------------------------------------------------------------------
    # reclamation
    # ------------------------------------------------------------------
    def retire(self, reclaim: Callable[[], None]) -> None:
        """Defer ``reclaim`` until two epochs have safely passed."""
        self._retired.append((self.global_epoch, reclaim))

    def try_advance(self) -> bool:
        """Advance the epoch if every thread is quiescent in it.

        A thread blocks advancement while it pins an older epoch.
        Returns True when the epoch moved (and runs due reclamations).
        """
        for tid, pinned in self._pinned.items():
            if pinned != -1 and pinned < self.global_epoch:
                return False
            if pinned == -1 and self._quiescent[tid] < self.global_epoch:
                return False
        self.global_epoch += 1
        self._run_due()
        return True

    def _run_due(self) -> None:
        due = [
            (epoch, fn)
            for epoch, fn in self._retired
            if epoch + GRACE_EPOCHS <= self.global_epoch
        ]
        if not due:
            return
        self._retired = [
            item for item in self._retired if item[0] + GRACE_EPOCHS > self.global_epoch
        ]
        for _, fn in due:
            fn()
            self.reclaimed += 1

    @property
    def pending(self) -> int:
        return len(self._retired)

    def drain(self) -> None:
        """Force-run all retirements (shutdown path: no readers remain)."""
        for _, fn in self._retired:
            fn()
            self.reclaimed += 1
        self._retired.clear()
