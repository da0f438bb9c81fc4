"""Virtual clock shared by all simulated threads and resources."""

from __future__ import annotations


class VirtualClock:
    """A global virtual clock measured in seconds.

    The clock never runs by itself; it only records the latest point in
    virtual time any thread or resource has reached.  Background
    activities (reclamation, compaction, garbage collection) use it to
    decide *when* they logically happened relative to foreground work.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Latest virtual time observed anywhere in the simulation."""
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.9f})"
