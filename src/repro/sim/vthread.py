"""Simulated threads.

A :class:`VThread` models one hardware thread (a core).  It owns a
local clock ``now``; executing work advances it.  Shared resources
(:mod:`repro.sim.resources`) mediate contention between threads by
comparing and updating their local clocks.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import VirtualClock


class VThread:
    """A virtual thread with its own position in virtual time.

    Parameters
    ----------
    tid:
        Small integer identifier; also used as the core number.
    clock:
        The global clock this thread reports its progress to.  When
        omitted a private clock is created, which is convenient for
        functional (non-benchmark) use of the stores.
    background:
        Background threads perform asynchronous work (reclamation,
        compaction, cache maintenance).  Their time does not count
        toward foreground request latency, but they still contend for
        device bandwidth.
    """

    __slots__ = (
        "tid", "name", "clock", "now", "background", "cpu_time",
    )

    def __init__(
        self,
        tid: int = 0,
        clock: Optional[VirtualClock] = None,
        name: str = "",
        background: bool = False,
    ) -> None:
        self.tid = tid
        self.name = name or f"vthread-{tid}"
        self.clock = clock if clock is not None else VirtualClock()
        self.now = self.clock.now
        self.background = background
        self.cpu_time = 0.0

    def spend(self, seconds: float) -> None:
        """Consume CPU time: advance the local clock by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"cannot spend negative time: {seconds}")
        # Hot path: the thread moves the clock's high-water mark itself
        # (no method call) — this method runs several times per
        # simulated operation.
        now = self.now + seconds
        self.now = now
        self.cpu_time += seconds
        clock = self.clock
        if now > clock._now:
            clock._now = now

    def wait_until(self, t: float) -> None:
        """Block (idle) until virtual time ``t``."""
        if t > self.now:
            self.now = t
            clock = self.clock
            if t > clock._now:
                clock._now = t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bg" if self.background else "fg"
        return f"VThread({self.name}, {kind}, now={self.now:.9f})"
