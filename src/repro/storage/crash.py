"""Crash points: where a test may pull the plug.

A power failure hits every device at once
(:meth:`repro.storage.media.Media.power_failure`): DRAM empties, NVM
loses unflushed cache lines, completed SSD writes survive.

:class:`CrashPoint` is the production-side hook: protocol code calls
``maybe_crash("label")`` at every boundary where a power failure has a
distinct outcome, and the crash-exploration harness
(:mod:`repro.faults.crash_sweep`) discovers, arms, and fires those
labels systematically.  Unarmed, non-recording points never touch
virtual time, so instrumented code stays bit-identical to
uninstrumented code.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional


class CrashPoint:
    """A named point where a test may inject a crash.

    Production code calls ``maybe_crash("after-value-write")``; tests
    arm the point they want — optionally at its Nth occurrence — and
    the crash-sweep harness records every label reached.  Unarmed,
    non-recording points are free.
    """

    def __init__(self, power_failure: Optional[Callable[[], None]] = None) -> None:
        # What firing does before it unwinds the operation: a media's
        # ``power_failure``, or a whole store's ``crash``.
        self.power_failure = power_failure
        self._armed: str = ""
        self._countdown: int = 0
        self.fired: str = ""
        self.recording = False
        self.seen: Dict[str, int] = {}
        # True while armed or recording.  Hot call sites read this flag
        # instead of paying a maybe_crash() call per label when the
        # point is inert (the overwhelmingly common case).
        self.active = False

    def arm(self, label: str, occurrence: int = 1) -> None:
        """Crash at the ``occurrence``-th time ``label`` is reached."""
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1: {occurrence}")
        self._armed = label
        self._countdown = occurrence
        self.fired = ""
        self.active = True

    def start_recording(self) -> None:
        """Begin counting every label reached (crash-point discovery)."""
        self.recording = True
        self.seen = {}
        self.active = True

    def stop_recording(self) -> Dict[str, int]:
        self.recording = False
        self.active = bool(self._armed)
        return dict(self.seen)

    def maybe_crash(self, label: str) -> None:
        if self.recording:
            self.seen[label] = self.seen.get(label, 0) + 1
        if self._armed and self._armed == label:
            self._countdown -= 1
            if self._countdown > 0:
                return
            self.fired = label
            self._armed = ""
            self.active = self.recording
            self.power_failure()
            raise SimulatedCrash(label)


class _NullCrashPoint(CrashPoint):
    """Shared inert point for components used outside a store."""

    def arm(self, label: str, occurrence: int = 1) -> None:
        raise RuntimeError("cannot arm the null crash point")

    def maybe_crash(self, label: str) -> None:
        pass


NULL_CRASH_POINT = _NullCrashPoint()


class SimulatedCrash(Exception):
    """Raised at an armed crash point to unwind the in-flight operation."""

    def __init__(self, label: str) -> None:
        super().__init__(f"simulated power failure at '{label}'")
        self.label = label
