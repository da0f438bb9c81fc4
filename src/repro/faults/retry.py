"""Bounded retry with virtual-time backoff and failure escalation.

One :class:`RetryExecutor` is shared by every retrying call site in a
store (NVM flushes on the put path, the TCQ leader's SSD submissions,
background reclamation/GC writes, recovery's timed reads), so the
per-device *consecutive failure* counters see the device's whole error
history: after ``fail_threshold`` consecutive failures the executor
declares the device dead through the injector, converting a stream of
transient errors into a permanent :class:`DeviceDeadError` exactly once.

Two flavours match the simulator's two timing styles:

* :meth:`run` — foreground: backoff blocks the calling
  :class:`VThread` (``wait_until``);
* :meth:`run_at` — background: the callable takes a start time and the
  backoff shifts that time forward.

Backoff before retry ``n`` is ``backoff_base × backoff_factor**n``
virtual seconds (plus a stuck IO's timeout): a pure function of the
attempt, so retries draw no randomness.

Retries are observable: every attempt emits a ``retry`` event and
bumps :attr:`RetryExecutor.retries`; exhaustion bumps
:attr:`RetryExecutor.exhausted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, TypeVar

from repro.faults.errors import DeviceDeadError, RetryExhaustedError, TransientIOError
from repro.obs.metrics import EventLog
from repro.sim.vthread import VThread

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """Knobs of the retry/backoff/escalation behaviour."""

    max_retries: int = 4
    backoff_base: float = 20e-6  # virtual seconds before the first retry
    backoff_factor: float = 2.0
    # Consecutive failures (across operations) before a device is
    # declared permanently dead.  0 disables escalation.
    fail_threshold: int = 12

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0: {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1: {self.backoff_factor}")
        if self.fail_threshold < 0:
            raise ValueError(f"fail_threshold must be >= 0: {self.fail_threshold}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff_base * (self.backoff_factor**attempt)


class RetryExecutor:
    """Applies a :class:`RetryPolicy` to idempotent callables."""

    def __init__(
        self,
        policy: RetryPolicy,
        injector=None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.policy = policy
        self.injector = injector
        self.events = events if events is not None else EventLog("retries")
        self.consecutive: Dict[str, int] = {}
        self.retries = 0
        self.exhausted = 0

    # ------------------------------------------------------------------
    # failure accounting
    # ------------------------------------------------------------------
    def _note_failure(self, device: str, at: float, exc: Exception) -> None:
        """Count a failure; escalate to device death past the threshold."""
        count = self.consecutive.get(device, 0) + 1
        self.consecutive[device] = count
        threshold = self.policy.fail_threshold
        if threshold and count >= threshold and self.injector is not None:
            self.injector.kill_device(device, at)
            raise DeviceDeadError(
                device,
                getattr(exc, "op", "io"),
                f"{device}: declared dead after {count} consecutive failures",
            ) from exc

    def _note_success(self, device: str) -> None:
        if self.consecutive.get(device):
            self.consecutive[device] = 0

    def _backoff(self, attempt: int, exc: Exception) -> float:
        # A stuck IO already cost the submitter its timeout window.
        return getattr(exc, "timeout", 0.0) + self.policy.delay(attempt)

    def _record_retry(
        self, at: float, device: str, op: str, attempt: int, exc: Exception
    ) -> None:
        self.retries += 1
        self.events.emit(
            at,
            "retry",
            device=device,
            op=op,
            attempt=attempt + 1,
            error=type(exc).__name__,
        )

    def _give_up(self, device: str, op: str, attempts: int, exc: Exception) -> None:
        self.exhausted += 1
        raise RetryExhaustedError(device, op, attempts) from exc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[], T],
        thread: Optional[VThread] = None,
        device: str = "",
        op: str = "",
    ) -> T:
        """Foreground retry: backoff advances the calling thread."""
        attempt = 0
        while True:
            try:
                result = fn()
            except TransientIOError as exc:
                at = thread.now if thread is not None else 0.0
                self._note_failure(device, at, exc)
                if attempt >= self.policy.max_retries:
                    self._give_up(device, op, attempt + 1, exc)
                if thread is not None:
                    thread.wait_until(thread.now + self._backoff(attempt, exc))
                self._record_retry(at, device, op, attempt, exc)
                attempt += 1
            else:
                self._note_success(device)
                return result

    def run_at(
        self,
        fn: Callable[[float], T],
        at: float,
        device: str = "",
        op: str = "",
    ) -> T:
        """Background retry: ``fn(at)`` re-runs at a later virtual time."""
        attempt = 0
        while True:
            try:
                result = fn(at)
            except TransientIOError as exc:
                self._note_failure(device, at, exc)
                if attempt >= self.policy.max_retries:
                    self._give_up(device, op, attempt + 1, exc)
                at += self._backoff(attempt, exc)
                self._record_retry(at, device, op, attempt, exc)
                attempt += 1
            else:
                self._note_success(device)
                return result
