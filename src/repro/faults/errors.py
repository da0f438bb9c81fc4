"""Typed failure hierarchy for the fault-injection subsystem.

Everything derives from :class:`repro.storage.base.StorageError`, so
existing ``except StorageError`` sites keep working, while callers that
care can distinguish:

* **transient** faults (:class:`TransientIOError` and subclasses) —
  retryable; a bounded retry with virtual-time backoff usually clears
  them;
* **permanent** faults (:class:`DeviceDeadError`) — the device is gone;
  retrying is pointless and the store must degrade;
* **degraded-mode** outcomes (:class:`DegradedError` and subclasses) —
  not device events but the store's typed answer once a device has
  failed: the operation cannot be served, yet no state was corrupted.

The simulator's *raw* accessors (``read_raw``/``load`` without timing)
are never fault-injected: they are the omniscient test/recovery view of
the bytes, not the device interface.
"""

from __future__ import annotations

from repro.storage.base import StorageError


class DeviceError(StorageError):
    """A device-interface operation failed."""

    transient = False

    def __init__(self, device: str, op: str, message: str = "") -> None:
        super().__init__(message or f"{device}: {op} failed")
        self.device = device
        self.op = op


class TransientIOError(DeviceError):
    """Base for retryable device failures."""

    transient = True


class TransientReadError(TransientIOError):
    """A read returned bad data / errored; retrying may succeed."""


class TransientWriteError(TransientIOError):
    """A write was rejected or lost; retrying may succeed."""


class StuckIOError(TransientIOError):
    """An IO hung; the caller's (virtual-time) timeout fired.

    ``timeout`` is the virtual seconds the submitter loses before it
    can give up on the request — the retry layer charges it before
    backing off.
    """

    def __init__(self, device: str, op: str, timeout: float = 0.0) -> None:
        super().__init__(device, op, f"{device}: {op} stuck (timeout {timeout:g}s)")
        self.timeout = timeout


class FlushError(TransientIOError):
    """An NVM cache-line flush did not reach the media.

    The covered lines stay volatile (their undo snapshots survive), so
    re-issuing the flush is always safe — flush is idempotent.
    """

    def __init__(self, device: str, message: str = "") -> None:
        super().__init__(device, "flush", message or f"{device}: flush failed")


class DeviceDeadError(DeviceError):
    """The device has permanently failed; every IO on it errors."""

    def __init__(self, device: str, op: str = "io", message: str = "") -> None:
        super().__init__(device, op, message or f"{device}: device is dead")


class RetryExhaustedError(DeviceError):
    """A bounded retry gave up; the last transient error is chained."""

    def __init__(self, device: str, op: str, attempts: int) -> None:
        super().__init__(
            device, op, f"{device}: {op} failed after {attempts} attempts"
        )
        self.attempts = attempts


class CorruptionError(StorageError):
    """Stored bytes fail their checksum — silent corruption detected.

    Raised by the checksum-verifying parse paths (Value Storage record
    reads, PWB reads, recovery scans) when the CRC32 carried in a
    record's header does not match its content.  ``device`` names the
    medium holding the bad copy and ``where`` localizes it (chunk and
    offset, or PWB id and offset).
    """

    def __init__(self, device: str, where: str = "", message: str = "") -> None:
        super().__init__(
            message or f"{device}: checksum mismatch at {where or 'record'}"
        )
        self.device = device
        self.where = where


class UnrecoverableCorruptionError(CorruptionError):
    """Corruption with no intact copy anywhere — typed data loss.

    Raised after the repair layer exhausted every source (mirror chunk,
    unreclaimed PWB copy): the value cannot be served, but the loss is
    reported explicitly instead of returning wrong bytes.
    """

    def __init__(self, device: str, where: str = "", key: bytes = b"") -> None:
        super().__init__(
            device,
            where,
            f"value for {key!r} lost: no intact copy ({device} at {where})"
            if key
            else f"record at {where or '?'} on {device} lost: no intact copy",
        )
        self.key = key


class DegradedError(StorageError):
    """Base for typed degraded-mode answers from the store."""


class ReadDegradedError(DegradedError):
    """The key's durable copy lives on a dead device.

    The index and every other key stay intact; only values whose sole
    copy is on the failed device are unreachable.
    """

    def __init__(self, device: str, key: bytes = b"") -> None:
        super().__init__(
            f"value for {key!r} unavailable: device {device} is dead"
            if key
            else f"read degraded: device {device} is dead"
        )
        self.device = device
        self.key = key


class NoHealthyStorageError(DegradedError):
    """Every Value Storage device has failed; writes cannot land."""

    def __init__(self, message: str = "no healthy Value Storage device") -> None:
        super().__init__(message)
