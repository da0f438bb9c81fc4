"""Seeded, deterministic device-fault injection.

A :class:`FaultInjector` is consulted by the timed device interfaces
(:meth:`SSDDevice.read`/``write``/``*_async``, :meth:`NVMDevice.flush`)
*before* any state changes or time is charged, and either returns (no
fault) or raises a typed error from :mod:`repro.faults.errors`:

* transient read/write errors at configured per-op rates;
* stuck IO — the request hangs and the submitter loses a virtual-time
  timeout before :class:`StuckIOError` surfaces (the retry layer
  charges the timeout);
* failed NVM flushes (the covered lines stay volatile);
* silent corruption of SSD writes (bit flips, torn writes), which only
  checksums catch;
* permanent device death — explicit (:meth:`kill_device`) or declared
  by the retry layer after too many consecutive failures;
* fail-slow (gray failure) — :meth:`add_slow_fault` multiplies a
  device's per-op latency from a start time on, without raising.

Determinism: faults are drawn from one ``random.Random(seed)`` in
consult order, and a consult whose rates are all zero draws nothing.

Armed and unarmed: an injector that cannot fire is not consulted.
:attr:`FaultInjector.enabled` (*armed*) is true from construction only
when some :class:`FaultConfig` rate is above zero, and turns on for
good at the first :meth:`~FaultInjector.kill_device` or
:meth:`~FaultInjector.add_slow_fault`.  Every hook site gates on that
one bit and, while it is off, takes the path of a store with no
injector at all (the default ``NULL_INJECTOR`` of
:mod:`repro.storage.base`, never armed), so a fault-free run is
bit-identical to a build without the subsystem and costs the same
calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.errors import (
    DeviceDeadError,
    FlushError,
    StuckIOError,
    TransientReadError,
    TransientWriteError,
)
from repro.obs.metrics import EventLog
from repro.storage.base import NULL_INJECTOR  # re-export for convenience

__all__ = ["FaultConfig", "FaultInjector", "NULL_INJECTOR", "SlowFault"]


@dataclass(frozen=True)
class SlowFault:
    """One fail-slow (gray-failure) schedule: the device stays alive
    but serves IO with inflated latency.

    Unlike every other fault kind, fail-slow never raises — the consult
    hooks return an extra virtual-time *penalty* the device adds to the
    IO's completion.  From ``start`` on, the penalty for one IO is
    ``(multiplier - 1) × base device latency``, where the base latency
    is the device spec's per-op latency for the direction (read/write;
    flush uses the write latency).  The schedule is purely a function
    of virtual time — no randomness is drawn — so two identical runs
    inject identically and a run with no slow faults is bit-identical
    to one without the feature.
    """

    devices: Tuple[str, ...] = ()  # empty = every consulted device
    multiplier: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")

    def penalty(self, base_latency: float, at: float) -> float:
        """Extra virtual seconds for one IO at ``at`` (0.0 before ``start``)."""
        if at < self.start:
            return 0.0
        return (self.multiplier - 1.0) * base_latency


# The per-consult probabilities of a FaultConfig: one above zero arms
# the injector from construction.
_RATES = (
    "read_error_rate",
    "write_error_rate",
    "flush_error_rate",
    "stuck_rate",
    "bitflip_rate",
    "torn_write_rate",
)


@dataclass
class FaultConfig:
    """Knobs of one fault schedule.

    Rates are per *consult* (one timed IO or flush).  ``stuck_timeout``
    is the virtual time a submitter loses before a stuck request
    surfaces as :class:`StuckIOError`.  Device death and fail-slow
    schedules are not part of the config: they start at run time
    (:meth:`FaultInjector.kill_device`, :meth:`FaultInjector.add_slow_fault`).
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    flush_error_rate: float = 0.0
    stuck_rate: float = 0.0
    stuck_timeout: float = 2e-3
    # Silent corruption (never raises — only checksums can catch it):
    # per SSD write, probability the stored bytes get one flipped bit /
    # get truncated mid-record while the device still reports success.
    bitflip_rate: float = 0.0
    torn_write_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {rate}")
        if self.stuck_timeout < 0:
            raise ValueError(f"stuck_timeout must be >= 0: {self.stuck_timeout}")


class FaultInjector:
    """Decides, per IO, whether a device misbehaves.

    ``enabled`` is the armed bit the hook sites gate on (module
    docstring): derived from the config's rates, then set for good by
    the first death or fail-slow schedule.  ``consults`` counts the
    calls of :meth:`before_io` / :meth:`before_flush`, which the hook
    sites make only while armed.
    """

    def __init__(
        self,
        config: FaultConfig,
        events: Optional[EventLog] = None,
    ) -> None:
        self.config = config
        self.enabled = any(getattr(config, name) > 0.0 for name in _RATES)
        self.rng = random.Random(config.seed)
        self.events = events if events is not None else EventLog("faults")
        self.dead: set = set()
        self.injected: Dict[str, int] = {}
        self.consults = 0
        # Silent corruptions delivered so far (bit flips, torn writes,
        # at-rest rot) — the scrubber uses this to know whether a scan
        # pass can possibly find anything.
        self.silent_injected = 0
        # Fail-slow: active schedules, per-device onset announcements,
        # and the count of delayed IOs (the store's ``slow_injections``).
        self._slow: List[SlowFault] = []
        self._slow_seen: set = set()
        self.slow_injections = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _emit(self, at: float, device: str, op: str, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.events.emit(at, "fault", device=device, op=op, fault=kind)

    # ------------------------------------------------------------------
    # permanent death
    # ------------------------------------------------------------------
    def kill_device(self, name: str, at: float = 0.0) -> None:
        """Mark a device permanently failed (idempotent); arms the
        injector, so the device's next IO raises."""
        if name in self.dead:
            return
        self.enabled = True
        self.dead.add(name)
        self.events.emit(at, "device_dead", device=name)

    def kill_devices(self, names: Iterable[str], at: float = 0.0) -> None:
        """Kill several devices at one instant (correlated failure)."""
        for name in names:
            self.kill_device(name, at)

    def is_dead(self, name: str) -> bool:
        return name in self.dead

    # ------------------------------------------------------------------
    # fail-slow (gray failures): latency inflation, never raising
    # ------------------------------------------------------------------
    def add_slow_fault(self, fault: SlowFault, at: float = 0.0) -> None:
        """Attach one fail-slow schedule mid-run (gray-failure onset);
        arms the injector."""
        self.enabled = True
        self._slow.append(fault)
        self.events.emit(
            at,
            "slow_fault_added",
            devices=list(fault.devices) or ["*"],
            multiplier=fault.multiplier,
            start=fault.start,
        )

    def slow_penalty(self, device, op: str, at: float) -> float:
        """Extra virtual seconds the IO loses to active fail-slow faults.

        Purely a function of the schedule and ``at`` — no randomness —
        so identical runs inject identically and zero-schedule runs
        never diverge.
        """
        name = device.name
        spec = device.spec
        base = spec.read_latency if op == "read" else spec.write_latency
        penalty = 0.0
        for fault in self._slow:
            if fault.devices and name not in fault.devices:
                continue
            penalty += fault.penalty(base, at)
        if penalty > 0.0:
            self.slow_injections += 1
            if name not in self._slow_seen:
                self._slow_seen.add(name)
                self.events.emit(
                    at, "slow_onset", device=name, op=op, penalty=penalty
                )
        return penalty

    # ------------------------------------------------------------------
    # consult hooks (called by devices before charging any time)
    # ------------------------------------------------------------------
    def before_io(self, device, op: str, at: float) -> float:
        """May raise a typed error for one read/write on ``device``.

        Returns the fail-slow latency penalty (virtual seconds) the
        device must add to this IO's completion — 0.0 unless a
        :class:`SlowFault` is active for the device at ``at``.
        """
        self.consults += 1
        name = device.name
        if name in self.dead:
            raise DeviceDeadError(name, op)
        cfg = self.config
        rate = cfg.read_error_rate if op == "read" else cfg.write_error_rate
        if rate > 0.0 and self.rng.random() < rate:
            self._emit(at, name, op, f"{op}_error")
            if op == "read":
                raise TransientReadError(name, op)
            raise TransientWriteError(name, op)
        if cfg.stuck_rate > 0.0 and self.rng.random() < cfg.stuck_rate:
            self._emit(at, name, op, "stuck")
            raise StuckIOError(name, op, timeout=cfg.stuck_timeout)
        if self._slow:
            return self.slow_penalty(device, op, at)
        return 0.0

    def before_flush(self, device, at: float) -> float:
        """May fail one NVM cache-line flush on ``device``.

        Returns the fail-slow latency penalty, like :meth:`before_io`.
        """
        self.consults += 1
        name = device.name
        if name in self.dead:
            raise DeviceDeadError(name, "flush")
        cfg = self.config
        if cfg.flush_error_rate > 0.0 and self.rng.random() < cfg.flush_error_rate:
            self._emit(at, name, "flush", "flush_error")
            raise FlushError(name)
        if self._slow:
            return self.slow_penalty(device, "flush", at)
        return 0.0

    # ------------------------------------------------------------------
    # silent corruption (never raises — only checksums can catch it)
    # ------------------------------------------------------------------
    def silent_corruption_possible(self) -> bool:
        """True when this schedule can (or did) corrupt stored bytes."""
        cfg = self.config
        return (
            cfg.bitflip_rate > 0.0
            or cfg.torn_write_rate > 0.0
            or self.silent_injected > 0
        )

    def corrupt_write(self, device, at: float, offset: int, data: bytes) -> bytes:
        """Maybe mutate the bytes an SSD write is about to store.

        Called by the timed write paths after :meth:`before_io` — the
        device still reports success; the caller stores the returned
        bytes.  Zero rates return ``data`` untouched without drawing
        randomness, keeping fault-free runs bit-identical.
        """
        cfg = self.config
        if cfg.bitflip_rate <= 0.0 and cfg.torn_write_rate <= 0.0:
            return data
        if not data:
            return data
        if cfg.bitflip_rate > 0.0 and self.rng.random() < cfg.bitflip_rate:
            bit = self.rng.randrange(len(data) * 8)
            mutated = bytearray(data)
            mutated[bit // 8] ^= 1 << (bit % 8)
            self.silent_injected += 1
            self._emit(at, device.name, "write", "bitflip")
            return bytes(mutated)
        if (
            cfg.torn_write_rate > 0.0
            and len(data) > 1
            and self.rng.random() < cfg.torn_write_rate
        ):
            cut = self.rng.randrange(1, len(data))
            self.silent_injected += 1
            self._emit(at, device.name, "write", "torn_write")
            return data[:cut]
        return data

    def corrupt_at_rest(
        self, device, offset: int, size: int, at: float = 0.0
    ) -> int:
        """Flip one seeded bit inside ``[offset, offset + size)`` on
        ``device`` (bit-rot while the data sat on media).

        Explicit test/benchmark hook — not consulted by any IO path.
        Returns the absolute byte offset that was corrupted.
        """
        if size <= 0:
            raise ValueError(f"corrupt_at_rest needs a positive size: {size}")
        bit = self.rng.randrange(size * 8)
        raw = bytearray(device.read_raw(offset + bit // 8, 1))
        raw[0] ^= 1 << (bit % 8)
        device.write_raw(offset + bit // 8, bytes(raw))
        self.silent_injected += 1
        self._emit(at, device.name, "at_rest", "bitrot")
        return offset + bit // 8


# ----------------------------------------------------------------------
# failure scenarios spanning a whole store
# ----------------------------------------------------------------------
def store_device_names(store) -> List[str]:
    """Every fault-injectable device of a Prism-shaped store: the NVM
    DIMM, all Value Storage SSDs (fast and cold tier), and any
    chunk-mirror SSDs."""
    names = [store.nvm.name]
    names.extend(ssd.name for ssd in store.ssds)
    names.extend(ssd.name for ssd in getattr(store, "cold_ssds", ()))
    names.extend(ssd.name for ssd in getattr(store, "mirror_ssds", ()))
    return names


def kill_store_devices(store, at: float = 0.0) -> List[str]:
    """Whole-node death: permanently fail every device of one store.

    This is the cluster layer's shard-failure scenario — a machine (or
    its storage backplane) dying takes the NVM buffer, every Value
    Storage SSD, and every mirror with it, so nothing on the node
    remains readable.  Requires the store to have been built with a
    :class:`FaultConfig` (an injector to record the deaths in).
    Returns the device names killed.
    """
    if store.injector is None:
        raise ValueError(
            "store has no fault injector; build it with config.faults set"
        )
    names = store_device_names(store)
    store.injector.kill_devices(names, at)
    return names


def slow_store_devices(
    store, at: float = 0.0, multiplier: float = 10.0
) -> List[str]:
    """Gray-failure onset for a whole node: every device of one store
    starts serving IO with inflated latency from ``at`` on.

    The fail-slow sibling of :func:`kill_store_devices` — the node
    stays alive and keeps acknowledging, it just gets slow, which is
    exactly the failure mode health scoring and hedged reads exist to
    defend against.  Returns the device names inflated.
    """
    if store.injector is None:
        raise ValueError(
            "store has no fault injector; build it with config.faults set"
        )
    names = store_device_names(store)
    store.injector.add_slow_fault(
        SlowFault(devices=tuple(names), multiplier=multiplier, start=at), at
    )
    return names
