"""Crash exploration: one replay → crash → keep going → audit loop.

The sweep answers the question crash-consistency tests usually sample
by hand: *for every instrumented point in the protocol, does a failure
there leave a system that honors the durability contract?*

The contract (§5.4–5.5 of the paper), the same at every scope:

* **acknowledged durability** — every operation that returned is
  visible afterwards (puts readable with their exact value, deletes
  absent), however many crashes, recoveries or failovers followed it;
* **pending atomicity** — an operation in flight when a crash struck
  is either fully applied or fully invisible, never torn;
* **scenario invariants** — :func:`repro.core.checker.audit` clean on
  a single store, the dead shard marked down in a cluster.

What differs between a single store, a tiered store, a cluster with a
dying shard and a cluster that dies mid-migration is captured by a
:class:`Scenario`; the engine (:class:`CrashSweep`) is the same:

1. *Discovery*: run the workload once with the watched
   :class:`~repro.storage.crash.CrashPoint` recording, then pull the
   plug and let the scenario handle it while still recording — every
   label the workload reaches (inside the scenario's window) and,
   separately, every label crash handling reaches.
2. *Sweep*: per workload label, replay on a fresh system with that
   label armed.  When the simulated crash fires the interrupted
   operation is recorded as in doubt, the scenario reacts
   (``on_crash``: recover the store / fail the shard), the contract is
   audited on the spot, and the workload **keeps going** on whatever
   survived; at the end the scenario settles the system and the
   contract is audited again.  Per crash-handling label (a crash
   *during* recovery): finish the workload, pull the plug, let the
   label fire inside ``on_crash`` — which must then succeed the second
   time, because recovery is idempotent.
3. *Fuzz* (optional): seeded random (label, occurrence) draws explore
   later occurrences of each point, where state differs from the first
   hit (ring wrap-around, GC pressure, chained reclamations).

Both audits judge read-backs by
:meth:`repro.faults.ledger.WriteLedger.legal_values`, with the
operation index as the interval.  The scenarios themselves are listed
in ``repro.cluster.crash_sweep.SCENARIOS``.  Run directly (CI)::

    PYTHONPATH=src python -m repro.faults.crash_sweep --fuzz 5
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.checker import audit
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.faults.ledger import WriteLedger
from repro.parallel import parallel_map
from repro.storage.base import StorageError
from repro.storage.crash import CrashPoint, SimulatedCrash
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, QLC_SSD_SPEC

# One workload operation: ("put", key, value) | ("delete", key)
#                       | ("get", key) | ("scan", key, count)
Op = Tuple

# Replay steps that follow the workload.
_RESTART = ("restart",)  # pull the plug, then crash handling with the label armed
_SETTLE = ("settle",)


class Scenario:
    """What a sweep explores: which system, whose crash labels, and
    what a crash means there.  Instances are small and picklable —
    every replay (possibly in a worker process) rebuilds its system
    from one.  A scenario provides ``build()`` (a fresh system,
    identical every time), ``on_crash(system)`` (react to the watched
    member's power failure), ``settle(system)`` (bring the system to
    the state the final audit judges) and ``invariants(system)``
    (violations of its own post-crash invariants, as strings), and may
    override the defaults below."""

    # Typed failures that leave an operation cleanly un-acknowledged
    # (and make a key *unreadable* when they surface at audit time).
    clean_errors: Tuple[type, ...] = (StorageError,)
    # First line of the report; see SweepReport.summary for the fields.
    headline = (
        "crash sweep: {workload} workload labels, "
        "{recovery} recovery labels, {crashes} crashes injected"
    )

    def watched(self, system) -> object:
        """The member whose labels are explored, as the report names it
        (None when the system itself is the member)."""
        return None

    def crash_point(self, system) -> CrashPoint:
        """The crash point whose labels are explored."""
        return system.crash_point

    def at_op(self, system, i: int, n: int) -> bool:
        """Hook before operation ``i`` of ``n`` (and with ``i == n``
        before each step that follows the workload): make any scheduled
        change to the system, and say whether labels reached from here
        on are inside the explored window — one contiguous stretch.
        Recording (or the armed label's countdown) starts the moment it
        opens, so the watched member must exist by then."""
        return i < n


@dataclass(frozen=True)
class StoreScenario(Scenario):
    """A single Prism store: a crash is a power failure, answered by
    :meth:`Prism.recover`.  Settling flushes, crashes and recovers once
    more, so the *recovered* state is itself proven durable."""

    factory: Callable[[], Prism]  # module-level, so the scenario pickles

    def build(self):
        return self.factory()

    def on_crash(self, store) -> None:
        store.recover(recovery_threads=2)

    def settle(self, store) -> None:
        store.flush()
        store.crash()
        store.recover(recovery_threads=2)

    def invariants(self, store) -> List[str]:
        return list(audit(store).violations)


@dataclass
class LabelOutcome:
    """Verdict for one armed crash point."""

    label: str
    occurrence: int
    during_recovery: bool = False
    fired: bool = False
    violations: List[str] = field(default_factory=list)
    keys_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.fired and not self.violations


@dataclass
class SweepReport:
    """Everything one sweep discovered and verified."""

    headline: str  # the scenario's, see Scenario.headline
    watched: object
    workload_labels: Dict[str, int]
    recovery_labels: Dict[str, int]
    outcomes: List[LabelOutcome]

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    def failures(self) -> List[LabelOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        lines = [
            self.headline.format(
                workload=len(self.workload_labels),
                recovery=len(self.recovery_labels),
                crashes=len(self.outcomes),
                watched=self.watched,
            )
        ]
        for outcome in self.failures():
            lines.append(f"  FAIL {outcome.label}#{outcome.occurrence}")
            if not outcome.fired:
                lines.append("       never fired")
            lines.extend(f"       {v}" for v in outcome.violations[:5])
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _shown(value: object) -> object:
    return value[:16] if isinstance(value, bytes) else value


class CrashSweep:
    """Discovers, arms, and verifies every crash point a scenario reaches."""

    def __init__(self, scenario: Scenario, ops: Sequence[Op]) -> None:
        self.scenario = scenario
        self.ops = list(ops)
        self.watched: object = None  # set by discover(), for the report

    @staticmethod
    def _apply(system, op: Op) -> None:
        if op[0] not in ("put", "delete", "get", "scan"):
            raise ValueError(f"unknown workload op: {op!r}")
        getattr(system, op[0])(*op[1:])  # a store and a cluster share the API

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Label → occurrence count, split into the workload window vs
        crash handling (the recovery phase)."""
        scenario = self.scenario
        system = scenario.build()
        n = len(self.ops)
        point: Optional[CrashPoint] = None
        workload: Optional[Dict[str, int]] = None
        for i, step in enumerate([*self.ops, _SETTLE]):
            explored = scenario.at_op(system, i, n)
            if explored and point is None:
                point = scenario.crash_point(system)
                point.start_recording()
            elif not explored and point is not None and workload is None:
                workload = dict(point.seen)
            if step is not _SETTLE:
                self._apply(system, step)
            elif explored:
                # The window outlived the workload: settling (draining
                # a migration, say) is still inside it.
                scenario.settle(system)
        if point is None:
            raise RuntimeError("the scenario never opened its explored window")
        ended = dict(point.seen)
        point.power_failure()
        scenario.on_crash(system)
        total = point.stop_recording()
        self.watched = scenario.watched(system)
        return (
            ended if workload is None else workload,
            {k: c - ended.get(k, 0) for k, c in total.items() if c > ended.get(k, 0)},
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _audit(self, system, ledger: WriteLedger, when: str) -> List[str]:
        """Scenario invariants, then every written key read back."""
        scenario = self.scenario

        def read(key: bytes) -> object:
            try:
                return system.get(key)
            except scenario.clean_errors as exc:
                return exc  # unreadable: never a legal value

        found = [f"{when}: {v}" for v in scenario.invariants(system)]
        for key, final, legal in ledger.illegal_finals(read):
            found.append(
                f"{when}: key {key!r} read back as {_shown(final)!r}; "
                f"legal: {[_shown(v) for v in legal]}"
            )
        return found

    def verify(
        self, label: str, occurrence: int = 1, during_recovery: bool = False
    ) -> LabelOutcome:
        """Crash at one point on a fresh system, keep going, verify.

        A workload label is armed when the explored window opens and
        fires mid-workload; a recovery label is armed after the
        workload, once the plug has been pulled, and fires inside the
        scenario's crash handling.
        """
        scenario = self.scenario
        system = scenario.build()
        ledger = WriteLedger()
        outcome = LabelOutcome(label, occurrence, during_recovery)
        try:
            self._replay(system, ledger, outcome)
            if outcome.fired:
                outcome.violations += self._audit(system, ledger, "at end")
        except scenario.clean_errors as exc:
            # Client ops that fail cleanly are handled inside the replay;
            # this is crash handling or settling itself giving up.  It
            # fails the label, not the sweep.
            outcome.violations.append(
                f"crash handling failed: {type(exc).__name__}: {exc}"
            )
        outcome.keys_checked = len(ledger.keys())
        return outcome

    def _replay(self, system, ledger: WriteLedger, outcome: LabelOutcome) -> None:
        """The one loop: apply each step; when the armed point fires,
        record what was in flight, let the scenario react, audit, and
        keep going."""
        scenario = self.scenario
        label, during_recovery = outcome.label, outcome.during_recovery
        n = len(self.ops)
        steps = list(enumerate(self.ops))
        if during_recovery:
            steps.append((n, _RESTART))
        steps.append((n, _SETTLE))
        point: Optional[CrashPoint] = None
        for i, step in steps:
            if scenario.at_op(system, i, n) and point is None:
                point = scenario.crash_point(system)
                if not during_recovery:
                    point.arm(label, outcome.occurrence)
            # A mutation the ledger tracks, as (key, value-or-None).
            write = None
            if step[0] in ("put", "delete"):
                write = (step[1], step[2] if step[0] == "put" else None)
            try:
                if step is _SETTLE:
                    scenario.settle(system)
                elif step is _RESTART:
                    point.power_failure()
                    point.arm(label, outcome.occurrence)
                    scenario.on_crash(system)
                else:
                    try:
                        self._apply(system, step)
                    except scenario.clean_errors:
                        continue  # failed cleanly: never acknowledged
            except SimulatedCrash:
                # Only the armed label raises.  The watched member died
                # mid-step: a client op it interrupted is in doubt.
                outcome.fired = True
                if write is not None:
                    ledger.interrupt(write[0], i, i, write[1])
                scenario.on_crash(system)
                # Judge the state crash handling left *now*, before the
                # rest of the workload overwrites what it may have lost.
                outcome.violations += self._audit(system, ledger, "after crash")
                if step is _SETTLE:
                    # The armed point fires once; this time it completes.
                    scenario.settle(system)
            else:
                if write is not None:
                    ledger.ack(write[0], i, i, write[1])

    # ------------------------------------------------------------------
    # whole-sweep drivers
    # ------------------------------------------------------------------
    def run(
        self, jobs: Optional[int] = None, fuzz: int = 0, seed: int = 0
    ) -> SweepReport:
        """Discover serially, then verify every label's first
        occurrence plus ``fuzz`` seeded random draws (``jobs`` wide).

        Discovery is one recorded run and stays in-process; each
        verification replays on a fresh system with a private clock, so
        the task list partitions cleanly across workers.  Outcomes
        are collected in task order — identical to the serial sweep.
        """
        workload, recovery = self.discover()
        tasks = [(self, False, label, 1) for label in sorted(workload)]
        tasks += [(self, True, label, 1) for label in sorted(recovery)]
        tasks += self.fuzz(workload, recovery, fuzz, seed)
        return SweepReport(
            headline=self.scenario.headline,
            watched=self.watched,
            workload_labels=workload,
            recovery_labels=recovery,
            outcomes=parallel_map(_verify_task, tasks, jobs=jobs),
        )

    def fuzz(
        self, workload: Dict[str, int], recovery: Dict[str, int],
        trials: int, seed: int,
    ) -> List[tuple]:
        """Seeded random (label, occurrence) draws, as verify tasks."""
        rng = random.Random(seed)
        draws: List[tuple] = []
        workload_pool = sorted(workload.items())
        recovery_pool = sorted(recovery.items())
        for _ in range(trials):
            use_recovery = bool(recovery_pool) and rng.random() < 0.25
            pool = recovery_pool if use_recovery else workload_pool
            if not pool:
                break
            label, count = pool[rng.randrange(len(pool))]
            draws.append((self, use_recovery, label, rng.randint(1, count)))
        return draws


def _verify_task(
    sweep: CrashSweep, during_recovery: bool, label: str, occurrence: int
) -> LabelOutcome:
    """One armed crash point, replayed on a fresh system (spawn-safe)."""
    return sweep.verify(label, occurrence, during_recovery)


# ----------------------------------------------------------------------
# defaults for the CLI / CI smoke job
# ----------------------------------------------------------------------
def default_ops(num_ops: int = 300, num_keys: int = 60, seed: int = 7) -> List[Op]:
    """A deterministic mixed workload dense in protocol transitions:
    overwrites fragment the log (reclamation + GC), deletes exercise
    entry freeing, gets/scans drive cache admission and writeback."""
    rng = random.Random(seed)
    ops: List[Op] = []
    for i in range(num_ops):
        key = b"k%04d" % rng.randrange(num_keys)
        roll = rng.random()
        if roll < 0.55:
            value = bytes([i % 256]) + rng.randbytes(rng.randrange(64, 320))
            ops.append(("put", key, value))
        elif roll < 0.65:
            ops.append(("delete", key))
        elif roll < 0.9:
            ops.append(("get", key))
        else:
            ops.append(("scan", key, 8))
    return ops


# A store tight enough that the default workload reaches the
# reclamation and GC labels, with checksummed framing so every audit
# also exercises invariant I7 (stored CRCs match).  The cluster
# scenarios build every shard from the same fields.
TIGHT_STORE = dict(
    num_threads=2,
    num_ssds=2,
    ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(512 * 1024),
    chunk_size=16 * 1024,
    pwb_capacity=32 * 1024,
    gc_free_threshold=0.4,
    svc_capacity=32 * 1024,
    hsit_capacity=50_000,
    enable_checksums=True,
)


def tight_store_config(**overrides) -> PrismConfig:
    """:data:`TIGHT_STORE` with ``overrides`` applied."""
    return PrismConfig(**{**TIGHT_STORE, **overrides})


def default_store_factory() -> Prism:
    """Built fresh (and identically) for every replay."""
    return Prism(tight_store_config())


def tiered_store_factory() -> Prism:
    """Tight enough that the 300-op default workload also reaches the
    demotion and promotion labels: a single tiny fast storage (so
    reclaim and GC fire constantly), one cold QLC storage, and a
    recency window short enough that records go cold within the run."""
    kb = 1024
    return Prism(
        tight_store_config(
            num_ssds=1,
            ssd_spec=FLASH_SSD_GEN4_SPEC.with_capacity(256 * kb),
            enable_tiering=True,
            num_cold_ssds=1,
            cold_ssd_spec=QLC_SSD_SPEC.with_capacity(512 * kb),
            tier_hot_threshold=3,
            tier_promote_threshold=2,
            tier_recency_window=32,
        )
    )


STORE_SCENARIOS: Dict[str, Scenario] = {
    "store": StoreScenario(default_store_factory),
    "tiered": StoreScenario(tiered_store_factory),
}


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    # The CLI is the top of the stack: it alone looks upward, at the
    # registry that adds the cluster-scope scenarios to the two above.
    from repro.cluster.crash_sweep import REBALANCE_ROLES, SCENARIOS

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.crash_sweep",
        description="Crash at every discovered crash point; verify the "
                    "durability contract.  Flags select the scenario.",
    )
    parser.add_argument("--ops", type=int, default=300, help="workload length")
    parser.add_argument("--keys", type=int, default=60, help="key-space size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--fuzz", type=int, default=0,
        help="extra randomized (label, occurrence) trials per scenario",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="verify crash labels across N worker processes "
             "(default: $REPRO_JOBS or 1); verdicts are identical to -j1",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--cluster", action="store_true",
        help="kill a whole shard at each of its crash points and audit "
             "durability through the router (repro.cluster)",
    )
    mode.add_argument(
        "--rebalance", action="store_true",
        help="kill a migration participant at every crash point reached "
             "during a live reshard, and audit through the router",
    )
    mode.add_argument(
        "--tiering", action="store_true",
        help="single tiered store: also sweeps the hot/cold placement "
             "crash points (tier.demote.*, tier.promote.*)",
    )
    parser.add_argument(
        "--gray", type=int, default=None, metavar="SHARD",
        help="with --cluster: also latency-inflate this shard's devices "
             "10x from the start (gray failure + fail-stop combined)",
    )
    parser.add_argument(
        "--role", choices=REBALANCE_ROLES + ("all",), default="all",
        help="with --rebalance: which participant dies",
    )
    args = parser.parse_args(argv)
    if args.gray is not None and not args.cluster:
        parser.error("--gray requires --cluster")

    if args.rebalance:
        roles = REBALANCE_ROLES if args.role == "all" else (args.role,)
        scenarios = [SCENARIOS[f"rebalance-{role}"] for role in roles]
    elif args.gray is not None:
        scenarios = [replace(SCENARIOS["gray"], gray_shard=args.gray)]
    elif args.cluster:
        scenarios = [SCENARIOS["cluster"]]
    else:
        scenarios = [SCENARIOS["tiered" if args.tiering else "store"]]

    ops = default_ops(args.ops, args.keys, args.seed)
    ok = True
    for scenario in scenarios:
        report = CrashSweep(scenario, ops).run(args.jobs, args.fuzz, args.seed)
        print(report.summary())
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    # Run the importable module's main, not this ``__main__`` copy, so
    # scenarios, sweeps and task functions pickle under one module name.
    from repro.faults.crash_sweep import main as _main

    sys.exit(_main())
