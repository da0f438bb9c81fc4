"""The cluster router: N Prism shards behind a consistent-hash ring.

:class:`PrismCluster` composes every subsystem built so far into a
horizontally scaled serving layer:

* **placement** — keys map to shards through a :class:`HashRing`
  (stable under membership change: only ranges owned by a failed shard
  re-map);
* **replication** — writes apply to the key's primary and replicate to
  ``replication_factor - 1`` further shards, at quorum or
  asynchronously (see :class:`repro.cluster.shard.Shard`);
* **failover** — a shard whose devices die (via the
  :class:`FaultInjector`, or explicitly with :meth:`kill_shard`) is
  marked down, and its death is a membership change: a ``fail``
  migration to the ring without it (:mod:`repro.cluster.rebalance`)
  restores every key's replication factor under the bandwidth budget
  — the cluster-level analogue of ``repair.rebuild_storage``.  Who is
  a member, and in what state, is written by
  :class:`~repro.cluster.membership.Membership` alone; the router only
  routes;
* **admission control** — per-shard queue-depth caps and token-bucket
  rate limiting shed load with typed
  :class:`~repro.cluster.errors.ShardOverloadedError` instead of
  queueing unboundedly.

Every client operation reaches a shard the same way, through one
method.  :meth:`PrismCluster._attempt` is the routed path in the order
it happens — **admit** (the shard's admission controller, which counts
a shed and raises it; the router lets it through untouched), **pump** (apply
the shard's due asynchronous-replication backlog), **call** (the store
operation, a bound method plus its arguments) and **account the
failure** (a ``DeviceError``/``DegradedError`` is recorded against the
shard's health when a monitor scores this attempt, fails the shard over
when it condemns it, and is re-raised wrapped so callers need not know
which errors those are).  What differs between operations is only what
they loop over: ``get`` tries one candidate at a time (the migration's
route inside a dual-read window, else the key's read shards filtered by
breakers and the read policy), ``put``/``delete`` attempt the primary
and then each replica, retrying once past a failed-over one, ``scan``
attempts every serving shard and merges
each key from the first of its owners that answered, and a hedge is one
more attempt on its own thread.  ``docs/simulation-model.md`` ("Routed
operation") tabulates what each does with each failure.

The cluster is store-shaped: it exposes ``put``/``get``/``scan``/
``delete``/``stats``/``flush`` plus the accounting attributes the
benchmark driver reads, so :func:`repro.bench.runner.run_workload`
drives it unchanged.  With one shard, replication factor 1, and no
faults, the router performs no admission checks, consumes no
randomness, and adds no virtual time — a run through it is
bit-identical to driving the underlying Prism directly.

Like the rest of the simulation, background effects (replication
pumping, the migration stream) execute synchronously in *code* when
triggered but are timestamped on background virtual threads;
foreground operations feel them only through device-bandwidth
contention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cache.sketch import FrequencySketch
from repro.cluster.admission import (
    KIND_INTERNAL,
    KIND_READ,
    KIND_WRITE,
    AdmissionController,
)
from repro.cluster.errors import ShardUnavailableError
from repro.cluster.health import HealthConfig, HealthMonitor
from repro.cluster.membership import Membership
from repro.cluster.rebalance import DEFAULT_REBALANCE_BANDWIDTH
from repro.cluster.ring import HashRing
from repro.cluster.shard import STATE_RETIRED, Shard
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.faults.errors import (
    DegradedError,
    DeviceDeadError,
    DeviceError,
    NoHealthyStorageError,
)
from repro.faults.injector import (
    FaultConfig,
    kill_store_devices,
    slow_store_devices,
)
from repro.obs.metrics import EventLog, MetricsRegistry, merge_registries
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread

MODE_ASYNC = "async"
MODE_QUORUM = "quorum"

READ_PRIMARY = "primary"
READ_SPREAD = "spread"


@dataclass
class ClusterConfig:
    """Everything tunable about the serving layer (not the shards)."""

    num_shards: int = 2
    replication_factor: int = 1
    # "quorum" acks a write once a majority of its copies are durable,
    # "async" once the primary's is.
    replication_mode: str = MODE_QUORUM
    read_policy: str = READ_PRIMARY  # "primary" | "spread"
    # Admission control; None disables the corresponding mechanism.
    max_queue_depth: Optional[int] = None
    rate_limit_ops: Optional[float] = None  # tokens (ops) per virtual second
    rate_burst: float = 64.0
    # Hot-key defense (ISSUE 6), behind read_policy="spread": keys
    # whose recent read frequency (router-side TinyLFU sketch) reaches
    # this threshold round-robin across every replica; colder keys keep
    # reading their primary, preserving per-shard cache locality.  None
    # keeps the old spread behavior — round-robin every read.
    hot_key_threshold: Optional[int] = None
    # Gray-failure defense (ISSUE 7): latency health scoring, per-shard
    # circuit breakers, and hedged reads.  None (the default) keeps
    # every hook disabled — the router consumes no extra virtual time
    # or randomness and stays bit-identical to the pre-health tree.
    health: Optional[HealthConfig] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"need at least one shard: {self.num_shards}")
        if not 1 <= self.replication_factor <= self.num_shards:
            raise ValueError(
                f"replication factor must be in [1, {self.num_shards}]: "
                f"{self.replication_factor}"
            )
        if self.replication_mode not in (MODE_ASYNC, MODE_QUORUM):
            raise ValueError(f"unknown replication mode: {self.replication_mode}")
        if self.read_policy not in (READ_PRIMARY, READ_SPREAD):
            raise ValueError(f"unknown read policy: {self.read_policy}")
        if self.hot_key_threshold is not None and self.hot_key_threshold < 1:
            raise ValueError(
                f"hot key threshold must be positive: {self.hot_key_threshold}"
            )

    @property
    def write_acks_required(self) -> int:
        """Copies that must be durable before a write acknowledges."""
        if self.replication_mode == MODE_QUORUM:
            return self.replication_factor // 2 + 1
        return 1  # async: primary only


def default_shard_factory(
    shard_id: int, clock: VirtualClock, **overrides
) -> Prism:
    """A modest store per shard, fault-injectable so whole-shard death
    and gray failure work.  Its injector has zero rates, so it stays
    unarmed, and the shard runs the calls and virtual time of a store
    with no injector, until a kill or slow fault arms it.  It traces
    phases only when the overrides set ``enable_metrics``, into a
    shard-prefixed registry so instruments never collide.

    ``overrides`` are :class:`PrismConfig` fields: the factory of a
    cluster of differently configured shards is
    ``functools.partial(default_shard_factory, **overrides)``."""
    config = PrismConfig(faults=FaultConfig(seed=9000 + shard_id), **overrides)
    registry = (
        MetricsRegistry(prefix=f"shard{shard_id}/") if config.enable_metrics else None
    )
    return Prism(config, metrics=registry, clock=clock)


class _ShardOpError(Exception):
    """Internal: a shard's store failed an attempt, and the failure has
    been accounted for (:meth:`PrismCluster._attempt`); never reaches
    the client, who gets ``cause``."""

    def __init__(self, cause: Exception) -> None:
        super().__init__(str(cause))
        self.cause = cause


class PrismCluster:
    """Sharded, replicated Prism behind a consistent-hash router."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        shard_factory: Optional[Callable[[int, VirtualClock], Prism]] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        self.clock = VirtualClock()
        factory = shard_factory or default_shard_factory
        self._shard_factory = factory  # add_shard builds members with it
        self.shards: List[Shard] = [
            self._new_shard(sid, factory) for sid in range(cfg.num_shards)
        ]
        self.events = EventLog("cluster")
        self.membership = Membership(self, HashRing(range(cfg.num_shards)))
        self._default_thread = VThread(0, self.clock, name="cluster-caller")
        self._spread_rr = itertools.count()
        self._async = cfg.replication_mode == MODE_ASYNC
        # Router-side hot-key detector (None when the defense is off —
        # the read path then costs one None check, keeping the
        # 1-shard/RF=1 bit-identity contract).
        self._hot_sketch: Optional[FrequencySketch] = None
        if cfg.hot_key_threshold is not None:
            self._hot_sketch = FrequencySketch(width=1024)
        # Reads the hot-key defense spread, and reads the dual-read
        # window forwarded to a key's old owner.
        self.hot_spread_reads = 0
        self.forwarded_reads = 0
        # Gray-failure defense: health monitor plus one reusable
        # virtual thread for speculative (hedged) reads.  Both are None
        # with health off, so the undefended read path is untouched.
        self._health: Optional[HealthMonitor] = None
        self._hedge_thread: Optional[VThread] = None
        if cfg.health is not None:
            self._health = HealthMonitor(cfg.num_shards, cfg.health, self.events)
            self._hedge_thread = VThread(
                -60, self.clock, name="hedge-read", background=True
            )

    # ------------------------------------------------------------------
    # store-shaped surface
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "PrismCluster"

    @property
    def bytes_put(self) -> int:
        return sum(s.store.bytes_put for s in self.shards)

    def ssd_bytes_written(self) -> int:
        return sum(s.store.ssd_bytes_written() for s in self.shards)

    def waf(self) -> float:
        put = self.bytes_put
        return self.ssd_bytes_written() / put if put else 0.0

    def __len__(self) -> int:
        # Replicated copies of a key count once.  Draining members
        # still hold authoritative (unmoved) keys; retired ones hold
        # only handed-off garbage and are excluded.
        counted: Set[bytes] = set()
        for shard in self.shards:
            if shard.serving:
                counted.update(key for key, _ in shard.store.index.items())
        return len(counted)

    def stats(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for shard in self.shards:
            for key, value in shard.store.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        # Ratios do not add: recompute each from its summed parts.
        totals["waf"] = self.waf()
        if "rc_hits" in totals:
            lookups = totals["rc_hits"] + totals["rc_misses"]
            totals["rc_hit_ratio"] = totals["rc_hits"] / lookups if lookups else 0.0
        if "tier_demoted_bytes" in totals:
            totals["tier_demotion_waf"] = totals["tier_demoted_bytes"] / max(
                1, self.bytes_put
            )
            for tier in ("fast", "cold"):
                cap = totals[f"tier_{tier}_capacity_bytes"]
                totals[f"tier_{tier}_occupancy"] = (
                    totals[f"tier_{tier}_used_bytes"] / cap if cap else 0.0
                )
        totals["cluster_shards"] = float(
            sum(1 for s in self.shards if s.state != STATE_RETIRED)
        )
        totals["cluster_shards_down"] = float(len(self.membership.down))
        totals["cluster_shed"] = float(
            sum(s.admission.shed_queue + s.admission.shed_rate for s in self.shards)
        )
        totals["cluster_hot_spread_reads"] = float(self.hot_spread_reads)
        totals["cluster_forwarded_reads"] = float(self.forwarded_reads)
        totals["cluster_repl_applied"] = float(
            sum(s.repl_applied for s in self.shards)
        )
        totals["cluster_repl_dropped"] = float(
            sum(s.repl_dropped for s in self.shards)
        )
        totals["cluster_repl_queued"] = float(
            sum(len(s.queue) for s in self.shards)
        )
        return totals

    def merged_shard_metrics(self) -> MetricsRegistry:
        """One cluster-wide registry: per-shard prefixes stripped,
        histograms bucket-merged (cluster-wide p50/p99)."""
        real = [s.store.metrics for s in self.shards if s.store.metrics.enabled]
        return merge_registries(real)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _new_shard(self, shard_id: int, factory: Callable) -> Shard:
        """Member ``shard_id``: a store from ``factory`` on the cluster
        clock behind an admission controller with the config's knobs."""
        store = factory(shard_id, self.clock)
        if store.clock is not self.clock:
            raise ValueError(
                f"shard {shard_id} does not share the cluster clock; "
                "build it with Prism(..., clock=clock)"
            )
        cfg = self.config
        return Shard(
            shard_id,
            store,
            AdmissionController(
                shard_id,
                max_queue_depth=cfg.max_queue_depth,
                rate=cfg.rate_limit_ops,
                burst=cfg.rate_burst,
            ),
        )

    @property
    def rebalancing(self) -> bool:
        return self.membership.migration is not None

    def _write_shards(self, key: bytes) -> List[Shard]:
        """Live owners, primary first — where a write must land.

        Mid-migration, writes route to the key's *new* owners (the
        migrator marks such keys fresh so it never clobbers them with
        a stale copy); the new ring of a ``remove`` holds no leaving
        shard, so no write reaches one.
        """
        members = self.membership
        down = members.down
        mig = members.migration
        if mig is not None:
            ids = mig.write_owners(key, down)
        else:
            ids = members.ring.preference_list(
                key, self.config.replication_factor, down
            )
        if not ids:
            raise ShardUnavailableError(key, members.ring.shards | down)
        return [self.shards[i] for i in ids]

    def _read_shards(self, key: bytes) -> List[Shard]:
        """Shards that authoritatively hold ``key``: its owners on the
        ring, minus any that are down (a dead shard leaves the ring
        when its ``fail`` migration finishes; until then reads take
        the migration's route instead)."""
        rf = self.config.replication_factor
        members = self.membership
        ids = static = members.ring.preference_list(key, rf)
        if members.down:
            ids = members.ring.preference_list(key, rf, exclude=members.down)
        if not ids:
            raise ShardUnavailableError(key, static)
        return [self.shards[i] for i in ids]

    def _pick_reader(self, key: bytes, candidates: Sequence[Shard]) -> Shard:
        if self.config.read_policy == READ_SPREAD and len(candidates) > 1:
            sketch = self._hot_sketch
            if sketch is None:
                # Classic spread: round-robin every read.
                return candidates[next(self._spread_rr) % len(candidates)]
            # Hot-key defense: replicated reads only for keys the
            # router has detected as hot; the cold tail keeps its
            # primary so per-shard read caches stay warm.
            if sketch.add(key) >= self.config.hot_key_threshold:
                self.hot_spread_reads += 1
                return candidates[next(self._spread_rr) % len(candidates)]
        return candidates[0]

    @staticmethod
    def _permanent(exc: Exception) -> bool:
        """Failures that condemn the whole shard, not just one key."""
        return isinstance(exc, (DeviceDeadError, NoHealthyStorageError))

    # ------------------------------------------------------------------
    # the routed path: one client op, one attempt at one shard
    # ------------------------------------------------------------------
    def _client_op(self, body: Callable, thread: Optional[VThread], *args):
        """What every client operation does around its ``body``: fall
        back to the cluster's own caller thread and let the migrator
        catch up to the op's start."""
        if thread is None:
            thread = self._default_thread
        mig = self.membership.migration
        if mig is not None:
            mig.pump(thread.now)
        return body(*args, thread)

    def _attempt(
        self,
        shard: Shard,
        thread: VThread,
        kind: str,
        health: Optional[HealthMonitor],
        op: Callable,
        *args,
    ):
        """One attempt of ``op(*args, thread)`` at one shard — the whole
        routed path, in order: admit, pump, call, account the failure.

        ``kind`` is the admission class: ``read``/``write`` for the
        client's arrival at the shard, ``internal`` for what the router
        itself fans out behind an admitted op (replica writes, hedges),
        which is never shed.  ``health`` is the monitor scoring this
        attempt, None when none is in play (writes, scans, reads inside
        a migration window).  A shed shard raises its typed error
        untouched; a store failure is recorded, fails the shard
        over when it condemns it, and surfaces as :class:`_ShardOpError`
        so no caller has to know which errors those are.  The caller
        reports ``admission.complete`` — it alone knows when the op
        ends (after the hedge for reads, at the quorum ack for writes).
        """
        shard.admission.admit(thread.now, kind)
        if self._async:
            shard.pump(thread.now)
        try:
            return op(*args, thread)
        except (DeviceError, DegradedError) as exc:
            if health is not None:
                health.record_failure(shard.shard_id, thread.now)
            if self._permanent(exc):
                self.membership.fail(shard.shard_id, thread.now)
            raise _ShardOpError(exc) from exc

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, thread: Optional[VThread] = None) -> None:
        """Insert or update; durable on the required replica count when
        this returns (primary only under async replication)."""
        self._client_op(self._mutate, thread, key, value)

    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        """Remove a key cluster-wide. Returns the primary's verdict."""
        return bool(self._client_op(self._mutate, thread, key, None))

    def _mutate(self, key: bytes, value: Optional[bytes], thread: VThread) -> object:
        last_error: Optional[_ShardOpError] = None
        # The first try and at most one failover.
        for _ in range(2):
            try:
                return self._replicated_apply(key, value, thread)
            except _ShardOpError as err:
                retry = last_error is None and self._permanent(err.cause)
                last_error = err
                if not retry:
                    # Transient escape: nothing will change on retry
                    # beyond the store's own retries; surface it.
                    break
        raise last_error.cause

    def _replicated_apply(
        self, key: bytes, value: Optional[bytes], thread: VThread
    ) -> object:
        owners = self._write_shards(key)
        primary, replicas = owners[0], owners[1:]
        args = (key,) if value is None else (key, value)
        result = self._attempt(
            primary, thread, KIND_WRITE, None,
            primary.store.delete if value is None else primary.store.put, *args,
        )
        primary_end = thread.now
        if replicas:
            if self._async:
                for replica in replicas:
                    replica.enqueue(key, value, primary.shard_id, primary_end)
            else:
                # The primary coordinates: replica writes fan out in
                # parallel after its ack; the client resumes at the
                # k-th replica ack required by the mode.
                ends: List[float] = []
                for replica in replicas:
                    thread.now = primary_end
                    self._attempt(
                        replica, thread, KIND_INTERNAL, None,
                        replica.store.delete if value is None else replica.store.put,
                        *args,
                    )
                    ends.append(thread.now)
                # The mode's ack count is capped at the owners that
                # actually exist: when failures (or a scale-in) leave
                # fewer live owners than the replication factor, the
                # write acknowledges at every surviving copy rather
                # than waiting for replicas that cannot exist.
                need = min(self.config.write_acks_required, len(owners))
                if need > 1:
                    ends.sort()
                    thread.now = ends[need - 2]
                else:
                    thread.now = primary_end
        mig = self.membership.migration
        if mig is not None:
            # Acked mid-migration at the new owners: the target's copy
            # is now the newest — the migrator must not overwrite it.
            mig.note_write(key)
        primary.admission.complete(thread.now)
        return result

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        """Point lookup; returns None for missing keys."""
        return self._client_op(self._get, thread, key)

    def _get(self, key: bytes, thread: VThread) -> Optional[bytes]:
        """One read loop; what varies is where its candidates come from.

        Settled ring: the key's read shards minus those already tried,
        minus — with a health monitor — shards whose breaker is open
        (falling back to the full candidate list if *every* breaker is
        open — steering must never make a readable key unreadable),
        and :meth:`_pick_reader` chooses.  After the read completes, if
        it overran the adaptive hedge delay, the read is hedged
        (:meth:`_hedge`).

        The dual-read window (a migration is active): unmoved affected
        keys are *forwarded* to their old owner; moved/fresh and
        unaffected keys read from the new ring, in route order.
        Migration reads bypass the health scorer and hedging entirely —
        breakers must not trip on (and hedges must not race) migration
        traffic.

        Candidates are recomputed each attempt, so a failure that
        resolves the migration (abort or fast-forward) re-routes the
        next attempt on the settled ring.
        """
        tried: Set[int] = set()
        last_error: Optional[_ShardOpError] = None
        forwarded = False
        members = self.membership
        for _ in range(1 + self.config.replication_factor):
            mig = members.migration
            if mig is None:
                health = self._health
                candidates = [
                    s for s in self._read_shards(key) if s.shard_id not in tried
                ]
            else:
                health = None
                ids, forward = mig.read_route(key, members.down or None)
                if forward and not forwarded:
                    forwarded = True
                    self.forwarded_reads += 1
                candidates = [
                    self.shards[i]
                    for i in ids
                    if i not in tried and self.shards[i].serving
                ]
            if not candidates:
                break
            if mig is not None:
                shard = candidates[0]
            else:
                if health is not None:
                    candidates = [
                        s for s in candidates if health.allow(s.shard_id, thread.now)
                    ] or candidates
                shard = self._pick_reader(key, candidates)
            tried.add(shard.shard_id)
            t0 = thread.now
            try:
                value = self._attempt(
                    shard, thread, KIND_READ, health, shard.store.get, key
                )
            except _ShardOpError as err:
                last_error = err
                continue
            if health is not None:
                t1 = thread.now
                health.record_read(shard.shard_id, t1 - t0, t1)
                if t1 - t0 > health.hedge_delay():
                    value = self._hedge(key, shard, value, t0, t1, thread)
            shard.admission.complete(thread.now)
            return value
        if last_error is not None:
            raise last_error.cause
        raise ShardUnavailableError(key, members.ring.shards | members.down)

    def _hedge(
        self,
        key: bytes,
        primary: Shard,
        primary_value: Optional[bytes],
        t0: float,
        t1: float,
        thread: VThread,
    ) -> Optional[bytes]:
        """Model the speculative read; returns the winning value and
        rewinds ``thread.now`` to the earlier completion.

        The speculative read is modeled at the next healthy replica as
        if fired ``hedge_delay`` after the primary started, and the
        caller resumes at whichever completion came first.  Sequential
        simulation makes the hedge retroactive — the outcome (and the
        device bandwidth both reads consume) matches an implementation
        that truly raced them.
        """
        health = self._health
        fired_at = t0 + health.hedge_delay()
        alt: Optional[Shard] = None
        for candidate in self._read_shards(key):
            if candidate is not primary and health.allow(
                candidate.shard_id, fired_at
            ):
                alt = candidate
                break
        if alt is None:
            return primary_value  # nowhere healthy to hedge to
        ht = self._hedge_thread
        ht.now = fired_at
        try:
            alt_value = self._attempt(
                alt, ht, KIND_INTERNAL, health, alt.store.get, key
            )
        except _ShardOpError:
            self.events.emit(
                ht.now, "hedge_wasted", shard=alt.shard_id, over=primary.shard_id
            )
            return primary_value
        t2 = ht.now
        health.record_read(alt.shard_id, t2 - fired_at, t2)
        # The hedge wins only when it finished first AND saw the key
        # (an async replica may not have received it yet — a faster
        # miss must not shadow the primary's hit).
        if t2 < t1 and not (alt_value is None and primary_value is not None):
            self.events.emit(
                t2,
                "hedge_won",
                shard=alt.shard_id,
                over=primary.shard_id,
                saved=t1 - t2,
            )
            thread.now = t2
            return alt_value
        self.events.emit(t2, "hedge_wasted", shard=alt.shard_id, over=primary.shard_id)
        return primary_value

    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, bytes]]:
        """Range scan across shards: hashing scatters ranges, so every
        live shard scans locally (in parallel virtual time) and the
        router merges, keeping each key's copy from the first shard in
        its read order that answered."""
        return self._client_op(self._scan, thread, start, count)

    def _answering_owner(
        self, key: bytes, answers: Dict[Shard, object]
    ) -> Optional[Shard]:
        """The first of ``answers`` in ``key``'s read order: the shard
        whose copy is authoritative right now (migration-aware: the old
        owner inside the dual-read window), else the next owner."""
        members = self.membership
        mig = members.migration
        if mig is None:
            owners = self._read_shards(key)
        else:
            ids, _forwarded = mig.read_route(key, members.down or None)
            owners = [self.shards[i] for i in ids]
        for shard in owners:
            if shard in answers:
                return shard
        return None

    def _scan(
        self, start: bytes, count: int, thread: VThread
    ) -> List[Tuple[bytes, bytes]]:
        t0 = thread.now
        # Draining members still serve scans — unmoved keys have no
        # other authoritative copy until the migrator hands them off.
        serving = [s for s in self.shards if s.serving]
        members = self.membership
        if not serving:
            raise ShardUnavailableError(start, members.ring.shards)
        # Copies of any one key the serving shards hold between them:
        # one fewer while a dead member is still on the ring (its fail
        # migration has not moved every key it owned yet).
        copies = min(self.config.replication_factor, len(serving)) - len(
            members.down & members.ring.shards
        )
        answers: Dict[Shard, List[Tuple[bytes, bytes]]] = {}
        last_error: Optional[_ShardOpError] = None
        end = t0
        for shard in serving:
            thread.now = t0
            try:
                answers[shard] = self._attempt(
                    shard, thread, KIND_READ, None, shard.store.scan, start, count
                )
            except _ShardOpError as err:
                last_error = err
                continue
            shard.admission.complete(thread.now)
            end = max(end, thread.now)
        thread.now = end
        if last_error is not None and len(serving) - len(answers) >= copies:
            # The silent shards could hold every copy of some key: any
            # merge might be short of it.  Surface it, as ``get`` would.
            raise last_error.cause
        merged: Dict[bytes, bytes] = {}
        for shard, pairs in answers.items():
            for key, value in pairs:
                if self._answering_owner(key, answers) is shard:
                    merged[key] = value
        return [(key, merged[key]) for key in sorted(merged)[:count]]

    # ------------------------------------------------------------------
    # elasticity and failure: membership changes (Membership writes them)
    # ------------------------------------------------------------------
    def add_shard(
        self,
        at: Optional[float] = None,
        bandwidth: float = DEFAULT_REBALANCE_BANDWIDTH,
        shard_factory: Optional[Callable[[int, VirtualClock], Prism]] = None,
    ) -> int:
        """Scale out by one member, live: build the shard, plan the
        minimal key movement onto a ring with it added, and start the
        background migrator.  Returns the new shard id.  The workload
        keeps running throughout — reads of not-yet-moved keys forward
        to the old owners, writes route to the new owners.
        """
        at = self.clock.now if at is None else at
        return self.membership.add(shard_factory or self._shard_factory, bandwidth, at)

    def remove_shard(
        self,
        shard_id: int,
        at: Optional[float] = None,
        bandwidth: float = DEFAULT_REBALANCE_BANDWIDTH,
    ) -> None:
        """Scale in by one member, live: the shard drains (reads keep
        serving, writes route to the ring without it), its keys stream
        to the surviving owners, and it retires at handoff.  Raises
        :class:`~repro.cluster.ring.LastShardError` for the last
        member and :class:`~repro.cluster.ring.UnknownShardError` for
        an id not on the ring (both typed, both before any state
        changes)."""
        at = self.clock.now if at is None else at
        self.membership.remove(shard_id, bandwidth, at)

    def finish_rebalance(self) -> None:
        """Drive any active migration to completion (drains the
        remaining copy stream at the bandwidth budget)."""
        mig = self.membership.migration
        if mig is not None:
            mig.pump(float("inf"))

    def kill_shard(self, shard_id: int, at: Optional[float] = None) -> None:
        """Whole-node death: fail every device, then run failover."""
        at = self.clock.now if at is None else at
        kill_store_devices(self.shards[shard_id].store, at)
        self.membership.fail(shard_id, at)

    def slow_shard(
        self,
        shard_id: int,
        at: Optional[float] = None,
        multiplier: float = 10.0,
    ) -> List[str]:
        """Gray-fail a shard: inflate every device's latency without
        any error — the shard keeps serving, just slowly.  Nothing in
        the fail-stop machinery reacts; only the health monitor (when
        armed) will notice.  Returns the inflated device names."""
        at = self.clock.now if at is None else at
        names = slow_store_devices(self.shards[shard_id].store, at, multiplier)
        self.events.emit(
            at,
            "shard_gray_injected",
            shard=shard_id,
            multiplier=multiplier,
            devices=len(names),
        )
        return names

    def fail_shard(self, shard_id: int, at: Optional[float] = None) -> None:
        """Mark a shard down, drop its unsent replication backlog, and
        start the migration that restores every affected key's RF."""
        self.membership.fail(shard_id, self.clock.now if at is None else at)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self, thread: Optional[VThread] = None) -> None:
        """Drain background work — the migration stream and the
        replication queues — then flush every live store."""
        self.finish_rebalance()
        for shard in self.shards:
            if shard.serving and shard.queue:
                shard.pump(float("inf"))
        for shard in self.shards:
            if shard.serving:
                shard.store.flush()

    def close(self) -> None:
        self.flush()
        for shard in self.shards:
            if shard.serving:
                shard.store.close()
