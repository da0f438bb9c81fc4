"""Property tests for :class:`BandwidthChannel` edge cases.

The channel is the hottest function in the simulator and carries a
fast path (arrival bucket absorbs the whole transfer), a saturation
skip (``_full_floor``), and a pruning scheme (``PRUNE_WINDOW`` /
``_PRUNE_TRIGGER``).  These tests pin the invariants those shortcuts
must preserve:

* completion never beats line rate, and capacity per bucket is never
  exceeded;
* requests stamped *earlier* than previously seen traffic still reuse
  leftover capacity from their own time (out-of-order arrival);
* the ``_full_floor`` skip is invisible: a saturated channel produces
  the same completion times as a fresh channel replaying the same
  post-saturation traffic would if it had walked every full bucket;
* pruning only forgets buckets older than ``PRUNE_WINDOW``, so results
  within the window are unchanged by when pruning triggers.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.sim.resources import BandwidthChannel

BW = 1e9  # 1 GB/s
BUCKET = 10e-6  # => 10 KB capacity per bucket


def _fresh():
    return BandwidthChannel(BW, bucket=BUCKET)


sizes = st.integers(min_value=1, max_value=200_000)
offsets = st.floats(min_value=0.0, max_value=5e-3,
                    allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(requests=st.lists(st.tuples(offsets, sizes), min_size=1, max_size=60))
def test_never_beats_line_rate_and_capacity(requests):
    ch = _fresh()
    for at, nbytes in requests:
        end = ch.request(at, nbytes)
        assert end >= at + nbytes / ch.bandwidth - 1e-15
    # No bucket ever exceeds its capacity.
    assert all(used <= ch._capacity + 1e-6 for used in ch._used.values())


@settings(max_examples=100, deadline=None)
@given(
    early_at=st.floats(min_value=0.0, max_value=40e-6,
                       allow_nan=False, allow_infinity=False),
    early_bytes=st.integers(min_value=1, max_value=5_000),
    late_bucket=st.integers(min_value=8, max_value=40),
)
def test_out_of_order_arrival_reuses_leftover_capacity(
    early_at, early_bytes, late_bucket
):
    """Background work stamped in the past must drain capacity from
    its own (partially used) bucket, not queue behind newer traffic."""
    ch = _fresh()
    # Newer traffic first: a large transfer far in the future.
    ch.request(late_bucket * BUCKET, 9_000)
    # Now an out-of-order request in the past.  Its own buckets are
    # untouched by the later traffic, so it must complete exactly as
    # it would on an idle channel — bit-identical, not merely close.
    end = ch.request(early_at, early_bytes)
    assert repr(end) == repr(_fresh().request(early_at, early_bytes))
    assert end >= early_at + early_bytes / ch.bandwidth - 1e-15


@settings(max_examples=60, deadline=None)
@given(
    storm=st.integers(min_value=5, max_value=40),
    tail=st.lists(sizes, min_size=1, max_size=20),
)
def test_full_floor_skip_matches_bucket_walk(storm, tail):
    """Saturate one channel (raising ``_full_floor``), then replay the
    same tail traffic on a fresh channel pre-filled bucket by bucket
    without the skip.  Completions must be bit-identical."""
    fast = _fresh()
    # Saturating storm: every request at t=0 drains buckets in order.
    for _ in range(storm):
        fast.request(0.0, 25_000)
    assert fast._full_floor > 0  # the skip is actually engaged
    # Mirror channel: same bucket usage, but _full_floor left at zero
    # so every request re-walks the full backlog.
    slow = _fresh()
    slow._used = defaultdict(float, fast._used)
    assert slow._full_floor == 0
    for nbytes in tail:
        assert repr(fast.request(0.0, nbytes)) == repr(
            slow.request(0.0, nbytes)
        )


@settings(max_examples=40, deadline=None)
@given(
    n_old=st.integers(min_value=1, max_value=30),
    recent=st.lists(st.tuples(st.integers(min_value=0, max_value=100), sizes),
                    min_size=1, max_size=30),
)
def test_prune_preserves_results_within_window(n_old, recent):
    """Force a prune, then check traffic inside PRUNE_WINDOW of the
    newest bucket completes exactly as on an unpruned channel."""
    window_buckets = int(BandwidthChannel.PRUNE_WINDOW / BUCKET)
    now_bucket = 10 * window_buckets
    pruned = _fresh()
    plain = _fresh()
    # Ancient traffic: far outside the window relative to now_bucket.
    for i in range(n_old):
        for ch in (pruned, plain):
            ch.request(i * BUCKET, 4_000)
    # Trigger pruning on one channel only (prune keeps >= cutoff).
    pruned._prune(now_bucket)
    assert all(i >= now_bucket - window_buckets for i in pruned._used)
    # Fresh traffic within the window of now_bucket: identical results.
    base = (now_bucket - window_buckets // 2) * BUCKET
    for bucket_off, nbytes in recent:
        at = base + bucket_off * BUCKET
        assert repr(pruned.request(at, nbytes)) == repr(
            plain.request(at, nbytes)
        )


def test_prune_trigger_threshold():
    """The map is bounded: exceeding _PRUNE_TRIGGER distinct buckets
    prunes everything older than PRUNE_WINDOW behind the newest."""
    ch = _fresh()
    trigger = BandwidthChannel._PRUNE_TRIGGER
    # Touch more distinct buckets than the trigger.  Float rounding of
    # i * BUCKET occasionally collapses adjacent indices, so overshoot
    # by 20% to guarantee the map actually crosses the threshold.
    for i in range(int(trigger * 1.2)):
        ch.request(i * BUCKET, 1)
    assert ch._horizon > 0  # a prune fired
    assert len(ch._used) <= trigger + 1  # the map stays bounded
    # Requests older than the horizon are clamped forward, not lost.
    end = ch.request(0.0, 1_000)
    assert end >= ch._horizon * BUCKET


# ---------------------------------------------------------------------------
# request() tests the prune trigger only when it opened a bucket
# ---------------------------------------------------------------------------
class _SmallWindow(BandwidthChannel):
    """Constants shrunk so that a prune fires every dozen requests, in
    the same proportion as the real ones: the trigger leaves room for
    the window plus everything the traffic below books ahead of it."""

    PRUNE_WINDOW = 2 * BUCKET
    _PRUNE_TRIGGER = 12


class _TestsEveryCall(_SmallWindow):
    """``request`` as it was before the size test moved behind
    ``used == 0.0``: the oracle."""

    def request(self, at, nbytes, latency=0.0):
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.bytes_moved += nbytes
        transfer = nbytes / self.bandwidth
        self.busy_time += transfer
        if nbytes == 0:
            return at + latency
        bucket = self.bucket
        cap = self._capacity
        used_map = self._used
        idx = int(at / bucket)
        if idx < self._horizon:
            idx = self._horizon
        full_floor = self._full_floor
        if idx < full_floor:
            idx = full_floor
            extends_floor = True
        else:
            extends_floor = idx == full_floor
        used = used_map.get(idx, 0.0)
        free = cap - used
        if free >= nbytes:
            new_used = used + nbytes
            used_map[idx] = new_used
            end = bucket * (idx + new_used / cap)
            if extends_floor and new_used >= cap:
                self._full_floor = idx + 1
            if len(used_map) > self._PRUNE_TRIGGER:
                self._prune(idx + 1)
            floor_end = at + transfer
            return (end if end > floor_end else floor_end) + latency
        remaining = float(nbytes)
        end = at
        while remaining > 0:
            used = used_map.get(idx, 0.0)
            free = cap - used
            if free > 0:
                take = min(free, remaining)
                new_used = used + take
                used_map[idx] = new_used
                remaining -= take
                end = bucket * (idx + new_used / cap)
                if extends_floor and new_used >= cap:
                    self._full_floor = idx + 1
                elif extends_floor:
                    extends_floor = False
            elif extends_floor:
                self._full_floor = idx + 1
            idx += 1
        if len(used_map) > self._PRUNE_TRIGGER:
            self._prune(idx)
        floor_end = at + transfer
        return (end if end > floor_end else floor_end) + latency


# One request: the arrival front moves 1-3 buckets, the request lands
# up to 2 buckets either side of it (out of order both ways), and it
# carries nothing, part of a bucket, or up to 2.5 buckets.
_steps = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-20, max_value=29),  # tenths of a bucket
        st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=9_999),
            st.integers(min_value=10_000, max_value=25_000),
        ),
    ),
    min_size=80,
    max_size=160,
)


@settings(max_examples=100, deadline=None)
@given(steps=_steps)
def test_prune_test_on_growth_equals_test_on_every_call(steps):
    new = _SmallWindow(BW, bucket=BUCKET)
    old = _TestsEveryCall(BW, bucket=BUCKET)
    front = 2
    for advance, tenths, nbytes in steps:
        front += advance
        at = (front + tenths / 10) * BUCKET
        assert repr(new.request(at, nbytes, 1e-6)) == repr(
            old.request(at, nbytes, 1e-6)
        )
        assert new._used == old._used
        assert new._horizon == old._horizon
        assert new._full_floor == old._full_floor
        # The invariant the equivalence rests on (resources.py, next to
        # the constants): only growth can cross the trigger.
        assert len(new._used) <= new._PRUNE_TRIGGER
        # request() reads a bucket by subscript, which puts a missing
        # one in the map at 0.0, and then books it: no bucket holds
        # 0.0, prunes among the requests or not, and the map stays a
        # defaultdict.
        assert 0.0 not in new._used.values()
        assert isinstance(new._used, defaultdict)
    # A bucket is reachable from at most 5 positions of the front, so
    # 65 transfers open more than 12 buckets: prunes fired.
    if sum(1 for step in steps if step[2]) >= 65:
        assert new._horizon > 0

