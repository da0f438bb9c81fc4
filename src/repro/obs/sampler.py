"""Device-level timeseries sampling.

The benchmark driver calls :meth:`DeviceSampler.sample` at a steady
virtual-time cadence while the workload runs.  Sampling only *reads*
simulated state — ring occupancy, byte counters, buffer heads — so it
can never perturb the experiment it observes.

Per sample, for a Prism-shaped store:

* ``ssd.<i>.queue_depth`` — in-flight requests on each Value Storage's
  io_uring ring (Figure 13's device-utilization argument);
* ``ssd.<i>.utilization`` — fraction of the sampling interval the
  device's bandwidth channels were busy, from byte-counter deltas;
* ``nvm.bytes_flushed`` / ``nvm.bytes_written`` — cumulative NVM
  traffic (cache-line flushes are the PWB critical path);
* ``pwb.occupancy.mean`` / ``pwb.occupancy.max`` — ring utilization
  across the per-thread write buffers (Figure 15's sizing argument).

Stores without these attributes (the baselines) are sampled for
whatever subset they expose.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


class DeviceSampler:
    """Periodic reader of device state into a registry's timeseries."""

    def __init__(self, registry: MetricsRegistry, store: object) -> None:
        self.registry = registry
        self.store = store
        # device name -> (last virtual time, last bytes_read, last bytes_written)
        self._last: Dict[str, Tuple[float, int, int]] = {}

    def _utilization(self, name: str, device, now: float) -> Optional[float]:
        """Busy fraction of the interval since this device's last sample."""
        prev = self._last.get(name)
        cur = (now, device.bytes_read, device.bytes_written)
        self._last[name] = cur
        if prev is None:
            return None
        dt = now - prev[0]
        if dt <= 0:
            return None
        read_time = (cur[1] - prev[1]) / device.spec.read_bandwidth
        write_time = (cur[2] - prev[2]) / device.spec.write_bandwidth
        return min(1.0, (read_time + write_time) / dt)

    def sample(self, now: float) -> None:
        reg = self.registry
        storages = getattr(self.store, "storages", None)
        if storages:
            for vs in storages:
                reg.timeseries(f"ssd.{vs.vs_id}.queue_depth").append(
                    now, vs.ring.inflight_snapshot(now)
                )
                util = self._utilization(f"ssd.{vs.vs_id}", vs.ssd, now)
                if util is not None:
                    reg.timeseries(f"ssd.{vs.vs_id}.utilization").append(now, util)
        nvm = getattr(self.store, "nvm", None)
        if nvm is not None:
            reg.timeseries("nvm.bytes_flushed").append(
                now, getattr(nvm, "bytes_flushed", 0)
            )
            reg.timeseries("nvm.bytes_written").append(now, nvm.bytes_written)
        pwbs = getattr(self.store, "pwbs", None)
        if pwbs:
            occ = [pwb.utilization() for pwb in pwbs]
            # Left to right: 3.12's built-in sum() compensates rounding
            # and would move the last digit between interpreters.
            total = 0.0
            for u in occ:
                total += u
            reg.timeseries("pwb.occupancy.mean").append(now, total / len(occ))
            reg.timeseries("pwb.occupancy.max").append(now, max(occ))
