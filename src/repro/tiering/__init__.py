"""Hot/cold tiered data placement (ISSUE 9, PrismDB direction).

Prism's thesis is matching data to heterogeneous devices; this package
extends Value Storage from one uniform flash tier to two: the fast
low-latency SSDs the paper evaluates, plus a pool of cheap
high-capacity QLC cold SSDs.  A per-key :class:`TemperatureTracker`
(count-min frequency sketch + an ops-counted recency clock) classifies
records; GC and reclamation consult it to demote cold survivors onto
the cold tier, and re-access promotes values back through the normal
write path.  :class:`TierManager` is the one placement policy: every
tier decision and every tier move, the promotion queue, and the
``tier_*`` keys of ``stats()``.
"""

from repro.tiering.temperature import TemperatureTracker
from repro.tiering.placement import TierManager

__all__ = ["TemperatureTracker", "TierManager"]
