"""Structure: each fact is recorded once.

A discrete happening is an event (its count is the number of events of
its kind); a count with no event is an attribute its owner's
``stats()`` reports.  So outside ``repro.obs`` the only registry
counters are the ``read.*`` trace counters of the point-read path, the
only gauge call is ``finish_run``'s snapshot of the run's gauges, and
the serving layer holds no registry at all."""

import re
from pathlib import Path

import repro
from repro.cluster.health import HealthConfig
from repro.cluster.router import ClusterConfig, PrismCluster
from repro.sim.vthread import VThread

SRC = Path(repro.__file__).parent


def _registry_calls():
    """``(path under repro/, code)`` of every line outside ``repro/obs``
    that asks a registry for a counter or a gauge."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        for line in path.read_text().splitlines():
            code = line.strip()
            if not code.startswith("#") and re.search(r"\.(counter|gauge)\(", code):
                found.append((rel, code))
    return found


def test_counters_and_gauges_are_only_the_trace_counters_and_the_run_snapshot():
    calls = _registry_calls()
    trace = sorted(code for rel, code in calls if rel == "core/prism.py")
    assert trace == [
        f'm.counter("read.{name}").inc()'
        for name in ("cache_hits", "cache_misses", "pwb_hits", "svc_hits", "svc_misses")
    ]
    assert [call for call in calls if call[0] != "core/prism.py"] == [
        ("bench/runner.py", "registry.gauge(name).set(value)")
    ]


def test_the_serving_layer_holds_no_registry():
    cluster = PrismCluster(ClusterConfig(num_shards=2, health=HealthConfig()))
    thread = VThread(1, cluster.clock)
    for i in range(20):
        cluster.put(b"k%02d" % i, b"v", thread)
    cluster.add_shard(at=thread.now, bandwidth=1.0)  # too slow to finish
    migration = cluster.membership.migration
    assert migration is not None
    monitor = cluster._health
    for obj in (cluster, monitor, *monitor.breakers.values(), migration):
        assert not hasattr(obj, "metrics"), type(obj).__name__
