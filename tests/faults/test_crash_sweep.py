"""The crash-exploration engine: one loop, every scenario.

Every registered scenario — single store, tiered store, cluster, gray
cluster, the three rebalance roles — goes through the same
parametrised sweep test; the rest pins the engine's own behaviour
(discovery, unreached labels, idempotent recovery, the CLI) and proves
the sweep can *fail* when the bug it exists for is put back.
"""

from pathlib import Path

import pytest

from repro.cluster.crash_sweep import SCENARIOS
from repro.core.prism import Prism
from repro.faults.crash_sweep import CrashSweep, default_ops, main

# Protocol points that any non-trivial workload must reach.
CORE_WORKLOAD_LABELS = {
    "put.allocated",
    "put.appended",
    "put.done",
    "pwb.append.pre",
    "pwb.append.persisted",
    "hsit.publish.pre",
    "hsit.publish.dirty",
    "hsit.publish.flushed",
    "hsit.publish.done",
}
CORE_RECOVERY_LABELS = {
    "recover.index_done",
    "recover.walked",
    "recover.pre_publish",
    "recover.published",
    "recover.flushed",
    "recover.done",
}
TIER_LABELS = {
    "tier.demote.pre_publish",
    "tier.demote.published",
    "tier.promote.pre_publish",
    "tier.promote.published",
}
WRITEBACK_LABELS = {"writeback.pre_publish", "writeback.published"}
# scenario → (labels the workload must reach, recovery labels it must
# reach, the member the report must name)
EXPECT = {
    "store": (CORE_WORKLOAD_LABELS, CORE_RECOVERY_LABELS, None),
    "tiered": (CORE_WORKLOAD_LABELS | TIER_LABELS, CORE_RECOVERY_LABELS, None),
    "cluster": (CORE_WORKLOAD_LABELS, set(), 0),
    "gray": (CORE_WORKLOAD_LABELS, set(), 0),
    "rebalance-source": (CORE_WORKLOAD_LABELS, set(), 0),
    "rebalance-target": (CORE_WORKLOAD_LABELS, set(), 3),
    "rebalance-leaving": (CORE_WORKLOAD_LABELS, set(), 1),
    "writeback": (CORE_WORKLOAD_LABELS | WRITEBACK_LABELS, CORE_RECOVERY_LABELS, None),
    "mirrored": (CORE_WORKLOAD_LABELS, CORE_RECOVERY_LABELS, None),
}


@pytest.fixture(scope="module")
def sweep() -> CrashSweep:
    return CrashSweep(SCENARIOS["store"], default_ops(160))


def test_every_scenario_has_expectations():
    assert sorted(EXPECT) == sorted(SCENARIOS)


def test_docs_scenario_table_lists_the_registry():
    """The "Crash-sweep scenarios" table in docs/simulation-model.md
    has one row per registered scenario, in sorted order."""
    doc = Path(__file__).parents[2] / "docs" / "simulation-model.md"
    section = doc.read_text().split("### Crash-sweep scenarios", 1)[1]
    rows = [
        line.split("|")[1].strip().strip("`")
        for line in section.split("\n\nThose rows", 1)[0].splitlines()
        if line.startswith("| `")
    ]
    assert rows == sorted(SCENARIOS)


def test_ci_and_the_census_sweep_every_scenario():
    """CI's crash-sweep matrix and the census's product inputs name
    each registered scenario once."""
    from tests.census import CRASH_SWEEPS

    ci = (Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml").read_text()
    job = ci.split("\n  crash-sweep:\n", 1)[1].split("    steps:", 1)[0]
    matrix = [line.strip()[2:] for line in job.splitlines() if line.strip().startswith("- ")]
    assert sorted(matrix) == sorted(CRASH_SWEEPS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_label_keeps_the_contract(name):
    """Crash at every label the scenario's default workload reaches —
    recovery-phase labels included — keep going, and audit: every
    label fires, nothing acknowledged is lost, nothing is torn, the
    scenario's invariants hold, and the report names who was watched."""
    workload, recovery, watched = EXPECT[name]
    report = CrashSweep(SCENARIOS[name], default_ops()).run()
    assert report.outcomes, "sweep found nothing to crash"
    assert not report.failures(), report.summary()
    assert report.ok
    assert workload <= set(report.workload_labels)
    assert recovery <= set(report.recovery_labels)
    assert all(count >= 1 for count in report.workload_labels.values())
    # every discovered label was actually exercised, in its own phase
    covered = {(o.label, o.during_recovery) for o in report.outcomes}
    assert covered == (
        {(label, False) for label in report.workload_labels}
        | {(label, True) for label in report.recovery_labels}
    )
    assert all(o.fired and o.keys_checked > 0 for o in report.outcomes)
    assert report.watched == watched
    if watched is not None:
        assert f"on shard {watched}," in report.summary()


def test_discovery_splits_workload_and_recovery_labels(sweep):
    workload, recovery = sweep.discover()
    assert CORE_WORKLOAD_LABELS <= set(workload)
    assert CORE_RECOVERY_LABELS <= set(recovery)
    assert all(count >= 1 for count in workload.values())


def test_unreached_label_reports_not_fired(sweep):
    outcome = sweep.verify("put.allocated", occurrence=10**9)
    assert not outcome.fired
    assert not outcome.ok


def test_crash_during_recovery_is_idempotent(sweep):
    # Die inside the recovery walk, then recover again from the
    # half-recovered state (and once more when the engine settles).
    for label in sorted(CORE_RECOVERY_LABELS):
        outcome = sweep.verify(label, during_recovery=True)
        assert outcome.fired, label
        assert outcome.ok, (label, outcome.violations)


def test_sweep_fails_when_retirements_survive_a_crash(monkeypatch):
    """The sweep can fail: let the epoch manager alone outlive the
    restart (PR 17's bug — its retirements were DRAM nobody wiped) and a
    pre-crash retirement frees an HSIT entry that recovery already
    reclaimed and a later put reused — the store scenario must report
    it, and must terminate doing so."""
    attach = Prism._attach

    def attach_keeping_epoch(self):
        survivor = getattr(self, "epoch", None)
        attach(self)
        if survivor is not None:
            self.epoch = self.svc.epoch = survivor

    monkeypatch.setattr(Prism, "_attach", attach_keeping_epoch)
    report = CrashSweep(SCENARIOS["store"], default_ops()).run()
    assert not report.ok
    assert report.summary().endswith("FAIL")
    failed = {o.label for o in report.failures() if not o.during_recovery}
    assert failed, "no first-occurrence workload label caught the double free"
    told = [
        v
        for o in report.failures()
        if not o.during_recovery
        for v in o.violations
    ]
    assert any("I1: HSIT entry" in v or "read back as" in v for v in told), told


def test_failed_crash_handling_fails_the_label_not_the_sweep(monkeypatch):
    from repro.core.hsit import FreeListError
    from repro.faults.crash_sweep import StoreScenario

    def broken_recover(self, store):
        raise FreeListError("free list revisits entry 7")

    sweep = CrashSweep(SCENARIOS["store"], default_ops(60))
    sweep.discover()  # with recovery still working
    monkeypatch.setattr(StoreScenario, "on_crash", broken_recover)
    outcome = sweep.verify("put.done")
    assert outcome.fired and not outcome.ok
    assert "crash handling failed: FreeListError" in outcome.violations[0]


def test_cli_smoke(capsys):
    assert main(["--ops", "120"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


@pytest.mark.parametrize(
    "flags, headline",
    [
        (["--scenario", "tiered"], "crash sweep:"),
        (["--scenario", "cluster"], "cluster crash sweep:"),
        (["--scenario", "gray"], "cluster crash sweep:"),
        (["--scenario", "rebalance-target"], "[role=target] cluster crash sweep:"),
    ],
)
def test_cli_flags_select_scenarios(capsys, flags, headline):
    """One ``main``: every scenario honours --ops/--keys/--seed/--fuzz."""
    common = ["--ops", "120", "--keys", "30", "--seed", "5", "--fuzz", "3"]
    assert main(flags + common) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(headline)
    assert lines[-1] == "PASS"
    # "<N> [workload] labels[, <R> recovery labels] ..., <C> ... injected":
    # the --fuzz draws come on top of one crash per discovered label.
    counts = [int(w) for w in lines[0].replace(",", "").split() if w.isdigit()]
    labels = counts[0] + (counts[1] if "recovery labels" in lines[0] else 0)
    assert counts[-1] == labels + 3


def test_cli_names_every_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "no-such-scenario"])
    err = capsys.readouterr().err
    assert all(name in err for name in SCENARIOS)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fuzzed_occurrences_all_keep_the_contract(name):
    report = CrashSweep(SCENARIOS[name], default_ops(400)).run(fuzz=30, seed=3)
    assert report.ok, report.summary()
    labels = len(report.workload_labels) + len(report.recovery_labels)
    assert len(report.outcomes) == labels + 30
    assert max(o.occurrence for o in report.outcomes) > 1
