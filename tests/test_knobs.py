"""Knob guard: every config field is set, somewhere, to something other
than its default, and a field only tests set says why it is a field.
A field nothing sets is a constant wearing an option's clothes; make it
a module constant or a plain default instead (``python3.12 -m
tests.census`` lists them in its knob table).  A field only tests set
is the same unless it is a calibration the tests tune, or goes with a
subsystem kept for now; ``tests/census.py`` ``TEST_KNOBS`` holds that
reason, one line per knob."""

import ast

import pytest

from tests.census import (
    CONFIG_CLASSES,
    ROOT,
    TEST_KNOBS,
    _knob_verdict,
    config_builders,
    config_knobs,
    knob_sites,
    note_sets,
)


@pytest.fixture(scope="module")
def knobs():
    return knob_sites()


def test_every_config_dataclass_is_walked():
    declared = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Policy"))
                and any("dataclass" in ast.dump(d) for d in node.decorator_list)
            ):
                declared.add(node.name)
    assert declared <= {spec.split(":")[1] for spec in CONFIG_CLASSES}


def test_every_knob_is_set_somewhere(knobs):
    unset = [knob.label for knob in knobs if not knob.sites]
    assert not unset, f"config fields nothing sets to a non-default value: {unset}"


def test_a_knob_only_tests_set_has_a_reason(knobs):
    test_only = {knob.label for knob in knobs if knob.sites and not knob.split()[0]}
    bare = sorted(test_only - set(TEST_KNOBS))
    assert not bare, f"config fields only tests set, with no reason in TEST_KNOBS: {bare}"
    stale = sorted(set(TEST_KNOBS) - test_only)
    assert not stale, f"TEST_KNOBS reasons for knobs that are not test-only: {stale}"


def _sets(source):
    knobs = config_knobs()
    tree = ast.parse(source)
    note_sets(knobs, "x.py", tree, config_builders(tree))
    return {(knob.label, site) for knob in knobs for site in knob.sites}


@pytest.mark.parametrize("source, sets", [
    ("PrismConfig(queue_depth=8)", {"PrismConfig.queue_depth"}),
    ("build_prism(queue_depth=qd)",
     {"PrismConfig.queue_depth", "KVellConfig.queue_depth"}),
    ("cfg.chunk_size = 4096", {"PrismConfig.chunk_size"}),
    ("store.config.chunk_size = 4096", {"PrismConfig.chunk_size"}),
    ("build_prism(queue_depth=cfg.queue_depth)", set()),
    ("build_prism(queue_depth=self.queue_depth)", set()),
    ("build_prism(queue_depth=queue_depth)", set()),
    ("PrismConfig(queue_depth=64)", set()),
    ("IOUring(ssd, queue_depth=4)", set()),
    ("store.enable_metrics = True", set()),
    # A dict literal's keys are keywords only where a ** expands it:
    # a table of override rows (bench/experiments.py ABLATIONS) counts,
    # a table of test scripts (tests/core/test_tcq.py _SCRIPTS) does not.
    ("ROWS = {'a': {'queue_depth': 8}}; mix_unit('Prism', **ROWS['a'])",
     {"PrismConfig.queue_depth", "KVellConfig.queue_depth"}),
    ("unit(**{'queue_depth': 8})",
     {"PrismConfig.queue_depth", "KVellConfig.queue_depth"}),
    ("SCRIPTS = {'queue_depth': (8, 2)}; play(*SCRIPTS['queue_depth'])", set()),
    # A keyword to a decorator is the decorator's own (Hypothesis's
    # strategies in tests/storage/test_nvm.py), not SlowFault.start.
    ("@given(start=floats(0.0, 1.0))\ndef test(start): pass", set()),
    # A parametrize row the test expands with ** (tests/core/test_config.py).
    ("@pytest.mark.parametrize('kw', [{'queue_depth': 8}])\n"
     "def test(kw): PrismConfig(**kw)",
     {"PrismConfig.queue_depth", "KVellConfig.queue_depth"}),
    ("@pytest.mark.parametrize('n, kw', [(1, {'queue_depth': 8})])\n"
     "def test(n, kw): PrismConfig(**kw)",
     {"PrismConfig.queue_depth", "KVellConfig.queue_depth"}),
    ("@pytest.mark.parametrize('kw', [{'queue_depth': 8}])\n"
     "def test(kw): play(kw)", set()),
])
def test_a_set_is_a_value_that_reaches_a_config_field(source, sets):
    assert _sets(source) == {(label, "x.py:1") for label in sets}


def test_a_row_cites_a_set_of_the_field_itself():
    """A keyword to the field's config class, to a builder that hands
    its ``**`` keywords to that class, or a store on a config object is
    cited before a keyword to some other function of the same name."""
    knobs = {knob.label: knob for knob in config_knobs()}
    tree = ast.parse(
        "build_prism(queue_depth=qd, num_ssds=n)\n"
        "def build_kvell(**overrides):\n"
        "    return KVell(KVellConfig(**overrides))\n"
        "build_kvell(queue_depth=1)\n"
        "LSMConfig(num_ssds=4)\n"
        "def tune(cfg):\n"
        "    cfg.num_ssds = 3\n"
    )
    note_sets(list(knobs.values()), "x.py", tree, config_builders(tree))
    cited = {
        label: _knob_verdict(knobs[label])
        for label in ("PrismConfig.queue_depth", "KVellConfig.queue_depth",
                      "LSMConfig.num_ssds", "SLMDBConfig.num_ssds")
    }
    assert cited == {
        "PrismConfig.queue_depth": "kept: set at `x.py:1`",
        "KVellConfig.queue_depth": "kept: set at `x.py:4`",
        "LSMConfig.num_ssds": "kept: set at `x.py:5`",
        "SLMDBConfig.num_ssds": "kept: set at `x.py:7`",
    }
