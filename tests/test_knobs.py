"""Knob guard: every config field is set, somewhere, to something other
than its default.  A field nothing sets is a constant wearing an option's
clothes; make it a module constant or a plain default instead
(``python3.12 -m tests.census`` lists them in its knob table)."""

import ast

from tests.census import CONFIG_CLASSES, ROOT, knob_sites


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


def test_every_knob_is_set_somewhere():
    unset = [knob.label for knob in knob_sites() if not knob.sites]
    assert not unset, f"config fields nothing sets to a non-default value: {unset}"
