"""Cluster membership has one writer, and the cluster's state has an
inventory.

``repro.cluster.membership.Membership`` owns the ring, the down set,
every shard's lifecycle state and the one in-flight migration.  The
structural test walks the syntax of every module of ``repro`` and fails
on any other writer of those — the state machine stays one state
machine — and on a return of the draining write gate it replaced.  The
inventory test holds ``docs/simulation-model.md`` to a row, and one
writer, for every field of the cluster, its shards and its membership.
"""

import ast
import re
from pathlib import Path

import repro.cluster as cluster_pkg
import repro.cluster.errors as errors
from repro.cluster.admission import AdmissionController
from repro.cluster.health import HealthConfig
from repro.cluster.rebalance import Migration
from repro.cluster.router import ClusterConfig, PrismCluster
from repro.cluster.shard import Shard

SRC = Path(cluster_pkg.__file__).resolve().parents[1]  # src/repro
OWNER = "cluster/membership.py"

LIFECYCLE = {"STATE_UP", "STATE_DOWN", "STATE_DRAINING", "STATE_RETIRED"}
MEMBERSHIP_ATTRS = {"ring", "migration", "_migration"}
DOWN_NAMES = {"down", "_down"}
SET_MUTATORS = {
    "add", "discard", "remove", "pop", "clear", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
}
# The draining write gate, and the split transitions membership replaced.
DELETED = {
    "ShardDrainingError", "start_drain", "stop_drain", "drain_rejects",
    "cluster_drain_rejects", "exclude_draining", "_start_migration",
    "_end_migration", "on_shard_failed",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _functions(tree):
    """(qualified function name, node) for every node, innermost scope."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from visit(child, inner)
    yield from visit(tree, "")


def _membership_writes():
    """Every write of membership state in ``repro``, as
    (module, function, what)."""
    for module, tree in _modules():
        in_cluster = module.startswith("cluster/")
        for scope, node in _functions(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                assign = isinstance(node, ast.Assign)
                targets = node.targets if assign else [node.target]
                value = _name(node.value) if node.value is not None else None
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr == "state" and value in LIFECYCLE:
                        yield module, scope, f"state = {value}"
                    owner = _name(target.value)
                    if target.attr in DOWN_NAMES or (
                        target.attr in MEMBERSHIP_ATTRS
                        and (in_cluster or owner != "self")
                    ):
                        yield module, scope, f"{owner}.{target.attr} ="
                if isinstance(node, ast.AugAssign) and _name(node.target) in DOWN_NAMES:
                    yield module, scope, f"{_name(node.target)} op="
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in SET_MUTATORS
                    and _name(func.value) in DOWN_NAMES
                ):
                    yield module, scope, f"{_name(func.value)}.{func.attr}()"
                if _name(func) == "setattr" and node.args[1:2] and isinstance(
                    node.args[1], ast.Constant
                ) and node.args[1].value in MEMBERSHIP_ATTRS | DOWN_NAMES | {"state"}:
                    yield module, scope, f"setattr {node.args[1].value}"


def test_membership_is_the_one_writer_of_membership_state():
    outside = [
        write for write in _membership_writes()
        if write[0] != OWNER
        and write != ("cluster/shard.py", "Shard.__init__", "state = STATE_UP")
    ]
    assert outside == []
    inside = {what for module, _scope, what in _membership_writes() if module == OWNER}
    # Membership really writes each of them (the walk sees its writes).
    assert inside >= {
        "state = STATE_DRAINING", "state = STATE_RETIRED", "state = STATE_DOWN",
        "self.ring =", "self.migration =", "down.add()",
    }


def test_the_draining_write_gate_stays_deleted():
    used = set()
    for _module, tree in _modules():
        for node in ast.walk(tree):
            used.add(_name(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.add(node.name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(re.findall(r"\w+", node.value))
    assert used & DELETED == set()
    for owner, names in (
        (Shard, ("start_drain", "retire", "kill")),
        (AdmissionController, ("start_drain", "stop_drain")),
        (Migration, ("on_shard_failed",)),
        (PrismCluster, ("_start_migration", "_end_migration")),
    ):
        assert [n for n in names if hasattr(owner, n)] == [], owner.__name__
    assert not {"draining", "drain_rejects"} & set(vars(AdmissionController(0)))
    assert not hasattr(errors, "ShardDrainingError")
    assert "ShardDrainingError" not in cluster_pkg.__all__
    cluster = PrismCluster(ClusterConfig(num_shards=2))
    assert not [key for key in cluster.stats() if "drain" in key]


# ----------------------------------------------------------------------
# the cluster state inventory
# ----------------------------------------------------------------------
WRITERS = {"router", "membership", "health", "admission", "replication queue"}


def _inventory():
    doc = (SRC.parents[1] / "docs" / "simulation-model.md").read_text()
    start = doc.index("### Cluster state inventory")
    section = doc[start:doc.index("### Routed operation")]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) >= 2 and cells[0].startswith("`"):
            for field in re.findall(r"`(\w+\.\w+)`", cells[0]):
                rows[field] = cells[1]
    return rows


def test_every_cluster_field_has_a_row_and_one_writer_in_the_state_inventory():
    cluster = PrismCluster(
        ClusterConfig(num_shards=2, hot_key_threshold=4, health=HealthConfig())
    )
    fields = {
        f"{type(obj).__name__}.{name}"
        for obj in (cluster, cluster.shards[0], cluster.membership)
        for name in vars(obj)
    }
    rows = _inventory()
    assert sorted(fields - set(rows)) == []
    assert sorted(set(rows) - fields) == []  # no row for a field that is gone
    assert {field: w for field, w in rows.items() if w not in WRITERS} == {}
