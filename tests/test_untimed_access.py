"""Untimed-access guard, the tier-1 half of the census's untimed-access
section: every call under ``src/repro`` that hands a literal ``None``
to a ``thread`` parameter moves bytes nobody pays for, so the function
it sits in must carry a verdict in ``tests/census.py`` ``UNTIMED``
(priced elsewhere, audit or recovery).  ``python3.12 -m
tests.census`` lists the sites the inputs reach, a default left unset
included."""

import ast
from typing import Dict, Iterator, List, Set, Tuple

from tests.census import SRC, UNTIMED, UNTIMED_KINDS, _module_name


def _thread_positions() -> Dict[str, Set[int]]:
    """Function name -> the argument positions (``self`` not counted)
    at which some function of that name under ``src/repro`` takes
    ``thread``."""
    positions: Dict[str, Set[int]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [a.arg for a in node.args.posonlyargs + node.args.args]
                if names[:1] in (["self"], ["cls"]):
                    names = names[1:]
                if "thread" in names:
                    positions.setdefault(node.name, set()).add(names.index("thread"))
    return positions


def _scopes(
    node: ast.AST, scope: str = "", prefix: str = ""
) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname of the enclosing function, node) for every node below
    ``node``; ``prefix`` is what a definition's name is qualified by."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _scopes(child, scope, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + child.name
            yield from _scopes(child, qual, f"{qual}.<locals>.")
        else:
            yield scope, child
            yield from _scopes(child, scope, prefix)


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def literal_none_sites() -> List[Tuple[str, str]]:
    """(``module:qualname`` of the enclosing function, ``path:line``)
    of every call under ``src/repro`` that passes ``None`` as a
    ``thread``, by position or by keyword."""
    positions = _thread_positions()
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for qual, node in _scopes(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            by_position = any(i < len(node.args) and _is_none(node.args[i])
                              for i in positions.get(name, ()))
            by_keyword = any(kw.arg == "thread" and _is_none(kw.value)
                             for kw in node.keywords)
            if by_position or by_keyword:
                rel = path.relative_to(SRC.parent.parent).as_posix()
                sites.append((f"{module}:{qual}", f"{rel}:{node.lineno}"))
    return sites


def test_every_literal_none_thread_has_a_verdict():
    judged = {name for names in UNTIMED.values() for name in names}
    bare = [f"{where} ({name})" for name, where in literal_none_sites()
            if name not in judged]
    assert not bare, f"untimed device access with no verdict in UNTIMED: {bare}"


def test_the_walk_finds_the_recovery_reads():
    assert ("repro.core.pwb:PersistentWriteBuffer.peek"
            in {name for name, _ in literal_none_sites()})


def test_every_verdict_names_its_kind():
    """A device read is paid on a thread, or it is one of these three;
    an untimed read that belongs on a thread gets one, not a verdict."""
    assert UNTIMED_KINDS == ("priced elsewhere", "audit", "recovery")
    assert all(reason.startswith(UNTIMED_KINDS) for reason in UNTIMED)
