"""Marker ratchet: lines under ``src/repro`` that name a hand-inlined,
fused or fast-path copy of code that lives elsewhere.  Each is a second
copy that has to be proven equal to the plain path; the count may
fall, never rise.  Lower ``LIMIT`` when a change removes one."""

import re

from tests.census import ROOT

MARKER = re.compile(r"\b(inlined|fast path|fused)\b", re.IGNORECASE)
LIMIT = 18


def test_marker_lines_do_not_grow():
    marked = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if MARKER.search(line)
    ]
    assert len(marked) <= LIMIT, "\n".join(marked)
