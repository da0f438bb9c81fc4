"""Operation-trace capture and replay.

Production evaluations (like the paper's Nutanix run, §7.5) replay
recorded traces rather than synthetic mixes.  This module provides the
plumbing: record the operations any workload performs into a portable
text format, then replay the file against any store — including one
with a different engine, for apples-to-apples comparisons on the exact
same operation sequence.

Format: one op per line, tab-separated, keys/values hex-encoded::

    put\\t6b6579\\t76616c7565
    get\\t6b6579
    scan\\t6b6579\\t50
    delete\\t6b6579
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from repro.workloads.generator import Op

PathLike = Union[str, Path]


class TraceWriter:
    """Append operations to a trace file (or any text stream)."""

    def __init__(self, target: Union[PathLike, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._stream: IO[str] = target  # type: ignore[assignment]
            self._owned = False
        else:
            self._stream = open(target, "w", encoding="ascii")
            self._owned = True
        self.ops_written = 0

    def record(self, op: Op) -> None:
        if op.kind in ("insert", "update", "put"):
            assert op.value is not None
            line = f"put\t{op.key.hex()}\t{op.value.hex()}"
        elif op.kind == "read":
            line = f"get\t{op.key.hex()}"
        elif op.kind == "scan":
            line = f"scan\t{op.key.hex()}\t{op.scan_length}"
        elif op.kind == "delete":
            line = f"delete\t{op.key.hex()}"
        else:
            raise ValueError(f"cannot record op kind: {op.kind}")
        self._stream.write(line + "\n")
        self.ops_written += 1

    def record_all(self, ops: Iterable[Op]) -> int:
        before = self.ops_written
        for op in ops:
            self.record(op)
        return self.ops_written - before

    def close(self) -> None:
        if self._owned:
            self._stream.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(source: Union[PathLike, IO[str]]) -> Iterator[Op]:
    """Parse a trace back into :class:`Op` objects (lazy)."""
    if hasattr(source, "read"):
        lines: Iterable[str] = source  # type: ignore[assignment]
        close = False
    else:
        lines = open(source, "r", encoding="ascii")
        close = True
    try:
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            kind = parts[0]
            if kind == "put" and len(parts) == 3:
                yield Op("update", bytes.fromhex(parts[1]), bytes.fromhex(parts[2]))
            elif kind == "get" and len(parts) == 2:
                yield Op("read", bytes.fromhex(parts[1]))
            elif kind == "scan" and len(parts) == 3:
                yield Op("scan", bytes.fromhex(parts[1]), scan_length=int(parts[2]))
            elif kind == "delete" and len(parts) == 2:
                yield Op("delete", bytes.fromhex(parts[1]))
            else:
                raise ValueError(f"malformed trace line {lineno}: {line!r}")
    finally:
        if close:
            lines.close()  # type: ignore[union-attr]


def replay(store, ops: Iterable[Op], thread) -> int:
    """Apply a trace to a store as one closed-loop client (``thread``);
    returns the operation count.  An op kind the driver does not know
    raises ``ValueError``."""
    from repro.bench.runner import closed_loop

    return closed_loop(store, [thread], [iter(ops)]).ops


def capture_workload(
    spec,
    num_ops: int,
    num_keys: int,
    target: Union[PathLike, IO[str]],
    value_size: int = 1024,
    theta: float = 0.99,
    seed: int = 0,
) -> int:
    """Generate a workload and persist it as a trace in one step."""
    from repro.workloads.generator import OpStream

    stream = OpStream(spec, num_keys, value_size=value_size, theta=theta, seed=seed)
    with TraceWriter(target) as writer:
        return writer.record_all(stream.ops(num_ops))
