"""Span tracing at the layer boundaries, from outside the program.

:class:`Tracer` swaps the public methods of each boundary class for
recording wrappers *on the class*, before the store is built: slotted
classes reject instance patching, and hot loops bind ``obj.method`` to
a local at call time, which a class-level swap still reaches.

Each call records one span: name, op id, parent span, host
``perf_counter_ns`` at entry and exit, and the op's virtual clock at
entry and exit.  The virtual clock is always the clock of the VThread
that issued the op (the root span's ``thread`` argument), so time a
background thread spends inside the op's call tree costs the op host
time but no virtual time — exactly as the simulator models it.  A
layer's self time is its span minus its direct children, on both
clocks, so the self times of one op sum to its root span by
construction (telescoping).  Where the router fans out in parallel it
rewinds the op's clock between children; the children then sum to more
than the parent and the router's virtual self time goes negative by
the overlap it bought.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Dict, Iterator, List, Sequence, Tuple

# (layer, module, class, methods).  The layer is the module's name
# under ``repro``; a method is a boundary when another layer calls it.
BOUNDARIES: Sequence[Tuple[str, str, str, Sequence[str]]] = (
    ("workloads", "repro.workloads.generator", "OpStream", ("ops",)),
    ("cluster.router", "repro.cluster.router", "PrismCluster",
     ("get", "put", "scan", "delete")),
    ("cluster.admission", "repro.cluster.admission", "AdmissionController",
     ("admit", "complete")),
    ("cluster.ring", "repro.cluster.ring", "HashRing",
     ("preference_list", "lookup")),
    ("cluster.shard", "repro.cluster.shard", "Shard", ("enqueue", "pump")),
    ("cache.read_cache", "repro.cache.read_cache", "ReadCache",
     ("lookup", "admit", "invalidate", "invalidate_idx")),
    ("core.prism", "repro.core.prism", "Prism",
     ("get", "put", "scan", "delete")),
    ("index.pactree", "repro.index.pactree", "PACTree",
     ("lookup", "insert", "delete", "scan")),
    ("core.hsit", "repro.core.hsit", "HSIT",
     ("publish_location", "publish_location_word", "read_location",
      "set_svc", "clear_svc", "read_svc")),
    ("core.pwb", "repro.core.pwb", "PersistentWriteBuffer", ("append", "read")),
    ("core.svc", "repro.core.svc", "ScanAwareValueCache",
     ("lookup", "admit", "invalidate", "link_scan_chain", "process_background")),
    ("core.tcq", "repro.core.tcq", "ThreadCombiner", ("read", "read_one")),
    ("core.value_storage", "repro.core.value_storage", "ValueStorage",
     ("write_records", "append_record_sync", "read_record_raw")),
    ("storage.iouring", "repro.storage.iouring", "IOUring",
     ("submit", "submit_one", "submit_and_wait")),
    ("storage.ssd", "repro.storage.ssd", "SSDDevice",
     ("read", "read_raw", "read_async", "write", "write_raw", "write_async")),
    ("storage.nvm", "repro.storage.nvm", "NVMDevice",
     ("persist", "flush", "fence", "publish_word")),
)
LAYERS: Tuple[str, ...] = tuple(b[0] for b in BOUNDARIES)
# A parentless span of one of these is a client operation.
_OP_CLASSES = ("Prism", "PrismCluster")

_FIELDS = (("name", "H"), ("parent", "l"), ("op", "l"),
           ("h0", "q"), ("h1", "q"), ("v0", "d"), ("v1", "d"))


class Tracer:
    """Records spans into preallocated arrays while ``on`` is true."""

    def __init__(self, capacity: int = 1 << 18) -> None:
        self.on = False
        self.names: List[str] = []  # span name by id: "Class.method"
        self.layer_of: List[str] = []  # layer by span-name id
        self.is_op: List[bool] = []  # by span-name id: a client op's method
        self._originals: List[Tuple[type, str, object]] = []
        self.cap = capacity
        for field, code in _FIELDS:
            setattr(self, field, array(code, bytes(capacity * array(code).itemsize)))
        self.n = 0  # spans recorded
        self.cur = -1  # open span (the next span's parent)
        self.ops = 0  # client operations seen
        self.op_thread = None  # the VThread that issued the open op

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for layer, module, cls_name, methods in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                name_id = len(self.names)
                self.names.append(f"{cls_name}.{method}")
                self.layer_of.append(layer)
                self.is_op.append(cls_name in _OP_CLASSES)
                if inspect.isgeneratorfunction(original):
                    patched = self._wrap_generator(original, name_id)
                else:
                    patched = self._wrap(original, name_id, self.is_op[name_id])
                self._originals.append((cls, method, original))
                setattr(cls, method, patched)

    def uninstall(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def _grow(self) -> None:
        for field, _code in _FIELDS:
            column = getattr(self, field)
            column.extend(bytes(self.cap * column.itemsize))
        self.cap *= 2

    def _wrap(self, fn, name_id: int, is_op: bool):
        tr = self
        clock = time.perf_counter_ns
        # Client ops all take the issuing VThread as ``thread``.
        thread_pos = (
            list(inspect.signature(fn).parameters).index("thread") if is_op else -1
        )

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = tr.n
            if i >= tr.cap:
                tr._grow()
            tr.n = i + 1
            parent = tr.cur
            if parent >= 0:
                thread = tr.op_thread
            else:
                # A new call tree.  Only a client op has a clock that
                # means anything to the op-latency ledger.
                thread = None
                if is_op:
                    tr.ops += 1
                    if len(args) > thread_pos:
                        thread = args[thread_pos]
                    else:
                        thread = kwargs.get("thread")
                tr.op_thread = thread
            tr.name[i] = name_id
            tr.parent[i] = parent
            tr.op[i] = tr.ops - 1
            if thread is not None:
                tr.v0[i] = thread.now
            tr.cur = i
            tr.h0[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tr.h1[i] = clock()
                if thread is not None:
                    tr.v1[i] = thread.now
                tr.cur = parent

        return wrapper

    def _wrap_generator(self, fn, name_id: int):
        """One span per item drawn, credited to the op about to run."""
        tr = self
        clock = time.perf_counter_ns

        def timed(gen) -> Iterator[object]:
            while True:
                i = tr.n
                if i >= tr.cap:
                    tr._grow()
                tr.n = i + 1
                tr.name[i] = name_id
                tr.parent[i] = -1
                tr.op[i] = tr.ops
                tr.h0[i] = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    tr.h1[i] = clock()
                    return
                tr.h1[i] = clock()
                yield item

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return timed(gen) if tr.on else gen

        return wrapper

    # -- results ---------------------------------------------------------
    def op_latencies(self) -> List[float]:
        """Virtual duration of every client op's root span, in order."""
        is_op = self.is_op
        return [
            self.v1[i] - self.v0[i]
            for i in range(self.n)
            if self.parent[i] < 0 and is_op[self.name[i]]
        ]

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """layer -> (calls, host self seconds, virtual self seconds)."""
        n = self.n
        host_self = [0] * n
        virt_self = [0.0] * n
        parent = self.parent
        for i in range(n):
            host = self.h1[i] - self.h0[i]
            virt = self.v1[i] - self.v0[i]
            host_self[i] += host
            virt_self[i] += virt
            p = parent[i]
            if p >= 0:
                host_self[p] -= host
                virt_self[p] -= virt
        totals = {layer: [0, 0, 0.0] for layer in LAYERS}
        layer_of = self.layer_of
        name = self.name
        for i in range(n):
            row = totals[layer_of[name[i]]]
            row[0] += 1
            row[1] += host_self[i]
            row[2] += virt_self[i]
        return {k: (c, h / 1e9, v) for k, (c, h, v) in totals.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i in range(self.n):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "layer": self.layer_of[self.name[i]],
                    "op": self.op[i],
                    "parent": self.parent[i],
                    "host_ns": [self.h0[i], self.h1[i]],
                    "vt_s": [self.v0[i], self.v1[i]],
                }))
                fh.write("\n")
