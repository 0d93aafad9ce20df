"""Spans and counters recorded from outside the library.

The tracer replaces public functions on the ``mpf`` modules that call
them (a caller looks a function up by name in its own module, so the
wrapper must sit wherever the name was imported).  Each wrapped call
becomes a span: name, start, end, parent span and op id, kept in flat
arrays and written out when the run ends.  A layer's self time is a
span's duration minus the time its direct child spans cover.  Calls too
frequent to record one by one are counted only.

Span names are the ROADMAP layer names, so in-library stats can reuse
them later.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import Counter

# (span name, module that defines the function, attribute).  The wrapper
# is installed in every mpf module that holds the same function object.
SPANS = [
    ("cli", "mpf.cli", "main"),
    ("boolfun", "mpf.boolfun", "table_from_json"),
    ("boolfun", "mpf.boolfun", "pack_bits"),
    ("boolfun", "mpf.boolfun", "TruthTable.bit_array"),
    ("gf2n.field", "mpf.gf2n", "field_from_json"),
    ("gf2n.mul", "mpf.gf2n", "_FieldTables.mul"),
    ("planar.load", "mpf.planar", "function_from_json"),
    ("planar.perm", "mpf.planar", "is_modified_planar_perm"),
    ("planar.components", "mpf.planar", "is_modified_planar_components"),
    ("planar.component", "mpf.planar", "component_uv"),
    ("planar.component", "mpf.planar", "component_mv"),
    ("planar.do_to_table", "mpf.planar", "do_to_table"),
    ("transforms.bent4", "mpf.transforms", "bent4_witnesses"),
    ("transforms.transform", "mpf.transforms", "transform_U"),
    ("transforms.transform", "mpf.transforms", "transform_V"),
    ("transforms.twist", "mpf.transforms", "twisted_input_mv"),
    ("transforms.twist", "mpf.transforms", "twisted_input_uv"),
    ("transforms.fwht", "mpf.transforms", "fwht"),
    ("transforms.flat", "mpf.transforms", "is_flat"),
    ("rds.graph", "mpf.rds", "graph_of"),
    ("rds.bruteforce", "mpf.rds", "rds_verify_bruteforce"),
    ("rds.characters", "mpf.rds", "rds_verify_characters"),
    ("search.run", "mpf.search", "run_search"),
    ("search.decode", "mpf.search", "candidate_function"),
]

# Called up to q^3 times per op: counted, not timed.
COUNTED = [("rds.characters.evals", "mpf.rds", "character_eval")]

LAYERS = ("gf2n", "boolfun", "transforms", "planar", "rds", "search", "cli")

OP = "op"
TABLES = "gf2n.tables"


def _fwht_work(args, result, counters):
    """Butterflies and int64 bytes read plus written, computed from the shape."""
    shape = result.shape
    size = shape[0]
    elements = result.size
    stages = size.bit_length() - 1
    counters["transforms.fwht.butterflies"] += elements // 2 * stages
    counters["transforms.fwht.bytes"] += 16 * elements * stages


def _perm_directions(args, result, counters):
    """Directions the perm route tested: the witness, or q - 1 on a pass."""
    if result.is_planar:
        counters["planar.perm.directions"] += args[0].size - 1
    else:
        counters["planar.perm.directions"] += result.witness_a


def _search_counts(args, result, counters):
    counters["search.examined"] += result.examined
    counters["search.passed"] += result.passing


OBSERVERS = {
    "transforms.fwht": _fwht_work,
    "planar.perm": _perm_directions,
    "search.run": _search_counts,
}


def _resolve(module_name: str, attr: str):
    """(owner, name, function) for 'func' or 'Class.method'; None if gone."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """In-memory span log plus counters; install() patches, restore() undoes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = [-1]
        self.n_ops = 0  # ops begun so far; the next op's id
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op[0])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def _timed(self, fn, name: str):
        nid = self.name_id(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, op = self.start, self.end, self._stack, self.current_op
        counters = self.counters

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, counters)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "mpf" or key.startswith("mpf.")]
        for kind, table in ((self._timed, SPANS), (self._counted, COUNTED)):
            for name, module_name, attr in table:
                found = _resolve(module_name, attr)
                if found is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                owner, fname, fn = found
                wrapper = kind(fn, name)
                holders = [owner] + [m for m in modules if m is not owner and getattr(m, fname, None) is fn]
                for holder in holders:
                    self._patches.append((holder, fname, fn))
                    setattr(holder, fname, wrapper)

    def restore(self) -> None:
        for holder, fname, fn in reversed(self._patches):
            setattr(holder, fname, fn)
        self._patches.clear()

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def self_times(self):
        """(name id, op id, duration, self time) per span, as numpy arrays."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return name, op, dur, dur - covered
