"""Layer tracing from outside: rebind trivol's public functions, record spans.

Each traced function is rebound in every trivol module namespace that
holds it, so calls between modules (``trilinear`` calling ``orient``) and
inside a module (``closed_form_volume`` calling ``omega_normalize``) both
go through the wrapper. Nothing under ``src/`` changes; the originals are
restored when the ``installed`` block exits.

A span is (name, start, end, parent span, op id). Spans are kept in
memory and written out once, after the timed loop.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from math import comb
from pathlib import Path
from time import perf_counter_ns


def _count_facets(counts: Counter, args: tuple, result: tuple) -> None:
    pts, facets = result
    counts["oracle.hulls"] += 1
    counts["oracle.facets"] += len(facets)
    # a brute-force scan tests every 4-subset of the deduplicated points
    counts["oracle.subsets"] += comb(len(pts), 4)


def _count_hull_points(counts: Counter, args: tuple, result: object) -> None:
    counts["geometry.hull_volume_3d.calls"] += 1
    counts["geometry.hull_volume_3d.points"] += len({tuple(p) for p in args[0]})


# layer (trivol module) -> functions timed at its boundary
TARGETS = {
    "cli": ("main", "cmd_sweep"),
    "rational": ("parse_rational", "format_rational"),
    "trilinear": (
        "omega_normalize",
        "closed_form_volume",
        "hull_volume_formula",
        "pipeline_volume",
        "build_Q",
        "build_R",
        "integrate_cross_sections",
        "extreme_points",
    ),
    "geometry": ("orient", "tetra_volume", "facet_normal_set", "support", "hull_volume_3d"),
    "mixed_volume": ("mixed_volume_against", "minkowski_sum_vertices", "fit_cubic", "volume_cubic"),
    "oracle": ("hull_facets_4d", "hull_volume_4d"),
}
OBSERVERS = {
    "oracle.hull_facets_4d": _count_facets,
    "geometry.hull_volume_3d": _count_hull_points,
}
OP = "op"


class Tracer:
    """In-memory span store; records only while an op is open."""

    def __init__(self) -> None:
        self.names: list = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list = []
        self.op = -1
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        self.op = op_id
        idx = self.begin(OP)
        try:
            yield
        finally:
            self.end(idx)
            self.op = -1

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target in every trivol namespace that holds it."""
        modules = [importlib.import_module("trivol")] + [
            importlib.import_module(f"trivol.{layer}") for layer in TARGETS
        ]
        undo = []
        try:
            for layer, names in TARGETS.items():
                home = importlib.import_module(f"trivol.{layer}")
                for fname in names:
                    original = getattr(home, fname)
                    traced = self.wrap(f"{layer}.{fname}", original)
                    for mod in modules:
                        if mod.__dict__.get(fname) is original:
                            setattr(mod, fname, traced)
                            undo.append((mod, fname, original))
            yield self
        finally:
            for mod, fname, original in reversed(undo):
                setattr(mod, fname, original)

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(span) + "\n")

    def metrics(self, names: list, n_ops: int, ms_scale: float = 1.0) -> dict:
        """Per-op means of the named per-layer metrics.

        Times are multiplied by ``ms_scale`` (run.py passes the run's
        reference-speed factor).

        ``<layer>.<function>.total_ms``, ``.self_ms`` and ``.calls_per_op``
        come from spans; a span's self time is its duration minus its direct
        children's. ``<layer>.self_ms`` sums a layer's function self times.
        Layers that did not run report 0. ``trace_overhead`` needs an
        untraced run and is left to the caller.
        """
        children = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[i] - self.starts[i]
        total: Counter = Counter()
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            self_ns[name] += dur - children[i]
            calls[name] += 1
        layer_self: Counter = Counter()
        for name, ns in self_ns.items():
            layer_self[name.partition(".")[0]] += ns
        c = self.counts
        special = {
            "oracle.hull_volume_4d.share_of_op": _ratio(total["oracle.hull_volume_4d"], total[OP]),
            "oracle.facets_per_hull": _ratio(c["oracle.facets"], c["oracle.hulls"]),
            "oracle.facet_yield": _ratio(c["oracle.facets"], c["oracle.subsets"]),
            "geometry.hull_volume_3d.points_mean": _ratio(
                c["geometry.hull_volume_3d.points"], c["geometry.hull_volume_3d.calls"]
            ),
        }
        per_op = max(n_ops, 1)
        out = {}
        for metric in names:
            target, _, kind = metric.rpartition(".")
            if metric in special:
                out[metric] = special[metric]
            elif metric == "trace_overhead":
                continue
            elif kind == "self_ms" and target in TARGETS:
                out[metric] = layer_self[target] * ms_scale / 1e6 / per_op
            elif kind == "total_ms":
                out[metric] = total[target] * ms_scale / 1e6 / per_op
            elif kind == "self_ms":
                out[metric] = self_ns[target] * ms_scale / 1e6 / per_op
            elif kind == "calls_per_op":
                out[metric] = calls[target] / per_op
            else:
                raise KeyError(f"no tracer rule for per-layer metric {metric!r}")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
