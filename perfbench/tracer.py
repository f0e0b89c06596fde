"""Outside-in tracing of spraylie's six layers.

`patched` wraps every public function of each layer module by replacing
module attributes, in every spraylie module that holds a reference to it
(names imported by value such as `cli.in_AS` or `fields.kernel_basis`) and in
function defaults such as `structure_constants_from_fields(bracket=...)`.
Nothing inside the program changes.  Each call records a span; a few hot
ring methods are only counted, because a span per ring multiplication would
cost more than the multiplication.

Spans live in memory as [name, start, end, parent, op] lists until the run
writes them out.  `layer_metrics` turns one pass's spans and counts into the
per-layer metrics named in PER_LAYER.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("symexpr", "linalg", "geom", "fields", "liealg", "cli")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span recorder.  `op` tags new spans with the CLI invocation they serve."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()


# -- counts taken from returned values -------------------------------------


def _rref_cells(counts, result):
    reduced = result[0]
    counts["linalg.rref_cells"] += len(reduced) * len(reduced[0]) if reduced else 0


def _constants(counts, sc):
    counts["liealg.nonzero_constants"] += sum(1 for plane in sc.c for row in plane for q in row if q)
    counts["liealg.dense_constants"] += sc.dim**3


def _spray_terms(counts, spray):
    counts["geom.spray_terms"] += sum(g.term_count() for g in spray.G)


def _curvature_terms(counts, curv):
    counts["geom.curvature_terms"] += sum(e.term_count() for plane in curv.R1 for row in plane for e in row)


OBSERVERS = {
    "linalg.rref": _rref_cells,
    "liealg.structure_constants_from_fields": _constants,
    "geom.spray_from_metric": _spray_terms,
    "geom.curvature": _curvature_terms,
}

# (module, class, attribute, counter): ring methods that are counted, not spanned
COUNTED_METHODS = (
    ("symexpr", "CanonicalExpr", "__mul__", "symexpr.mul_calls"),
    ("symexpr", "CanonicalExpr", "__rmul__", "symexpr.mul_calls"),
    ("symexpr", "CanonicalExpr", "diff", "symexpr.diff_calls"),
)


def _spanned(tracer: Tracer, name: str, fn):
    open_span, close_span = tracer.open, tracer.close
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(idx)
        if observe is not None:
            observe(tracer.counts, result)
        return result

    return wrapper


def _counted(counts: Counter, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    return wrapper


def public_functions(layer: str, module) -> dict[str, object]:
    """Layer-qualified span name -> function, for functions the module defines."""
    return {
        f"{layer}.{name}": obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


@contextmanager
def patched(tracer: Tracer):
    """Route every spraylie reference to a public layer function through a span."""
    modules = {layer: sys.modules[f"spraylie.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in public_functions(layer, module).items():
            wrappers[fn] = _spanned(tracer, name, fn)
    holders = [m for key, m in sys.modules.items() if key == "spraylie" or key.startswith("spraylie.")]
    undo = []
    try:
        for module in holders:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                if value in wrappers:
                    setattr(module, attr, wrappers[value])
                    undo.append((module, attr, value))
                defaults = value.__defaults__
                if defaults and any(inspect.isfunction(d) and d in wrappers for d in defaults):
                    value.__defaults__ = tuple(
                        wrappers[d] if inspect.isfunction(d) and d in wrappers else d for d in defaults
                    )
                    undo.append((value, "__defaults__", defaults))
        for layer, cls_name, attr, key in COUNTED_METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _counted(tracer.counts, key, original))
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)


# -- per-layer metrics -------------------------------------------------------

# metric -> (kind, source): "time" is inclusive seconds of the named spans
# (outermost call only, so recursion is not counted twice), "calls" the
# number of those spans, "count" a counter, "self" a layer's self time.
PER_LAYER = {
    "cli.load_problem_s": ("time", "cli.load_problem"),
    "cli.build_report_s": ("time", "cli.build_report"),
    "cli.render_markdown_s": ("time", "cli.render_markdown"),
    "cli.self_s": ("self", "cli"),
    "symexpr.parse_expr_s": ("time", "symexpr.parse_expr"),
    "symexpr.parse_expr_calls": ("calls", "symexpr.parse_expr"),
    "symexpr.mul_calls": ("count", "symexpr.mul_calls"),
    "symexpr.diff_calls": ("count", "symexpr.diff_calls"),
    "geom.spray_from_metric_s": ("time", "geom.spray_from_metric"),
    "geom.connection_from_spray_s": ("time", "geom.connection_from_spray"),
    "geom.curvature_s": ("time", "geom.curvature"),
    "geom.curvature_via_projector_s": ("time", "geom.curvature_via_projector"),
    "geom.curvature_via_almost_product_s": ("time", "geom.curvature_via_almost_product"),
    "geom.connection_via_bracket_s": ("time", "geom.connection_via_bracket"),
    "geom.spray_terms": ("count", "geom.spray_terms"),
    "geom.curvature_terms": ("count", "geom.curvature_terms"),
    "geom.self_s": ("self", "geom"),
    "fields.fn_bracket_s": ("time", "fields.fn_bracket"),
    "fields.fn_bracket_calls": ("calls", "fields.fn_bracket"),
    "fields.in_AS_s": ("time", "fields.in_AS"),
    "fields.in_AGamma_s": ("time", "fields.in_AGamma"),
    "fields.in_Ag_s": ("time", "fields.in_Ag"),
    "fields.nullity_rank_numeric_s": ("time", "fields.nullity_rank_numeric"),
    "fields.solve_in_span_s": ("time", "fields.solve_in_span"),
    "fields.bracket_base_calls": ("calls", "fields.bracket_base"),
    "fields.self_s": ("self", "fields"),
    "liealg.structure_constants_s": ("time", "liealg.structure_constants_from_fields"),
    "liealg.jacobi_check_s": ("time", "liealg.jacobi_check"),
    "liealg.killing_form_s": ("time", "liealg.killing_form"),
    "liealg.killing_form_calls": ("calls", "liealg.killing_form"),
    "liealg.radical_calls": ("calls", "liealg.radical"),
    "liealg.levi_decomposition_s": ("time", "liealg.levi_decomposition"),
    "liealg.derivations_s": ("time", "liealg.derivations"),
    "liealg.find_abelian_ideals_s": ("time", "liealg.find_abelian_ideals_coordinate"),
    "liealg.is_simple_s": ("time", "liealg.is_simple"),
    "liealg.nonzero_constants": ("count", "liealg.nonzero_constants"),
    "liealg.dense_constants": ("count", "liealg.dense_constants"),
    "liealg.self_s": ("self", "liealg"),
    "linalg.rref_s": ("time", "linalg.rref"),
    "linalg.rref_calls": ("calls", "linalg.rref"),
    "linalg.rref_cells": ("count", "linalg.rref_cells"),
    "linalg.det_s": ("time", "linalg.det"),
    "linalg.kernel_basis_s": ("time", "linalg.kernel_basis"),
    "linalg.solve_s": ("time", "linalg.solve"),
    "linalg.self_s": ("self", "linalg"),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            inclusive[name] += span[END] - span[START]
    sources = {"time": inclusive, "calls": calls, "count": counts, "self": layer_self}
    return {metric: sources[kind][source] for metric, (kind, source) in PER_LAYER.items()}


def count_metrics(values: dict[str, float]) -> dict[str, float]:
    """The exact (non-time) entries of a layer_metrics result."""
    return {k: v for k, v in values.items() if PER_LAYER[k][0] in ("calls", "count")}
