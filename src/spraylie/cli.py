"""Command-line front end: problem files, analysis reports, tables, oracles.

A problem file is a JSON document holding a metric, named base fields, named
generator sets, and optionally the bracket tables those sets are expected to
produce.  `analyze` runs the whole pipeline and emits a deterministic report;
`table` prints one multiplication table; `oracle` evaluates a selected
identity numerically at seeded rational points; `solve` runs the span solver.

Exit codes: 0 success, 1 input error, 2 verification mismatch, 3 internal
invariant failure.  An expected-table mismatch is decided exactly, always in
favour of the computation; one listed in the file's `accepted_corrections`
block is reported as a discrepancy but does not fail the run.  Floats only
diagnose: `oracle` and the reported deviations evaluate at sampled points, in
one `evaluate` call per list of points, which sorts each expression once,
values each monomial and exponential once per point and rounds each term once
from integers.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import geom, liealg, linalg
from .fields import (
    BaseField,
    MembershipVerdict,
    _energy_residual,
    _verdict,
    bracket_base,
    combine_fields,
    constant_span,
    horizontal_nullity_span,
    in_AGamma,
    in_AS,
    nullity_rank_numeric,
    solve_in_span,
)
from .liealg import render_combination
from .linalg import SparseRow
from .symexpr import (
    MAX_DIGITS,
    MAX_INDEX,
    CanonicalExpr,
    DegreeBoundError,
    Record,
    SymExprError,
    evaluate,
    parse_expr,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_INTERNAL = 3

DEFAULT_SEED = 0
DEFAULT_POINTS = 10
MAX_POINTS = 1000  # sample points are all built before any work starts
IDENTITY_REL_TOL = 1e-12
FD_REL_TOL = 1e-6
FD_STEP = Fraction(1, 10_000)

_POINT_POOL = tuple(Fraction(k, 2) for k in range(-4, 5) if k != 0)


class InputError(Exception):
    """Anything wrong with the problem file or the request itself."""


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


class Problem(Record):
    _fields = (
        "name", "dim", "coordinates", "metric", "fields", "sets",
        "expected_tables", "expected_coeffs", "accepted_corrections", "analyses",
    )

    def __init__(
        self,
        name: str,
        dim: int,
        coordinates: tuple[str, ...],
        metric: geom.MetricSpec,
        fields: dict[str, BaseField],
        sets: dict[str, tuple[str, ...]],
        expected_tables: dict[str, list[list[str]]],
        expected_coeffs: dict[str, list[list[SparseRow]]],
        accepted_corrections: dict[str, set[tuple[str, str]]],
        analyses: tuple[str, ...],
    ):
        self.name = name
        self.dim = dim
        self.coordinates = coordinates
        self.metric = metric
        self.fields = fields
        self.sets = sets
        self.expected_tables = expected_tables
        self.expected_coeffs = expected_coeffs
        self.accepted_corrections = accepted_corrections
        self.analyses = analyses


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate key {key!r} in problem file")
        out[key] = value
    return out


def _parse_entry(text, where: Callable[[], str], by_text: dict[str, CanonicalExpr]) -> CanonicalExpr:
    """The expression in one cell; `by_text` holds every text already read from the file.

    Values are immutable, so cells with the same text share one.  A bad text is
    never stored, so it fails at its first cell.  `where()` names the cell; it
    is called only to report an error.
    """
    if not isinstance(text, str):
        raise InputError(f"{where()}: expected an expression string, got {type(text).__name__}")
    expr = by_text.get(text)
    if expr is None:
        try:
            expr = by_text[text] = parse_expr(text)
        except SymExprError as exc:
            raise InputError(f"{where()}: {exc}") from exc
    return expr


def _block(doc: dict, key: str, kind: type, default):
    """The optional block `key`: `default` if absent or null, else it must have JSON type `kind`."""
    value = doc.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise InputError(f"{key} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _square(rows, dim: int, what: str) -> None:
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise InputError(f"{what} must form a {dim}x{dim} matrix")


def _matrix(rows, dim: int, what: str, cell: str, by_text: dict[str, CanonicalExpr]):
    """The dim x dim matrix `what`, its entry (i, j) labelled `<cell> (i,j)`."""
    _square(rows, dim, what)
    return tuple(
        tuple(_parse_entry(text, lambda: f"{cell} ({i + 1},{j + 1})", by_text) for j, text in enumerate(row))
        for i, row in enumerate(rows)
    )


def load_problem(path: str | Path) -> Problem:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from exc
    try:
        doc = json.loads(raw, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")

    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dim must be a positive integer")
    if dim > MAX_INDEX:  # no coordinate above x<MAX_INDEX> can be named
        raise InputError(f"dim {dim} exceeds {MAX_INDEX}, the largest coordinate index")

    by_text: dict[str, CanonicalExpr] = {}  # each distinct cell text is parsed once
    metric_doc = doc.get("metric")
    if not isinstance(metric_doc, dict):
        raise InputError("metric block is required")
    kind = metric_doc.get("kind")
    if kind not in ("diagonal", "general"):
        raise InputError("metric kind must be 'diagonal' or 'general'")
    entries = metric_doc.get("entries")
    if isinstance(entries, list) and entries and not isinstance(entries[0], list):
        if kind != "diagonal":
            raise InputError("flat metric entry list is only allowed for diagonal metrics")
        if len(entries) != dim:
            raise InputError(f"flat metric entry list must hold {dim} entries")
        entries = [[cell if i == j else "0" for j in range(dim)] for i, cell in enumerate(entries)]
    g = _matrix(entries, dim, "metric entries", "metric entry", by_text)
    g_inv = None
    if kind == "general":
        inverse = metric_doc.get("inverse")
        if inverse is None:
            raise InputError("general metrics require an 'inverse' matrix")
        g_inv = _matrix(inverse, dim, "metric inverse", "metric inverse", by_text)
    try:
        metric = geom.MetricSpec(dim, g, kind, g_inv)
    except geom.MetricError as exc:
        raise InputError(f"metric: {exc}") from exc

    # dim is at most MAX_INDEX, so the default names are cheap to build
    coords = tuple(_block(doc, "coordinates", list, [f"x{i}" for i in range(1, dim + 1)]))
    if len(coords) != dim or not all(isinstance(c, str) for c in coords):
        raise InputError(f"coordinates must list {dim} names")
    if len(set(coords)) != dim:
        raise InputError("coordinates must be distinct names")

    fields: dict[str, BaseField] = {}
    for name, comps in _block(doc, "fields", dict, {}).items():
        if not isinstance(comps, list) or len(comps) != dim:
            raise InputError(f"field {name!r} must list {dim} component expressions")
        parsed = [
            _parse_entry(c, lambda: f"field {name!r} component {i + 1}", by_text) for i, c in enumerate(comps)
        ]
        for i, comp in enumerate(parsed):
            if comp.uses_y():
                raise InputError(f"field {name!r} component {i + 1} depends on fibre coordinates")
            if comp.max_x_index() > dim:
                raise InputError(f"field {name!r} component {i + 1} uses an index beyond dim={dim}")
        fields[name] = BaseField.make(parsed)

    sets: dict[str, tuple[str, ...]] = {}
    for set_name, members in _block(doc, "sets", dict, {}).items():
        if not isinstance(members, list) or not members:
            raise InputError(f"set {set_name!r} must be a nonempty list of field names")
        for member in members:
            if not isinstance(member, str) or member not in fields:
                raise InputError(f"set {set_name!r} references unknown field {member!r}")
        if len(set(members)) != len(members):
            raise InputError(f"set {set_name!r} repeats a field name")
        sets[set_name] = tuple(members)

    expected: dict[str, list[list[str]]] = {}
    expected_coeffs: dict[str, list[list[SparseRow]]] = {}
    for set_name, table in _block(doc, "expected_tables", dict, {}).items():
        if set_name not in sets:
            raise InputError(f"expected_tables references unknown set {set_name!r}")
        labels = sets[set_name]
        _square(table, len(labels), f"expected table for {set_name!r}")
        # each distinct cell text is parsed once; cells with the same text share
        # one row, which nothing mutates, and a bad text fails at its first cell
        by_text: dict[str, SparseRow] = {}
        coeffs = []
        where = f"expected table for {set_name!r} cell"  # and (i,j), on an error
        for i, row in enumerate(table):
            parsed = []
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise InputError(
                        f"{where} ({i + 1},{j + 1}) must be a string, got {type(cell).__name__}"
                    )
                combination = by_text.get(cell)
                if combination is None:
                    try:
                        combination = by_text[cell] = parse_combination(cell, labels)
                    except InputError as exc:
                        raise InputError(f"{where} ({i + 1},{j + 1}): {exc}") from exc
                parsed.append(combination)
            coeffs.append(parsed)
        expected[set_name] = table
        expected_coeffs[set_name] = coeffs

    corrections: dict[str, set[tuple[str, str]]] = {}
    for set_name, cells in _block(doc, "accepted_corrections", dict, {}).items():
        if set_name not in expected:
            raise InputError(
                f"accepted_corrections for {set_name!r} needs a matching expected table"
            )
        if not isinstance(cells, list):
            raise InputError(f"accepted_corrections for {set_name!r} must list [row, col] pairs")
        marked = set()
        for cell in cells:
            if not isinstance(cell, list) or len(cell) != 2:
                raise InputError("accepted_corrections cells must be [row, col] pairs")
            row, col = cell
            if row not in sets[set_name] or col not in sets[set_name]:
                raise InputError(f"accepted_corrections cell ({row},{col}) is outside the set")
            marked.add((row, col))
        corrections[set_name] = marked

    known = ("pipeline", "membership", "tables", "algebra")
    analyses = tuple(_block(doc, "analyses", list, known))
    for item in analyses:
        if item not in known:
            raise InputError(f"unknown analysis {item!r}")

    name = path.stem if doc.get("name") is None else doc["name"]
    if not isinstance(name, str):
        raise InputError("name must be a string")

    return Problem(
        name=name,
        dim=dim,
        coordinates=coords,
        metric=metric,
        fields=fields,
        sets=sets,
        expected_tables=expected,
        expected_coeffs=expected_coeffs,
        accepted_corrections=corrections,
        analyses=analyses,
    )


# ---------------------------------------------------------------------------
# rational combinations of named generators
# ---------------------------------------------------------------------------

# One term and the spaces around it: a sign, required before every term but
# the first, then [num[/den]*]name[/post].  Spaces may separate these tokens
# but never sit inside a number or a name.
_TERM_RE = re.compile(
    r" *(?P<sign>[+-]?) *(?P<term>(?:(?P<num>\d+)(?: */ *(?P<den>\d+))? *\* *)?"
    r"(?P<name>[A-Za-z_]\w*)(?: */ *(?P<post>\d+))?) *"
)
_SIGN_RE = re.compile(r" *[+-]? *")


@functools.lru_cache(maxsize=64)
def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    """The column of each label, built once per label tuple; callers only read it."""
    return {label: i for i, label in enumerate(labels)}


def parse_combination(text: str, labels: Sequence[str]) -> SparseRow:
    """Parse e.g. '-e1/2+e6/2' or '3/2*e4 - e1' into a sparse coefficient row.

    An error names its position in `text` as written.
    """
    if text.strip(" ") in ("0", ""):
        return {}
    index = _label_index(tuple(labels))
    coeffs: SparseRow = {}
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None or (pos and not match["sign"]):
            at = _SIGN_RE.match(text, pos).end()
            raise InputError(f"cannot parse combination {text!r} at position {at}")
        sign, num, den, name, post = match.group("sign", "num", "den", "name", "post")
        if name not in index:
            raise InputError(f"combination {text!r} uses unknown generator {name!r}")
        n = d = 1
        if num or den or post:
            digits = (num or "1", den or "1", post or "1")
            if max(map(len, digits)) > MAX_DIGITS:
                raise InputError(
                    f"combination {text!r} has a number longer than {MAX_DIGITS} digits"
                    f" at position {match.start('term')}"
                )
            n, d, p = map(int, digits)
            d *= p
            if not d:
                raise InputError(f"combination {text!r} divides by zero at position {match.start('term')}")
        if sign == "-":
            n = -n
        q = n if d == 1 else Fraction(n, d)
        j = index[name]
        coeffs[j] = coeffs[j] + q if j in coeffs else q
        pos = match.end()
    return {j: linalg._exact(q) for j, q in coeffs.items() if q}


# ---------------------------------------------------------------------------
# numeric sampling and deviations
# ---------------------------------------------------------------------------


def sample_points(dim: int, count: int, seed: int) -> list[dict[str, Fraction]]:
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        point: dict[str, Fraction] = {}
        for i in range(1, dim + 1):
            point[f"x{i}"] = rng.choice(_POINT_POOL)
            point[f"y{i}"] = rng.choice(_POINT_POOL)
        points.append(point)
    return points


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _max_dev(a_exprs, b_exprs, points) -> float:
    """Largest relative deviation between paired expressions over the points."""
    worst = 0.0
    n = len(a_exprs)
    for row in evaluate([*a_exprs, *b_exprs], points):
        for va, vb in zip(row[:n], row[n:]):
            if va != vb:  # `evaluate` gives no inf or nan, so equal values deviate by 0.0
                worst = max(worst, _rel_dev(va, vb))
    return worst


def _field_max_dev(a, b, points) -> float:
    return _max_dev(a.components, b.components, points)


def _form_max_dev(a, b, points) -> float:
    """Largest deviation between two vector one-forms or two vector two-forms."""
    flat_a, flat_b = ([entry for _label, entry in f.labelled()] for f in (a, b))
    return _max_dev(flat_a, flat_b, points)


def _format_points(points) -> list[dict[str, str]]:
    return [{k: str(v) for k, v in point.items()} for point in points]


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def _check_structural_identities(
    spray: geom.SprayData, connection: geom.ConnectionData, curvature: geom.CurvatureData
) -> dict[str, MembershipVerdict]:
    """Exact verdicts on the two identities that compare independent routes.

    The component curvature must be half the self-bracket of the horizontal
    projector, and 2h - I must be the bracket of the spray with the tangent
    structure.  A failed verdict names its first nonzero residual.  What every
    input passing the data-class invariants satisfies (h idempotent, h + v = I,
    [C,S] = S, [C,J] = -J, [2h-I, 2h-I] = 4[h,h]) is left to unit tests.
    """
    residuals = {
        "curvature equals half the horizontal self-bracket": (
            geom.curvature_two_form(curvature) - geom.curvature_via_projector(connection)
        ),
        "spray-tangent bracket reproduces the connection": (
            geom.connection_via_bracket(spray) - geom.connection_oneform(connection)
        ),
    }
    return {name: _verdict(name, form.labelled()) for name, form in residuals.items()}


def _structure_constants(problem: Problem, set_name: str) -> liealg.StructureConstants:
    labels = problem.sets[set_name]
    generators = [problem.fields[name] for name in labels]
    try:
        return liealg.structure_constants_from_fields(generators, labels)
    except liealg.NonClosureError as exc:
        raise InputError(f"set {set_name!r} does not close under the bracket: {exc}") from exc
    except liealg.DependentGeneratorsError as exc:
        raise InputError(f"set {set_name!r}: {exc}") from exc


def _cell(sc: liealg.StructureConstants, i: int, j: int) -> SparseRow:
    """[b_i, b_j] as a sparse row, read off the nonzero index."""
    return dict(sc.nonzero.get((i, j), ()))


def _table_cells(sc: liealg.StructureConstants) -> list[list[str]]:
    m = sc.dim
    return [[render_combination(_cell(sc, i, j), sc.labels) for j in range(m)] for i in range(m)]


def _compare_expected(problem: Problem, set_name: str, sc, points):
    """Diff the computed table against the expected block; deviations are diagnostics."""
    expected = problem.expected_tables[set_name]
    wanted = problem.expected_coeffs[set_name]
    labels = problem.sets[set_name]
    generators = [problem.fields[name] for name in labels]
    marked = problem.accepted_corrections.get(set_name, set())
    mismatches = []
    total = len(labels) ** 2
    for i, row in enumerate(labels):
        for j, col in enumerate(labels):
            want = wanted[i][j]
            have = _cell(sc, i, j)
            if want == have:
                continue
            direct = bracket_base(generators[i], generators[j])
            want_dev = _field_max_dev(direct, combine_fields(generators, want), points)
            have_dev = _field_max_dev(direct, combine_fields(generators, have), points)
            mismatches.append(
                {
                    "row": row,
                    "col": col,
                    "expected": expected[i][j],
                    "computed": render_combination(have, labels),
                    "expected_deviation": f"{want_dev:.3e}",
                    "computed_deviation": f"{have_dev:.3e}",
                    "accepted_correction": (row, col) in marked,
                }
            )
    return {
        "present": True,
        "total_cells": total,
        "matched_cells": total - len(mismatches),
        "mismatches": mismatches,
    }


def _subspace(sc: liealg.StructureConstants, vectors) -> dict:
    """Dimension, basis and exact ideal/abelian verdicts; a zero subspace gets no verdicts."""
    space = liealg.Subspace.from_vectors(vectors, sc.dim)
    out: dict = {
        "dimension": space.dim,
        "basis": [render_combination(v, sc.labels) for v in space.rows.values()],
    }
    if space.dim:
        out["ideal"] = liealg.is_ideal(sc, space)
        out["abelian"] = liealg.is_abelian(sc, space)
    return out


def _analyze_algebra(
    set_name: str,
    sc: liealg.StructureConstants,
    generators: Sequence[BaseField],
    connection: geom.ConnectionData,
    curvature: geom.CurvatureData,
) -> dict:
    labels = sc.labels
    # dimensions and verdicts are read off the canonical table; only the
    # printed subspaces come back to the generators' basis
    canonical = sc.canonical
    jacobi_ok, witness = liealg.jacobi_check(sc)
    if not jacobi_ok:
        i, j, k, s, residual = witness
        raise geom.InvariantViolation(
            f"Jacobi identity failed for set {set_name!r} at generators "
            f"({labels[i]}, {labels[j]}, {labels[k]}): coefficient of {labels[s]} is {residual}"
        )
    killing_det = liealg.killing_det(sc)
    semisimple = killing_det != 0
    levi = liealg.levi_decomposition(sc)
    radical = levi.radical
    derivation_space = liealg.derivations(sc)
    simple = liealg.is_simple(sc)
    out = {
        "dimension": sc.dim,
        "jacobi": "pass",
        "killing_determinant": str(killing_det),
        "semisimple": semisimple,
        "simple": simple,
        "derived_dimension": liealg.derived_subalgebra(canonical).dim,
        "center_dimension": liealg.center(canonical).dim,
        "radical": {
            "dimension": radical.dim,
            "basis": [render_combination(v, labels) for v in radical.rows.values()],
        },
        "levi": {
            "radical_dimension": levi.radical.dim,
            "complement_dimension": levi.levi.dim,
            "complement_basis": [render_combination(v, labels) for v in levi.levi.rows.values()],
        },
        "derivations": {
            "dimension": derivation_space.dimension,
            "inner": derivation_space.inner_dimension,
            "outer": derivation_space.outer_dimension,
        },
        "horizontal_nullity_subspace": _subspace(
            sc, horizontal_nullity_span(generators, connection, curvature)
        ),
        "constant_subspace": _subspace(sc, constant_span(generators)),
    }
    if simple is None:
        out["simple_skipped"] = (
            f"centroid dimension {len(canonical.centroid)} > 3 with no rational eigenvalue"
        )
    if sc.dim == 3:
        out["three_dim_class"] = liealg.classify_3dim_simple(sc)
    return out


def build_report(problem: Problem, seed: int, count: int) -> dict:
    spray = geom.spray_from_metric(problem.metric)
    connection = geom.connection_from_spray(spray)
    curvature = geom.curvature(connection)
    n = problem.dim
    identities = _check_structural_identities(spray, connection, curvature)
    for name, verdict in identities.items():
        if not verdict:
            raise geom.InvariantViolation(
                f"structural identity failed: {name} at {verdict.location}: {verdict.residual}"
            )

    points = sample_points(n, count, seed)
    nullity: dict = {"seed": seed, "points": count}
    try:
        rank = nullity_rank_numeric(curvature, points)
    except DegreeBoundError as exc:  # a limit of the probe, not of the input
        nullity["skipped"] = str(exc)
    else:
        nullity.update(rank=rank, nullity_dimension=n - rank)

    energy = problem.metric.energy
    report: dict = {
        "problem": {
            "name": problem.name,
            "dim": n,
            "coordinates": list(problem.coordinates),
            "metric_kind": problem.metric.kind,
            "metric_diagonal": [str(problem.metric.g[i][i]) for i in range(n)]
            if problem.metric.kind == "diagonal"
            else None,
        },
        "pipeline": {
            "energy": str(energy),
            "spray": [str(g) for g in spray.G],
            "connection_nonzero": [
                {"row": j + 1, "col": i + 1, "value": str(connection.gamma1[j][i])}
                for j in range(n)
                for i in range(n)
                if not connection.gamma1[j][i].is_zero()
            ],
            "curvature_zero": curvature.is_zero(),
            "curvature_nonzero_components": len(curvature.R2),
            "identities": {k: "ok" for k in identities},
            "numeric_nullity": nullity,
        },
    }

    if "membership" in problem.analyses:
        rows = []
        for name, field in problem.fields.items():
            # in_Ag is in_AS plus X^c(E) = 0; the spray verdict is not recomputed
            spray_symmetry = bool(in_AS(field, spray))
            rows.append(
                {
                    "field": name,
                    "spray_symmetry": spray_symmetry,
                    "connection_symmetry": bool(in_AGamma(field, connection)),
                    "isometry": spray_symmetry and _energy_residual(field, energy).is_zero(),
                }
            )
        report["membership"] = rows

    set_reports = []
    discrepancies = []
    verification_failed = False
    if "tables" in problem.analyses or "algebra" in problem.analyses:
        for set_name in problem.sets:
            sc = _structure_constants(problem, set_name)
            entry: dict = {"name": set_name, "labels": list(sc.labels)}
            if "tables" in problem.analyses:
                entry["table"] = _table_cells(sc)
                if set_name in problem.expected_tables:
                    comparison = _compare_expected(problem, set_name, sc, points)
                    entry["expected_comparison"] = comparison
                    for mismatch in comparison["mismatches"]:
                        discrepancies.append(dict(mismatch, set=set_name))
                        verification_failed |= not mismatch["accepted_correction"]
                else:
                    entry["expected_comparison"] = {"present": False}
            if "algebra" in problem.analyses:
                generators = [problem.fields[name] for name in sc.labels]
                entry["algebra"] = _analyze_algebra(set_name, sc, generators, connection, curvature)
            set_reports.append(entry)
    report["sets"] = set_reports
    report["discrepancies"] = discrepancies
    report["verification_failed"] = verification_failed
    return report


# ---------------------------------------------------------------------------
# markdown rendering
# ---------------------------------------------------------------------------


def _md_table(labels: Sequence[str], cells: Sequence[Sequence[str]]) -> list[str]:
    header = "| [.,.] | " + " | ".join(labels) + " |"
    rule = "|" + "---|" * (len(labels) + 1)
    lines = [header, rule]
    for label, row in zip(labels, cells):
        lines.append("| " + label + " | " + " | ".join(row) + " |")
    return lines


_SUBSPACE_TITLES = (
    ("horizontal_nullity_subspace", "horizontal nullity subspace"),
    ("constant_subspace", "constant subspace"),
)


def render_markdown(report: dict) -> str:
    problem = report["problem"]
    pipeline = report["pipeline"]
    lines = [f"# Analysis report: {problem['name']}", ""]
    lines.append(f"- dimension: {problem['dim']}")
    lines.append(f"- coordinates: {', '.join(problem['coordinates'])}")
    lines.append(f"- metric kind: {problem['metric_kind']}")
    if problem.get("metric_diagonal"):
        lines.append(f"- metric diagonal: {', '.join(problem['metric_diagonal'])}")
    lines.append("")
    lines.append("## Pipeline")
    lines.append("")
    lines.append(f"- energy: {pipeline['energy']}")
    for i, g in enumerate(pipeline["spray"], start=1):
        lines.append(f"- spray G{i} = {g}")
    lines.append("- nonzero connection coefficients (upper index, lower index):")
    for coeff in pipeline["connection_nonzero"]:
        lines.append(f"  - ({coeff['row']},{coeff['col']}): {coeff['value']}")
    if pipeline["curvature_zero"]:
        lines.append("- curvature: structurally zero")
    else:
        lines.append(
            f"- curvature: nonzero ({pipeline['curvature_nonzero_components']} independent components)"
        )
    for name in pipeline["identities"]:
        lines.append(f"- identity ok: {name}")
    nullity = pipeline["numeric_nullity"]
    if "skipped" in nullity:
        lines.append(f"- numeric nullity: skipped ({nullity['skipped']})")
    else:
        lines.append(
            f"- numeric nullity: rank {nullity['rank']}, nullity dimension "
            f"{nullity['nullity_dimension']} (seed {nullity['seed']}, {nullity['points']} points)"
        )
    lines.append("")

    if "membership" in report:
        lines.append("## Membership")
        lines.append("")
        lines.append("| field | spray symmetry | connection symmetry | isometry |")
        lines.append("|---|---|---|---|")
        for row in report["membership"]:
            cells = [
                row["field"],
                "yes" if row["spray_symmetry"] else "no",
                "yes" if row["connection_symmetry"] else "no",
                "yes" if row["isometry"] else "no",
            ]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")

    for entry in report["sets"]:
        lines.append(f"## Set: {entry['name']}")
        lines.append("")
        if "table" in entry:
            lines.extend(_md_table(entry["labels"], entry["table"]))
            lines.append("")
            comparison = entry.get("expected_comparison", {"present": False})
            if comparison["present"]:
                if not comparison["mismatches"]:
                    lines.append(
                        f"- expected table: all {comparison['total_cells']} cells match"
                    )
                else:
                    lines.append(
                        f"- expected table: {comparison['matched_cells']} of "
                        f"{comparison['total_cells']} cells match"
                    )
                lines.append("")
        if "algebra" in entry:
            algebra = entry["algebra"]
            lines.append(f"- dimension: {algebra['dimension']}")
            lines.append(f"- Jacobi identity: {algebra['jacobi']}")
            lines.append(f"- Killing determinant: {algebra['killing_determinant']}")
            lines.append(f"- semisimple: {'yes' if algebra['semisimple'] else 'no'}")
            if algebra["simple"] is None:
                lines.append(f"- simple: skipped ({algebra['simple_skipped']})")
            else:
                lines.append(f"- simple: {'yes' if algebra['simple'] else 'no'}")
            lines.append(f"- derived subalgebra dimension: {algebra['derived_dimension']}")
            lines.append(f"- center dimension: {algebra['center_dimension']}")
            radical = algebra["radical"]
            basis = ", ".join(radical["basis"]) if radical["basis"] else "none"
            lines.append(f"- radical: dimension {radical['dimension']} ({basis})")
            levi = algebra["levi"]
            lines.append(
                f"- Levi decomposition: radical {levi['radical_dimension']} + "
                f"semisimple {levi['complement_dimension']}, verified"
            )
            derivations = algebra["derivations"]
            lines.append(
                f"- derivations: dimension {derivations['dimension']}, inner "
                f"{derivations['inner']}, outer {derivations['outer']}"
            )
            for key, title in _SUBSPACE_TITLES:
                space = algebra[key]
                if not space["dimension"]:
                    lines.append(f"- {title}: none")
                    continue
                lines.append(
                    f"- {title}: dimension {space['dimension']} ({', '.join(space['basis'])}); "
                    f"ideal: {'yes' if space['ideal'] else 'no'}; "
                    f"abelian: {'yes' if space['abelian'] else 'no'}"
                )
            if "three_dim_class" in algebra:
                lines.append(f"- 3-dim classification: {algebra['three_dim_class']}")
            lines.append("")

    lines.append("## Discrepancies")
    lines.append("")
    if not report["discrepancies"]:
        lines.append("- none")
    else:
        for item in report["discrepancies"]:
            status = "accepted correction" if item["accepted_correction"] else "UNRESOLVED"
            lines.append(
                f"- [{item['row']},{item['col']}] in {item['set']}: expected "
                f"{item['expected']}, computed {item['computed']} "
                f"(deviation {item['expected_deviation']} vs {item['computed_deviation']}; {status})"
            )
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    problem = load_problem(args.file)
    report = build_report(problem, args.seed, args.points)
    failed = report.pop("verification_failed")
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = render_markdown(report)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_table(args) -> int:
    problem = load_problem(args.file)
    if args.set not in problem.sets:
        raise InputError(f"unknown set {args.set!r}; available: {', '.join(problem.sets)}")
    sc = _structure_constants(problem, args.set)
    cells = _table_cells(sc)
    if args.format == "csv":
        lines = ["," + ",".join(sc.labels)]
        for label, row in zip(sc.labels, cells):
            lines.append(label + "," + ",".join(cell.replace(" ", "") for cell in row))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write("\n".join(_md_table(sc.labels, cells)) + "\n")
    return EXIT_OK


def _oracle_curvature(metric, points, flavour: str):
    connection = geom.connection_from_spray(geom.spray_from_metric(metric))
    component_form = geom.curvature_two_form(geom.curvature(connection))
    if flavour == "projector":
        other = geom.curvature_via_projector(connection)
        label = "curvature component formula vs half horizontal self-bracket"
    else:
        other = geom.curvature_via_almost_product(connection)
        label = "curvature component formula vs eighth connection self-bracket"
    return label, _form_max_dev(component_form, other, points), IDENTITY_REL_TOL


def _oracle_connection(metric, points):
    spray = geom.spray_from_metric(metric)
    a = geom.connection_via_bracket(spray)
    b = geom.connection_oneform(geom.connection_from_spray(spray))
    return (
        "spray-tangent bracket vs assembled connection",
        _form_max_dev(a, b, points),
        IDENTITY_REL_TOL,
    )


def _oracle_fd(problem, points, target: str):
    if target == "E":
        expr = problem.metric.energy
    elif target.startswith("G"):
        digits = target[1:]  # ASCII digits only, as for x<k>: int() would also read "+1", "1_0", "١"
        if not (digits.isascii() and digits.isdigit()):
            raise InputError(f"unknown derivative target {target!r}")
        k = int(digits) if len(digits) <= MAX_DIGITS else 0
        if not 1 <= k <= problem.dim:
            raise InputError(f"spray index out of range in {target!r}")
        expr = geom.spray_from_metric(problem.metric).G[k - 1]
    elif target in problem.fields:
        raise InputError("derivative targets are E or G<k>, not field names")
    else:
        raise InputError(f"unknown derivative target {target!r}")
    worst = 0.0
    variables = [f"{axis}{i}" for i in range(1, problem.dim + 1) for axis in ("x", "y")]
    derivatives = [expr.diff(var) for var in variables]
    for point in points:
        # the derivatives at a point before its shifts: the first point that
        # overflows is the one reported
        (exact_row,) = evaluate(derivatives, [point])
        shifted = [
            {**point, var: point[var] + step} for var in variables for step in (FD_STEP, -FD_STEP)
        ]
        values = [value for (value,) in evaluate([expr], shifted)]
        for exact, forward, backward in zip(exact_row, values[::2], values[1::2]):
            fd = (forward - backward) / (2 * float(FD_STEP))
            worst = max(worst, _rel_dev(exact, fd))
    return f"symbolic derivative of {target} vs central differences", worst, FD_REL_TOL


def _oracle_table_cell(problem, points, tokens: list[str]):
    if len(tokens) == 3:
        set_name, f1, f2 = tokens
        if set_name not in problem.sets:
            raise InputError(f"unknown set {set_name!r}")
    elif len(tokens) == 2:
        if len(problem.sets) != 1:
            raise InputError("table-cell needs a set name when several sets are defined")
        set_name = next(iter(problem.sets))
        f1, f2 = tokens
    else:
        raise InputError("table-cell expects [set] field field")
    labels = problem.sets[set_name]
    if f1 not in labels or f2 not in labels:
        raise InputError(f"table-cell fields must belong to set {set_name!r}")
    generators = [problem.fields[name] for name in labels]
    direct = bracket_base(problem.fields[f1], problem.fields[f2])
    if set_name in problem.expected_tables:
        coeffs = problem.expected_coeffs[set_name][labels.index(f1)][labels.index(f2)]
        source = "expected table cell"
    else:
        sc = _structure_constants(problem, set_name)
        coeffs = _cell(sc, labels.index(f1), labels.index(f2))
        source = "computed table cell"
    combo = combine_fields(generators, coeffs)
    dev = _field_max_dev(direct, combo, points)
    return f"[{f1},{f2}] vs {source}", dev, IDENTITY_REL_TOL


def cmd_oracle(args) -> int:
    problem = load_problem(args.file)
    points = sample_points(problem.dim, args.points, args.seed)
    tokens = args.check.split()
    if not tokens:
        raise InputError("empty selector")
    head, rest = tokens[0], tokens[1:]
    if head in ("R-vs-half-[h,h]", "R-vs-half-hh") and not rest:
        label, deviation, tolerance = _oracle_curvature(problem.metric, points, "projector")
    elif head in ("R-vs-eighth-[Gamma,Gamma]", "R-vs-eighth-GG") and not rest:
        label, deviation, tolerance = _oracle_curvature(problem.metric, points, "almost-product")
    elif head == "connection-vs-bracket" and not rest:
        label, deviation, tolerance = _oracle_connection(problem.metric, points)
    elif head == "diff-vs-fd" and len(rest) == 1:
        label, deviation, tolerance = _oracle_fd(problem, points, rest[0])
    elif head == "table-cell":
        label, deviation, tolerance = _oracle_table_cell(problem, points, rest)
    else:
        raise InputError(f"unknown selector {args.check!r}")
    ok = deviation <= tolerance
    lines = [
        f"# Oracle report: {problem.name}",
        "",
        f"- check: {label}",
        f"- seed: {args.seed}",
        f"- points: {args.points}",
        f"- sampled points: {json.dumps(_format_points(points))}",
        f"- max relative deviation: {deviation:.3e}",
        f"- tolerance: {tolerance:.1e}",
        f"- verdict: {'within tolerance' if ok else 'EXCEEDED'}",
        "",
    ]
    sys.stdout.write("\n".join(lines))
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_solve(args) -> int:
    problem = load_problem(args.file)
    if args.dict not in problem.sets:
        raise InputError(f"unknown dictionary {args.dict!r}; available: {', '.join(problem.sets)}")
    flags = (args.spray_symmetry, args.isometry, args.horizontal)
    conditions = [c for c, on in zip(("spray-symmetry", "isometry", "horizontality"), flags) if on]
    if not conditions:
        raise InputError("choose at least one of --spray-symmetry, --isometry, --horizontal")
    spray = geom.spray_from_metric(problem.metric)
    labels = problem.sets[args.dict]
    dictionary = [problem.fields[name] for name in labels]
    solutions = solve_in_span(
        dictionary,
        spray=spray if args.spray_symmetry or args.isometry else None,
        energy=problem.metric.energy if args.isometry else None,
        connection=geom.connection_from_spray(spray) if args.horizontal else None,
    )
    lines = [
        f"# Solve report: {problem.name}",
        "",
        f"- dictionary: {args.dict} ({len(labels)} fields)",
        f"- conditions: {', '.join(conditions)}",
        f"- solution dimension: {len(solutions)}",
    ]
    for idx, coeffs in enumerate(solutions, start=1):
        combo = combine_fields(dictionary, coeffs)
        components = ", ".join(str(c) for c in combo.components)
        lines.append(f"- basis {idx}: {render_combination(coeffs, labels)}")
        lines.append(f"  components: ({components})")
    lines.append("")
    sys.stdout.write("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad arguments are input errors, not usage bugs
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer at most {MAX_POINTS}, got {value}"
        )
    return value


@functools.cache  # built on the first call, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spraylie",
        description="Exact sprays, connections, curvature, and Lie-algebra analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", parents=[], help="full pipeline report")
    analyze.add_argument("file")
    analyze.add_argument("--out", default=None)
    analyze.add_argument("--format", choices=("md", "json"), default="md")
    analyze.add_argument("--seed", type=int, default=DEFAULT_SEED)
    analyze.add_argument("--points", type=_positive_int, default=DEFAULT_POINTS)
    analyze.set_defaults(func=cmd_analyze)

    table = sub.add_parser("table", help="multiplication table of one generator set")
    table.add_argument("file")
    table.add_argument("--set", required=True)
    table.add_argument("--format", choices=("md", "csv"), default="md")
    table.set_defaults(func=cmd_table)

    oracle = sub.add_parser("oracle", help="numeric check of a pipeline identity")
    oracle.add_argument("file")
    oracle.add_argument("--check", required=True)
    oracle.add_argument("--points", type=_positive_int, default=DEFAULT_POINTS)
    oracle.add_argument("--seed", type=int, default=DEFAULT_SEED)
    oracle.set_defaults(func=cmd_oracle)

    solve = sub.add_parser("solve", help="span solver over a field dictionary")
    solve.add_argument("file")
    solve.add_argument("--dict", required=True)
    solve.add_argument("--isometry", action="store_true")
    solve.add_argument("--spray-symmetry", action="store_true")
    solve.add_argument("--horizontal", action="store_true")
    solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SymExprError, geom.MetricError, liealg.NonClosureError,
            liealg.DependentGeneratorsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeEncodeError as exc:  # a report the locale's stdout cannot encode
        char = ascii(exc.object[exc.start:exc.end])
        print(f"error: the output encoding {exc.encoding} cannot write {char}", file=sys.stderr)
        return EXIT_INPUT
    except (geom.InvariantViolation, liealg.LieAlgebraError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
