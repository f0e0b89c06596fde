"""Shared fixtures: the three worked metrics and their generator families."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

from spraylie import geom, liealg, linalg
from spraylie.fields import BaseField, TMField, VectorOneForm, VectorTwoForm, fn_bracket
from spraylie.symexpr import ZERO, CanonicalExpr, parse_expr, yvar


@lru_cache(maxsize=None)
def build_pipeline(diag_entries: tuple[str, ...]):
    metric = geom.diagonal_metric([parse_expr(e) for e in diag_entries])
    spray = geom.spray_from_metric(metric)
    connection = geom.connection_from_spray(spray)
    curv = geom.curvature(connection)
    return metric, spray, connection, curv


def child_env() -> dict[str, str]:
    """The environment for a child `python -m spraylie ...`: this one, with the
    package's source directory first on PYTHONPATH, which pytest's own
    `pythonpath` setting does not pass on."""
    src = str(Path(liealg.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def base_field(*components: str) -> BaseField:
    return BaseField.make([parse_expr(c) for c in components])


HYPERBOLIC_SHELL = ("exp(x3)", "exp(x3)", "1")
PRODUCT_BLOCKS = ("exp(x2)", "1", "exp(x4)", "1")
FLAT_EXPONENTIAL = ("exp(x1)", "exp(x2)", "exp(x3)")

RANDOM_METRIC_SEEDS = [11, 12, 13, 14, 15]


def random_diag_entries(seed: int, n: int) -> tuple[str, ...]:
    """Deterministic diagonal metric with exponential-of-linear entries."""
    rng = random.Random(seed)
    entries = []
    for _ in range(n):
        coeffs = [rng.choice([-1, 0, 0, 1]) for _ in range(n)]
        if not any(coeffs):
            coeffs[rng.randrange(n)] = 1
        form = "+".join(f"({c})*x{i+1}" for i, c in enumerate(coeffs) if c)
        entries.append(f"exp({form})")
    return tuple(entries)


# "0" twice, so that more of the drawn coefficients vanish
_X_COEFFICIENTS = [
    parse_expr(text)
    for text in ("0", "0", "1", "-2", "x1", "x1*x2", "exp(x1)", "x3^2", "exp(x2 - x3)/3")
]


@st.composite
def quadratic_sprays(draw):
    """G^k = sum_{i <= j} c^k_ij(x) y^i y^j with x-dependent c, not derived from a metric."""
    n = draw(st.integers(1, 3))
    pool = [c for c in _X_COEFFICIENTS if c.max_x_index() <= n]
    coeffs = []
    for _k in range(n):
        acc = ZERO
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                acc = acc + draw(st.sampled_from(pool)) * parse_expr(f"y{i}*y{j}")
        coeffs.append(acc)
    return geom.SprayData(tuple(coeffs))


def constant_nullity_kernel(curv) -> int:
    """Dimension of constant vector fields annihilated by the curvature."""
    n = curv.dim
    rows = {}
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                per_key = {}
                for l in range(n):
                    for key, q in curv.R1[k][i][j].diff(f"y{l + 1}").items():
                        per_key.setdefault(key, [Fraction(0)] * n)[l] += q
                for key, row in per_key.items():
                    rows[(k, i, j, key)] = row
    return len(linalg.kernel_basis(list(rows.values()), ncols=n))


def frame_field(n: int, slot: int) -> TMField:
    """The coordinate frame field d/dx^(slot+1), or d/dy^(slot-n+1) for slot >= n."""
    comps = [CanonicalExpr()] * (2 * n)
    comps[slot] = CanonicalExpr.const(1)
    return TMField(tuple(comps))


def is_projectable(field: TMField) -> bool:
    """Are the base components free of the fibre variables y?"""
    return all(not c.uses_y() for c in field.components[: field.dim])


def nijenhuis(form: VectorOneForm) -> VectorTwoForm:
    """Half of [L, L], e.g. zero for the tangent structure, curvature for h."""
    return fn_bracket(form).scale(Fraction(1, 2))


def curvature_potential(spray: geom.SprayData, curv: geom.CurvatureData):
    """Contraction of the curvature with the spray: table[k][j] = y^i R^k_ij."""
    n = curv.dim
    out = []
    for k in range(n):
        row = []
        for j in range(n):
            acc = CanonicalExpr()
            for i in range(n):
                if curv.R1[k][i][j]:
                    acc = acc + yvar(i + 1) * curv.R1[k][i][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def assert_exact(values, normalized: bool = False) -> None:
    """Every value is an int or a Fraction, never a float or a bool; with
    `normalized`, an integral value is an int and a Fraction has a
    denominator above 1."""
    for v in values:
        assert type(v) in (int, Fraction), f"{v!r} is a {type(v).__name__}"
        if normalized:
            assert type(v) is int or v.denominator > 1, f"{v!r} is integral but not an int"


def mat_vec(a, v) -> list[Fraction]:
    """The exact product of a dense matrix and a vector."""
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def mat_mul(a, b) -> list[list[Fraction]]:
    """The exact product of two dense matrices."""
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def identity(n: int) -> list[list[Fraction]]:
    return [unit_vector(n, i) for i in range(n)]


def unit_vector(n: int, j: int) -> list[Fraction]:
    return dense({j: Fraction(1)}, n)


def dense(row: dict[int, Fraction], n: int) -> list[Fraction]:
    """A sparse row written out as a dense vector of length n."""
    out = [Fraction(0)] * n
    for j, v in row.items():
        out[j] = v
    return out


def ad_matrix(sc: liealg.StructureConstants, i: int) -> list[list[Fraction]]:
    """Matrix of ad(b_i): column j holds [b_i, b_j]."""
    m = sc.dim
    return [[Fraction(sc.c[i][j][k]) for j in range(m)] for k in range(m)]


def is_derivation(sc: liealg.StructureConstants, matrix) -> bool:
    """Does D[b_i, b_j] = [D b_i, b_j] + [b_i, D b_j] hold for every pair?"""
    m = sc.dim
    d = [[Fraction(v) for v in row] for row in matrix]
    for i in range(m):
        for j in range(i + 1, m):
            lhs = mat_vec(d, list(sc.c[i][j]))
            rhs_a = sc.bracket_coords({r: d[r][i] for r in range(m) if d[r][i]}, {j: 1})
            rhs_b = sc.bracket_coords({i: 1}, {r: d[r][j] for r in range(m) if d[r][j]})
            if any(lhs[k] != rhs_a.get(k, 0) + rhs_b.get(k, 0) for k in range(m)):
                return False
    return True


def in_inner_span(sc: liealg.StructureConstants, matrix) -> bool:
    """Is the matrix a rational combination of the ad(b_i)?"""
    m = sc.dim

    def flat(a) -> list[Fraction]:
        return [Fraction(a[r][c]) for r in range(m) for c in range(m)]

    ads = [flat(ad_matrix(sc, i)) for i in range(m)]
    return linalg.rank(ads + [flat(matrix)]) == linalg.rank(ads)


def abelian_ideal_check(sc: liealg.StructureConstants, space: liealg.Subspace) -> bool:
    """Is the subspace an ideal with all internal brackets zero?"""
    return liealg.is_ideal(sc, space) and liealg.is_abelian(sc, space)


@pytest.fixture(scope="session")
def shell_pipeline():
    return build_pipeline(HYPERBOLIC_SHELL)


@pytest.fixture(scope="session")
def blocks_pipeline():
    return build_pipeline(PRODUCT_BLOCKS)


@pytest.fixture(scope="session")
def flat_pipeline():
    return build_pipeline(FLAT_EXPONENTIAL)


@pytest.fixture(scope="session")
def shell_generators():
    """Symmetry generators of the 3-dim shell metric, base components."""
    return {
        "e1": base_field("-x2*x1/2", "exp(-x3) + x1^2/4 - x2^2/4", "x2"),
        "e2": base_field("-2*exp(-x3) + x1^2/2 - x2^2/2", "x1*x2", "-2*x1"),
        "e3": base_field("-x2", "x1", "0"),
        "e4": base_field("x1", "x2", "-2"),
        "e5": base_field("0", "1", "0"),
        "e6": base_field("1", "0", "0"),
    }


@pytest.fixture(scope="session")
def blocks_generators():
    return {
        "e1": base_field("exp(-x2) - x1^2/4", "x1", "0", "0"),
        "e2": base_field("x1", "-2", "0", "0"),
        "e3": base_field("1", "0", "0", "0"),
        "e4": base_field("0", "0", "exp(-x4) - x3^2/4", "x3"),
        "e5": base_field("0", "0", "x3", "-2"),
        "e6": base_field("0", "0", "1", "0"),
    }


@pytest.fixture(scope="session")
def flat_spray_generators():
    return {
        "e1": base_field("1", "0", "0"),
        "e2": base_field("exp((x2-x1)/2)", "0", "0"),
        "e3": base_field("exp(-x1/2)", "0", "0"),
        "e4": base_field("exp((x3-x1)/2)", "0", "0"),
        "e5": base_field("0", "exp((x1-x2)/2)", "0"),
        "e6": base_field("0", "1", "0"),
        "e7": base_field("0", "exp(-x2/2)", "0"),
        "e8": base_field("0", "exp((x3-x2)/2)", "0"),
        "e9": base_field("0", "0", "exp((x1-x3)/2)"),
        "e10": base_field("0", "0", "exp((x2-x3)/2)"),
        "e11": base_field("0", "0", "1"),
        "e12": base_field("0", "0", "exp(-x3/2)"),
    }


@pytest.fixture(scope="session")
def flat_isometry_generators():
    return {
        "g1": base_field("exp((x2-x1)/2)", "-exp((x1-x2)/2)", "0"),
        "g2": base_field("exp(-x1/2)", "0", "0"),
        "g3": base_field("exp((x3-x1)/2)", "0", "-exp((x1-x3)/2)"),
        "g4": base_field("0", "exp(-x2/2)", "0"),
        "g5": base_field("0", "exp((x3-x2)/2)", "-exp((x2-x3)/2)"),
        "g6": base_field("0", "0", "exp(-x3/2)"),
    }
