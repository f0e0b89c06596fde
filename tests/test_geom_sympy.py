"""Differential checks of the spray and the curvature in sympy.

spraylie reads the spray off the energy's Euler-Lagrange equations; here the
same G^k = gamma^k_ij y^i y^j / 2 is built from the Christoffel symbols of
the metric entries in sympy, with sympy's own inverse of g.  The curvature,
which spraylie builds from the connection's index of Gamma^k_jl, is rebuilt
here by differentiating the spray in sympy.  sympy is a test-only
dependency: the program never imports it.
"""

from __future__ import annotations

import pytest

from spraylie import geom
from spraylie.symexpr import parse_expr
from tests.conftest import build_pipeline
from tests.test_geom import ALL_METRICS

sympy = pytest.importorskip("sympy")
from tests.test_symexpr_sympy import _to_sympy  # noqa: E402  (needs sympy)


def _christoffel_spray(metric: geom.MetricSpec) -> list:
    n = metric.dim
    x = sympy.symbols(f"x1:{n + 1}")
    y = sympy.symbols(f"y1:{n + 1}")
    g = sympy.Matrix(n, n, lambda i, j: _to_sympy(metric.g[i][j]))
    inv = sympy.simplify(g.inv())
    out = []
    for k in range(n):
        acc = 0
        for i in range(n):
            for j in range(n):
                gamma = sum(
                    inv[k, l] * (g[l, j].diff(x[i]) + g[i, l].diff(x[j]) - g[i, j].diff(x[l]))
                    for l in range(n)
                ) / 2
                acc += gamma * y[i] * y[j]
        out.append(acc / 2)
    return out


def _matrix(rows) -> list[list]:
    return [[parse_expr(e) for e in row] for row in rows]


def _transpose(m) -> list[list]:
    return [list(col) for col in zip(*m)]


def _product(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][l] * b[l][j] for l in range(n)), parse_expr("0")) for j in range(n))
        for i in range(n)
    )


def _congruent_metric(u, u_inv, d, d_inv) -> geom.MetricSpec:
    """g = U^T D U with inverse U^-1 D^-1 U^-T, both in the ring."""
    u, u_inv, d, d_inv = (_matrix(m) for m in (u, u_inv, d, d_inv))
    g = _product(_transpose(u), _product(d, u))
    g_inv = _product(u_inv, _product(d_inv, _transpose(u_inv)))
    return geom.MetricSpec(len(u), g, kind="general", g_inv=g_inv)


# non-diagonal metrics whose entries depend on x
GENERAL_METRICS = {
    "2d": (
        [["1", "x2"], ["0", "1"]],
        [["1", "-x2"], ["0", "1"]],
        [["exp(x1)", "0"], ["0", "1"]],
        [["exp(-x1)", "0"], ["0", "1"]],
    ),
    "3d": (
        [["1", "x3", "0"], ["0", "1", "exp(x1)"], ["0", "0", "1"]],
        [["1", "-x3", "x3*exp(x1)"], ["0", "1", "-exp(x1)"], ["0", "0", "1"]],
        [["exp(x2)", "0", "0"], ["0", "1", "0"], ["0", "0", "exp(-x1)"]],
        [["exp(-x2)", "0", "0"], ["0", "1", "0"], ["0", "0", "exp(x1)"]],
    ),
}


def _assert_spray_matches(metric: geom.MetricSpec) -> None:
    spray = geom.spray_from_metric(metric)
    for k, (got, want) in enumerate(zip(spray.G, _christoffel_spray(metric))):
        assert sympy.simplify(_to_sympy(got) - want) == 0, k


@pytest.mark.parametrize("entries", ALL_METRICS, ids=lambda e: "|".join(e)[:40])
def test_diagonal_spray_agrees_with_sympy_christoffel(entries):
    _assert_spray_matches(build_pipeline(entries)[0])


@pytest.mark.parametrize("name", sorted(GENERAL_METRICS))
def test_general_spray_agrees_with_sympy_christoffel(name):
    metric = _congruent_metric(*GENERAL_METRICS[name])
    assert any(metric.g[i][j] for i in range(metric.dim) for j in range(metric.dim) if i != j)
    _assert_spray_matches(metric)


def _sympy_curvature(spray: geom.SprayData) -> list:
    """R^k_ij = d_j Gamma^k_i - d_i Gamma^k_j + Gamma^l_i d_(y^l) Gamma^k_j - Gamma^l_j d_(y^l) Gamma^k_i."""
    n = spray.dim
    x = sympy.symbols(f"x1:{n + 1}")
    y = sympy.symbols(f"y1:{n + 1}")
    G = [_to_sympy(g) for g in spray.G]
    gamma = [[G[k].diff(y[i]) for i in range(n)] for k in range(n)]
    return [
        [
            [
                gamma[k][i].diff(x[j])
                - gamma[k][j].diff(x[i])
                + sum(gamma[l][i] * gamma[k][j].diff(y[l]) - gamma[l][j] * gamma[k][i].diff(y[l]) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        for k in range(n)
    ]


def _assert_curvature_matches(metric: geom.MetricSpec) -> None:
    spray = geom.spray_from_metric(metric)
    curv = geom.curvature(geom.connection_from_spray(spray))
    want = _sympy_curvature(spray)
    n = metric.dim
    for k in range(n):
        for i in range(n):
            for j in range(n):
                got = _to_sympy(curv.R1[k][i][j])
                assert sympy.expand(got - want[k][i][j]) == 0, (k, i, j)


@pytest.mark.parametrize("entries", ALL_METRICS, ids=lambda e: "|".join(e)[:40])
def test_diagonal_curvature_agrees_with_sympy(entries):
    _assert_curvature_matches(build_pipeline(entries)[0])


@pytest.mark.parametrize("name", sorted(GENERAL_METRICS))
def test_general_curvature_agrees_with_sympy(name):
    _assert_curvature_matches(_congruent_metric(*GENERAL_METRICS[name]))
