"""Metric-to-curvature pipeline.

From a metric whose entries are exact exponential-polynomial scalars this
module produces, in order: the energy, the geodesic spray read off the
energy's Euler-Lagrange equations, the induced linear connection,
horizontal/vertical projectors, and the curvature.  The curvature is
computed twice on demand -- once from the component formula and once through
the Frolicher-Nijenhuis self-bracket of the horizontal projector -- and the two
routes are required to agree exactly.

Index conventions (0-based arrays over 1-based variables):
    gamma1[j][i]    = Gamma^j_i   = dG^j/dy^i          (y-linear)
    gamma2[j][i][l] = Gamma^j_il  = d^2 G^j/dy^i dy^l  (x-only)
    R1[k][i][j]     = R^k_ij      (y-linear, antisymmetric in i, j)
    R2[k][l][i][j]  = coefficient of y^l in R^k_ij
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .fields import (
    TMField,
    VectorOneForm,
    VectorTwoForm,
    connection_oneform,
    energy_from_metric,
    fn_bracket,
    lie_derivative_oneform,
    spray_field,
)
from .symexpr import ZERO, CanonicalExpr, yvar

__all__ = [
    "GeometryError",
    "MetricError",
    "InvariantViolation",
    "MetricSpec",
    "SprayData",
    "ConnectionData",
    "CurvatureData",
    "spray_from_metric",
    "connection_from_spray",
    "projectors",
    "connection_oneform",
    "tangent_structure",
    "liouville",
    "energy_from_metric",
    "curvature",
    "curvature_two_form",
    "curvature_via_projector",
    "curvature_via_almost_product",
    "connection_via_bracket",
]


class GeometryError(Exception):
    """Base class for geometry-layer failures."""


class MetricError(GeometryError):
    """Invalid metric data."""


class InvariantViolation(GeometryError):
    """An internal structural identity failed; this is a bug, not bad input."""


@dataclass(frozen=True)
class MetricSpec:
    """Symmetric metric with exact entries depending on base variables only."""

    dim: int
    g: tuple[tuple[CanonicalExpr, ...], ...]
    kind: str = "general"
    g_inv: tuple[tuple[CanonicalExpr, ...], ...] | None = None

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise MetricError("dimension must be at least 1")
        if self.kind not in ("diagonal", "general"):
            raise MetricError(f"unknown metric kind {self.kind!r}")
        if len(self.g) != n or any(len(row) != n for row in self.g):
            raise MetricError("metric entries must form an n x n array")
        for i in range(n):
            for j in range(n):
                entry = self.g[i][j]
                if entry.uses_y():
                    raise MetricError("metric entries cannot depend on fiber variables")
                if entry.max_x_index() > n:
                    raise MetricError("metric entry uses a base variable beyond the dimension")
                if entry != self.g[j][i]:
                    raise MetricError("metric must be structurally symmetric")
        if self.kind == "diagonal":
            for i in range(n):
                for j in range(n):
                    if i != j and not self.g[i][j].is_zero():
                        raise MetricError("diagonal metric has a nonzero off-diagonal entry")
                unit = self.g[i][i].as_unit()
                if unit is None or not unit[0]:
                    raise MetricError(
                        "diagonal metric entries must be single terms c*exp(l(x))"
                    )
        else:
            if self.g_inv is None:
                raise MetricError("general metrics require an explicit inverse")
            if len(self.g_inv) != n or any(len(row) != n for row in self.g_inv):
                raise MetricError("metric inverse must form an n x n array")
            for i in range(n):
                for j in range(n):
                    acc = CanonicalExpr()
                    for l in range(n):
                        acc = acc + self.g[i][l] * self.g_inv[l][j]
                    if acc != CanonicalExpr.const(int(i == j)):
                        raise MetricError("supplied inverse does not invert the metric")

    def inverse(self) -> tuple[tuple[CanonicalExpr, ...], ...]:
        if self.kind == "diagonal":
            n = self.dim
            one = CanonicalExpr.const(1)
            return tuple(
                tuple(one / self.g[i][i] if i == j else CanonicalExpr() for j in range(n))
                for i in range(n)
            )
        assert self.g_inv is not None
        return self.g_inv

    @functools.cached_property
    def energy(self) -> CanonicalExpr:
        """E = g_ij y^i y^j / 2, built on first use and shared by the spray and
        every isometry test."""
        return energy_from_metric(self)


def diagonal_metric(entries) -> MetricSpec:
    """Convenience builder for a diagonal metric from its diagonal entries."""
    entries = tuple(entries)
    n = len(entries)
    g = tuple(
        tuple(entries[i] if i == j else CanonicalExpr() for j in range(n)) for i in range(n)
    )
    return MetricSpec(dim=n, g=g, kind="diagonal")


@dataclass(frozen=True)
class SprayData:
    """Spray coefficients; each G^k must be y-homogeneous of degree two."""

    G: tuple[CanonicalExpr, ...]

    def __post_init__(self):
        for k, coeff in enumerate(self.G):
            if not coeff.is_y_homogeneous(2):
                raise GeometryError(f"spray coefficient {k + 1} is not quadratic in y")

    @property
    def dim(self) -> int:
        return len(self.G)


@dataclass(frozen=True)
class ConnectionData:
    gamma1: tuple[tuple[CanonicalExpr, ...], ...]
    gamma2: tuple[tuple[tuple[CanonicalExpr, ...], ...], ...]

    def __post_init__(self):
        n = len(self.gamma1)
        for j in range(n):
            for i in range(n):
                if not self.gamma1[j][i].is_y_homogeneous(1) and not self.gamma1[j][i].is_zero():
                    raise InvariantViolation("connection coefficients must be y-linear")
                for l in range(n):
                    if self.gamma2[j][i][l].uses_y():
                        raise InvariantViolation("second connection coefficients must be x-only")
                    if self.gamma2[j][i][l] != self.gamma2[j][l][i]:
                        raise InvariantViolation("second connection coefficients must be symmetric")
        # gamma1 must be the y-contraction of gamma2
        ys = [yvar(l + 1) for l in range(n)]
        for j in range(n):
            for i in range(n):
                acc = ZERO
                for l, coeff in enumerate(self.gamma2[j][i]):
                    if coeff:
                        acc = acc + coeff * ys[l]
                if acc != self.gamma1[j][i]:
                    raise InvariantViolation("gamma1 is not the fiber contraction of gamma2")

    @property
    def dim(self) -> int:
        return len(self.gamma1)


@dataclass(frozen=True)
class CurvatureData:
    R1: tuple[tuple[tuple[CanonicalExpr, ...], ...], ...]
    R2: tuple[tuple[tuple[tuple[CanonicalExpr, ...], ...], ...], ...]

    def __post_init__(self):
        n = len(self.R1)
        ys = [yvar(l + 1) for l in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if self.R1[k][i][j] != -self.R1[k][j][i]:
                        raise InvariantViolation("curvature is not antisymmetric in its lower pair")
                    acc = ZERO
                    for l in range(n):
                        if self.R2[k][l][i][j]:
                            acc = acc + ys[l] * self.R2[k][l][i][j]
                    if acc != self.R1[k][i][j]:
                        raise InvariantViolation("curvature coefficient extraction mismatch")

    @property
    def dim(self) -> int:
        return len(self.R1)

    def is_zero(self) -> bool:
        return all(
            self.R1[k][i][j].is_zero()
            for k in range(self.dim)
            for i in range(self.dim)
            for j in range(self.dim)
        )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def spray_from_metric(metric: MetricSpec) -> SprayData:
    """G^k read off the energy's Euler-Lagrange equations:

        2 G^k = g^kl (y^j d_(x^j) d_(y^l) E - d_(x^l) E),

    which is y^i y^j gamma^k_ij with the Christoffel symbols of g.
    """
    n = metric.dim
    energy = metric.energy
    xs = [f"x{l + 1}" for l in range(n)]
    ys = [yvar(l + 1) for l in range(n)]
    lowered = []  # 2 g_lk G^k
    for l in range(n):
        momentum = energy.diff(f"y{l + 1}")
        acc = -energy.diff(xs[l])
        for j in range(n):
            d = momentum.diff(xs[j])
            if d:
                acc = acc + ys[j] * d
        lowered.append(acc)
    inv = metric.inverse()
    coeffs = []
    for k in range(n):
        acc = ZERO
        for l in range(n):
            if inv[k][l] and lowered[l]:
                acc = acc + inv[k][l] * lowered[l]
        coeffs.append(acc * Fraction(1, 2))
    return SprayData(tuple(coeffs))


def connection_from_spray(spray: SprayData) -> ConnectionData:
    """Gamma^j_i = dG^j/dy^i and Gamma^j_il = d^2 G^j / dy^i dy^l."""
    n = spray.dim
    gamma1 = tuple(
        tuple(spray.G[j].diff(f"y{i + 1}") for i in range(n)) for j in range(n)
    )
    gamma2 = tuple(
        tuple(
            tuple(gamma1[j][i].diff(f"y{l + 1}") for l in range(n)) for i in range(n)
        )
        for j in range(n)
    )
    return ConnectionData(gamma1, gamma2)


def projectors(connection: ConnectionData) -> tuple[VectorOneForm, VectorOneForm]:
    """Horizontal and vertical projectors h = (I + P)/2 and v = (I - P)/2."""
    n = connection.dim
    product = connection_oneform(connection)
    ident = VectorOneForm.identity(n)
    h = (ident + product).scale(Fraction(1, 2))
    v = (ident - product).scale(Fraction(1, 2))
    return h, v


def tangent_structure(n: int) -> VectorOneForm:
    """J: d/dx^i -> d/dy^i, d/dy^i -> 0."""
    rows = [[CanonicalExpr() for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        rows[n + i][i] = CanonicalExpr.const(1)
    return VectorOneForm(tuple(tuple(r) for r in rows))


def liouville(n: int) -> TMField:
    """The fiber dilation field y^i d/dy^i."""
    comps = [CanonicalExpr()] * n + [yvar(i + 1) for i in range(n)]
    return TMField(tuple(comps))


def curvature(connection: ConnectionData) -> CurvatureData:
    """R^k_ij = dGamma^k_i/dx^j - dGamma^k_j/dx^i
               + Gamma^l_i dGamma^k_j/dy^l - Gamma^l_j dGamma^k_i/dy^l."""
    n = connection.dim
    g1 = connection.gamma1
    xs = [f"x{l + 1}" for l in range(n)]
    ys = [f"y{l + 1}" for l in range(n)]
    r1 = []
    for k in range(n):
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = g1[k][i].diff(xs[j]) - g1[k][j].diff(xs[i])
                for l in range(n):
                    if g1[l][i]:
                        acc = acc + g1[l][i] * g1[k][j].diff(ys[l])
                    if g1[l][j]:
                        acc = acc - g1[l][j] * g1[k][i].diff(ys[l])
                row.append(acc)
            plane.append(tuple(row))
        r1.append(tuple(plane))
    r2 = []
    for k in range(n):
        block = [[[CanonicalExpr() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                entry = r1[k][i][j]
                if entry.is_zero():
                    continue
                try:
                    parts = entry.y_linear_parts()
                except Exception as exc:  # pragma: no cover - guarded by construction
                    raise InvariantViolation(
                        f"curvature entry ({k + 1},{i + 1},{j + 1}) is not y-linear"
                    ) from exc
                for l, coeff in parts.items():
                    block[l - 1][i][j] = coeff
        r2.append(tuple(tuple(tuple(row) for row in plane) for plane in block))
    return CurvatureData(tuple(tuple(p) for p in r1), tuple(r2))


def curvature_two_form(curv: CurvatureData) -> VectorTwoForm:
    """Embed the component curvature as a semi-basic vector two-form.

    Only the horizontal pairs i < j < n carry R^k_ij; every other stored pair
    shares one zero field.
    """
    n = curv.dim
    zero = TMField.zero(n)

    def value(i: int, j: int) -> TMField:
        if j >= n:
            return zero
        return TMField((ZERO,) * n + tuple(curv.R1[k][i][j] for k in range(n)))

    return VectorTwoForm(
        tuple(tuple(value(i, j) for j in range(i + 1, 2 * n)) for i in range(2 * n))
    )


def curvature_via_projector(connection: ConnectionData) -> VectorTwoForm:
    """Curvature as half the self-bracket of the horizontal projector."""
    h, _v = projectors(connection)
    return fn_bracket(h).scale(Fraction(1, 2))


def curvature_via_almost_product(connection: ConnectionData) -> VectorTwoForm:
    """Curvature as one eighth of the self-bracket of 2h - I."""
    return fn_bracket(connection_oneform(connection)).scale(Fraction(1, 8))


def connection_via_bracket(spray: SprayData) -> VectorOneForm:
    """Recover 2h - I from the spray and the tangent structure.

    The bracket of the tangent structure with the spray, with the one-form
    placed first, is minus the Lie derivative along the spray.
    """
    n = spray.dim
    field = spray_field(spray)
    return lie_derivative_oneform(field, tangent_structure(n)).scale(-1)
