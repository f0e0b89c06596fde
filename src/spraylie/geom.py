"""Metric-to-curvature pipeline.

From a metric whose entries are exact exponential-polynomial scalars this
module produces, in order: the energy, the geodesic spray read off the
energy's Euler-Lagrange equations, the induced linear connection,
horizontal/vertical projectors, each built from Gamma (`VectorOneForm.blocks`),
and the curvature.  The curvature is computed twice on demand -- once from the
component formula and once through the Frolicher-Nijenhuis self-bracket of the
horizontal projector -- and the two routes are required to agree exactly.
Each sum of products on the way (the check g g^-1 = I, the spray's
Euler-Lagrange sums, the quadratic terms of the curvature) is one call to the
ring's `CanonicalExpr.sum_of_products`.

Index conventions (0-based indices over 1-based variables).  Each y-linear
table is stored once; its y-coefficients are a sparse index that the data
class builds from it and that holds only the nonzero entries; `curvature`
reads Gamma^j_il from that index and the x-partials of Gamma^j_i from the
table the connection takes once (`ConnectionData.x_partials`):
    gamma1[j][i]         = Gamma^j_i  = dG^j/dy^i          (y-linear)
    gamma2[(j, i)][l]    = Gamma^j_il = d^2 G^j/dy^i dy^l  (x-only, symmetric in i, l)
    R1[k][i][j]          = R^k_ij     (y-linear, antisymmetric in i, j)
    R2[(k, i, j)][l]     = R^k_l,ij   = coefficient of y^l in R^k_ij, for i < j
"""

from __future__ import annotations

import functools
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
from .symexpr import ZERO, CanonicalExpr, Record, SymExprError, yvar

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
    "horizontal_projector",
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


class MetricSpec(Record):
    """Symmetric metric with exact entries depending on base variables only."""

    _fields = ("dim", "g", "kind", "g_inv")

    def __init__(
        self,
        dim: int,
        g: tuple[tuple[CanonicalExpr, ...], ...],
        kind: str = "general",
        g_inv: tuple[tuple[CanonicalExpr, ...], ...] | None = None,
    ):
        self.dim = dim
        self.g = g
        self.kind = kind
        self.g_inv = g_inv
        n = dim
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
            # g g^-1 = I, each entry summed over the row's nonzero entries only
            one = CanonicalExpr.const(1)
            for i, row in enumerate(self.g):
                support = [(l, entry) for l, entry in enumerate(row) if entry]
                for j in range(n):
                    product = CanonicalExpr.sum_of_products((e, self.g_inv[l][j]) for l, e in support)
                    if product != (one if j == i else ZERO):
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


class SprayData(Record):
    """Spray coefficients; each G^k must be y-homogeneous of degree two."""

    _fields = ("G",)

    def __init__(self, G: tuple[CanonicalExpr, ...]):
        self.G = G
        for k, coeff in enumerate(G):
            if not coeff.is_y_homogeneous(2):
                raise GeometryError(f"spray coefficient {k + 1} is not quadratic in y")

    @property
    def dim(self) -> int:
        return len(self.G)

    @functools.cached_property
    def field(self) -> TMField:
        """The spray as a tangent-bundle field (`spray_field`), built once."""
        return spray_field(self)

    @functools.cached_property
    def partials(self) -> tuple[tuple[CanonicalExpr, ...], ...]:
        """partials[k][s] = d_s(-2 G^k) over the slots x1..xn, y1..yn, taken once
        and shared by every spray-symmetry test."""
        n = self.dim
        slots = [f"x{l + 1}" for l in range(n)] + [f"y{l + 1}" for l in range(n)]
        return tuple(
            tuple(c.diff(v) for v in slots) if c else (c,) * (2 * n)
            for c in self.field.components[n:]
        )


def _y_coefficients(expr: CanonicalExpr, what: str) -> dict[int, CanonicalExpr]:
    """{l: f_l} for expr = sum_l y^(l+1) f_l(x), in increasing l."""
    try:
        parts = expr.y_linear_parts()
    except SymExprError:
        raise InvariantViolation(f"{what} must be y-linear") from None
    return {l - 1: parts[l] for l in sorted(parts)}


class ConnectionData(Record):
    """The y-linear Gamma^j_i; `gamma2` is the index of their y-coefficients, built here."""

    _fields = ("gamma1",)  # gamma2 follows from gamma1

    def __init__(self, gamma1: tuple[tuple[CanonicalExpr, ...], ...]):
        self.gamma1 = gamma1
        gamma2: dict[tuple[int, int], dict[int, CanonicalExpr]] = {}
        for j, row in enumerate(gamma1):
            for i, entry in enumerate(row):
                if entry:
                    gamma2[(j, i)] = _y_coefficients(entry, "connection coefficients")
        # every entry that could break Gamma^j_il = Gamma^j_li is in the index
        for (j, i), coeffs in gamma2.items():
            for l, coeff in coeffs.items():
                if gamma2.get((j, l), {}).get(i) != coeff:
                    raise InvariantViolation("second connection coefficients must be symmetric")
        self.gamma2 = gamma2

    @property
    def dim(self) -> int:
        return len(self.gamma1)

    @functools.cached_property
    def x_partials(self) -> tuple[tuple[tuple[CanonicalExpr, ...], ...], ...]:
        """x_partials[j][i][k] = d Gamma^j_i / dx^k, taken once and shared by
        `curvature` and every connection-symmetry test."""
        xs = [f"x{k + 1}" for k in range(self.dim)]
        return tuple(
            tuple(tuple(e.diff(x) for x in xs) if e else (e,) * self.dim for e in row)
            for row in self.gamma1
        )


class CurvatureData(Record):
    """The y-linear R^k_ij; `R2` is the index of their y-coefficients, built here."""

    _fields = ("R1",)  # R2 follows from R1

    def __init__(self, R1: tuple[tuple[tuple[CanonicalExpr, ...], ...], ...]):
        self.R1 = R1
        n = len(R1)
        R2: dict[tuple[int, int, int], dict[int, CanonicalExpr]] = {}
        for k, plane in enumerate(R1):
            for i in range(n):
                if plane[i][i]:
                    raise InvariantViolation("curvature is not antisymmetric in its lower pair")
                for j in range(i + 1, n):
                    if plane[i][j] != -plane[j][i]:
                        raise InvariantViolation("curvature is not antisymmetric in its lower pair")
                    if plane[i][j]:
                        R2[(k, i, j)] = _y_coefficients(plane[i][j], "curvature")
        self.R2 = R2

    @property
    def dim(self) -> int:
        return len(self.R1)

    def is_zero(self) -> bool:
        return not self.R2


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
        transport = CanonicalExpr.sum_of_products((ys[j], momentum.diff(xs[j])) for j in range(n))
        lowered.append(transport - energy.diff(xs[l]))
    inv = metric.inverse()
    half = Fraction(1, 2)
    return SprayData(tuple(CanonicalExpr.sum_of_products(zip(row, lowered)) * half for row in inv))


def connection_from_spray(spray: SprayData) -> ConnectionData:
    """Gamma^j_i = dG^j/dy^i; the data class reads Gamma^j_il off their y-coefficients."""
    n = spray.dim
    return ConnectionData(
        tuple(tuple(spray.G[j].diff(f"y{i + 1}") for i in range(n)) for j in range(n))
    )


def horizontal_projector(connection: ConnectionData) -> VectorOneForm:
    """The horizontal projector h: d/dx^i -> d/dx^i - Gamma^j_i d/dy^j, d/dy^i -> 0."""
    lower_left = [[-g for g in row] for row in connection.gamma1]
    return VectorOneForm.blocks(connection.dim, 1, 0, lower_left)


def projectors(connection: ConnectionData) -> tuple[VectorOneForm, VectorOneForm]:
    """Horizontal and vertical projectors, each from its own definition:
    v: d/dx^i -> Gamma^j_i d/dy^j, d/dy^i -> d/dy^i, so h + v = I is a check."""
    v = VectorOneForm.blocks(connection.dim, 0, 1, connection.gamma1)
    return horizontal_projector(connection), v


def tangent_structure(n: int) -> VectorOneForm:
    """J: d/dx^i -> d/dy^i, d/dy^i -> 0."""
    identity = [[CanonicalExpr.const(int(i == j)) for i in range(n)] for j in range(n)]
    return VectorOneForm.blocks(n, 0, 0, identity)


def liouville(n: int) -> TMField:
    """The fiber dilation field y^i d/dy^i."""
    comps = [CanonicalExpr()] * n + [yvar(i + 1) for i in range(n)]
    return TMField(tuple(comps))


def curvature(connection: ConnectionData) -> CurvatureData:
    """R^k_ij = dGamma^k_i/dx^j - dGamma^k_j/dx^i + Gamma^l_i Gamma^k_jl - Gamma^l_j Gamma^k_il,

    evaluated for i < j, with Gamma^k_jl = dGamma^k_j/dy^l read from the
    connection's index; R^k_ji = -R^k_ij and R^k_ii = 0."""
    n = connection.dim
    g1, g2, dg = connection.gamma1, connection.gamma2, connection.x_partials

    def quadratic(k: int, i: int, j: int) -> CanonicalExpr:
        """Gamma^l_i Gamma^k_jl, summed over the nonzero Gamma^k_jl; `ZERO` if there are none."""
        coeffs = g2.get((k, j))
        if not coeffs:
            return ZERO
        return CanonicalExpr.sum_of_products((g1[l][i], c) for l, c in coeffs.items())

    r1 = []
    for k in range(n):
        plane = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                acc = dg[k][i][j] - dg[k][j][i] + quadratic(k, i, j) - quadratic(k, j, i)
                plane[i][j], plane[j][i] = acc, -acc
        r1.append(tuple(tuple(row) for row in plane))
    return CurvatureData(tuple(r1))


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
    return fn_bracket(horizontal_projector(connection)).scale(Fraction(1, 2))


def curvature_via_almost_product(connection: ConnectionData) -> VectorTwoForm:
    """Curvature as one eighth of the self-bracket of 2h - I."""
    return fn_bracket(connection_oneform(connection)).scale(Fraction(1, 8))


def connection_via_bracket(spray: SprayData) -> VectorOneForm:
    """Recover 2h - I from the spray and the tangent structure.

    The bracket of the tangent structure with the spray, with the one-form
    placed first, is minus the Lie derivative along the spray.
    """
    n = spray.dim
    field = spray.field
    return lie_derivative_oneform(field, tangent_structure(n)).scale(-1)
