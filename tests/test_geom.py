"""Geometry pipeline: energy, sprays, connections, curvature.

Frozen values come from the three worked diagonal exponential metrics; the
structural identities are checked on those, on seeded random metrics, and on
random quadratic sprays that come from no metric.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from spraylie import geom
from spraylie.fields import (
    VectorOneForm,
    bracket_tm,
    lie_derivative_oneform,
    spray_field,
)
from spraylie.symexpr import ZERO, parse_expr
from tests.conftest import (
    FLAT_EXPONENTIAL,
    HYPERBOLIC_SHELL,
    PRODUCT_BLOCKS,
    RANDOM_METRIC_SEEDS,
    build_pipeline,
    curvature_potential,
    nijenhuis,
    quadratic_sprays,
    random_diag_entries,
)

E = parse_expr


def _gamma1_map(connection):
    n = connection.dim
    return {
        (j, i): connection.gamma1[j][i]
        for j in range(n)
        for i in range(n)
        if not connection.gamma1[j][i].is_zero()
    }


# ---------------------------------------------------------------------------
# frozen pipeline values
# ---------------------------------------------------------------------------


def test_shell_spray_coefficients(shell_pipeline):
    _, spray, _, _ = shell_pipeline
    assert spray.G[0] == E("y1*y3/2")
    assert spray.G[1] == E("y2*y3/2")
    assert spray.G[2] == E("-exp(x3)*(y1^2 + y2^2)/4")


def test_shell_connection_coefficients(shell_pipeline):
    _, _, connection, _ = shell_pipeline
    assert _gamma1_map(connection) == {
        (0, 0): E("y3/2"),
        (0, 2): E("y1/2"),
        (1, 1): E("y3/2"),
        (1, 2): E("y2/2"),
        (2, 0): E("-exp(x3)*y1/2"),
        (2, 1): E("-exp(x3)*y2/2"),
    }


def test_shell_horizontal_frame(shell_pipeline):
    # the third frame column ends in d/dy2, and the second carries +exp(x3)y2/2
    _, _, connection, _ = shell_pipeline
    h, _ = geom.projectors(connection)
    images = [[str(c) for c in h.frame_image(i).components] for i in range(3)]
    assert images[0] == ["1", "0", "0", "-1/2*y3", "0", "1/2*y1*exp(x3)"]
    assert images[1] == ["0", "1", "0", "0", "-1/2*y3", "1/2*y2*exp(x3)"]
    assert images[2] == ["0", "0", "1", "-1/2*y1", "-1/2*y2", "0"]


def test_blocks_spray_and_connection(blocks_pipeline):
    _, spray, connection, _ = blocks_pipeline
    assert spray.G[0] == E("y1*y2/2")
    assert spray.G[1] == E("-exp(x2)*y1^2/4")
    assert spray.G[2] == E("y3*y4/2")
    assert spray.G[3] == E("-exp(x4)*y3^2/4")
    assert _gamma1_map(connection) == {
        (0, 0): E("y2/2"),
        (0, 1): E("y1/2"),
        (1, 0): E("-exp(x2)*y1/2"),
        (2, 2): E("y4/2"),
        (2, 3): E("y3/2"),
        (3, 2): E("-exp(x4)*y3/2"),
    }


def test_flat_spray_is_quarter_squares(flat_pipeline):
    _, spray, connection, curv = flat_pipeline
    for k in range(3):
        assert spray.G[k] == E(f"y{k+1}^2/4")
    assert _gamma1_map(connection) == {
        (0, 0): E("y1/2"),
        (1, 1): E("y2/2"),
        (2, 2): E("y3/2"),
    }
    assert curv.is_zero()


def test_euclidean_metric_is_trivial():
    metric = geom.diagonal_metric([E("1"), E("1")])
    spray = geom.spray_from_metric(metric)
    assert all(g.is_zero() for g in spray.G)
    assert geom.curvature(geom.connection_from_spray(spray)).is_zero()


def test_energy_from_metric(shell_pipeline):
    metric, _, _, _ = shell_pipeline
    energy = geom.energy_from_metric(metric)
    assert energy == E("(exp(x3)*y1^2 + exp(x3)*y2^2 + y3^2)/2")


def test_shell_curvature_nonzero_and_semibasic(shell_pipeline):
    _, _, _, curv = shell_pipeline
    assert not curv.is_zero()
    two_form = geom.curvature_two_form(curv)
    n = curv.dim
    for a in range(2 * n):
        for b in range(2 * n):
            entry = two_form.entry(a, b)
            # semi-basic: vertical arguments are annihilated, values vertical
            if a >= n or b >= n:
                assert entry.is_zero()
            else:
                assert all(c.is_zero() for c in entry.components[:n])


def test_curvature_potential_contracts_spray(shell_pipeline):
    _, spray, _, curv = shell_pipeline
    potential = curvature_potential(spray, curv)
    n = curv.dim
    for k in range(n):
        for j in range(n):
            expected = ZERO
            for i in range(n):
                expected = expected + E(f"y{i+1}") * curv.R1[k][i][j]
            assert potential[k][j] == expected


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

ALL_METRICS = [HYPERBOLIC_SHELL, PRODUCT_BLOCKS, FLAT_EXPONENTIAL] + [
    random_diag_entries(seed, 3) for seed in RANDOM_METRIC_SEEDS
]


@pytest.mark.parametrize("entries", ALL_METRICS, ids=lambda e: "|".join(e)[:40])
def test_curvature_triple_agreement(entries):
    _, _, connection, curv = build_pipeline(entries)
    component_form = geom.curvature_two_form(curv)
    assert (component_form - geom.curvature_via_projector(connection)).is_zero()
    assert (component_form - geom.curvature_via_almost_product(connection)).is_zero()


@pytest.mark.parametrize("entries", ALL_METRICS, ids=lambda e: "|".join(e)[:40])
def test_projector_algebra(entries):
    _, _, connection, _ = build_pipeline(entries)
    h, v = geom.projectors(connection)
    identity = h.__class__.identity(h.dim)
    assert (h.compose(h) - h).is_zero()
    assert (v.compose(v) - v).is_zero()
    assert (h.compose(v)).is_zero()
    assert ((h + v) - identity).is_zero()


@pytest.mark.parametrize("entries", ALL_METRICS, ids=lambda e: "|".join(e)[:40])
def test_connection_from_spray_tangent_bracket(entries):
    # the spray/tangent-structure bracket, oriented one-form-first, is the
    # connection one-form; equivalently L_S J is its negative
    _, spray, connection, _ = build_pipeline(entries)
    assert (geom.connection_via_bracket(spray) - geom.connection_oneform(connection)).is_zero()
    S = spray_field(spray)
    J = geom.tangent_structure(spray.dim)
    lsj = lie_derivative_oneform(S, J)
    assert (lsj + geom.connection_oneform(connection)).is_zero()


@pytest.mark.parametrize("entries", [HYPERBOLIC_SHELL, PRODUCT_BLOCKS, FLAT_EXPONENTIAL])
def test_liouville_identities(entries):
    _, spray, _, _ = build_pipeline(entries)
    n = spray.dim
    C = geom.liouville(n)
    S = spray_field(spray)
    J = geom.tangent_structure(n)
    assert (bracket_tm(C, S) - S).is_zero()
    # [C, J] = -J, computed as the Lie derivative of J along C
    lcj = lie_derivative_oneform(C, J)
    assert (lcj + J).is_zero()


@settings(max_examples=20, deadline=None)
@given(quadratic_sprays())
def test_identities_that_hold_for_every_quadratic_spray(spray):
    """These need no agreement between independent routes, so `analyze` does not check them."""
    n = spray.dim
    connection = geom.connection_from_spray(spray)
    h, v = geom.projectors(connection)
    assert (h.compose(h) - h).is_zero()
    assert ((h + v) - VectorOneForm.identity(n)).is_zero()
    C, S, J = geom.liouville(n), spray_field(spray), geom.tangent_structure(n)
    assert (bracket_tm(C, S) - S).is_zero()
    assert (lie_derivative_oneform(C, J) + J).is_zero()
    eighth = geom.curvature_via_almost_product(connection)
    assert (eighth - geom.curvature_via_projector(connection)).is_zero()


def test_tangent_structure_squares_to_zero():
    J = geom.tangent_structure(3)
    assert J.compose(J).is_zero()
    assert nijenhuis(J).is_zero()


@pytest.mark.parametrize("entries", ALL_METRICS, ids=lambda e: "|".join(e)[:40])
def test_connection_index_holds_second_derivatives(entries):
    _, _, connection, _ = build_pipeline(entries)
    n = connection.dim
    for j in range(n):
        for i in range(n):
            coeffs = connection.gamma2.get((j, i), {})
            for l in range(n):
                assert coeffs.get(l, ZERO) == connection.gamma1[j][i].diff(f"y{l+1}")


def test_curvature_r2_reconstructs_r1(shell_pipeline):
    _, _, _, curv = shell_pipeline
    n = curv.dim
    assert curv.R2
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                coeffs = curv.R2.get((k, i, j), {})
                assert all(c and not c.uses_y() for c in coeffs.values())
                acc = ZERO
                for l, c in coeffs.items():
                    acc = acc + E(f"y{l+1}") * c
                # a nonzero R^k_ij missing from the index would leave acc zero
                assert acc == curv.R1[k][i][j]
    assert list(curv.R2) == sorted(curv.R2)
    assert all(i < j for _k, i, j in curv.R2)


def test_curvature_antisymmetry(blocks_pipeline):
    _, _, _, curv = blocks_pipeline
    n = curv.dim
    for k in range(n):
        for i in range(n):
            for j in range(n):
                assert curv.R1[k][i][j] == -curv.R1[k][j][i]


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------


def test_metric_requires_symmetry():
    g = [[E("1"), E("x1")], [E("0"), E("1")]]
    with pytest.raises(geom.MetricError):
        geom.MetricSpec(2, tuple(tuple(r) for r in g))


def test_metric_rejects_y_dependence():
    with pytest.raises(geom.MetricError):
        geom.diagonal_metric([E("y1"), E("1")])


def test_diagonal_metric_requires_unit_entries():
    # canonical-ring inverses only exist for single-term entries
    with pytest.raises(geom.MetricError):
        geom.diagonal_metric([E("1 + x1"), E("1")])


def test_general_metric_requires_verified_inverse():
    g = ((E("1"), E("0")), (E("0"), E("4")))
    bad_inv = ((E("1"), E("0")), (E("0"), E("1")))
    with pytest.raises(geom.MetricError):
        geom.MetricSpec(2, g, kind="general", g_inv=bad_inv)
    good_inv = ((E("1"), E("0")), (E("0"), E("1/4")))
    metric = geom.MetricSpec(2, g, kind="general", g_inv=good_inv)
    assert geom.spray_from_metric(metric).G[0].is_zero()


def test_spray_requires_quadratic_y():
    with pytest.raises(geom.GeometryError):
        geom.SprayData((E("y1"), E("y2^2")))


def test_general_metric_inverse_check_sees_every_entry():
    g = (
        (E("2"), E("1"), E("0"), E("0")),
        (E("1"), E("1"), E("0"), E("0")),
        (E("0"), E("0"), E("1"), E("0")),
        (E("0"), E("0"), E("0"), E("exp(x1)")),
    )
    inv = [
        [E("1"), E("-1"), E("0"), E("0")],
        [E("-1"), E("2"), E("0"), E("0")],
        [E("0"), E("0"), E("1"), E("0")],
        [E("0"), E("0"), E("0"), E("exp(-x1)")],
    ]
    geom.MetricSpec(4, g, kind="general", g_inv=tuple(tuple(r) for r in inv))
    # a wrong nonzero entry, a nonzero entry where the inverse has a zero, and
    # a missing diagonal entry, which leaves g g^-1 with no (3, 3) product at all
    for (row, col), wrong in (((0, 1), E("1")), ((2, 3), E("x1")), ((2, 2), E("0"))):
        bad = [list(r) for r in inv]
        bad[row][col] = wrong
        with pytest.raises(geom.MetricError):
            geom.MetricSpec(4, g, kind="general", g_inv=tuple(tuple(r) for r in bad))


def _tampered(table, index, delta):
    """A nested-tuple table with `delta` added at `index`."""
    if not index:
        return table + delta
    head, *rest = index
    return tuple(
        _tampered(entry, rest, delta) if pos == head else entry for pos, entry in enumerate(table)
    )


@pytest.mark.parametrize(
    "index, delta",
    [((0, 0), "y2"), ((0, 0), "x1"), ((1, 2), "y1*y2")],
    ids=["not symmetric", "constant in y", "quadratic in y"],
)
def test_connection_data_rejects_tampered_gamma(index, delta):
    _, _, good, _ = build_pipeline(HYPERBOLIC_SHELL)
    assert geom.ConnectionData(good.gamma1).gamma2 == good.gamma2
    with pytest.raises(geom.GeometryError):
        geom.ConnectionData(_tampered(good.gamma1, index, E(delta)))


@pytest.mark.parametrize(
    "tampers",
    [
        [((0, 0, 1), "y1")],
        [((0, 1, 1), "y1")],
        [((0, 0, 1), "x1"), ((0, 1, 0), "-x1")],
        [((0, 0, 1), "y1^2"), ((0, 1, 0), "-y1^2")],
    ],
    ids=["not antisymmetric", "nonzero diagonal", "constant in y", "quadratic in y"],
)
def test_curvature_data_rejects_tampered_r1(tampers):
    _, _, _, good = build_pipeline(HYPERBOLIC_SHELL)
    assert geom.CurvatureData(good.R1).R2 == good.R2
    R1 = good.R1
    for index, delta in tampers:
        R1 = _tampered(R1, index, E(delta))
    with pytest.raises(geom.GeometryError):
        geom.CurvatureData(R1)
