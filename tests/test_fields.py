"""Vector fields on the tangent bundle: lifts, brackets, membership, solving."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spraylie import fields, geom, linalg
from spraylie.fields import (
    BaseField,
    TMField,
    VectorOneForm,
    _connection_obstruction,
    _spray_obstruction,
    apply_to_scalar,
    bracket_base,
    bracket_tm,
    combine_fields,
    complete_lift,
    connection_oneform,
    constant_span,
    fn_bracket,
    horizontal_nullity_span,
    in_AGamma,
    in_Ag,
    in_AS,
    in_nullity,
    is_horizontal,
    lie_derivative_oneform,
    nullity_rank_numeric,
    solve_in_span,
    spray_field,
)
from spraylie.symexpr import CanonicalExpr, parse_expr, yvar
from tests.conftest import (
    FLAT_EXPONENTIAL,
    HYPERBOLIC_SHELL,
    PRODUCT_BLOCKS,
    base_field,
    build_pipeline,
    constant_nullity_kernel,
    frame_field,
    is_projectable,
    quadratic_sprays,
)

E = parse_expr


def test_complete_lift_components():
    X = base_field("x1*x2", "exp(x1)")
    lifted = complete_lift(X)
    assert [str(c) for c in lifted.components] == [
        "x1*x2",
        "exp(x1)",
        "x2*y1 + x1*y2",
        "y1*exp(x1)",
    ]


def test_jacobian_holds_the_first_partials():
    X = base_field("x1*x2", "exp(x1 - x3)", "x3^2 + 1")
    assert len(X.jacobian) == X.dim
    for k, row in enumerate(X.jacobian):
        assert len(row) == X.dim
        for l, entry in enumerate(row):
            assert entry == X.components[k].diff(f"x{l + 1}")


def test_each_first_partial_of_a_field_is_taken_once(monkeypatch, shell_pipeline):
    _, _, connection, curv = shell_pipeline
    # no component is constant, so no lift component is the zero that a
    # constant component would share
    dictionary = [
        base_field("x1*x2", "exp(x1 - x3)", "x3^2"),
        base_field("x2", "x1", "x1*exp(x3)"),
        base_field("exp(-x3)", "x2^2", "x1 + x2"),
    ]
    expected = Counter(
        (id(c), f"x{l + 1}") for field in dictionary for c in field.components for l in range(3)
    )
    taken = Counter()
    component_ids = {key[0] for key in expected}
    diff = CanonicalExpr.diff

    def counted(self, var):
        if id(self) in component_ids:
            taken[id(self), var] += 1
        return diff(self, var)

    monkeypatch.setattr(CanonicalExpr, "diff", counted)
    for field in dictionary:
        in_AGamma(field, connection)
    horizontal_nullity_span(dictionary, connection, curv)
    constant_span(dictionary)
    assert taken == expected


def test_spray_and_connection_partials_are_taken_once(
    monkeypatch, shell_pipeline, shell_generators
):
    # fresh copies: the pipeline's connection took its partials for the curvature
    spray = geom.SprayData(shell_pipeline[1].G)
    connection = geom.connection_from_spray(spray)
    n = spray.dim
    xs = [f"x{l + 1}" for l in range(n)]
    slots = xs + [f"y{l + 1}" for l in range(n)]
    expected = Counter((id(c), v) for c in spray.field.components[n:] if c for v in slots)
    expected.update((id(e), x) for row in connection.gamma1 for e in row if e for x in xs)
    watched = {key[0] for key in expected}
    taken = Counter()
    diff = CanonicalExpr.diff

    def counted(self, var):
        if id(self) in watched:
            taken[id(self), var] += 1
        return diff(self, var)

    monkeypatch.setattr(CanonicalExpr, "diff", counted)
    for field in shell_generators.values():
        assert in_AS(field, spray) and in_AGamma(field, connection)
    # each nonzero -2 G^k once per slot, each nonzero Gamma^j_i once per x
    assert taken == expected


@pytest.mark.parametrize(
    "a, b",
    [
        (base_field("x1", "exp(x2)"), base_field("0", "x1*x2")),
        (TMField.make(E(c) for c in ("x1", "0", "y1", "y2*x2")), TMField.make(E(c) for c in ("1", "y1", "0", "x1"))),
    ],
    ids=["base", "tangent bundle"],
)
def test_field_arithmetic_keeps_the_class(a, b):
    cls = type(a)
    for value in (a + b, a - b, -a, a.scale(Fraction(3, 2)), a.scale(0), cls.make(a.components)):
        assert type(value) is cls
    assert (a - b + b - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(2) == a + a
    assert a.scale(0).is_zero()


def test_arithmetic_on_different_dimensions_raises():
    two, three = base_field("x1", "1"), base_field("x1", "x2", "1")
    tm2 = TMField.make(E(c) for c in ("x1", "y1"))
    cases = [
        lambda: two + three,
        lambda: two - three,
        lambda: two + BaseField.zero(3),  # checked before a zero operand is skipped
        lambda: tm2 - TMField.zero(2),
        lambda: VectorOneForm.identity(2).apply(tm2),
        lambda: VectorOneForm.identity(2).apply(TMField.zero(1)),
        lambda: VectorOneForm.identity(1) + VectorOneForm.identity(2),
        lambda: fn_bracket(VectorOneForm.identity(1)) - fn_bracket(VectorOneForm.identity(2)),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="different dimension"):
            case()


def test_a_zero_operand_returns_the_field_itself():
    a = TMField.make(E(c) for c in ("x1", "0", "y1", "1"))
    zero = TMField.zero(2)
    assert a + zero is a and a - zero is a and zero.scale(3) is zero


def test_complete_lift_rejects_nothing_but_projects():
    X = base_field("1", "0")
    lifted = complete_lift(X)
    assert is_projectable(lifted)
    assert lifted.components[2].is_zero() and lifted.components[3].is_zero()


def test_bracket_base_antisymmetric_and_leibniz():
    a = base_field("x1^2", "x2")
    b = base_field("exp(x2)", "x1")
    ab = bracket_base(a, b)
    ba = bracket_base(b, a)
    assert (ab + ba).is_zero()
    # [a, a] = 0
    assert bracket_base(a, a).is_zero()


def _random_base(rng: random.Random, n: int) -> BaseField:
    pool = ["0", "1", "x1", "x2", "x1*x2", "exp(x1)", "exp(x1 - x2)", "x1^2/2", "-x2"]
    return base_field(*[rng.choice(pool) for _ in range(n)])


def test_lift_bracket_homomorphism_random():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_base(rng, 2)
        b = _random_base(rng, 2)
        lhs = complete_lift(bracket_base(a, b))
        rhs = bracket_tm(complete_lift(a), complete_lift(b))
        assert (lhs - rhs).is_zero()


def test_tm_bracket_jacobi_random():
    rng = random.Random(19)
    for _ in range(10):
        fields = [complete_lift(_random_base(rng, 2)) for _ in range(3)]
        a, b, c = fields
        total = (
            bracket_tm(a, bracket_tm(b, c))
            + bracket_tm(b, bracket_tm(c, a))
            + bracket_tm(c, bracket_tm(a, b))
        )
        assert total.is_zero()


_CONSTANT_OR_X = ["0", "1", "-3/2", "x1", "x2^2", "x1*x2", "exp(x1)", "x2*exp(x1 - x2)"]
_Y_DEPENDENT = ["y1", "x1*y2", "y1*y2", "y2^2*exp(x2)", "x2*y1 - y2"]


def _sums(pool):
    """Zero, one or two pool entries added up, so most draws are sparse."""
    terms = st.sampled_from([E(text) for text in pool])
    return st.lists(terms, max_size=2).map(lambda parts: sum(parts, CanonicalExpr()))


_base_components = st.tuples(*[_sums(_CONSTANT_OR_X)] * 2)
_tm_components = st.tuples(*[_sums(_CONSTANT_OR_X + _Y_DEPENDENT)] * 4)


def _derive_by_definition(components, names, f):
    """X(f) = sum_s X^s d_s f, every slot multiplied and added."""
    total = CanonicalExpr()
    for comp, name in zip(components, names):
        total = total + comp * f.diff(name)
    return total


def _bracket_by_definition(a, b, names):
    return tuple(
        _derive_by_definition(a, names, bk) - _derive_by_definition(b, names, ak)
        for ak, bk in zip(a, b)
    )


@settings(max_examples=80, deadline=None)
@given(_tm_components, _tm_components, _base_components, _base_components)
def test_derivation_kernel_matches_the_plain_definition(a, b, p, q):
    xs, xys = ("x1", "x2"), ("x1", "x2", "y1", "y2")
    for f in a + b:
        assert apply_to_scalar(TMField(a), f) == _derive_by_definition(a, xys, f)
    assert bracket_tm(TMField(a), TMField(b)).components == _bracket_by_definition(a, b, xys)
    assert bracket_base(BaseField(p), BaseField(q)).components == _bracket_by_definition(p, q, xs)
    ys = (yvar(1), yvar(2))
    lift = p + tuple(_derive_by_definition(ys, xs, c) for c in p)
    assert complete_lift(BaseField(p)).components == lift


def _mostly_zero(pool):
    """Zero on about half the draws, else a sparse sum from the pool."""
    return st.one_of(st.just(CanonicalExpr()), _sums(pool))


_sparse_tm_components = st.tuples(*[_mostly_zero(_CONSTANT_OR_X + _Y_DEPENDENT)] * 4)


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[_sparse_tm_components] * 4), _sparse_tm_components)
def test_oneform_apply_matches_the_dense_sum(rows, components):
    # image component b is sum_a L[b][a] Y^a, every entry multiplied and added
    dense = tuple(
        sum((rows[b][a] * components[a] for a in range(4)), CanonicalExpr()) for b in range(4)
    )
    assert VectorOneForm(rows).apply(TMField(components)).components == dense


def test_frame_field_and_oneform_apply():
    J = geom.tangent_structure(2)
    dx1 = frame_field(2, 0)
    dy1 = frame_field(2, 2)
    assert (J.apply(dx1) - dy1).is_zero()
    assert J.apply(dy1).is_zero()


# a metric on 3 coordinates that only x2 enters: no frame image of h depends on x1 or x3
_X2_ONLY = ("exp(x2)", "1", "exp(x2)")


def _lie_derivative_cases():
    _, _, connection, _ = build_pipeline(("exp(x2)", "1"))
    _, _, x2_only, _ = build_pipeline(_X2_ONLY)
    _, flat, _, _ = build_pipeline(("1", "1"))
    return [
        (complete_lift(base_field("x1", "x2")), geom.horizontal_projector(connection)),
        # X depends on x2 and y2 only, the images of h on neither x1 nor x3
        (complete_lift(base_field("x2", "0", "1")), geom.horizontal_projector(x2_only)),
        (TMField.make(E(c) for c in ("y1*x2", "0", "0", "x2^2", "0", "0")), connection_oneform(x2_only)),
        # the flat spray y^i d/dx^i with the tangent structure: [J, S] = -(2h - I)
        (flat.field, geom.tangent_structure(2)),
    ]


def test_lie_derivative_is_bracket_of_images():
    # (L_X L)(Y) = [X, LY] - L[X, Y] checked against a direct expansion
    for X, form in _lie_derivative_cases():
        size = len(form.matrix)
        derived = lie_derivative_oneform(X, form)
        for a in range(size):
            Y = frame_field(size // 2, a)
            direct = bracket_tm(X, form.apply(Y)) - form.apply(bracket_tm(X, Y))
            assert (derived.apply(Y) - direct).is_zero()
        assert not derived.is_zero()


def test_fn_bracket_graded_antisymmetry_degree_one():
    _, _, connection, _ = build_pipeline(("exp(x2)", "1"))
    h, _ = geom.projectors(connection)
    hh = fn_bracket(h)
    assert not hh.is_zero()
    for a in range(4):
        assert hh.entry(a, a).is_zero()
        for b in range(4):
            assert (hh.entry(a, b) + hh.entry(b, a)).is_zero()
    # labelled() walks the pairs a < b row by row, each pair's slots in frame order
    names = ["x1", "x2", "y1", "y2"]
    expected = [
        (f"frame pair ({names[a]},{names[b]}) component {var}", comp)
        for a in range(4)
        for b in range(a + 1, 4)
        for var, comp in zip(names, hh.entry(a, b).components)
    ]
    assert list(hh.labelled()) == expected


def _fn_bracket_by_definition(K: VectorOneForm, L: VectorOneForm, x: TMField, y: TMField):
    """The general eight-term Frolicher-Nijenhuis bracket, [X, Y] included."""
    kx, ky, lx, ly = K.apply(x), K.apply(y), L.apply(x), L.apply(y)
    xy = bracket_tm(x, y)
    return (
        bracket_tm(kx, ly)
        + bracket_tm(lx, ky)
        + K.apply(L.apply(xy))
        + L.apply(K.apply(xy))
        - K.apply(bracket_tm(lx, y))
        - L.apply(bracket_tm(kx, y))
        - K.apply(bracket_tm(x, ly))
        - L.apply(bracket_tm(x, ky))
    )


def _constant_forms():
    """Forms whose every frame image is constant, so their self-bracket vanishes."""
    _, _, flat, _ = build_pipeline(("1", "1"))
    return [
        VectorOneForm.identity(2),
        geom.tangent_structure(2),
        geom.horizontal_projector(flat),
        connection_oneform(flat),
    ]


def _fn_forms():
    # images depending on x and y: the projectors and 2h - I of curved connections
    _, _, curved, _ = build_pipeline(("exp(x2)", "1"))
    _, _, other, _ = build_pipeline(("exp(x1 + x2)", "exp(x1)"))
    _, _, shell, _ = build_pipeline(("exp(x3)", "exp(x3)", "1"))
    _, _, blocks, _ = build_pipeline(("exp(x2 - x3)", "exp(x1)", "1"))
    _, _, x2_only, _ = build_pipeline(_X2_ONLY)
    return [
        geom.projectors(curved)[0],
        geom.projectors(other)[1],
        connection_oneform(other),
        geom.projectors(shell)[0],
        connection_oneform(blocks),
        # no image depends on x1 or x3, and the vertical images are constant
        geom.horizontal_projector(x2_only),
        # y1 d/dx1 and the constant d/dx1: a pair that is not zero with one constant image
        VectorOneForm.make([[yvar(1), CanonicalExpr.const(1)], [CanonicalExpr(), CanonicalExpr()]]),
    ] + _constant_forms()


@pytest.mark.parametrize("index", range(11))
def test_fn_self_bracket_matches_the_definition(index):
    K = _fn_forms()[index]
    assert not K.is_zero()
    constant = K in _constant_forms()
    size = len(K.matrix)
    frames = [frame_field(size // 2, s) for s in range(size)]
    got = fn_bracket(K)
    nonzero = 0
    for a in range(size):
        for b in range(size):
            expected = _fn_bracket_by_definition(K, K, frames[a], frames[b])
            assert (got.entry(a, b) - expected).is_zero(), (a, b)
            nonzero += not expected.is_zero()
    assert bool(nonzero) != constant


@settings(max_examples=80, deadline=None)
@given(_sparse_tm_components)
def test_slots_are_the_variables_with_a_nonzero_partial(components):
    field = TMField(components)
    names = ("x1", "x2", "y1", "y2")
    expected = {s for s, var in enumerate(names) if any(c.diff(var) for c in components)}
    assert fields._slots(field) == expected


def test_slots_ignore_variables_beyond_the_dimension():
    # x2 and y2 name no frame slot of a field on a 1-dimensional base
    assert fields._slots(TMField.make(E(c) for c in ("x2*y2", "x1*exp(x2)"))) == {0}


def test_self_bracket_of_constant_images_differentiates_nothing(monkeypatch):
    forms = _constant_forms()
    calls = []
    diff = CanonicalExpr.diff

    def counted(self, var):
        calls.append(var)
        return diff(self, var)

    monkeypatch.setattr(CanonicalExpr, "diff", counted)
    for form in forms:
        assert fn_bracket(form).is_zero()
    assert not calls


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------


def test_shell_generators_memberships(shell_pipeline, shell_generators):
    metric, spray, connection, _ = shell_pipeline
    for name, field in shell_generators.items():
        assert in_AS(field, spray), name
        assert in_AGamma(field, connection), name
        assert in_Ag(field, metric, spray), name


def test_blocks_generators_memberships(blocks_pipeline, blocks_generators):
    metric, spray, connection, _ = blocks_pipeline
    for name, field in blocks_generators.items():
        assert in_AS(field, spray), name
        assert in_AGamma(field, connection), name
        assert in_Ag(field, metric, spray), name


def test_flat_generators_memberships(flat_pipeline, flat_spray_generators):
    metric, spray, connection, _ = flat_pipeline
    ag_members = {"e3", "e7", "e12"}
    for name, field in flat_spray_generators.items():
        assert in_AS(field, spray), name
        assert in_AGamma(field, connection), name
        assert bool(in_Ag(field, metric, spray)) == (name in ag_members), name


def test_flat_isometries_membership(flat_pipeline, flat_isometry_generators):
    metric, spray, _, _ = flat_pipeline
    for name, field in flat_isometry_generators.items():
        assert in_Ag(field, metric, spray), name


def test_membership_verdict_reports_residual(shell_pipeline):
    metric, spray, _, _ = shell_pipeline
    bad = base_field("x3", "0", "0")
    verdict = in_AS(bad, spray)
    assert not verdict
    assert verdict.residual is not None and not verdict.residual.is_zero()
    assert verdict.location


def test_connection_verdict_reports_the_first_block_entry(shell_pipeline):
    _, _, connection, _ = shell_pipeline
    field = base_field("x1^2", "0", "0")
    verdict = in_AGamma(field, connection)
    assert not verdict
    b, a = map(int, verdict.location.removeprefix("matrix entry (").removesuffix(")").split(","))
    assert b >= field.dim > a
    derivative = lie_derivative_oneform(complete_lift(field), connection_oneform(connection))
    first = next((label, entry) for label, entry in derivative.labelled() if entry)
    assert (verdict.location, verdict.residual) == first


_FIELD_POOL = _CONSTANT_OR_X + ["x3", "x1*x3^2", "exp(x3 - x1)/2", "x4*exp(x2)"]


@st.composite
def _fields_with_geometry(draw):
    """A base field with the spray and connection of a shipped metric or of a random spray."""
    if draw(st.booleans()):
        entries = draw(st.sampled_from([HYPERBOLIC_SHELL, PRODUCT_BLOCKS, FLAT_EXPONENTIAL]))
        _, spray, connection, _ = build_pipeline(entries)
    else:
        spray = draw(quadratic_sprays())
        connection = geom.connection_from_spray(spray)
    n = spray.dim
    pool = [text for text in _FIELD_POOL if E(text).max_x_index() <= n]
    field = BaseField(tuple(draw(_sums(pool)) for _ in range(n)))
    return field, spray, connection


@settings(max_examples=60, deadline=None)
@given(_fields_with_geometry())
def test_block_obstructions_equal_the_generic_route(case):
    """Only the y-components of [X^c, S] and the lower-left block of [X^c, 2h - I] can be nonzero."""
    field, spray, connection = case
    n = field.dim
    lift = complete_lift(field)
    bracket = bracket_tm(lift, spray_field(spray))
    assert all(c.is_zero() for c in bracket.components[:n])
    assert _spray_obstruction(field, spray) == [
        (f"component y{k + 1}", bracket.components[n + k]) for k in range(n)
    ]
    derivative = lie_derivative_oneform(lift, connection_oneform(connection))
    entries = iter(derivative.labelled())
    block = []
    for b in range(2 * n):
        for a in range(2 * n):
            label, entry = next(entries)
            if b >= n > a:
                block.append((label, entry))
            else:
                assert entry.is_zero(), label
    assert _connection_obstruction(field, connection) == block


def test_rotation_fails_isometry_when_metric_breaks_symmetry():
    metric, spray, _, _ = build_pipeline(("exp(x1)", "1"))
    rotation = base_field("-x2", "x1")
    assert not in_Ag(rotation, metric, spray)


# ---------------------------------------------------------------------------
# horizontality and curvature nullity
# ---------------------------------------------------------------------------


def test_flat_decay_fields_horizontal_and_null(flat_pipeline, flat_spray_generators):
    _, _, connection, curv = flat_pipeline
    for name in ("e3", "e7", "e12"):
        field = flat_spray_generators[name]
        assert is_horizontal(field, connection), name
        assert in_nullity(field, curv), name
    for name in ("e1", "e2", "e6"):
        assert not is_horizontal(flat_spray_generators[name], connection), name


def test_shell_has_no_horizontal_projectable_fields(shell_pipeline, shell_generators):
    _, _, connection, curv = shell_pipeline
    for name, field in shell_generators.items():
        assert not is_horizontal(field, connection), name
        assert not in_nullity(field, curv), name


def test_no_constant_field_in_nullity_when_curved():
    for entries in (("exp(x3)", "exp(x3)", "1"), ("exp(x2)", "1", "exp(x4)", "1")):
        _, _, _, curv = build_pipeline(entries)
        assert constant_nullity_kernel(curv) == 0


def test_numeric_nullity_ranks():
    rng = random.Random(3)
    pool = [Fraction(k, 2) for k in range(-4, 5) if k != 0]

    def points(n, count=8):
        return [
            {f"{axis}{i}": rng.choice(pool) for axis in ("x", "y") for i in range(1, n + 1)}
            for _ in range(count)
        ]

    _, _, _, shell_curv = build_pipeline(("exp(x3)", "exp(x3)", "1"))
    _, _, _, blocks_curv = build_pipeline(("exp(x2)", "1", "exp(x4)", "1"))
    _, _, _, flat_curv = build_pipeline(FLAT_EXPONENTIAL)
    assert nullity_rank_numeric(shell_curv, points(3)) == 3
    assert nullity_rank_numeric(blocks_curv, points(4)) == 4
    assert nullity_rank_numeric(flat_curv, points(3)) == 0


def test_nullity_rank_of_a_zero_curvature_specializes_nothing(monkeypatch):
    _, _, _, flat_curv = build_pipeline(("1",) * 7)
    calls = []
    monkeypatch.setattr(fields, "specialize", lambda *args: calls.append(args))
    point = {f"{axis}{i}": Fraction(1, 2) for axis in ("x", "y") for i in range(1, 8)}
    assert nullity_rank_numeric(flat_curv, [point] * 3) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# span solving
# ---------------------------------------------------------------------------


def test_solve_spray_symmetry_flat(flat_pipeline, flat_spray_generators):
    _, spray, _, _ = flat_pipeline
    dictionary = list(flat_spray_generators.values())
    sols = solve_in_span(dictionary, spray=spray)
    assert len(sols) == 12


def test_solve_isometry_flat(flat_pipeline, flat_spray_generators):
    metric, spray, _, _ = flat_pipeline
    dictionary = list(flat_spray_generators.values())
    sols = solve_in_span(dictionary, spray=spray, energy=metric.energy)
    assert len(sols) == 6
    solution_rows, _ = linalg.rref(sols)
    g_rows, _ = linalg.rref(
        [
            [0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        ]
    )
    assert solution_rows == g_rows


def test_solve_horizontality_flat(flat_pipeline, flat_spray_generators):
    _, _, connection, _ = flat_pipeline
    dictionary = list(flat_spray_generators.values())
    sols = solve_in_span(dictionary, connection=connection)
    decayed = {"e3": 2, "e7": 6, "e12": 11}
    expected = [[(i, 1)] for i in sorted(decayed.values())]
    assert sorted(sorted(s.items()) for s in sols) == expected


def test_solve_combined_conditions(flat_pipeline, flat_spray_generators):
    metric, spray, connection, _ = flat_pipeline
    dictionary = list(flat_spray_generators.values())
    sols = solve_in_span(dictionary, spray=spray, energy=metric.energy, connection=connection)
    # horizontal isometries: exactly the decaying coordinate fields
    assert len(sols) == 3


def test_solve_on_curved_shell(shell_pipeline, shell_generators):
    metric, spray, _, _ = shell_pipeline
    dictionary = list(shell_generators.values())
    sols = solve_in_span(dictionary, spray=spray, energy=metric.energy)
    assert len(sols) == 6  # every dictionary element is already a Killing field


def test_solve_empty_dictionary(flat_pipeline):
    _, spray, _, _ = flat_pipeline
    assert solve_in_span([], spray=spray) == []


def test_solve_validates_condition_names(flat_pipeline):
    metric, _, _, _ = flat_pipeline
    with pytest.raises(ValueError):
        solve_in_span([base_field("1", "0", "0")], energy=metric.energy)


def test_combine_fields_matches_manual_sum(flat_spray_generators):
    dictionary = list(flat_spray_generators.values())
    coeffs = {1: Fraction(1), 4: Fraction(-1)}
    combo = combine_fields(dictionary, coeffs)
    direct = dictionary[1] - dictionary[4]
    assert (combo - direct).is_zero()


def test_base_field_rejects_y_dependence():
    with pytest.raises(ValueError):
        base_field("y1", "0")


def test_spray_field_shape(flat_pipeline):
    _, spray, _, _ = flat_pipeline
    S = spray_field(spray)
    assert [str(c) for c in S.components[:3]] == ["y1", "y2", "y3"]
    assert S.components[3] == E("-y1^2/2")
