"""Expression-layer tests: parsing, canonical forms, calculus, and ring laws.

The derivative oracle here is central finite differences on the float
evaluator; it is independent of the symbolic diff rules and pins them down
before anything downstream relies on them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylie import symexpr
from spraylie.symexpr import (
    MAX_REDUCED_DEGREE,
    CanonicalExpr,
    DegreeBoundError,
    EvaluationError,
    ExpArgumentError,
    LinForm,
    Monomial,
    ParseError,
    SymExprError,
    TermBoundError,
    UnitDivisionError,
    const,
    evaluate,
    exponential,
    parse_expr,
    specialize,
    xvar,
    yvar,
)

FD_STEP = 1e-4
FD_RTOL = 1e-6


def _rand_point(rng, names):
    grid = [Q(k, 2) for k in range(-4, 5) if k != 0]
    return {name: rng.choice(grid) for name in names}


def _var_names(expr):
    names = [f"x{i}" for i in range(1, expr.max_x_index() + 1)]
    names += [f"y{i}" for i in range(1, expr.max_y_index() + 1)]
    return names


def _fd_derivative(expr, var, point):
    shifted_up = dict(point)
    shifted_dn = dict(point)
    shifted_up[var] = float(point[var]) + FD_STEP
    shifted_dn[var] = float(point[var]) - FD_STEP
    # evaluate() takes Fractions; go through float-valued Fractions for the shift
    up = {k: (Q(v).limit_denominator(10**12) if not isinstance(v, Q) else v) for k, v in shifted_up.items()}
    dn = {k: (Q(v).limit_denominator(10**12) if not isinstance(v, Q) else v) for k, v in shifted_dn.items()}
    return (evaluate([expr], [up])[0][0] - evaluate([expr], [dn])[0][0]) / (2 * FD_STEP)


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# parsing and canonicalization, frozen cases
# ---------------------------------------------------------------------------


def test_canonicalize_quotient_by_exponential_unit():
    e = parse_expr("(y1-y2)^2 / exp(-x3)")
    expected = (
        (yvar(1) * yvar(1)) * exponential({3: 1})
        - 2 * yvar(1) * yvar(2) * exponential({3: 1})
        + (yvar(2) * yvar(2)) * exponential({3: 1})
    )
    assert e == expected
    assert e.term_count() == 3


def test_canonicalize_exponential_cancellation_to_one():
    assert parse_expr("exp((x2-x1)/2)*exp((x1-x2)/2)") == const(1)


def test_canonicalize_rational_constants():
    assert parse_expr("3/4") == const(Q(3, 4))
    assert parse_expr("-3/4 + 1/4") == const(Q(-1, 2))
    assert parse_expr("0").is_zero()


def test_precedence_power_unary_product():
    assert parse_expr("-x1^2") == -(xvar(1) ** 2)
    assert parse_expr("2*x1^2") == 2 * xvar(1) ** 2
    assert parse_expr("1/2*x1") == Q(1, 2) * xvar(1)
    assert parse_expr("x1 - x2 - x3") == xvar(1) - xvar(2) - xvar(3)


def test_negative_powers_of_units():
    assert parse_expr("exp(x1)^-2") == exponential({1: -2})
    assert parse_expr("2^-1") == const(Q(1, 2))
    with pytest.raises(UnitDivisionError):
        parse_expr("x1^-1")


def test_division_errors():
    with pytest.raises(UnitDivisionError):
        parse_expr("1/(x1+1)")
    with pytest.raises(UnitDivisionError):
        parse_expr("x1/0")
    # sums of two exponentials are not units either
    with pytest.raises(UnitDivisionError):
        parse_expr("1/(exp(x1)+exp(x2))")


def test_exp_argument_errors():
    with pytest.raises(ExpArgumentError):
        parse_expr("exp(1)")
    with pytest.raises(ExpArgumentError):
        parse_expr("exp(x1+1)")
    with pytest.raises(ExpArgumentError):
        parse_expr("exp(y1)")
    with pytest.raises(ExpArgumentError):
        parse_expr("exp(x1^2)")
    with pytest.raises(ExpArgumentError):
        parse_expr("exp(exp(x1))")
    # a constant part that cancels is fine
    assert parse_expr("exp(x1 + 1 - 1)") == exponential({1: 1})
    # parsing evaluates as it goes, so a ring error wins over a later syntax error
    with pytest.raises(ExpArgumentError):
        parse_expr("exp(y1) +)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + )")
    assert err.value.line == 1 and err.value.col == 6
    with pytest.raises(ParseError):
        parse_expr("z3 + 1")
    with pytest.raises(ParseError):
        parse_expr("x1 +")
    with pytest.raises(ParseError):
        parse_expr("exp x1")
    with pytest.raises(SymExprError):
        parse_expr("x0")


@pytest.mark.parametrize(
    "source, line, col",
    [
        pytest.param("(" * 3000 + "1" + ")" * 3000, 1, symexpr.MAX_NESTING + 1, id="nested parentheses"),
        pytest.param("-" * 3000 + "1", 1, symexpr.MAX_NESTING + 1, id="nested unary minus"),
        pytest.param("1" * 5000, 1, 1, id="long literal"),
        pytest.param("x" + "1" * 5000, 1, 1, id="long variable index"),
        pytest.param("2^" + "9" * 5000, 1, 3, id="long exponent"),
        pytest.param("2^99999", 1, 3, id="large exponent"),
        pytest.param("x1^99999999", 1, 4, id="large variable exponent"),
        pytest.param("x99999999999999999999", 1, 1, id="large variable index"),
        pytest.param("1 +\n x\u00b2", 2, 2, id="non-ascii digit in a name"),
        pytest.param("\u00b2", 1, 1, id="non-ascii digit"),
        pytest.param("(x1+x2+x3+x4)^40", 1, 14, id="power with too many terms"),
        pytest.param("((2^100)^100)^100", 1, 9, id="long coefficient from a power"),
        pytest.param("*".join(["9" * 99] * 50), 1, 1, id="long coefficient from a product"),
        pytest.param(
            "1 + " + "*".join(f"exp(x1/{10**98 + k})" for k in range(1, 6)), 1, 1,
            id="long exp coefficient from a product",
        ),
    ],
)
def test_parse_bounds_fail_at_their_token(source, line, col):
    with pytest.raises(ParseError) as err:
        parse_expr(source)
    assert (err.value.line, err.value.col) == (line, col)


def test_power_refuses_too_many_terms_before_multiplying():
    with pytest.raises(TermBoundError):
        (xvar(1) + xvar(2) + xvar(3) + xvar(4)) ** 40


def test_parse_bounds_admit_their_limits():
    depth = symexpr.MAX_NESTING - 1
    assert parse_expr("(" * depth + "x1" + ")" * depth) == xvar(1)
    assert parse_expr("-" * depth + "x1") == -xvar(1)
    assert parse_expr("9" * symexpr.MAX_DIGITS) == const(10**symexpr.MAX_DIGITS - 1)
    assert parse_expr(f"2^-{symexpr.MAX_EXPONENT}") == const(Q(1, 2**symexpr.MAX_EXPONENT))
    assert parse_expr(f"y{symexpr.MAX_INDEX}") == yvar(symexpr.MAX_INDEX)
    most = symexpr.MAX_COEFFICIENT_DIGITS // 2
    assert parse_expr(f"(10^{most} - 1)*(10^{most} + 1)") == const(10 ** (2 * most) - 1)
    # a 4-term sum to the e has C(e+3, 3) terms
    e = max(e for e in range(symexpr.MAX_EXPONENT + 1) if math.comb(e + 3, 3) <= symexpr.MAX_TERMS)
    assert parse_expr(f"(x1+x2+x3+x4)^{e}").term_count() == math.comb(e + 3, 3)
    with pytest.raises(ParseError):
        parse_expr(f"(x1+x2+x3+x4)^{e + 1}")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="xyepaz012()+-*/ ", max_size=30))
def test_parse_expr_returns_a_value_or_a_symexpr_error(source):
    try:
        value = parse_expr(source)
    except SymExprError:
        return
    assert isinstance(value, CanonicalExpr)


def test_exp_collects_like_forms():
    e = parse_expr("exp(x1/2 + x1/2 - x2)")
    assert e == exponential({1: 1, 2: -1})


# ---------------------------------------------------------------------------
# ring laws (randomized structural equality)
# ---------------------------------------------------------------------------

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_small_frac = st.sampled_from([Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2)])


@st.composite
def _monomials(draw):
    xs = draw(st.dictionaries(st.integers(1, 2), st.integers(1, 2), max_size=2))
    ys = draw(st.dictionaries(st.integers(1, 2), st.integers(1, 2), max_size=2))
    return Monomial.make(xs, ys)


@st.composite
def _linforms(draw):
    coeffs = draw(st.dictionaries(st.integers(1, 2), _small_frac, max_size=2))
    return LinForm.make(coeffs)


@st.composite
def exprs(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        key = (draw(_monomials()), draw(_linforms()))
        terms[key] = terms.get(key, Q(0)) + draw(_fractions)
    return CanonicalExpr(terms)


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CanonicalExpr() == a
    assert a * const(1) == a
    assert (a - a).is_zero()


@st.composite
def _product_pairs(draw):
    """Pairs of drawn expressions, some zero, with a drawn number of them negated
    and appended so that part of the sum, or all of it, cancels."""
    pairs = draw(st.lists(st.tuples(exprs(), exprs()), max_size=5))
    cancelled = draw(st.integers(0, len(pairs)))
    return pairs + [(-a, b) for a, b in pairs[:cancelled]]


def _term_product(a: CanonicalExpr, b: CanonicalExpr) -> dict:
    """a * b as a term map, multiplied out key by key without the ring."""
    out: dict = {}
    for (m1, l1), c1 in a.items():
        for (m2, l2), c2 in b.items():
            lin = dict(l1.coeffs)
            for i, q in l2.coeffs:
                lin[i] = lin.get(i, 0) + q
            key = (m1.mul(m2), LinForm.make(lin))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: q for k, q in out.items() if q}


class _CountingTerms(dict):
    """A term map that counts how often its terms are read."""

    reads = 0

    def items(self):
        type(self).reads += 1
        return super().items()


@settings(max_examples=80, deadline=None)
@given(_product_pairs())
def test_sum_of_products_is_the_fold_of_its_products(pairs):
    total = CanonicalExpr.sum_of_products(pairs)
    folded = symexpr.ZERO
    for a, b in pairs:
        folded = folded + a * b
    assert total == folded
    by_hand: dict = {}
    for a, b in pairs:
        for key, q in _term_product(a, b).items():
            by_hand[key] = by_hand.get(key, 0) + q
    assert total == CanonicalExpr(by_hand)
    if total.is_zero():
        assert total is symexpr.ZERO


def test_empty_sum_of_products_is_the_shared_zero():
    assert CanonicalExpr.sum_of_products([]) is symexpr.ZERO
    assert CanonicalExpr.sum_of_products(iter(())) is symexpr.ZERO


@settings(max_examples=40, deadline=None)
@given(exprs().filter(bool))
def test_a_pair_with_a_zero_factor_is_never_expanded(a):
    spy = CanonicalExpr()
    spy._terms = _CountingTerms(a.items())
    _CountingTerms.reads = 0
    total = CanonicalExpr.sum_of_products([(spy, CanonicalExpr()), (symexpr.ZERO, spy)])
    assert total is symexpr.ZERO
    assert _CountingTerms.reads == 0
    assert spy * symexpr.ZERO is symexpr.ZERO and symexpr.ZERO * spy is symexpr.ZERO
    assert _CountingTerms.reads == 0
    assert CanonicalExpr.sum_of_products([(spy, const(1))]) == a
    assert _CountingTerms.reads == 1


# ---------------------------------------------------------------------------
# term maps the ring keeps, and term keys hashed once
# ---------------------------------------------------------------------------


def _assert_normal(r: CanonicalExpr) -> None:
    """A zero-free map of Fractions, equal to what the public constructor makes of it."""
    terms = dict(r.items())
    assert all(type(q) is Q and q for q in terms.values())
    assert r == CanonicalExpr(terms)
    assert dict(CanonicalExpr(terms).items()) == terms


_names = st.sampled_from(["x1", "x2", "y1", "y2"])


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), _fractions, _names, _linforms(), _fractions.filter(bool), st.integers(0, 3))
def test_every_ring_result_keeps_a_normal_term_map(a, b, q, var, lin, c, power):
    unit = CanonicalExpr({(Monomial.make(None, None), lin): c})
    for r in (a + b, a - b, b - a, a + (-a), -a, a * q, q * a, a * b, a.diff(var), a / unit, a**power):
        _assert_normal(r)
    _assert_normal(CanonicalExpr.sum_of_products([(a, b), (-b, a), (a, a)]))
    for part in parse_expr("y1*exp(x1) - 2*y2*x2 + x1*y1").y_linear_parts().values():
        _assert_normal(part)


@settings(max_examples=80, deadline=None)
@given(_monomials(), _monomials(), st.sampled_from("xy"), st.integers(1, 3), st.integers(0, 2))
def test_equal_monomials_hash_equal_by_every_route(m1, m2, kind, index, exponent):
    summed = {"x": dict(m1.x), "y": dict(m1.y)}
    for k, powers in (("x", m2.x), ("y", m2.y)):
        for i, e in powers:
            summed[k][i] = summed[k].get(i, 0) + e
    moved = {"x": dict(m1.x), "y": dict(m1.y)}
    moved[kind][index] = exponent
    for built, made in (
        (m1.mul(m2), Monomial.make(summed["x"], summed["y"])),
        (m1.with_exponent(kind, index, exponent), Monomial.make(moved["x"], moved["y"])),
        (Monomial(m1.x, m1.y), m1),
    ):
        assert built == made
        assert hash(built) == hash(made) == hash((made.x, made.y))


@settings(max_examples=80, deadline=None)
@given(_linforms(), _linforms())
def test_equal_linear_forms_hash_equal_by_every_route(l1, l2):
    summed = dict(l1.coeffs)
    for i, q in l2.coeffs:
        summed[i] = summed.get(i, 0) + q
    for built, made in (
        (l1 + l2, LinForm.make(summed)),
        (-l1, LinForm.make({i: -q for i, q in l1.coeffs})),
        (LinForm.make({i: int(q) for i, q in l1.coeffs if q.denominator == 1}),
         LinForm.make({i: q for i, q in l1.coeffs if q.denominator == 1})),
    ):
        assert built == made
        assert hash(built) == hash(made) == hash((made.coeffs,))


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_adding_built_expressions_hashes_no_fraction(a, b):
    b = b + a * 3  # b shares some keys with a
    calls = []
    fraction_hash = Q.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Q, "__hash__", counting)
        total, difference, negated = a + b, a - b, -b
        assert not calls
        hash(LinForm.make({1: Q(1, 2)}))  # a new key hashes its coefficients, once
        assert len(calls) == 1
    assert total - b == a and difference + b == a and negated + b == symexpr.ZERO


def test_a_constant_hashes_like_its_rational():
    assert hash(const(3)) == hash(3) and hash(const(Q(-1, 2))) == hash(Q(-1, 2))
    assert hash(symexpr.ZERO) == hash(CanonicalExpr()) == hash(0)
    assert const(3) == 3 and len({const(3), 3}) == 1
    assert {3: "three"}.get(const(3)) == "three" and {const(3): "three"}.get(3) == "three"
    assert {Q(1, 2): "half"}.get(const(Q(1, 2))) == "half"
    assert {0: "zero"}.get(symexpr.ZERO) == "zero" and {symexpr.ZERO: "zero"}.get(0) == "zero"
    x = parse_expr("2*x1 + 3")
    assert hash(x) == hash(frozenset(x.items()))


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), _fractions)
def test_equal_values_hash_equal(a, b, q):
    for left, right in ((a + b, b + a), (a * b, b * a), ((a - a) + b, b), ((a - a) + q, q), (a * 0, 0)):
        assert left == right and hash(left) == hash(right)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_print_parse_round_trip(a):
    assert parse_expr(str(a)) == a


@settings(max_examples=40, deadline=None)
@given(exprs(), _linforms(), _fractions.filter(lambda q: q != 0))
def test_unit_division_round_trip(a, lin, c):
    unit = CanonicalExpr({(Monomial.make(None, None), lin): c})
    assert (a / unit) * unit == a
    assert (a * unit) / unit == a


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_zero_test_agrees_with_numeric_evaluation(a, b):
    diff_expr = a - b
    rng = random.Random(11)
    names = sorted(set(_var_names(a)) | set(_var_names(b)))
    if diff_expr.is_zero():
        for _ in range(20):
            pt = _rand_point(rng, names)
            assert abs(evaluate([a], [pt])[0][0] - evaluate([b], [pt])[0][0]) < 1e-9


@settings(max_examples=40, deadline=None)
@given(exprs())
def test_mixed_partials_commute(a):
    for u, v in [("x1", "x2"), ("x1", "y1"), ("y1", "y2")]:
        assert a.diff(u).diff(v) == a.diff(v).diff(u)


# ---------------------------------------------------------------------------
# derivative oracle: central finite differences
# ---------------------------------------------------------------------------


def test_diff_matches_finite_differences():
    rng = random.Random(223)
    samples = [
        parse_expr("x1^2*y1*exp(x2/2) - 3*y2^2 + x2*exp(-x1)"),
        parse_expr("(y1-y2)^2 / exp(-x3)"),
        parse_expr("exp(x1/2 - x2/2)*x2*y1 + 1/3*x1^3"),
    ]
    for expr in samples:
        names = _var_names(expr)
        for var in names:
            sym = expr.diff(var)
            for _ in range(10):
                pt = _rand_point(rng, names)
                got = evaluate([sym], [pt])[0][0]
                want = _fd_derivative(expr, var, pt)
                assert _rel_err(got, want) <= FD_RTOL, (str(expr), var, pt)


def test_diff_chain_rule_on_exponentials():
    e = exponential({1: Q(1, 2), 2: -1})
    assert e.diff("x1") == Q(1, 2) * e
    assert e.diff("x2") == -e
    assert e.diff("x3").is_zero()
    assert e.diff("y1").is_zero()


def test_diff_power_rule():
    e = xvar(1) ** 3 * yvar(2)
    assert e.diff("x1") == 3 * xvar(1) ** 2 * yvar(2)
    assert e.diff("y2") == xvar(1) ** 3


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_requires_all_variables():
    e = parse_expr("x1*y2*exp(x3)")
    with pytest.raises(EvaluationError):
        evaluate([e], [{"x1": 1, "y2": 1}])
    val = evaluate([e], [{"x1": 2, "y2": Q(1, 2), "x3": 0}])[0][0]
    assert val == pytest.approx(1.0)


def test_eval_of_exponential():
    e = parse_expr("exp(x1/2)")
    assert evaluate([e], [{"x1": 3}])[0][0] == pytest.approx(math.exp(1.5))


def test_evaluate_and_specialize_split_the_point_once(monkeypatch):
    calls = []
    split = symexpr._split_point
    monkeypatch.setattr(symexpr, "_split_point", lambda point: calls.append(point) or split(point))
    exprs = [parse_expr("x1*exp(x2)"), parse_expr("7/3 - x2^2"), CanonicalExpr()]
    point = {"x1": Q(1, 2), "x2": Q(-3, 2), "y2": 1}
    assert evaluate(exprs, [point]) == [[
        pytest.approx(0.5 * math.exp(-1.5)),
        pytest.approx(7 / 3 - 2.25),
        0.0,
    ]]
    specialize(exprs, point)
    assert len(calls) == 2


def test_eval_is_deterministic():
    e = parse_expr("x1*exp(x2) - y1^2*exp(-x2) + 7/3")
    pt = {"x1": Q(3, 2), "x2": Q(-1, 2), "y1": Q(2)}
    assert evaluate([e], [pt])[0][0] == evaluate([e], [pt])[0][0]


# ---------------------------------------------------------------------------
# exact specialization: x_i -> x-value, exp(x_i/D) -> y-value
# ---------------------------------------------------------------------------

_grid = st.sampled_from([Q(k, 2) for k in range(-4, 5) if k != 0])
# one factor per example, shared by every exponent drawn in it, so the
# exponents of a coordinate often have a gcd above 1 (up to 10^12)
_exp_scale = st.shared(st.sampled_from([1, 6, 10**12]), key="exp-scale")


@st.composite
def _exp_coeffs(draw):
    q = draw(st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(1, 3), Q(-2, 3)]))
    return q * draw(_exp_scale)


@st.composite
def _x_exprs(draw):
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        xs = draw(st.dictionaries(st.integers(1, 2), st.integers(1, 2), max_size=2))
        lin = LinForm.make(draw(st.dictionaries(st.integers(1, 2), _exp_coeffs(), max_size=2)))
        key = (Monomial.make(xs, None), lin)
        terms[key] = terms.get(key, Q(0)) + draw(_fractions)
    return CanonicalExpr(terms)


@settings(max_examples=80, deadline=None)
@given(
    _x_exprs(),
    _x_exprs(),
    st.dictionaries(st.integers(1, 2), _exp_coeffs(), max_size=2),
    _fractions.filter(lambda q: q != 0),
    st.fixed_dictionaries({"x1": _grid, "x2": _grid, "y1": _grid, "y2": _grid}),
)
def test_specialize_is_a_ring_homomorphism(a, b, lin, c, point):
    unit = c * exponential(lin)
    va, vb, vsum, vprod, vunit, vquot = specialize([a, b, a + b, a * b, unit, a / unit], point)
    assert vsum == va + vb
    assert vprod == va * vb
    assert vquot * vunit == va


def test_specialize_shares_one_denominator():
    half, whole = parse_expr("exp(x1/2)"), parse_expr("x1*exp(x1)")
    assert specialize([half, whole], {"x1": 3, "y1": 2}) == [2, 12]
    assert specialize([whole], {"x1": 3, "y1": 2}) == [6]


def test_specialize_refuses_a_reduced_degree_above_the_cap():
    # the gcd of x1's exponents is 1 here, so exp(x1) maps to y1 and the
    # other term would need y1 to the power of its own coefficient
    at_cap = [parse_expr(f"exp({MAX_REDUCED_DEGREE}*x1)"), parse_expr("exp(x1)")]
    assert specialize(at_cap, {"x1": 0, "y1": 1}) == [1, 1]
    above = [parse_expr(f"exp(-{MAX_REDUCED_DEGREE + 1}*x1)"), parse_expr("exp(x1)")]
    with pytest.raises(DegreeBoundError) as err:
        specialize(above, {"x1": 0, "y1": 1})
    assert err.value.degree == MAX_REDUCED_DEGREE + 1
    assert str(err.value) == f"exponent degree {MAX_REDUCED_DEGREE + 1} > cap {MAX_REDUCED_DEGREE}"


def test_specialize_rejects_fibre_values_and_zero_exponential_values():
    with pytest.raises(SymExprError):
        specialize([parse_expr("y1*exp(x1)")], {"x1": 1, "y1": 1})
    with pytest.raises(EvaluationError):
        specialize([parse_expr("exp(x1)")], {"x1": 1, "y1": 0})
    with pytest.raises(EvaluationError):
        specialize([parse_expr("x2")], {"x1": 1, "y1": 1})


# ---------------------------------------------------------------------------
# structure helpers used by the geometry layer
# ---------------------------------------------------------------------------


def test_variables_are_built_from_their_index():
    assert xvar(2) == parse_expr("x2")
    assert yvar(3) == parse_expr("y3")
    with pytest.raises(SymExprError):
        xvar(0)


def test_constructor_drops_zeros_and_stores_fractions():
    key, other = (Monomial.make({1: 1}), LinForm(())), (Monomial.make({2: 1}), LinForm(()))
    expr = CanonicalExpr({key: 2, other: Q(0)})
    assert dict(expr.items()) == {key: Q(2)}
    assert type(dict(expr.items())[key]) is Q


def test_y_linear_decomposition():
    e = parse_expr("y1*exp(x1) - 2*y3*x2")
    parts = e.y_linear_parts()
    assert set(parts) == {1, 3}
    assert parts[1] == exponential({1: 1})
    assert parts[3] == -2 * xvar(2)
    with pytest.raises(SymExprError):
        parse_expr("y1^2").y_linear_parts()


def test_y_homogeneity():
    assert parse_expr("y1*y2 + y3^2").is_y_homogeneous(2)
    assert not parse_expr("y1*y2 + y3").is_y_homogeneous(2)
    assert CanonicalExpr().is_y_homogeneous(2)


def test_as_unit():
    assert parse_expr("exp(x1)*3").as_unit() == (Q(3), LinForm.make({1: 1}))
    assert parse_expr("x1").as_unit() is None
    assert parse_expr("exp(x1)+1").as_unit() is None
