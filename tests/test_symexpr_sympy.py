"""Differential check of the expression ring against sympy.

Each drawn value is built twice from the same random terms: through the
ring's public operations and directly in sympy.  Ring results are read back
through their term maps and must expand to the same function as sympy's.
sympy is a test-only dependency: the program never imports it.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from spraylie.symexpr import (
    ZERO,
    CanonicalExpr,
    EvaluationError,
    const,
    evaluate,
    exponential,
    parse_expr,
    xvar,
    yvar,
)

sympy = pytest.importorskip("sympy")

NAMES = ("x1", "x2", "y1", "y2")
S = {name: sympy.Symbol(name) for name in NAMES}

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_nonzero = _coeffs.filter(lambda q: q != 0)
_powers = st.dictionaries(st.integers(1, 2), st.integers(1, 2), max_size=2)
_lins = st.dictionaries(
    st.integers(1, 2), st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2, 3)]), max_size=2
)
_points = st.fixed_dictionaries(
    {name: st.fractions(min_value=-2, max_value=2, max_denominator=3) for name in NAMES}
)


def _rat(q: Q) -> "sympy.Rational":
    return sympy.Rational(q.numerator, q.denominator)


def _sym_term(c, xs, ys, lin):
    """The sympy term; symbols are made by name, so any index is allowed."""
    lin_sum = sympy.Add(*(_rat(q) * sympy.Symbol(f"x{i}") for i, q in lin.items()))
    term = _rat(c) * sympy.exp(lin_sum)
    for i, e in xs.items():
        term *= sympy.Symbol(f"x{i}") ** e
    for i, e in ys.items():
        term *= sympy.Symbol(f"y{i}") ** e
    return term


def _ring_term(c, xs, ys, lin) -> CanonicalExpr:
    term = const(c) * exponential(lin)
    for i, e in xs.items():
        term = term * xvar(i) ** e
    for i, e in ys.items():
        term = term * yvar(i) ** e
    return term


@st.composite
def _values(draw):
    """A ring value and the sympy expression of the same drawn terms."""
    terms = [
        (draw(_coeffs), draw(_powers), draw(_powers), draw(_lins))
        for _ in range(draw(st.integers(0, 3)))
    ]
    ring = sum((_ring_term(*t) for t in terms), CanonicalExpr())
    return ring, sympy.Add(*(_sym_term(*t) for t in terms))


@st.composite
def _units(draw):
    term = (draw(_nonzero), {}, {}, draw(_lins))
    return _ring_term(*term), _sym_term(*term)


def _to_sympy(expr: CanonicalExpr):
    return sympy.Add(
        *(_sym_term(c, dict(m.x), dict(m.y), dict(lin.coeffs)) for (m, lin), c in expr.items())
    )


def _same(a, b) -> bool:
    return sympy.expand(a - b) == 0


@settings(max_examples=40, deadline=None)
@given(_values(), _values(), _units())
def test_ring_operations_agree_with_sympy(a, b, unit):
    (ra, sa), (rb, sb), (ru, su) = a, b, unit
    assert _same(_to_sympy(ra), sa)
    assert _same(_to_sympy(ra + rb), sa + sb)
    assert _same(_to_sympy(ra - rb), sa - sb)
    assert _same(_to_sympy(ra * rb), sa * sb)
    assert _same(_to_sympy(ra / ru), sa / su)
    # zero operands, which the ring short-circuits
    for zero in (ZERO, 0):
        assert _same(_to_sympy(ra + zero), sa)
        assert _same(_to_sympy(zero + ra), sa)
        assert _same(_to_sympy(ra - zero), sa)
        assert _same(_to_sympy(zero - ra), -sa)
        assert (ra * zero).is_zero() and (zero * ra).is_zero()
    assert (-ZERO).is_zero() and ZERO.is_zero()


@settings(max_examples=40, deadline=None)
@given(_values(), _units())
def test_powers_agree_with_sympy(a, unit):
    (ra, sa), (ru, su) = a, unit
    for e in range(7):
        assert _same(_to_sympy(ra**e), sa**e), e
        assert _same(_to_sympy(ru**-e), su**-e), e
    assert ZERO**0 == CanonicalExpr.const(1) and (ZERO**3).is_zero()


@settings(max_examples=40, deadline=None)
@given(_values())
def test_diff_agrees_with_sympy(a):
    ring, sym = a
    for name in NAMES:
        assert _same(_to_sympy(ring.diff(name)), sympy.diff(sym, S[name])), name


@settings(max_examples=40, deadline=None)
@given(_values())
def test_printed_form_parses_back_in_both_systems(a):
    ring, sym = a
    text = str(ring)
    assert parse_expr(text) == ring
    assert _same(sympy.sympify(text.replace("^", "**"), locals=S), sym)


@settings(max_examples=40, deadline=None)
@given(_values(), _values(), _points)
def test_evaluate_agrees_with_sympy_at_rational_points(a, b, point):
    (ra, sa), (rb, sb) = a, b
    subs = {S[name]: _rat(value) for name, value in point.items()}
    ((got_zero, *got_values),) = evaluate([ZERO, ra, rb], [point])
    assert got_zero == 0.0
    for got, sym in zip(got_values, (sa, sb)):
        want = float(sym.subs(subs).evalf(30))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (str(sym), point)


def _replay(expr: CanonicalExpr, point) -> float:
    """One value by the rule `evaluate` keeps: the sum, in print order, of
    float(c * exact monomial) * exp(float(exact l(x))), one term at a time."""
    vals = {name: Q(value) for name, value in point.items()}
    total = 0.0
    for (mono, lin), c in expr._sorted_terms() if expr else ():
        exact = c
        for i, e in mono.x:
            exact *= vals[f"x{i}"] ** e
        for i, e in mono.y:
            exact *= vals[f"y{i}"] ** e
        exponent = sum((q * vals[f"x{i}"] for i, q in lin.coeffs), Q(0))
        total += float(exact) * math.exp(float(exponent))
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(_values(), min_size=1, max_size=4), st.lists(_points, min_size=1, max_size=4))
def test_evaluate_all_points_at_once_is_bitwise_the_term_by_term_rule(values, points):
    exprs = [ring for ring, _sym in values] + [ZERO]
    got = evaluate(exprs, points)
    assert len(got) == len(points)
    for row, point in zip(got, points):
        assert row == [_replay(expr, point) for expr in exprs], point


@pytest.mark.parametrize("count", [1, 2, 4])
def test_evaluate_sorts_each_nonzero_expression_once(monkeypatch, count):
    calls = []
    sorted_terms = CanonicalExpr._sorted_terms
    monkeypatch.setattr(
        CanonicalExpr, "_sorted_terms", lambda self: calls.append(self) or sorted_terms(self)
    )
    exprs = [parse_expr("x1*exp(x2) - y1^2"), ZERO, parse_expr("x1*exp(x2) + 1/3")]
    points = [{"x1": Q(k, 2), "x2": Q(-1, k), "y1": Q(k)} for k in range(1, count + 1)]
    evaluate(exprs, points)
    assert calls == [exprs[0], exprs[2]]


@pytest.mark.parametrize(
    "expr", [exponential({1: 400}), const(10**300) * xvar(1) ** 100], ids=["exp", "monomial"]
)
def test_evaluate_names_the_first_point_that_overflows(expr):
    points = [{"x1": Q(1)}, {"x1": Q(2)}, {"x1": Q(3)}]
    assert math.isfinite(evaluate([expr], points[:1])[0][0])
    with pytest.raises(EvaluationError, match=r"at the sample point x1=2$"):
        evaluate([const(1), expr], points)
