"""Differential check of the exact elimination against sympy.

sympy is a test-only dependency: the program never imports it.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from spraylie.linalg import det, kernel_basis, rank, rref, solve
from tests.conftest import mat_mul

sympy = pytest.importorskip("sympy")

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _grid(draw, rows: int, cols: int, entries) -> list[list[Q]]:
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _matrices(draw, square: bool = False):
    """Small rational matrices: tall, wide or square; dense, sparse, zero or rank-deficient."""
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "low-rank")))
    if kind == "zero":
        return [[Q(0)] * cols for _ in range(rows)]
    if kind == "low-rank":
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        return mat_mul(_grid(draw, rows, inner, _entries), _grid(draw, inner, cols, _entries))
    entries = _entries if kind == "dense" else st.one_of(st.just(Q(0)), st.just(Q(0)), _entries)
    return _grid(draw, rows, cols, entries)


def _sym(a) -> "sympy.Matrix":
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])


def _frac(x) -> Q:
    return Q(int(x.p), int(x.q))


def _sparse(v) -> dict[int, Q]:
    """A sympy row or column vector as a sparse row: {index: value}, no zeros."""
    return {j: _frac(x) for j, x in enumerate(v) if x}


def _sparse_rows(a: list[list[Q]]) -> list[dict[int, Q]]:
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def _nonzero_rows(m) -> list[dict[int, Q]]:
    """The nonzero rows of a sympy matrix as sparse rows."""
    return [row for row in (_sparse(m.row(i)) for i in range(m.rows)) if row]


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_rref_rank_and_kernel_agree_with_sympy(a):
    reduced, pivots = rref(a)
    want, want_pivots = _sym(a).rref()
    # sympy's nonzero rows, as sparse rows
    assert reduced == _nonzero_rows(want)
    assert pivots == list(want_pivots)
    assert rank(a) == _sym(a).rank()
    assert kernel_basis(a) == [_sparse(v) for v in _sym(a).nullspace()]
    # the same matrix as {column: value} rows gives the same answers
    sparse = _sparse_rows(a)
    assert rank(sparse) == rank(a)
    assert kernel_basis(sparse, ncols=len(a[0])) == kernel_basis(a)


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_rref_takes_sparse_rows(a):
    sparse = _sparse_rows(a)
    reduced, pivots = rref(sparse)
    assert (reduced, pivots) == rref(a)
    want, want_pivots = _sym(a).rref()
    assert (reduced, pivots) == (_nonzero_rows(want), list(want_pivots))
    # rref needs no width, but a kernel does, and a mapping has no length to read it from
    with pytest.raises(ValueError):
        kernel_basis(sparse)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_solve_agrees_with_sympy(a, data):
    b = data.draw(st.lists(_entries, min_size=len(a), max_size=len(a)))
    got = solve(a, b)
    rhs = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
    try:
        solution, params = _sym(a).gauss_jordan_solve(rhs)
    except ValueError:  # sympy's signal for an inconsistent system
        assert got is None
        return
    # free coordinates at zero, as solve documents
    want = solution.subs({p: 0 for p in params})
    assert got == _sparse(want)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_solve_takes_sparse_rows(a, data):
    b = data.draw(st.lists(_entries, min_size=len(a), max_size=len(a)))
    assert solve(_sparse_rows(a), b, ncols=len(a[0])) == solve(a, b)


@settings(max_examples=100, deadline=None)
@given(_matrices(square=True))
def test_det_agrees_with_sympy(a):
    assert det(a) == det(_sparse_rows(a)) == _frac(_sym(a).det())


def _inversions(perm: list[int]) -> int:
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])


@st.composite
def _staggered(draw):
    """Square rows with distinct nonzero counts in shuffled order.

    Inserting them fewest nonzeros first reorders them, so a determinant whose
    steps were not mapped back to input order would get the wrong sign.
    """
    n = draw(st.integers(2, 6))
    nonzero = _entries.filter(bool)
    rows = []
    for count in draw(st.permutations(range(1, n + 1))):
        row = [Q(0)] * n
        for j in draw(st.permutations(range(n)))[:count]:
            row[j] = draw(nonzero)
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(square=True), _staggered()), st.data())
def test_answers_do_not_depend_on_the_row_order(a, data):
    perm = data.draw(st.permutations(range(len(a))))
    shuffled = [a[i] for i in perm]
    assert rref(shuffled) == rref(a)
    assert rank(shuffled) == rank(a)
    assert kernel_basis(shuffled) == kernel_basis(a)
    b = data.draw(st.lists(_entries, min_size=len(a), max_size=len(a)))
    assert solve(shuffled, [b[i] for i in perm]) == solve(a, b)
    assert det(a) == _frac(_sym(a).det())
    assert det(shuffled) == (-1) ** _inversions(perm) * det(a)


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.integers(0, 7))
def test_rank_with_a_limit_is_the_smaller_of_the_two(a, limit):
    assert rank(a, limit) == rank(_sparse_rows(a), limit) == min(rank(a), limit)
