"""Exact linear-algebra tests, including randomized solve/kernel consistency."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from spraylie.linalg import det, kernel_basis, rank, rref, solve
from tests.conftest import dense, mat_vec


def test_rref_known():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    assert pivots == [0, 2]
    # one sparse row per pivot, no stored zero and no zero row
    assert reduced == [{0: 1, 1: 2}, {2: 1}]
    assert rref([{2: 2, 0: 1}, {}]) == ([{0: 1, 2: 2}], [0])


def test_rank_and_kernel():
    m = [[1, 2, 3], [2, 4, 6]]
    assert rank(m) == 1
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec([[Q(x) for x in row] for row in m], dense(v, 3)) == [0, 0]


def test_kernel_of_empty_matrix_is_everything():
    basis = kernel_basis([], ncols=3)
    assert len(basis) == 3


def test_solve_consistent_and_inconsistent():
    assert solve([[2, 0], [0, 4]], [1, 2]) == {0: Q(1, 2), 1: Q(1, 2)}
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    assert solve([[1, 1], [2, 2]], [1, 2]) == {0: Q(1)}


def test_solve_sparse_rows_and_empty_systems():
    assert solve([], []) == {}
    assert solve([], [], ncols=2) == {}
    assert solve([{0: 2}, {1: 4}], [1, 2], ncols=2) == {0: Q(1, 2), 1: Q(1, 2)}
    assert solve([{}, {1: 1}], [1, 0], ncols=2) is None
    with pytest.raises(ValueError):
        solve([{0: 1}], [1])


def test_det_exact():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Q(1, 2), 0], [0, Q(1, 3)]]) == Q(1, 6)
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert det([{1: 1}, {0: 1}]) == -1
    assert det([{}, {1: 3}]) == 0
    assert det([]) == 1


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2]],
        [[1, 2], [3]],
        [{0: 1, 1: 2}],
        [{0: 1}, {2: 1}],
        [{0: 1}, [0, 1], {2: 1}],
    ],
    ids=["wide", "ragged", "sparse-wide", "sparse-column-out-of-range", "mixed-short-dense-row"],
)
def test_det_refuses_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError, match="square"):
        det(matrix)


def test_randomized_solve_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[Q(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        x = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        b = mat_vec(a, x)
        got = solve(a, b)
        assert got is not None
        assert mat_vec(a, dense(got, cols)) == b


def test_randomized_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(2, 6)
        a = [[Q(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        for v in kernel_basis(a):
            assert all(val == 0 for val in mat_vec(a, dense(v, cols)))
        assert rank(a) + len(kernel_basis(a)) == cols

