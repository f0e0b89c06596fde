"""Exact linear algebra over the rationals.

Every vector this module returns is a sparse row (`SparseRow`), a
{column: value} mapping with no stored zero, the format the Lie layer
computes with.  Its functions take rows dense (lists of numbers) or sparse.
The solvers never touch floats: ranks, kernels and determinants are all
decided exactly, which is what the algebraic layer requires.

A value is a Python int when it is integral and a `Fraction` only when it
has a denominator, never a float: integer arithmetic costs a fraction of
`Fraction`'s.  `_exact` is the one normalization, applied where values
enter (`_sparse`, for every row `_echelon` takes) and where they are
divided (pivot scaling and the determinant); sums and products in between
stay exact whatever their type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = list[int | Fraction]
SparseRow = dict[int, int | Fraction]

_ONE = 1


def _exact(q: int | Fraction) -> int | Fraction:
    """q as an int when its denominator is 1, else q: an int or a Fraction
    stays exact, a bool becomes its int, and a float raises."""
    return q.numerator if q.denominator == 1 else q


def _sparse(row: Iterable | dict) -> SparseRow:
    """A fresh sparse row from a dense row or a {column: value} mapping."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: _exact(v) for j, v in items if v}


def _dense(row: SparseRow, n: int) -> Vec:
    out: Vec = [0] * n
    for j, v in row.items():
        out[j] = v
    return out


def _subtract(target: SparseRow, f: int | Fraction, row: SparseRow, skip: int | None = None) -> None:
    """target -= f * row on every column but `skip`, dropping entries that cancel."""
    for j, v in row.items():
        if j != skip:
            w = target.get(j, 0) - f * v
            if w:
                target[j] = w
            else:
                del target[j]


def _reduce(pivot_rows: dict[int, SparseRow], row: SparseRow) -> SparseRow:
    """Clear `row`'s pivot columns with the pivot rows, in place, and return it.

    The pivot rows are keyed by pivot column, scaled to 1 there, and have no
    entry in another's pivot column; so one pass clears every pivot column,
    and the remainder is zero exactly when the row lies in their span.
    """
    for p in [j for j in row if j in pivot_rows]:
        _subtract(row, row.pop(p), pivot_rows[p], p)
    return row


def _echelon(
    rows: Iterable[Iterable | dict], limit: int | None = None
) -> tuple[dict[int, SparseRow], list[tuple[int, int | Fraction]]]:
    """Insert rows one at a time into a reduced echelon basis held sparsely.

    Every row, dense or a {column: value} mapping, is made sparse and
    normalized once (`_sparse`), and the rows are inserted fewest nonzeros
    first (stable among equal counts), which fills in far less than
    insertion in input order.  Each row is
    reduced by the pivot rows found so far; a nonzero remainder is scaled to
    1 at its leading column (a sign flip for -1, else an exact division whose
    entries are normalized), which becomes a new pivot, and that column is
    cleared from the earlier pivot rows.  A pivot row's leading entry stays
    its pivot throughout, and no pivot row has an entry in another's pivot
    column, so the pivot rows sorted by column are the reduced row echelon
    form, which is unique whatever the insertion order.  Only nonzero
    entries are stored or touched.  With `limit`, insertion stops once that
    many pivots are found.

    Returns the pivot rows by column and, per input row in input order, its
    pivot column and the leading value it was divided by, or (-1, 0) when it
    reduced to zero or was not reached.
    """
    sparse = [_sparse(row) for row in rows]
    basis: dict[int, SparseRow] = {}
    steps: list[tuple[int, int | Fraction]] = [(-1, 0)] * len(sparse)
    for r in sorted(range(len(sparse)), key=lambda r: len(sparse[r])):
        if limit is not None and len(basis) >= limit:
            break
        residual = _reduce(basis, sparse[r])
        if not residual:
            continue
        lead = min(residual)
        value = residual[lead]
        if value == -1:
            residual = {j: -v for j, v in residual.items()}
        elif value != 1:
            inv = Fraction(1, value)
            residual = {j: _exact(v * inv) for j, v in residual.items()}
        for other in basis.values():
            f = other.pop(lead, None)
            if f:
                _subtract(other, f, residual, lead)
        basis[lead] = residual
        steps[r] = (lead, value)
    return basis, steps


def rref(matrix: Iterable[Iterable | dict]) -> tuple[list[SparseRow], list[int]]:
    """The nonzero rows of the reduced row echelon form and their pivot columns.

    Rows may be dense or {column: value} mappings; the form's rows come back
    as sparse rows in pivot column order, one per pivot.
    """
    basis, _ = _echelon(matrix)
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def rank(matrix: Iterable[Iterable | dict], limit: int | None = None) -> int:
    """Rank of the rows, or `limit` once the rank reaches it: min(rank, limit)."""
    return len(_echelon(matrix, limit)[0])


def kernel_basis(matrix: Iterable[Iterable | dict], ncols: int | None = None) -> list[SparseRow]:
    """Basis of the right kernel, one sparse row per free column, in column order.

    Rows may be dense or {column: value} mappings; `ncols` is required when
    the matrix is empty or its first row is a mapping.
    """
    m = list(matrix)
    if ncols is None:
        if not m or isinstance(m[0], dict):
            raise ValueError("ncols is required for an empty or sparse matrix")
        ncols = len(m[0])
    return _kernel(_echelon(m)[0], ncols)


def _kernel(pivot_rows: dict[int, SparseRow], ncols: int) -> list[SparseRow]:
    """The kernel of every row inserted into `pivot_rows` by `_echelon`.

    Free column j gives x_j = 1, 0 at the other free columns, and each pivot
    coordinate minus its row's entry at j.
    """
    kernel = {j: {j: _ONE} for j in range(ncols) if j not in pivot_rows}
    for p, row in pivot_rows.items():
        for j, v in row.items():
            if j != p:
                kernel[j][p] = -v
    return list(kernel.values())


def solve(
    a: Iterable[Iterable | dict], b: Sequence, ncols: int | None = None
) -> SparseRow | None:
    """One solution of A x = b as a sparse row, or None when inconsistent.

    When the solution is not unique the free coordinates are set to zero.
    Rows may be dense or {column: value} mappings; `ncols` is required when
    the first row is a mapping, and taken as 0 when there are no rows.  The
    right-hand side joins each row at column `ncols`.
    """
    m = [row if isinstance(row, dict) else list(row) for row in a]
    rhs = list(b)
    if len(m) != len(rhs):
        raise ValueError("row count of A must match length of b")
    if ncols is None:
        if m and isinstance(m[0], dict):
            raise ValueError("ncols is required for a sparse matrix")
        ncols = len(m[0]) if m else 0
    augmented = (
        {**(row if isinstance(row, dict) else dict(enumerate(row))), ncols: rv}
        for row, rv in zip(m, rhs)
    )
    pivot_rows, _ = _echelon(augmented)
    if ncols in pivot_rows:
        return None
    return {p: row[ncols] for p, row in pivot_rows.items() if ncols in row}


def det(matrix: Iterable[Iterable | dict]) -> int | Fraction:
    """Determinant of n rows of width n, dense or {column: value} mappings,
    from the same elimination as rref (`_determinant`)."""
    m = [row if isinstance(row, dict) else list(row) for row in matrix]
    n = len(m)
    for row in m:
        if (max(row, default=-1) >= n) if isinstance(row, dict) else len(row) != n:
            raise ValueError("determinant requires a square matrix")
    return _determinant(_echelon(m)[1])


def _determinant(steps: list[tuple[int, int | Fraction]]) -> int | Fraction:
    """det of the square matrix whose rows `_echelon` took through `steps`.

    Reducing a row by other rows keeps the determinant and scaling it by
    1/value divides it by value; the fully reduced rows, restricted to the
    pivot columns, are the permutation taking each row to the rank of its
    pivot column.  The steps come back in input-row order, so the order rows
    were inserted in does not matter; a row that reduced to zero makes the
    determinant zero.
    """
    if any(lead < 0 for lead, _ in steps):
        return 0
    rank = {lead: r for r, lead in enumerate(sorted(lead for lead, _ in steps))}
    sign = _permutation_sign([rank[lead] for lead, _ in steps])
    return _exact(math.prod((value for _, value in steps), start=sign))


def _permutation_sign(perm: list[int]) -> int:
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
