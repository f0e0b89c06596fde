"""Finite-dimensional Lie-algebra analysis over the rationals.

A Lie algebra arrives either as structure constants or as a list of base
vector fields whose pairwise brackets close over their rational span.  All
the invariants computed here -- Killing form, radical, derived series,
center, derivations, Levi complement, 3-dimensional classification -- are
decided with exact rational linear algebra; no floats anywhere.

Convention: c[i][j][k] is the coefficient of basis element k in [b_i, b_j].
Every table stores only its nonzero index: for every ordered pair (i, j)
with [b_i, b_j] != 0, the nonzero (k, c[i][j][k]) in increasing k.  The
dense array c is built from it only when something reads it, whether the
table was given as that array or built from fields.  Vectors are sparse
rows, {coordinate: value} with no stored zero (`linalg.SparseRow`): the
brackets, subspaces, witnesses, the Killing form, the centroid and the
linear systems for the center, derivations and Levi complements are
assembled from the index and from those rows, so their cost follows the
nonzero constants rather than m^3 or m^4.

A table built from vector fields has a second, canonical form: the same
algebra over the reduced echelon basis of the fields' span, which does not
depend on the generators the user chose (`structure_constants_from_fields`).
Every invariant runs on that canonical table, so its cost follows the
algebra and not the basis: for linear vector fields it is the standard basis
whatever basis a file gives.  The user's table is read off the canonical one
by the change of basis; subspaces and failure witnesses come back in the
generators' basis and labels, the printed subspaces in reduced echelon form
again.  A table given as constants is its own canonical form.

The invariants that several readers need -- Killing form and determinant,
center, derived algebra, the radical's derived series, the Levi
decomposition and the centroid -- are cached properties of the table, each
computed once.  Der L is read off the Levi decomposition L = S + R: by
Whitehead's first lemma it is ad L plus the derivations that vanish on S,
whose system has dim R * m unknowns instead of m^2 (see `derivations`).

Simplicity is decided from the bracket alone, whatever the basis: a
semisimple algebra is simple exactly when its centroid, the endomorphisms
commuting with every ad x, is a field (de Graaf, Lie Algebras: Theory and
Algorithms, 2000, section 1.15 and chapter 4).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg, symexpr
from .fields import BaseField, bracket_base
from .linalg import SparseRow, Vec
from .symexpr import CanonicalExpr

__all__ = [
    "LieAlgebraError",
    "NonClosureError",
    "DependentGeneratorsError",
    "StructureConstants",
    "Subspace",
    "DerivationSpace",
    "LeviResult",
    "structure_constants_from_fields",
    "jacobi_check",
    "killing_form",
    "killing_det",
    "is_semisimple",
    "is_simple",
    "derived_subalgebra",
    "center",
    "radical",
    "is_ideal",
    "is_abelian",
    "derivations",
    "subalgebra_constants",
    "levi_decomposition",
    "classify_3dim_simple",
    "render_combination",
]

_ONE = Fraction(1)

class LieAlgebraError(Exception):
    """Base class for algebra-layer failures."""


class NonClosureError(LieAlgebraError):
    """A bracket left the rational span of the generators."""

    def __init__(self, label_a: str, label_b: str, bracket: BaseField):
        self.pair = (label_a, label_b)
        self.bracket = bracket
        shown = ", ".join(str(c) for c in bracket.components)
        super().__init__(f"bracket [{label_a}, {label_b}] = ({shown}) is outside the span")


class DependentGeneratorsError(LieAlgebraError):
    """The supplied generators are linearly dependent over the rationals."""


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n held as its reduced row echelon basis.

    `rows` holds the basis's nonzero rows as sparse rows keyed by leading
    column, in column order; every computation, printing and equality read
    them.
    """

    ambient_dim: int
    rows: dict[int, SparseRow]

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence | SparseRow], ambient_dim: int) -> "Subspace":
        """The span of dense or sparse vectors of length `ambient_dim`."""
        # through the module attribute, which perfbench's tracer patches to
        # count the eliminations
        reduced, pivots = linalg.rref(vectors)
        return Subspace(ambient_dim, dict(zip(pivots, reduced)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def reduce(self, vector: Sequence[Fraction] | SparseRow) -> SparseRow:
        """The vector minus the basis rows that clear its pivot coordinates.

        The remainder, a fresh sparse row, is empty exactly when the vector
        lies in the subspace; its entries give the class of the vector
        modulo it.
        """
        return linalg._reduce(self.rows, linalg._sparse(vector))

    def contains(self, vector: Sequence[Fraction] | SparseRow) -> bool:
        return not self.reduce(vector)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors([*self.rows.values(), *other.rows.values()], self.ambient_dim)


class StructureConstants:
    """Bracket table [b_i, b_j] = sum_k c[i][j][k] b_k over named basis elements.

    Given as the dense array `c`, the table is checked and stores only its
    `nonzero` index, as `structure_constants_from_fields` and
    `subalgebra_constants` do; `c` is built from it on first read.
    `canonical` is the same algebra
    in the canonical basis of the span, or the table itself when it was given
    as constants or is that canonical table.  `to_canonical[i]` holds the
    canonical coordinates of b_i, `det_to_canonical` the determinant of that
    change of basis, and on a canonical table `to_user[a]` the coordinates of
    its element a over the generators; None stands for the identity.
    """

    def __init__(self, labels: Sequence[str], c: Sequence[Sequence[Sequence[Fraction]]]):
        m = len(labels)
        if len(c) != m or any(len(p) != m or any(len(r) != m for r in p) for p in c):
            raise LieAlgebraError("structure constants must form an m x m x m array")
        nonzero = {}
        for i, plane in enumerate(c):
            for j, row in enumerate(plane):
                entries = tuple((k, q) for k, q in enumerate(row) if q)
                if entries:
                    nonzero[(i, j)] = entries
        # every entry that could break c[i][j] = -c[j][i] is in the index
        for (i, j), entries in nonzero.items():
            if nonzero.get((j, i)) != tuple((k, -q) for k, q in entries):
                raise LieAlgebraError("structure constants must be antisymmetric")
        self._link(tuple(labels), nonzero)

    @classmethod
    def _from_index(cls, labels: tuple[str, ...], nonzero: dict, **links) -> "StructureConstants":
        table = cls.__new__(cls)
        table._link(labels, nonzero, **links)
        return table

    def _link(
        self,
        labels: tuple[str, ...],
        nonzero: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]],
        canonical: "StructureConstants | None" = None,
        to_canonical: tuple[SparseRow, ...] | None = None,
        det_to_canonical: Fraction = Fraction(1),
        to_user: tuple[SparseRow, ...] | None = None,
    ) -> None:
        self.labels = labels
        self.nonzero = nonzero
        self.canonical = self if canonical is None else canonical
        self.to_canonical = to_canonical
        self.det_to_canonical = det_to_canonical
        self.to_user = to_user

    @property
    def dim(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The dense table, built from the index on first read."""
        m = self.dim
        return tuple(
            tuple(tuple(linalg._dense(dict(self.nonzero.get((i, j), ())), m)) for j in range(m))
            for i in range(m)
        )

    def render(self, v: SparseRow) -> str:
        """A vector over this table's basis, written in the generators' labels."""
        if self.to_user is not None:
            v = _combine(self.to_user, v)
        return render_combination(v, self.labels)

    @functools.cached_property
    def killing(self) -> tuple[SparseRow, ...]:
        """The Killing form's rows in this table's basis, computed on first use."""
        return tuple(killing_form(self))

    @functools.cached_property
    def killing_determinant(self) -> Fraction:
        """det of the Killing form, computed once and shared by the report and
        the semisimplicity test: on the canonical table, times det(Q)^2 for
        the change of basis Q, since the form transforms as Q kappa Q^T."""
        if self.canonical is self:
            return linalg.det(self.killing)
        return self.canonical.killing_determinant * self.det_to_canonical**2

    @functools.cached_property
    def centroid(self) -> tuple[SparseRow, ...]:
        """Basis of the centroid in this table's basis, computed on first use."""
        return _centroid(self)

    @functools.cached_property
    def center(self) -> Subspace:
        """The center, computed once on the canonical table and shared by the
        report and `derivations`."""
        if self.canonical is self:
            return _center(self)
        return _change_basis(self.canonical.center, self.canonical.to_user)

    @functools.cached_property
    def derived(self) -> Subspace:
        """[L, L], computed once on the canonical table and shared by the report
        and the radical."""
        if self.canonical is self:
            return _derived_subalgebra(self)
        return _change_basis(self.canonical.derived, self.canonical.to_user)

    @functools.cached_property
    def radical_series(self) -> tuple[Subspace, ...]:
        """The radical's derived series down to zero, computed once on the
        canonical table and shared by `radical` and the Levi complement."""
        if self.canonical is self:
            return _radical_series(self)
        to_user = self.canonical.to_user
        return tuple(_change_basis(term, to_user) for term in self.canonical.radical_series)

    @functools.cached_property
    def levi(self) -> "LeviResult":
        """The verified Levi decomposition, computed once on the canonical table
        and shared by `levi_decomposition` and `derivations`."""
        if self.canonical is self:
            return _levi_decomposition(self)
        levi, to_user = self.canonical.levi, self.canonical.to_user
        return LeviResult(_change_basis(levi.radical, to_user), _change_basis(levi.levi, to_user))

    def bracket_coords(self, u: SparseRow, v: SparseRow) -> SparseRow:
        """[u, v] as a sparse row, read off the nonzero index."""
        out: SparseRow = {}
        for i, x in u.items():
            for j, y in v.items():
                entries = self.nonzero.get((i, j))
                if entries:
                    f = x * y
                    for k, q in entries:
                        out[k] = out.get(k, 0) + f * q
        return {k: w for k, w in out.items() if w}


def _combine(rows: Sequence[SparseRow], v: SparseRow) -> SparseRow:
    """sum_i v_i rows[i]."""
    out: SparseRow = {}
    for i, x in v.items():
        for k, q in rows[i].items():
            out[k] = out.get(k, 0) + x * q
    return {k: w for k, w in out.items() if w}


def _change_basis(space: Subspace, rows: Sequence[SparseRow] | None) -> Subspace:
    """The subspace carried by the change of basis that sends e_i to rows[i]
    (None: the identity), in echelon form."""
    if rows is None:
        return space
    return Subspace.from_vectors((_combine(rows, v) for v in space.rows.values()), space.ambient_dim)


def render_combination(coeffs: SparseRow, labels: Sequence[str]) -> str:
    """`2*b1 - b3` style text of a sparse row, in column order; "0" for the zero row."""
    parts = []
    for j in sorted(coeffs):
        coeff, label = coeffs[j], labels[j]
        magnitude = label if abs(coeff) == 1 else f"{abs(coeff)}*{label}"
        if not parts:
            parts.append(magnitude if coeff > 0 else f"-{magnitude}")
        else:
            parts.append(f"+ {magnitude}" if coeff > 0 else f"- {magnitude}")
    return " ".join(parts) if parts else "0"


def _terms(f: BaseField) -> dict[tuple, Fraction]:
    """The field's coefficients keyed by (component, term key)."""
    return {(pos, key): q for pos, comp in enumerate(f.components) for key, q in comp.items()}


def structure_constants_from_fields(
    fields: Sequence[BaseField],
    labels: Sequence[str] | None = None,
) -> StructureConstants:
    """Bracket table of a generator list; fails if dependent or not closed.

    Generator g_i is the sparse row [its coefficients over the joint term
    keys | e_i], and one elimination puts the rows in reduced echelon form.
    The term columns are sorted by component and then in the order the
    component prints its terms, so the term parts of the pivot rows are the
    reduced echelon basis of the span itself: canonical fields h_a that do
    not depend on the generators.  A pivot in the tail would be a vanishing
    combination of generators.  The tail of pivot row a gives P, with
    h_a = sum_i P_ai g_i, and the entries of g_i at the pivot columns give Q,
    with g_i = sum_a Q_ia h_a, so no inverse is taken; det Q is read off the
    elimination's steps.  Only the h_a are bracketed: [h_a, h_b] lies in the
    span exactly when it reduces to zero modulo the pivot rows, and then its
    coordinates are its entries at the pivot columns.  The generators' own
    table follows by the change of basis (`_user_index`).
    """
    m = len(fields)
    if labels is None:
        labels = [f"b{i + 1}" for i in range(m)]
    if len(labels) != m:
        raise LieAlgebraError("one label per generator is required")
    if m == 0:
        return StructureConstants((), ())
    n = fields[0].dim
    if any(f.dim != n for f in fields):
        raise ValueError("generators must share one dimension")
    terms = [_terms(f) for f in fields]
    keys = {key for t in terms for key in t}
    # base fields have no y; nx reaches every x index in use.  All-zero
    # generators have no keys and fail below as dependent.
    nx = max((max(mono.max_x_index(), lin.max_index(), 1) for _pos, (mono, lin) in keys), default=1)
    keys = sorted(keys, key=lambda key: (key[0], symexpr._print_key(key[1], nx, 1)))
    column = {key: j for j, key in enumerate(keys)}
    width = len(keys)
    rows = [
        {column[key]: q for key, q in t.items()} | {width + i: Fraction(1)}
        for i, t in enumerate(terms)
    ]
    pivot_rows, steps = linalg._echelon(rows)
    if any(p >= width for p in pivot_rows):
        raise DependentGeneratorsError("generators are linearly dependent over the rationals")
    pivots = sorted(pivot_rows)
    position = {p: a for a, p in enumerate(pivots)}
    span = {p: {j: v for j, v in pivot_rows[p].items() if j < width} for p in pivots}
    to_user = tuple({j - width: v for j, v in pivot_rows[p].items() if j >= width} for p in pivots)
    to_canonical = tuple({position[j]: q for j, q in row.items() if j in position} for row in rows)
    # Q is the pivot columns of the generators' rows, which the elimination
    # took to the identity
    det_q = linalg._determinant(steps)

    def coordinates(w: BaseField) -> tuple[tuple[int, Fraction], ...] | None:
        """The canonical coordinates of w, or None when it leaves the span."""
        vector = {}
        for key, q in _terms(w).items():
            if key not in column:
                return None
            vector[column[key]] = q
        entries = tuple((position[j], q) for j, q in sorted(vector.items()) if j in position)
        return None if linalg._reduce(span, vector) else entries

    canonical = []
    for p in pivots:
        comps: list[dict] = [{} for _ in range(n)]
        for j, v in span[p].items():
            pos, key = keys[j]
            comps[pos][key] = v
        canonical.append(BaseField(tuple(CanonicalExpr(c) for c in comps)))
    upper = {}
    for a, b in itertools.combinations(range(m), 2):
        entries = coordinates(bracket_base(canonical[a], canonical[b]))
        if entries is None:
            # the span is not closed, so some pair of generators leaves it:
            # name the first, as the generators were given
            for i, j in itertools.combinations(range(m), 2):
                w = bracket_base(fields[i], fields[j])
                if coordinates(w) is None:
                    raise NonClosureError(labels[i], labels[j], w)
        upper[(a, b)] = dict(entries)
    nonzero = _antisymmetric_index(upper)
    table = StructureConstants._from_index(tuple(labels), nonzero, to_user=to_user)
    return StructureConstants._from_index(
        tuple(labels),
        _user_index(nonzero, to_user, to_canonical, m),
        canonical=table,
        to_canonical=to_canonical,
        det_to_canonical=det_q,
    )


def _antisymmetric_index(
    upper: dict[tuple[int, int], SparseRow],
) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
    """The nonzero index of the table with [b_i, b_j] = upper[(i, j)] for i < j."""
    index = {}
    for (i, j), row in upper.items():
        entries = tuple((k, q) for k, q in sorted(row.items()) if q)
        if entries:
            index[(i, j)] = entries
            index[(j, i)] = tuple((k, -q) for k, q in entries)
    return dict(sorted(index.items()))


def _user_index(
    nonzero: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]],
    to_user: Sequence[SparseRow],
    to_canonical: Sequence[SparseRow],
    m: int,
) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
    """The generators' table off the canonical one, in two one-sided passes.

    With [h_a, h_b] written over the generators through P,
    [g_i, g_j] = sum_b Q_jb (sum_a Q_ia [h_a, h_b]): the inner sum runs once
    per (i, b) and the outer once per (i, j), i < j, each over nonzeros only.
    C, P and Q are scaled to integers first, so the passes add and multiply
    integers and only the final entries become Fractions.
    """
    flat = {(a, b, c): q for (a, b), entries in nonzero.items() if a < b for c, q in entries}
    (constants,), scale_c = _integral([flat])
    p_rows, scale_p = _integral(to_user)
    q_rows, scale_q = _integral(to_canonical)
    brackets: dict[tuple[int, int], dict[int, int]] = {}  # [h_a, h_b] over the generators, a < b
    for (a, b, c), q in constants.items():
        _add_scaled(brackets.setdefault((a, b), {}), q, p_rows[c])
    columns: list[dict[int, int]] = [{} for _ in range(m)]  # column a of Q
    for i, row in enumerate(q_rows):
        for a, q in row.items():
            columns[a][i] = q
    left: dict[tuple[int, int], dict[int, int]] = {}  # sum_a Q_ia [h_a, h_b]
    for (a, b), row in brackets.items():
        for i, q in columns[a].items():
            _add_scaled(left.setdefault((i, b), {}), q, row)
        for i, q in columns[b].items():  # [h_b, h_a] = -[h_a, h_b]
            _add_scaled(left.setdefault((i, a), {}), -q, row)
    upper: dict[tuple[int, int], dict[int, int]] = {}
    for (i, b), row in left.items():
        for j, q in columns[b].items():
            if j > i:
                _add_scaled(upper.setdefault((i, j), {}), q, row)
    scale = scale_c * scale_p * scale_q**2
    return _antisymmetric_index(
        {pair: {k: Fraction(v, scale) for k, v in row.items()} for pair, row in upper.items()}
    )


def _integral(rows: Sequence[SparseRow]) -> tuple[list[dict[int, int]], int]:
    """The rows times the least common denominator of their entries, as
    integers, and that denominator."""
    scale = math.lcm(*(v.denominator for row in rows for v in row.values()))
    scaled = [{k: v.numerator * (scale // v.denominator) for k, v in row.items()} for row in rows]
    return scaled, scale


def _add_scaled(acc: dict, q, row: dict) -> None:
    """acc += q * row; entries that cancel stay as zeros."""
    for k, v in row.items():
        acc[k] = acc.get(k, 0) + q * v


def jacobi_check(sc: StructureConstants):
    """(True, None) or (False, witness (i, j, k, s, residual)).

    The identity is checked on the canonical table.  The witness is the
    first failing i < j < k in combinations order, with the smallest s at
    which [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j] has a nonzero
    coefficient, and that coefficient; the identity holds in every basis or
    in none, so a failure is searched again in the table's own basis.
    """
    ok, witness = _jacobi_witness(sc.canonical)
    if ok or sc.canonical is sc:
        return ok, witness
    return _jacobi_witness(sc)


def _jacobi_witness(sc: StructureConstants):
    nonzero = sc.nonzero
    for i, j, k in itertools.combinations(range(sc.dim), 3):
        total: dict[int, Fraction] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, q in nonzero.get((a, b), ()):
                for s, r in nonzero.get((l, c), ()):
                    total[s] = total.get(s, 0) + q * r
        failing = [s for s, v in total.items() if v]
        if failing:
            s = min(failing)
            return False, (i, j, k, s, total[s])
    return True, None


def killing_form(sc: StructureConstants) -> list[SparseRow]:
    """Rows kappa[i] = {j: trace(ad b_i ad b_j)}, summed over nonzero constants only."""
    m = sc.dim
    # ads[i][(p, q)] is entry (p, q) of ad(b_i), that is c[i][q][p]
    ads: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(m)]
    for (i, q), entries in sc.nonzero.items():
        for p, v in entries:
            ads[i][(p, q)] = v
    kappa: list[SparseRow] = [{} for _ in range(m)]
    for i in range(m):
        a = ads[i]
        for j in range(i, m):
            b = ads[j]
            trace = sum((v * b[(q, p)] for (p, q), v in a.items() if (q, p) in b), Fraction(0))
            if trace:
                kappa[i][j] = trace
                kappa[j][i] = trace
    return kappa


def killing_det(sc: StructureConstants) -> Fraction:
    return sc.killing_determinant


def is_semisimple(sc: StructureConstants) -> bool:
    return killing_det(sc) != 0


def derived_subalgebra(sc: StructureConstants) -> Subspace:
    return sc.derived


def _derived_subalgebra(sc: StructureConstants) -> Subspace:
    return Subspace.from_vectors((dict(e) for (i, j), e in sc.nonzero.items() if i < j), sc.dim)


def center(sc: StructureConstants) -> Subspace:
    return sc.center


def _center(sc: StructureConstants) -> Subspace:
    m = sc.dim
    # row (j, k) holds c[i][j][k] over i: one equation per output coordinate
    rows: dict[tuple[int, int], SparseRow] = {}
    for (i, j), entries in sc.nonzero.items():
        for k, q in entries:
            rows.setdefault((j, k), {})[i] = q
    return Subspace.from_vectors(linalg.kernel_basis(rows.values(), ncols=m), m)


def _derived_of_subspace(sc: StructureConstants, space: Subspace) -> Subspace:
    pairs = itertools.combinations(space.rows.values(), 2)
    return Subspace.from_vectors((sc.bracket_coords(u, v) for u, v in pairs), sc.dim)


def _ideal_witness(
    sc: StructureConstants, space: Subspace
) -> tuple[int, SparseRow, SparseRow] | None:
    """The first (i, v, leftover) with [b_i, v] outside the subspace, v a
    basis vector and leftover the remainder of [b_i, v] modulo it; or None."""
    for v in space.rows.values():
        for i in range(sc.dim):
            leftover = space.reduce(sc.bracket_coords({i: _ONE}, v))
            if leftover:
                return i, v, leftover
    return None


def is_ideal(sc: StructureConstants, space: Subspace) -> bool:
    """Does every bracket [b_i, v], v in the subspace, stay in it?  Decided
    on the canonical table."""
    return _ideal_witness(sc.canonical, _change_basis(space, sc.to_canonical)) is None


def is_abelian(sc: StructureConstants, space: Subspace) -> bool:
    """Do all brackets inside the subspace vanish?  Decided on the canonical table."""
    return _derived_of_subspace(sc.canonical, _change_basis(space, sc.to_canonical)).is_zero()


def radical(sc: StructureConstants) -> Subspace:
    """Killing-orthogonal complement of the derived subalgebra.

    For a Lie algebra over a field of characteristic zero this equals the
    maximal solvable ideal; both defining properties are verified before the
    result is returned.
    """
    return sc.radical_series[0]


def _radical_series(sc: StructureConstants) -> tuple[Subspace, ...]:
    """The radical R^0 > R^1 > ... > 0, R^(i+1) = [R^i, R^i], checked to be
    an ideal and, by the series reaching zero, solvable."""
    m = sc.dim
    # kappa is symmetric, so kappa d is the combination of its rows by d
    rows = [_combine(sc.killing, d) for d in derived_subalgebra(sc).rows.values()]
    rad = Subspace.from_vectors(linalg.kernel_basis(rows, ncols=m), m)
    witness = _ideal_witness(sc, rad)
    if witness:
        i, v, leftover = witness
        raise LieAlgebraError(
            f"computed radical is not an ideal: [{sc.render({i: _ONE})}, "
            f"{sc.render(v)}] leaves {sc.render(leftover)} outside it (Jacobi violation upstream?)"
        )
    series = [rad]
    while not series[-1].is_zero():
        term = series[-1]
        below = _derived_of_subspace(sc, term)
        if below.dim >= term.dim:
            basis = ", ".join(sc.render(v) for v in term.rows.values())
            raise LieAlgebraError(
                f"computed radical is not solvable: its derived series stops shrinking at step "
                f"{len(series) - 1}, dimension {term.dim} ({basis}) (Jacobi violation upstream?)"
            )
        series.append(below)
    return tuple(series)


def _centroid(sc: StructureConstants) -> tuple[SparseRow, ...]:
    """Kernel of T[b_i, b_j] = [b_i, T b_j] over all ordered pairs (i, j).

    Unknowns are the m^2 entries of T, flattened like a derivation (column c
    = image of b_c); row (i*m + j)*m + k is coordinate k of the constraint,
    held sparsely.  The kernel holds the identity, so elimination stops at
    rank m^2 - 1, which proves that the centroid is Q*I; short of it, every
    row went in and the pivot rows give the kernel.
    """
    m = sc.dim
    rows: list[SparseRow] = [{} for _ in range(m**3)]
    # T[b_i, b_j]: c^l_ij T[k][l], in every row k; each (row, column) once
    for (i, j), entries in sc.nonzero.items():
        for l, q in entries:
            for k in range(m):
                rows[(i * m + j) * m + k][k * m + l] = q
    # [b_i, T b_t] through the b_j part of T b_t: c^l_ij T[j][t], in row (i, t, l)
    for (i, j), entries in sc.nonzero.items():
        for l, q in entries:
            for t in range(m):
                row = rows[(i * m + t) * m + l]
                row[j * m + t] = row.get(j * m + t, 0) - q
    bound = m * m - 1
    pivot_rows, _ = linalg._echelon(rows, bound)
    if len(pivot_rows) == bound:
        return ({k * m + k: _ONE for k in range(m)},)
    return tuple(linalg._kernel(pivot_rows, m * m))


def _minimal_polynomial(matrix: Sequence[SparseRow]) -> Vec:
    """Coefficients a_0, ..., a_{d-1}, 1 of the monic minimal polynomial over Q
    of the matrix given by its sparse rows.

    The powers I, c, c^2, ... are independent up to c^(d-1); the first
    dependent power's kernel vector is 1 at its own column.  Row r of P c is
    the combination of c's rows by row r of P.
    """
    powers = [[{r: _ONE} for r in range(len(matrix))]]
    while True:
        powers.append([_combine(matrix, row) for row in powers[-1]])
        # one row per matrix entry, over the powers
        rows: dict[tuple[int, int], SparseRow] = {}
        for d, power in enumerate(powers):
            for r, row in enumerate(power):
                for c, v in row.items():
                    rows.setdefault((r, c), {})[d] = v
        kernel = linalg.kernel_basis(rows.values(), ncols=len(powers))
        if kernel:
            return [kernel[0].get(d, Fraction(0)) for d in range(len(powers))]


def _sturm_sequence(p: Vec) -> list[Vec]:
    """p, p', then negated remainders; coefficients low to high, to a constant or a gcd."""
    seq = [list(p), [k * a for k, a in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        rem = list(seq[-2])
        while len(rem) >= len(seq[-1]):
            f, shift = rem[-1] / seq[-1][-1], len(rem) - len(seq[-1])
            for k, b in enumerate(seq[-1]):
                rem[shift + k] -= f * b
            while rem and not rem[-1]:
                rem.pop()
        if not rem:
            break
        seq.append([-a for a in rem])
    return seq


def _value(p: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * t + a
    return acc


def _has_rational_root(p: Vec) -> bool:
    """Does the monic p over Q vanish at a rational point?

    With D the lcm of p's denominators, D*p has integer coefficients and
    leading coefficient D, so by the rational-root theorem every rational
    root is n/D for an integer n, and |n| <= D*B for the Cauchy bound B.
    Bisection over n keeps only the blocks whose ends (2n +- 1)/(2D) enclose
    a real root by Sturm's count; an end is never a root, since its
    denominator holds one more factor 2 than D does.  A
    block of one n is decided by evaluating p at n/D.  At most deg p blocks
    survive per level, so the cost is polynomial in the size of the
    coefficients: nothing is factored.
    """
    denom = math.lcm(*(q.denominator for q in p))
    seq = _sturm_sequence(p)

    @functools.cache  # a split block's two halves share the middle end
    def variations(t: Fraction) -> int:
        signs = [v > 0 for v in (_value(f, t) for f in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    reach = math.ceil(denom * (1 + max(abs(a) for a in p[:-1])))
    blocks = [(-reach, reach)]
    while blocks:
        lo, hi = blocks.pop()
        if variations(Fraction(2 * lo - 1, 2 * denom)) == variations(
            Fraction(2 * hi + 1, 2 * denom)
        ):
            continue
        if lo == hi:
            if not _value(p, Fraction(lo, denom)):
                return True
            continue
        mid = (lo + hi) // 2
        blocks += [(lo, mid), (mid + 1, hi)]
    return False


def is_simple(sc: StructureConstants) -> bool | None:
    """Semisimple with a centroid that is a field.

    The centroid C of a semisimple algebra is the product of the centroids
    of its simple ideals, each a number field, so the algebra is simple
    exactly when C is a field.  dim C = 1 decides it at once.  Otherwise c,
    the first basis element of C outside Q*I, has a minimal polynomial p
    over Q.  A rational root r of p makes c - r*I a zero divisor, so C is no
    field.  With no rational root and dim C <= 3, C is a field: a product of
    two or more number fields of total degree <= 3 has a factor Q, and c's
    component there would be a rational root of p.  None, a limit and not a
    guess, when p has no rational root and dim C >= 4.  Decided on the
    canonical table, so the choice of c does not depend on the basis given.
    """
    sc = sc.canonical
    if sc.dim == 0 or not is_semisimple(sc):
        return False
    centroid = sc.centroid
    if len(centroid) == 1:
        return True
    m = sc.dim
    scalar = {k * m + k: _ONE for k in range(m)}
    c = next(v for v in centroid if linalg.rank([scalar, v]) == 2)
    matrix: list[SparseRow] = [{} for _ in range(m)]
    for k, v in c.items():
        matrix[k // m][k % m] = v
    p = _minimal_polynomial(matrix)
    if _has_rational_root(p):
        return False
    return True if len(centroid) <= 3 else None


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationSpace:
    dimension: int
    inner_dimension: int

    @property
    def outer_dimension(self) -> int:
        return self.dimension - self.inner_dimension


def derivations(sc: StructureConstants) -> DerivationSpace:
    """Dimensions of Der L, the derivations D[x, y] = [Dx, y] + [x, Dy], and
    of its inner part ad L, read off the Levi decomposition L = S + R.

    ad: L -> Der L has the center Z as kernel, so ad L has dimension m - dim Z.
    By Whitehead's first lemma, H^1(S, M) = 0 for S semisimple and M any
    finite-dimensional S-module in characteristic 0 (Jacobson, Lie Algebras,
    1962, chapter III).  Taking M = L, every D restricted to S is some ad x
    there, so D - ad x lies in Der_S = {D : D(S) = 0} and Der L = ad L + Der_S.
    Their meet is ad C for C = C_L(S), the centralizer of S, of dimension
    dim C - dim Z, which gives

        dim Der L = m + dim Der_S - dim C.

    - R = 0: Z lies in R, so Der L = ad L has dimension m, with no elimination.
    - Otherwise the unknowns are the images D r_b of the radical's basis,
      dim R * m of them (`_radical_rows`), and dim C is m minus the rank of
      the stacked ad s_a over the complement's basis.  When S = 0 the
      radical's basis is the standard one, C is L, and the system is the
      full Leibniz system over the m^2 entries of D.

    Every ad x is a derivation, and ad C lies in Der_S, so each rank is at
    most its unknowns minus the dimension of those inner derivations, and
    elimination stops there.  Every system is built on the canonical table.
    """
    sc = sc.canonical
    m = sc.dim
    levi = sc.levi
    if levi.radical.is_zero():
        return DerivationSpace(m, m)
    inner = m - sc.center.dim
    ad_s = [_ad_rows(sc, v) for v in levi.levi.rows.values()]
    # C holds Z, so the stacked ad s_a have rank at most m - dim Z
    centralizer = m - linalg.rank((row for ad in ad_s for row in ad), inner)
    unknowns = levi.radical.dim * m
    bound = unknowns - (centralizer - (m - inner))
    der_s = unknowns - linalg.rank(_radical_rows(sc, levi, ad_s), bound)
    return DerivationSpace(m + der_s - centralizer, inner)


def _ad_rows(sc: StructureConstants, x: SparseRow) -> list[SparseRow]:
    """ad x as m sparse rows: row k holds the coordinate k of [x, b_j] at column j."""
    rows: list[SparseRow] = [{} for _ in range(sc.dim)]
    for (i, j), entries in sc.nonzero.items():
        xi = x.get(i)
        if xi is not None:
            for k, q in entries:
                rows[k][j] = rows[k].get(j, 0) + xi * q
    return [{j: v for j, v in row.items() if v} for row in rows]


def _radical_rows(
    sc: StructureConstants, levi: "LeviResult", ad_s: Sequence[list[SparseRow]]
) -> list[SparseRow]:
    """The system of Der_S over d_b = D r_b, coordinate k of d_b at column b*m + k.

    A pair (x, r_b) has [x, r_b] = sum_e beta_e r_e, because R is an ideal;
    its basis is in reduced echelon form, so beta_e is the bracket's entry
    at the pivot of r_e.  Then D[x, r_b] = sum_e beta_e d_e, and each pair
    gives m rows:

        sum_e beta_e d_e - ad(s_a) d_b                for (s_a, r_b),
        sum_e beta_e d_e + ad(r_c) d_b - ad(r_b) d_c  for (r_b, r_c), b < c.

    Pairs inside S impose nothing: their bracket lies in S, where D is zero.
    """
    m = sc.dim
    position = {p: e for e, p in enumerate(levi.radical.rows)}
    radical = list(levi.radical.rows.values())
    ad_r = [_ad_rows(sc, v) for v in radical]
    rows: list[SparseRow] = []

    def constrain(w: SparseRow, terms: list[tuple[list[SparseRow], int, int]]) -> None:
        block: list[SparseRow] = [{} for _ in range(m)]
        for p, beta in w.items():
            e = position.get(p)
            if e is not None:
                for k, row in enumerate(block):
                    row[e * m + k] = beta
        # sign * ad(x) d_b: ad(x)[k][j] at column b*m + j of row k; a fresh
        # column takes +-v as it is, which spares a Fraction sum or product
        for ad, b, sign in terms:
            for row, ad_row in zip(block, ad):
                for j, v in ad_row.items():
                    col = b * m + j
                    old = row.get(col)
                    if old is None:
                        row[col] = v if sign > 0 else -v
                    else:
                        row[col] = old + v if sign > 0 else old - v
        rows.extend(block)

    for s, ad in zip(levi.levi.rows.values(), ad_s):
        for b, r in enumerate(radical):
            constrain(sc.bracket_coords(s, r), [(ad, b, -1)])
    for b, c in itertools.combinations(range(len(radical)), 2):
        w = sc.bracket_coords(radical[b], radical[c])
        constrain(w, [(ad_r[c], b, 1), (ad_r[b], c, -1)])
    return rows


# ---------------------------------------------------------------------------
# subalgebras, Levi complement
# ---------------------------------------------------------------------------


def subalgebra_constants(sc: StructureConstants, space: Subspace) -> StructureConstants:
    """Structure constants of a subspace that is closed under the bracket,
    over its basis labelled s1, ..., sm.

    A bracket of two basis vectors outside the subspace raises a
    LieAlgebraError naming the pair and what is left over modulo it.  The
    basis is in reduced row echelon form, so a bracket inside the subspace
    has as coefficient of each basis row its entry at that row's pivot.
    """
    basis = list(space.rows.values())
    upper = {}
    for (i, u), (j, v) in itertools.combinations(enumerate(basis), 2):
        w = sc.bracket_coords(u, v)
        leftover = space.reduce(w)
        if leftover:
            raise LieAlgebraError(
                f"subspace is not closed under the bracket: [{sc.render(u)}, {sc.render(v)}] "
                f"leaves {sc.render(leftover)} outside it"
            )
        upper[(i, j)] = {a: w[p] for a, p in enumerate(space.rows) if p in w}
    labels = tuple(f"s{i + 1}" for i in range(len(basis)))
    return StructureConstants._from_index(labels, _antisymmetric_index(upper))


def _levi_vectors(sc: StructureConstants, series: Sequence[Subspace]) -> list[SparseRow]:
    """Basis of a complement of the radical that is closed under the bracket.

    One loop down the radical's derived series R^0 > R^1 > ... > 0, the one
    `radical` checked, with no quotient algebra (de Graaf, Lie Algebras:
    Theory and Algorithms, 2000).
    The complement starts as the unit vectors y_a off the radical's pivots.
    Entering level i, the y_a span a subalgebra modulo R^i: put in reduced
    echelon form, [y_a, y_b] = sum_c g^c_ab y_c + e_ab with e_ab in R^i, and
    g^c_ab is the remainder of [y_a, y_b] modulo R^i at the pivot of y_c.
    Each y_a is corrected by z_a in R^i so that the bracket holds modulo
    R^(i+1):

        [y_a, z_b] - [y_b, z_a] - sum_c g^c_ab z_c = -e_ab   modulo R^(i+1),

    which is linear in the z_a because [R^i, R^i] = R^(i+1).  The unknowns
    are the coefficients of z_a over u_t, the reduced echelon basis of R^i
    reduced modulo R^(i+1), and linalg.solve sets its free ones to zero.
    That choice depends on the basis of the y_a, which the echelon form fixes
    at every level.  A semisimple algebra (R = 0) keeps every unit vector and
    a solvable one (R = L) has none, with nothing to correct in either case.
    """
    m = sc.dim
    pivots = series[0].rows
    ys = [{i: _ONE} for i in range(m) if i not in pivots]
    s = len(ys)
    for level, below in zip(series, series[1:]):
        quotient = Subspace.from_vectors([below.reduce(v) for v in level.rows.values()], m)
        us = list(quotient.rows.values())
        p = len(us)
        complement = Subspace.from_vectors(ys, m)
        ys = [dict(v) for v in complement.rows.values()]
        # [y_a, u_t] modulo R^(i+1)
        ad_y_u = [[below.reduce(sc.bracket_coords(y, u)).items() for u in us] for y in ys]

        # unknown a*p + t: the coefficient of u_t in z_a; one row per pair and
        # coordinate that is not 0 = 0
        rows: list[SparseRow] = []
        rhs: list[Fraction] = []
        where: list[tuple[int, int, int]] = []
        for a, b in itertools.combinations(range(s), 2):
            e = sc.bracket_coords(ys[a], ys[b])
            rest = level.reduce(e)
            g = [(c, rest[h]) for c, h in enumerate(complement.rows) if h in rest]
            for c, q in g:
                linalg._subtract(e, q, ys[c])
            block: list[SparseRow] = [{} for _ in range(m)]
            for t in range(p):
                for coord, v in ad_y_u[a][t]:
                    block[coord][b * p + t] = block[coord].get(b * p + t, 0) + v
                for coord, v in ad_y_u[b][t]:
                    block[coord][a * p + t] = block[coord].get(a * p + t, 0) - v
                for c, q in g:
                    for coord, v in us[t].items():
                        block[coord][c * p + t] = block[coord].get(c * p + t, 0) - q * v
            leftover = below.reduce(e)
            for k in range(m):
                v = leftover.get(k, 0)
                if block[k] or v:
                    rows.append(block[k])
                    rhs.append(-v)
                    where.append((a, b, k))
        solution = linalg.solve(rows, rhs, ncols=s * p)
        if solution is None:
            # a constraint that reduces to 0 = value names the pair and coordinate
            _, steps = linalg._echelon({**row, s * p: r} for row, r in zip(rows, rhs))
            at, value = next((n, v) for n, (lead, v) in enumerate(steps) if lead == s * p)
            a, b, k = where[at]
            raise LieAlgebraError(
                f"no semisimple complement found for an abelian radical: no correction of "
                f"{sc.render(ys[a])} and {sc.render(ys[b])} by the radical fixes the "
                f"{sc.render({k: _ONE})} coordinate of their bracket; "
                f"{value} is left over"
            )
        for col, q in solution.items():
            a, t = divmod(col, p)
            linalg._subtract(ys[a], -q, us[t])
    return ys


@dataclass(frozen=True)
class LeviResult:
    radical: Subspace
    levi: Subspace


def levi_decomposition(sc: StructureConstants) -> LeviResult:
    """Radical plus a semisimple complement subalgebra, built once per table
    (`StructureConstants.levi`) and shared with `derivations`."""
    return sc.levi


def _levi_decomposition(sc: StructureConstants) -> LeviResult:
    """Radical plus a semisimple complement subalgebra.

    The complement is corrected level by level down the derived series of
    the radical (`_levi_vectors`); before returning, the result is verified:
    the complement and the radical span everything and meet trivially, and
    the complement is closed under the bracket (subalgebra_constants checks
    every pair) with nondegenerate intrinsic Killing form.  A failure names
    its witness as combinations of the generators' labels (`render`).
    """
    m = sc.dim
    rad = radical(sc)
    levi = Subspace.from_vectors(_levi_vectors(sc, sc.radical_series), m)
    # verification
    total = levi.sum(rad)
    if total.dim != m:
        unit = next({i: _ONE} for i in range(m) if not total.contains({i: _ONE}))
        raise LieAlgebraError(
            f"Levi complement and radical do not span: {sc.render(unit)} leaves "
            f"{sc.render(total.reduce(unit))} outside them"
        )
    complement = list(levi.rows.values())
    if levi.dim + rad.dim != m:
        # they span, so some combination of the complement's basis lies in the radical
        columns: list[SparseRow] = [{} for _ in range(m)]
        for c, v in enumerate(complement + list(rad.rows.values())):
            for k, x in v.items():
                columns[k][c] = x
        alpha = linalg.kernel_basis(columns, ncols=levi.dim + rad.dim)[0]
        meet = _combine(complement, {c: x for c, x in alpha.items() if c < levi.dim})
        raise LieAlgebraError(f"Levi complement meets the radical in {sc.render(meet)}")
    kappa = killing_form(subalgebra_constants(sc, levi))
    null = linalg.kernel_basis(kappa, ncols=levi.dim)
    if null:
        # the Killing radical of the complement, back in the ambient basis
        vector = _combine(complement, null[0])
        raise LieAlgebraError(
            f"Levi complement is not semisimple: {sc.render(vector)} "
            "is orthogonal to it under its Killing form"
        )
    return LeviResult(rad, levi)


def classify_3dim_simple(sc: StructureConstants) -> str:
    """Classify a 3-dimensional algebra by the inertia of its Killing form,
    read off the Killing determinant and Sylvester's criterion.

    Returns "sl2-type" (split: signature (2,1)), "so3-type" (negative
    definite), or "not-simple" (degenerate Killing form).  Inertia and the
    sign of the determinant do not depend on the basis, so the canonical
    table's cached form and determinant decide it exactly.
    """
    if sc.dim != 3:
        raise LieAlgebraError("classification requires a 3-dimensional algebra")
    det, kappa = sc.canonical.killing_determinant, sc.canonical.killing
    if not det:
        return "not-simple"
    # leading minors (Sylvester): a zero minor means the form is not definite
    k00, k01, k11 = (kappa[i].get(j, 0) for i, j in ((0, 0), (0, 1), (1, 1)))
    minor = k00 * k11 - k01**2
    if det < 0:
        # an odd number of negative eigenvalues: three, or exactly one
        return "so3-type" if k00 < 0 and minor > 0 else "sl2-type"
    pos, neg = (3, 0) if k00 > 0 and minor > 0 else (1, 2)
    raise LieAlgebraError(f"unexpected Killing signature ({pos},{neg}) in dimension 3")
