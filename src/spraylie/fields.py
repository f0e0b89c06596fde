"""Vector fields on the base and on its tangent bundle.

Frame convention: a tangent-bundle field on an n-dimensional base has 2n
components; slots 0..n-1 multiply d/dx^1..d/dx^n and slots n..2n-1 multiply
d/dy^1..d/dy^n.  Endomorphism fields ("vector one-forms") are 2n x 2n
matrices in that frame, column a holding the image of the a-th frame field.

Every bracket and derivative here but the base bracket rests on one
derivation, a field applied to a scalar, X(f) = sum_s X^s d_s f; the base
bracket reads the two fields' cached Jacobians instead.  Over 90 % of its products vanish on
the shipped problems and on flat Lie families, so it differentiates only
where the component X^s is nonzero, and the ring's one sum of products
(`CanonicalExpr.sum_of_products`) skips a zero partial d_s f.  That sum
also builds the lifts, the base bracket, the image of an endomorphism field,
the energy and every membership obstruction, each a single accumulation of
product terms.  Two facts of the coordinate frame then spare
the frame brackets: frame fields commute, [d_a, d_b] = 0, and bracketing
with one is a componentwise partial derivative, [Z, d_b] = -d_b Z.  The
Frolicher-Nijenhuis self-bracket [K, K] and the Lie derivative of an
endomorphism field are evaluated on frame fields that way.  A field's term
keys name the slots it depends on (`_slots`), and its partial by any other
slot is exactly zero, so those partials are not taken; a pair of constant
frame images, every pair of a flat connection's h, is zero outright.  Field
sums return the operand itself when the other one is zero, and refuse
fields of different dimensions.

The membership predicates take the geometry pipeline's output objects (spray,
connection, curvature, metric) as plain data and report the first nonzero
obstruction on failure, so a False answer always comes with a witness.  They
compute only the entries that can be nonzero.  A complete lift X^c preserves
the fibres and commutes with the vertical endomorphism J and the Liouville
field C (Grifone 1972), so for every base field X:
- the x-components of [X^c, S] vanish, because J[X^c, S] = [X^c, JS] =
  [X^c, C] = 0 for a spray (JS = C); `in_AS` is the n y-components;
- [X^c, 2h - I] is zero outside its lower-left n x n block, because X^c maps
  vertical fields to vertical fields while 2h - I is -1 on vertical fields and
  the identity modulo them, so [X^c, 2h - I] kills vertical fields and takes
  vertical values; `in_AGamma` is that block, n^2 conditions read straight
  from Gamma^j_i, the nonzero Gamma^j_il of the connection's sparse index
  and the first and second x-derivatives of X.
The full tangent-bundle route (`bracket_tm`, `lie_derivative_oneform`) stays
the reference that the tests compare these with.  A base field builds its
Jacobian d_l X^k once (`BaseField.jacobian`), the only place it is
differentiated, and its complete lift once from that (`BaseField.lift`);
every bracket, membership, horizontality and constancy condition reads those
copies.  In the same way the spray's partials d_s(-2 G^k) and the
connection's x-partials d_k Gamma^j_i are taken once per spray and per
connection (`SprayData.partials`, `ConnectionData.x_partials`) and shared by
every field's test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .linalg import SparseRow, kernel_basis, rank
from .symexpr import ZERO, CanonicalExpr, specialize, yvar

__all__ = [
    "BaseField",
    "TMField",
    "VectorOneForm",
    "VectorTwoForm",
    "MembershipVerdict",
    "complete_lift",
    "bracket_base",
    "bracket_tm",
    "apply_to_scalar",
    "lie_derivative_oneform",
    "fn_bracket",
    "spray_field",
    "connection_oneform",
    "energy_from_metric",
    "in_AS",
    "in_AGamma",
    "in_Ag",
    "is_horizontal",
    "in_nullity",
    "nullity_rank_numeric",
    "solve_in_span",
    "horizontal_nullity_span",
    "constant_span",
    "combine_fields",
]


def _slot_var(n: int, slot: int) -> str:
    return f"x{slot + 1}" if slot < n else f"y{slot - n + 1}"


def _slot_vars(n: int) -> list[str]:
    return [_slot_var(n, s) for s in range(2 * n)]


def _derive(
    components: Sequence[CanonicalExpr], variables: Sequence[str], scalar: CanonicalExpr
) -> CanonicalExpr:
    """The field X = sum_s X^s d/d(var_s) applied to a scalar: sum_s X^s d_s f.

    Most components and most partials are zero, so only the slots whose
    component is nonzero are differentiated, and the sum of products skips a
    zero partial; a zero scalar gives zero at once.
    """
    if not scalar:
        return ZERO
    return CanonicalExpr.sum_of_products(
        (comp, scalar.diff(var)) for comp, var in zip(components, variables) if comp
    )


def _bracket(
    a: Sequence[CanonicalExpr], b: Sequence[CanonicalExpr], variables: Sequence[str]
) -> tuple[CanonicalExpr, ...]:
    """[a, b]^k = a(b^k) - b(a^k), the fields differentiating over `variables`.

    A zero component is not differentiated: its term is `ZERO`.
    """
    if len(a) != len(b):
        raise ValueError("bracket of fields with different dimensions")
    return tuple(
        (_derive(a, variables, bk) if bk else ZERO) - (_derive(b, variables, ak) if ak else ZERO)
        for ak, bk in zip(a, b)
    )


class _Components:
    """Componentwise arithmetic of base and tangent-bundle fields, in the caller's own class."""

    @classmethod
    def make(cls, components: Iterable[CanonicalExpr]):
        return cls(tuple(components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def _adds_nothing(self, other) -> bool:
        """Whether `other` is zero, once its dimension is known to match."""
        if len(self.components) != len(other.components):
            raise ValueError("arithmetic on fields with different dimensions")
        return other.is_zero()

    def __add__(self, other):
        if self._adds_nothing(other):
            return self
        return type(self)(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        if self._adds_nothing(other):
            return self
        return type(self)(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.components))

    def scale(self, q: Fraction | int):
        if self.is_zero():
            return self
        return type(self)(tuple(c * q if c else c for c in self.components))


@dataclass(frozen=True)
class BaseField(_Components):
    """Vector field on the base manifold; components may not touch y."""

    components: tuple[CanonicalExpr, ...]

    def __post_init__(self):
        for c in self.components:
            if c.uses_y():
                raise ValueError("base vector fields cannot depend on fiber variables")

    @staticmethod
    def zero(n: int) -> "BaseField":
        return BaseField((CanonicalExpr(),) * n)

    @property
    def dim(self) -> int:
        return len(self.components)

    @functools.cached_property
    def jacobian(self) -> tuple[tuple[CanonicalExpr, ...], ...]:
        """jacobian[k][l] = d_l X^k, the only place a base field is differentiated."""
        xs = _slot_vars(self.dim)[: self.dim]
        return tuple(
            tuple(c.diff(x) for x in xs) if c else (c,) * self.dim for c in self.components
        )

    @functools.cached_property
    def lift(self) -> "TMField":
        """The complete lift, built on first use and shared by every membership test."""
        return complete_lift(self)


@dataclass(frozen=True)
class TMField(_Components):
    """Vector field on the tangent bundle, 2n components."""

    components: tuple[CanonicalExpr, ...]

    def __post_init__(self):
        if len(self.components) % 2:
            raise ValueError("tangent-bundle fields need an even number of components")

    @staticmethod
    def zero(n: int) -> "TMField":
        return TMField((CanonicalExpr(),) * (2 * n))

    @property
    def dim(self) -> int:
        return len(self.components) // 2


def complete_lift(field: BaseField) -> TMField:
    """Lift X^k d/dx^k to X^k d/dx^k + Y^k d/dy^k, Y^k = y^l d_l X^k over the
    nonzero entries d_l X^k of the field's Jacobian."""
    ys = [yvar(l + 1) for l in range(field.dim)]
    lifted = (CanonicalExpr.sum_of_products(zip(ys, row)) for row in field.jacobian)
    return TMField(field.components + tuple(lifted))


def bracket_base(a: BaseField, b: BaseField) -> BaseField:
    """Lie bracket on the base, [a,b]^k = a^l d_l b^k - b^l d_l a^k, read off
    the two cached Jacobians over their nonzero entries."""
    if a.dim != b.dim:
        raise ValueError("bracket of fields with different dimensions")
    ja, jb = a.jacobian, b.jacobian
    return BaseField(
        tuple(
            CanonicalExpr.sum_of_products(zip(a.components, jb[k]))
            - CanonicalExpr.sum_of_products(zip(b.components, ja[k]))
            for k in range(a.dim)
        )
    )


def bracket_tm(a: TMField, b: TMField) -> TMField:
    """Lie bracket on the tangent bundle, derivatives over all 2n slots."""
    return TMField(_bracket(a.components, b.components, _slot_vars(a.dim)))


def apply_to_scalar(field: TMField, scalar: CanonicalExpr) -> CanonicalExpr:
    return _derive(field.components, _slot_vars(field.dim), scalar)


def _slots(field: TMField) -> set[int]:
    """The frame slots some component depends on: x^i is slot i - 1, y^i slot n + i - 1.

    A term depends on x^i through its monomial or its exponential, on y^i
    through its monomial; the partial by any other slot is zero.
    """
    n = field.dim
    slots = set()
    for comp in field.components:
        for (mono, lin), _q in comp.items():
            slots.update(i - 1 for i, _e in itertools.chain(mono.x, lin.coeffs) if i <= n)
            slots.update(n + i - 1 for i, _e in mono.y if i <= n)
    return slots


def _partial(field: TMField, slot: int) -> TMField:
    """Componentwise partial derivative d_slot Z, which is [d_slot, Z] = -[Z, d_slot]."""
    var = _slot_var(field.dim, slot)
    return TMField(tuple(c.diff(var) for c in field.components))


# ---------------------------------------------------------------------------
# endomorphism fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorOneForm:
    """Endomorphism field; matrix[b][a] = frame-b coefficient of the image of frame a."""

    matrix: tuple[tuple[CanonicalExpr, ...], ...]

    def __post_init__(self):
        size = len(self.matrix)
        if size % 2 or any(len(row) != size for row in self.matrix):
            raise ValueError("endomorphism matrix must be square of even size")

    @staticmethod
    def make(rows: Iterable[Iterable[CanonicalExpr]]) -> "VectorOneForm":
        return VectorOneForm(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "VectorOneForm":
        return VectorOneForm(
            tuple(
                tuple(CanonicalExpr.const(int(i == j)) for j in range(2 * n))
                for i in range(2 * n)
            )
        )

    @property
    def dim(self) -> int:
        return len(self.matrix) // 2

    def apply(self, field: TMField) -> TMField:
        """The image field, summed over the field's nonzero components only."""
        if len(field.components) != len(self.matrix):
            raise ValueError("endomorphism applied to a field of a different dimension")
        support = [(a, c) for a, c in enumerate(field.components) if c]
        if not support:
            return field
        return TMField(
            tuple(
                CanonicalExpr.sum_of_products((row[a], c) for a, c in support)
                for row in self.matrix
            )
        )

    def compose(self, other: "VectorOneForm") -> "VectorOneForm":
        return _from_columns([self.apply(other.frame_image(a)) for a in range(len(self.matrix))])

    def frame_image(self, a: int) -> TMField:
        return TMField(tuple(self.matrix[b][a] for b in range(len(self.matrix))))

    def __add__(self, other: "VectorOneForm") -> "VectorOneForm":
        if len(self.matrix) != len(other.matrix):
            raise ValueError("sum of endomorphism fields with different dimensions")
        return VectorOneForm(
            tuple(
                tuple(p + q for p, q in zip(r1, r2))
                for r1, r2 in zip(self.matrix, other.matrix)
            )
        )

    def __sub__(self, other: "VectorOneForm") -> "VectorOneForm":
        return self + other.scale(-1)

    def __neg__(self) -> "VectorOneForm":
        return self.scale(-1)

    def scale(self, q: Fraction | int) -> "VectorOneForm":
        return VectorOneForm(tuple(tuple(v * q if v else v for v in row) for row in self.matrix))

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.matrix for v in row)

    def labelled(self) -> Iterator[tuple[str, CanonicalExpr]]:
        """Entries in row-major order, each labelled `matrix entry (b,a)`."""
        for b, row in enumerate(self.matrix):
            for a, entry in enumerate(row):
                yield f"matrix entry ({b},{a})", entry


def _from_columns(columns: Sequence[TMField]) -> VectorOneForm:
    """The endomorphism field whose column a is the image of frame field a."""
    return VectorOneForm(tuple(zip(*(c.components for c in columns))))


def lie_derivative_oneform(field: TMField, form: VectorOneForm) -> VectorOneForm:
    """Lie derivative [X, L] acting as ([X,L])(Y) = [X, L(Y)] - L([X, Y]).

    On frame field a, -[X, d_a] = d_a X, so column a is [X, L d_a] + L(d_a X).
    d_a X is zero, and so is its image, unless some component of X depends
    on slot a; only those slots add L(d_a X).
    """
    slots = _slots(field)

    def column(a: int) -> TMField:
        image = bracket_tm(field, form.frame_image(a))
        return image + form.apply(_partial(field, a)) if a in slots else image

    return _from_columns([column(a) for a in range(len(form.matrix))])


@dataclass(frozen=True)
class VectorTwoForm:
    """Antisymmetric table of tangent-bundle fields indexed by frame pairs.

    Only the pairs a < b are stored: upper[a][b - a - 1] is the value on
    (d_a, d_b).  `entry` reads the rest off antisymmetry, the negation below
    the diagonal and zero on it.
    """

    upper: tuple[tuple[TMField, ...], ...]

    def entry(self, a: int, b: int) -> TMField:
        if a < b:
            return self.upper[a][b - a - 1]
        if a > b:
            return -self.upper[b][a - b - 1]
        return TMField.zero(self.dim)

    @property
    def dim(self) -> int:
        return len(self.upper) // 2

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.upper for f in row)

    def labelled(self) -> Iterator[tuple[str, CanonicalExpr]]:
        """Components on the frame pairs a < b, labelled by the pair and the slot variable."""
        names = _slot_vars(self.dim)
        for a, row in enumerate(self.upper):
            for b, value in enumerate(row, start=a + 1):
                for var, comp in zip(names, value.components):
                    yield f"frame pair ({names[a]},{names[b]}) component {var}", comp

    def __sub__(self, other: "VectorTwoForm") -> "VectorTwoForm":
        if len(self.upper) != len(other.upper):
            raise ValueError("difference of two-forms with different dimensions")
        return VectorTwoForm(
            tuple(
                tuple(p - q for p, q in zip(r1, r2))
                for r1, r2 in zip(self.upper, other.upper)
            )
        )

    def scale(self, q: Fraction | int) -> "VectorTwoForm":
        return VectorTwoForm(tuple(tuple(f.scale(q) for f in row) for row in self.upper))


def fn_bracket(form: VectorOneForm) -> VectorTwoForm:
    """Frolicher-Nijenhuis self-bracket [K, K] of an endomorphism field on frame pairs.

    [K,K](X,Y) = 2([KX,KY] + K^2[X,Y] - K[KX,Y] - K[X,KY])

    On frame fields X = d_a, Y = d_b the bracket [X,Y] vanishes and
    [Z, d_b] = -d_b Z, so the value there is 2([K d_a, K d_b] + K(d_b K d_a - d_a K d_b)).
    It is computed on the pairs a < b, the ones a two-form stores.  Each image
    and the slots it depends on are found once.  d_b K d_a is taken only when
    K d_a depends on slot b, and is zero otherwise.  Two constant images
    differentiate nothing, so their pair is the shared zero field: a flat
    connection's h and 2h - I, J and the identity cost no derivative.
    """
    size = len(form.matrix)
    images = [form.frame_image(s) for s in range(size)]
    slots = [_slots(image) for image in images]
    zero = TMField.zero(form.dim)

    def partial(a: int, b: int) -> TMField:
        return _partial(images[a], b) if b in slots[a] else zero

    def value(a: int, b: int) -> TMField:
        if not slots[a] and not slots[b]:
            return zero
        bracket = bracket_tm(images[a], images[b])
        return (bracket + form.apply(partial(a, b) - partial(b, a))).scale(2)

    return VectorTwoForm(
        tuple(tuple(value(a, b) for b in range(a + 1, size)) for a in range(size))
    )


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipVerdict:
    predicate: str
    ok: bool
    residual: CanonicalExpr | None = None
    location: str = ""

    def __bool__(self) -> bool:
        return self.ok


def spray_field(spray) -> TMField:
    """The spray as a tangent-bundle field: y^i d/dx^i - 2 G^i d/dy^i."""
    n = len(spray.G)
    comps = [yvar(i + 1) for i in range(n)]
    comps += [spray.G[i] * Fraction(-2) for i in range(n)]
    return TMField(tuple(comps))


def connection_oneform(connection) -> VectorOneForm:
    """The almost-product structure 2h - I of the connection."""
    n = connection.dim
    rows = [[CanonicalExpr() for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        rows[i][i] = CanonicalExpr.const(1)
        rows[n + i][n + i] = CanonicalExpr.const(-1)
    for j in range(n):
        for i in range(n):
            rows[n + j][i] = connection.gamma1[j][i] * Fraction(-2)
    return VectorOneForm(tuple(tuple(r) for r in rows))


def _verdict(predicate: str, labeled: Iterable[tuple[str, CanonicalExpr]]) -> MembershipVerdict:
    """True, or False with the first nonzero labeled expression as the witness."""
    for label, expr in labeled:
        if not expr.is_zero():
            return MembershipVerdict(predicate, False, expr, label)
    return MembershipVerdict(predicate, True)


def energy_from_metric(metric) -> CanonicalExpr:
    """E = g_ij y^i y^j / 2."""
    n = metric.dim
    ys = [yvar(l + 1) for l in range(n)]
    pairs = ((metric.g[i][j], ys[i] * ys[j]) for i in range(n) for j in range(n) if metric.g[i][j])
    return CanonicalExpr.sum_of_products(pairs) * Fraction(1, 2)


def _spray_obstruction(field: BaseField, spray) -> list[tuple[str, CanonicalExpr]]:
    """The y-components of [X^c, S], X^c(-2 G^k) - S(Y^k), labelled `component y<k>`.

    The x-components X^c(y^k) - S(X^k) = Y^k - y^j d_j X^k vanish for every field.
    """
    n = field.dim
    names = _slot_vars(n)
    lift = field.lift.components
    spray_comps = spray.field.components
    out = []
    for k, partials in enumerate(spray.partials):
        lifted = CanonicalExpr.sum_of_products(zip(lift, partials))  # X^c(-2 G^k), shared partials
        out.append((f"component {names[n + k]}", lifted - _derive(spray_comps, names, lift[n + k])))
    return out


def _connection_obstruction(field: BaseField, connection) -> list[tuple[str, CanonicalExpr]]:
    """Entries (n+j, i) of [X^c, 2h - I] in row-major order; all others vanish.

    With Y^j = y^k d_k X^j the entry is
    -2 [X^k d_k Gamma^j_i + Y^l Gamma^j_il + d_i Y^j - Gamma^l_i d_l X^j + Gamma^j_l d_i X^l],
    the condition that X is an affine collineation of the connection.  Y^j is
    the lift's y-component, d_l X^j the field's Jacobian and d_k Gamma^j_i the
    connection's `x_partials`, all shared.
    """
    n = field.dim
    xs = _slot_vars(n)[:n]
    X, dX = field.components, field.jacobian
    Y = field.lift.components[n:]
    gamma1, gamma2, dgamma = connection.gamma1, connection.gamma2, connection.x_partials
    gamma1_columns, dX_columns = list(zip(*gamma1)), list(zip(*dX))
    out = []
    for j in range(n):
        for i in range(n):
            plus = CanonicalExpr.sum_of_products(
                itertools.chain(
                    zip(X, dgamma[j][i]),
                    ((Y[l], coeff) for l, coeff in gamma2.get((j, i), {}).items()),
                    zip(gamma1[j], dX_columns[i]),
                )
            )
            minus = CanonicalExpr.sum_of_products(zip(gamma1_columns[i], dX[j]))
            out.append((f"matrix entry ({n + j},{i})", (plus - minus + Y[j].diff(xs[i])) * -2))
    return out


def _energy_residual(field: BaseField, energy: CanonicalExpr) -> CanonicalExpr:
    """X^c(E) for the energy E: zero for a spray symmetry exactly when it is an isometry."""
    return apply_to_scalar(field.lift, energy)


def in_AS(field: BaseField, spray) -> MembershipVerdict:
    """Does the complete lift commute with the spray?  n conditions, [X^c, S]^(n+k) = 0."""
    return _verdict("in_AS", _spray_obstruction(field, spray))


def in_AGamma(field: BaseField, connection) -> MembershipVerdict:
    """Does the complete lift preserve the connection's almost-product structure?

    n^2 conditions: the lower-left block of [X^c, 2h - I].
    """
    return _verdict("in_AGamma", _connection_obstruction(field, connection))


def in_Ag(field: BaseField, metric, spray) -> MembershipVerdict:
    """Spray symmetry plus annihilation of the energy function."""
    verdict = _verdict("in_Ag", _spray_obstruction(field, spray))
    if not verdict:
        return verdict
    return _verdict("in_Ag", [("energy derivative", _energy_residual(field, metric.energy))])


def _horizontal_obstruction(field: BaseField, connection) -> list[tuple[str, CanonicalExpr]]:
    n = field.dim
    X = field.components
    out = []
    for j in range(n):
        for l in range(n):
            # Gamma^j_il = Gamma^j_li; an index with no entry adds nothing
            entry = field.jacobian[j][l]
            coeffs = connection.gamma2.get((j, l))
            if coeffs:
                entry = entry + CanonicalExpr.sum_of_products(
                    (X[i], coeff) for i, coeff in coeffs.items()
                )
            out.append((f"equation (j={j + 1}, l={l + 1})", entry))
    return out


def is_horizontal(field: BaseField, connection) -> MembershipVerdict:
    """Is the horizontal lift of the field closed under the coordinate frame,
    i.e. dX^j/dx^l + X^i Gamma^j_il = 0 for all j, l?"""
    return _verdict("is_horizontal", _horizontal_obstruction(field, connection))


def _nullity_obstruction(field: BaseField, curvature) -> list[tuple[str, CanonicalExpr]]:
    """X^l R^k_l,ij for each nonzero R^k_ij, i < j; the contraction vanishes at every other."""
    X = field.components
    return [
        (
            f"contraction (k={k + 1}, i={i + 1}, j={j + 1})",
            CanonicalExpr.sum_of_products((X[l], coeff) for l, coeff in coeffs.items()),
        )
        for (k, i, j), coeffs in curvature.R2.items()
    ]


def in_nullity(field: BaseField, curvature) -> MembershipVerdict:
    """Does contraction with the curvature coefficients vanish identically?"""
    return _verdict("in_nullity", _nullity_obstruction(field, curvature))


def nullity_rank_numeric(curvature, points: Sequence[Mapping[str, Fraction]]) -> int:
    """Max over sample points of the exact rank of X^l -> X^l R^k_l,ij.

    Each point specializes the entries exactly (symexpr.specialize); such a
    rank never exceeds the generic rank and equals it off a proper algebraic
    subset of points (Schwartz-Zippel).  The rows are those of the nonzero
    R^k_ij in the curvature's index: with none the rank is 0 and no point is
    specialized, and the scan stops at the first point whose rank reaches
    min(rows, n), which no later point can exceed.
    """
    if not points:
        raise ValueError("at least one sample point is required")
    n = curvature.dim
    rows = [[coeffs.get(l, ZERO) for l in range(n)] for coeffs in curvature.R2.values()]
    entries = [e for row in rows for e in row]
    full = min(len(rows), n)
    best = 0
    for point in points:
        if best == full:
            break
        values = specialize(entries, point)
        best = max(best, rank(values[r : r + n] for r in range(0, len(values), n)))
    return best


# ---------------------------------------------------------------------------
# span solver
# ---------------------------------------------------------------------------

CONDITION_ORDER = ("spray-symmetry", "isometry", "horizontality")


def solve_in_span(
    dictionary: Sequence[BaseField],
    conditions: Iterable[str],
    *,
    metric=None,
    spray=None,
    connection=None,
) -> list[SparseRow]:
    """All rational combinations of the dictionary satisfying every condition.

    Returns a basis of sparse coefficient rows over the dictionary, found by
    exact coefficient matching: the obstruction of a combination is the same
    combination of per-field obstruction expressions, so the kernel of the
    term-coefficient matrix is exactly the solution set.
    """
    wanted = list(dict.fromkeys(conditions))
    for name in wanted:
        if name not in CONDITION_ORDER:
            raise ValueError(f"unknown condition {name!r}")
    if not wanted:
        raise ValueError("at least one condition is required")
    if "spray-symmetry" in wanted and spray is None:
        raise ValueError("spray-symmetry requires the spray")
    if "isometry" in wanted and (spray is None or metric is None):
        raise ValueError("isometry requires the metric and the spray")
    if "horizontality" in wanted and connection is None:
        raise ValueError("horizontality requires the connection")
    if not dictionary:
        return []
    dims = {f.dim for f in dictionary}
    if len(dims) != 1:
        raise ValueError("dictionary fields must share one dimension")

    energy = metric.energy if "isometry" in wanted else None

    # an isometry is a spray symmetry, so the spray obstruction is listed once
    def obstruction(field: BaseField) -> list[CanonicalExpr]:
        exprs: list[CanonicalExpr] = []
        if "spray-symmetry" in wanted or "isometry" in wanted:
            exprs.extend(e for _lbl, e in _spray_obstruction(field, spray))
        if "isometry" in wanted:
            exprs.append(_energy_residual(field, energy))
        if "horizontality" in wanted:
            exprs.extend(e for _lbl, e in _horizontal_obstruction(field, connection))
        return exprs

    return _matching_kernel(dictionary, obstruction)


def horizontal_nullity_span(
    dictionary: Sequence[BaseField], connection, curvature
) -> list[SparseRow]:
    """Combinations whose horizontal lift is closed and that lie in the curvature nullity.

    The conditions are those of `is_horizontal` and `in_nullity`; this is the
    paper's horizontal-nullity candidate for a commutative ideal.
    """
    return _matching_kernel(
        dictionary,
        lambda field: [
            e
            for _lbl, e in _horizontal_obstruction(field, connection)
            + _nullity_obstruction(field, curvature)
        ],
    )


def constant_span(dictionary: Sequence[BaseField]) -> list[SparseRow]:
    """Combinations with constant components, d_l X^j = 0 for all j and l."""
    return _matching_kernel(dictionary, _constant_obstruction)


def _constant_obstruction(field: BaseField) -> list[CanonicalExpr]:
    return [d for row in field.jacobian for d in row]


def _matching_kernel(
    dictionary: Sequence[BaseField], obstruction: Callable[[BaseField], list[CanonicalExpr]]
) -> list[SparseRow]:
    """Coefficient rows over the dictionary whose combination has zero obstruction.

    Each obstruction expression is linear in the field, so that of a
    combination is the same combination of the per-field expressions, and the
    kernel of the term-coefficient matrix is exactly the solution set.
    """
    # one sparse row per (expression slot, term key)
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, field in enumerate(dictionary):
        for pos, expr in enumerate(obstruction(field)):
            for key, c in expr.items():
                rows.setdefault((pos, key), {})[col] = c
    return kernel_basis(rows.values(), ncols=len(dictionary))


def combine_fields(dictionary: Sequence[BaseField], coeffs: SparseRow) -> BaseField:
    """sum_j coeffs[j] * dictionary[j] for a sparse coefficient row."""
    acc = BaseField.zero(dictionary[0].dim)
    for j, q in coeffs.items():
        acc = acc + dictionary[j].scale(q)
    return acc
