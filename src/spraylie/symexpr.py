"""Exact scalar arithmetic for the geometry pipeline.

A value is a finite sum of terms

    c * x1^a1 ... xN^aN * y1^b1 ... yN^bN * exp(l(x))

with rational c, nonnegative integer exponents, and l a rational linear form
in the base variables x1..xN only.  Distinct (monomial, linear form) keys are
linearly independent as functions, so the term map itself is a normal form:
two values are equal as functions iff their term maps are equal, and the zero
test is just "no terms".  That is what keeps every zero test downstream exact.

Division is only defined by units, i.e. single terms c * exp(l(x)) with no
monomial part.  exp() only accepts arguments that reduce to a pure
linear form in x with no constant part (exp of a nonzero rational constant
would leave the ring).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "LinForm",
    "Monomial",
    "CanonicalExpr",
    "SymExprError",
    "ParseError",
    "UnitDivisionError",
    "ExpArgumentError",
    "EvaluationError",
    "TermBoundError",
    "DegreeBoundError",
    "const",
    "xvar",
    "yvar",
    "exponential",
    "parse_expr",
    "specialize",
    "evaluate",
    "ZERO",
    "MAX_NESTING",
    "MAX_DIGITS",
    "MAX_EXPONENT",
    "MAX_INDEX",
    "MAX_TERMS",
    "MAX_COEFFICIENT_DIGITS",
    "MAX_REDUCED_DEGREE",
]

MAX_NESTING = 100  # levels of parentheses and unary minus in one expression
MAX_DIGITS = 100  # digits in one integer literal
MAX_EXPONENT = 100  # absolute value of a power exponent
MAX_INDEX = 1000  # largest k in x<k> or y<k>; print order builds tuples of length k
MAX_TERMS = 1000  # most terms a power may build, counted before multiplying
MAX_COEFFICIENT_DIGITS = 100  # digits of a parsed coefficient's numerator or denominator
MAX_REDUCED_DEGREE = 10_000  # largest power `specialize` raises a sample value to
_COEFFICIENT_LIMIT = 10**MAX_COEFFICIENT_DIGITS
_DIGITS = "0123456789"


class SymExprError(Exception):
    """Base class for expression-layer failures."""


class ParseError(SymExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnitDivisionError(SymExprError):
    """Raised when dividing by anything but c * exp(l(x)) with c a nonzero rational."""


class ExpArgumentError(SymExprError):
    """Raised when exp() is applied to a non-affine, constant-shifted, or fiber-dependent argument."""


class TermBoundError(SymExprError):
    """A power whose expansion could have more than MAX_TERMS terms."""


class EvaluationError(SymExprError):
    """Raised when numeric evaluation lacks a variable assignment or leaves the double range."""


class DegreeBoundError(SymExprError):
    """Exact specialization would raise a sample value above MAX_REDUCED_DEGREE."""

    def __init__(self, degree: int):
        super().__init__(f"exponent degree {degree} > cap {MAX_REDUCED_DEGREE}")
        self.degree = degree


@functools.cache
def _var_key(name: str) -> tuple[str, int]:
    kind, tail = name[:1], name[1:]
    index = int(tail) if tail.isascii() and tail.isdigit() and len(tail) <= MAX_DIGITS else 0
    if kind not in ("x", "y") or not 1 <= index <= MAX_INDEX:
        raise SymExprError(
            f"unknown variable {name!r}: expected x<k> or y<k> with 1 <= k <= {MAX_INDEX}"
        )
    return kind, index


# ---------------------------------------------------------------------------
# term keys
# ---------------------------------------------------------------------------


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class LinForm:
    """Rational linear form sum_i q_i * x_i.  No constant part, no zero entries.

    The hash is computed once, when the form is built: it is the hash of
    `(coeffs,)`, and hashing it again would hash every `Fraction` again.
    """

    coeffs: tuple[tuple[int, Fraction], ...]  # sorted by variable index
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.coeffs,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(coeffs: Mapping[int, Fraction | int]) -> "LinForm":
        items = sorted(
            (i, q if type(q) is Fraction else Fraction(q)) for i, q in coeffs.items() if q
        )
        for i, _ in items:
            if i < 1:
                raise SymExprError("linear-form variable indices start at 1")
        return LinForm(tuple(items))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, index: int) -> Fraction:
        for i, q in self.coeffs:
            if i == index:
                return q
        return _FRACTION_ZERO

    def __add__(self, other: "LinForm") -> "LinForm":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        acc = dict(self.coeffs)
        for i, q in other.coeffs:
            acc[i] = acc.get(i, _FRACTION_ZERO) + q
        return LinForm.make(acc)

    def __neg__(self) -> "LinForm":
        return LinForm(tuple((i, -q) for i, q in self.coeffs))

    def max_index(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def dense(self, n: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * n
        for i, q in self.coeffs:
            out[i - 1] = q
        return tuple(out)

    def eval(self, xvals: Mapping[int, Fraction]) -> tuple[int, int]:
        """The value as an integer numerator and a positive denominator, not reduced."""
        num, den = 0, 1
        for i, q in self.coeffs:
            if i not in xvals:
                raise EvaluationError(f"no value assigned to x{i}")
            n, d = q.numerator * xvals[i].numerator, q.denominator * xvals[i].denominator
            num, den = num * d + n * den, den * d
        return num, den

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, q in self.coeffs:
            if q == 1:
                parts.append(f"x{i}")
            elif q == -1:
                parts.append(f"-x{i}")
            else:
                parts.append(f"{q}*x{i}")
        return _join_signed(parts)


def _exp_tuple_mul(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted((i, e) for i, e in acc.items() if e))


@dataclass(frozen=True, slots=True)
class Monomial:
    """Exponent data x^a * y^b; entries sorted by index, exponents >= 1.

    The hash, that of `(x, y)`, is computed once, when the monomial is built.
    """

    x: tuple[tuple[int, int], ...]
    y: tuple[tuple[int, int], ...]
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.x, self.y)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(x: Mapping[int, int] | None = None, y: Mapping[int, int] | None = None) -> "Monomial":
        def norm(m):
            items = sorted((i, int(e)) for i, e in (m or {}).items() if e)
            for i, e in items:
                if i < 1 or e < 0:
                    raise SymExprError("monomial indices start at 1 and exponents are nonnegative")
            return tuple(items)

        return Monomial(norm(x), norm(y))

    def is_empty(self) -> bool:
        return not self.x and not self.y

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(_exp_tuple_mul(self.x, other.x), _exp_tuple_mul(self.y, other.y))

    def exponent(self, kind: str, index: int) -> int:
        for i, e in self.x if kind == "x" else self.y:
            if i == index:
                return e
        return 0

    def with_exponent(self, kind: str, index: int, exponent: int) -> "Monomial":
        src = dict(self.x if kind == "x" else self.y)
        if exponent:
            src[index] = exponent
        else:
            src.pop(index, None)
        packed = tuple(sorted(src.items()))
        if kind == "x":
            return Monomial(packed, self.y)
        return Monomial(self.x, packed)

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.x) + sum(e for _, e in self.y)

    def y_degree(self) -> int:
        return sum(e for _, e in self.y)

    def max_x_index(self) -> int:
        return self.x[-1][0] if self.x else 0

    def max_y_index(self) -> int:
        return self.y[-1][0] if self.y else 0

    def dense_x(self, n: int) -> tuple[int, ...]:
        out = [0] * n
        for i, e in self.x:
            out[i - 1] = e
        return tuple(out)

    def dense_y(self, n: int) -> tuple[int, ...]:
        out = [0] * n
        for i, e in self.y:
            out[i - 1] = e
        return tuple(out)

    def eval(self, xvals: Mapping[int, Fraction], yvals: Mapping[int, Fraction]) -> tuple[int, int]:
        """The value as an integer numerator and a positive denominator, not reduced."""
        num = den = 1
        for kind, vals, powers in (("x", xvals, self.x), ("y", yvals, self.y)):
            for i, e in powers:
                if i not in vals:
                    raise EvaluationError(f"no value assigned to {kind}{i}")
                num *= vals[i].numerator ** e
                den *= vals[i].denominator ** e
        return num, den


_EMPTY_MONO = Monomial((), ())
_ZERO_LIN = LinForm(())
_CONST_KEY = (_EMPTY_MONO, _ZERO_LIN)

TermKey = tuple[Monomial, LinForm]


def _print_key(key: TermKey, nx: int, ny: int) -> tuple:
    """Where a term key prints: by exponential, total degree, x then y exponents.

    nx and ny must reach every index in use; zeros pad the dense tuples, so
    any larger bound gives the same order.
    """
    mono, lin = key
    return (lin.dense(nx), mono.total_degree, mono.dense_x(nx), mono.dense_y(ny))


def _accumulate(acc: dict, key: TermKey, value: Fraction) -> None:
    cur = acc.get(key)
    if cur is None:
        if value:
            acc[key] = value
        return
    cur = cur + value
    if cur:
        acc[key] = cur
    else:
        del acc[key]


# ---------------------------------------------------------------------------
# canonical expressions
# ---------------------------------------------------------------------------


class CanonicalExpr:
    """Immutable normal form; the zero value is the empty term map.

    The public constructor normalizes any map it is handed: it copies it,
    drops zero coefficients and makes each one a `Fraction`.  The ring
    operations build a zero-free map of `Fraction`s themselves and keep it as
    it is, through `_of`, which gives `ZERO` for an empty map.  No term map is
    written after its expression is built, so results may share operands.
    The ring short-circuits on zero: `a + 0` and `a - 0` return `a` itself,
    `0 + a` returns `a`, `-0` and every partial derivative of a zero return
    the same zero, and a product with a zero factor is `ZERO` (a zero
    expression times a rational is settled before the rational is
    converted).  Every product of two expressions, and every sum of such
    products, goes through `sum_of_products`.  `evaluate` gives 0.0 for a
    zero value without sorting its terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, Fraction] | None = None):
        items = terms.items() if terms else ()
        self._terms = {k: q if type(q) is Fraction else Fraction(q) for k, q in items if q}

    @staticmethod
    def _of(terms: dict[TermKey, Fraction]) -> "CanonicalExpr":
        """The expression of `terms` itself: a zero-free map of Fractions no one else writes."""
        if not terms:
            return ZERO
        expr = object.__new__(CanonicalExpr)
        expr._terms = terms
        return expr

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Fraction | int) -> "CanonicalExpr":
        q = value if type(value) is Fraction else Fraction(value)
        return CanonicalExpr._of({_CONST_KEY: q}) if q else ZERO

    @staticmethod
    def exponential(lin: LinForm) -> "CanonicalExpr":
        return CanonicalExpr._of({(_EMPTY_MONO, lin): _FRACTION_ONE})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[tuple[TermKey, Fraction]]:
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def uses_y(self) -> bool:
        return any(mono.y for (mono, _lin) in self._terms)

    def max_x_index(self) -> int:
        best = 0
        for mono, lin in self._terms:
            best = max(best, mono.max_x_index(), lin.max_index())
        return best

    def max_y_index(self) -> int:
        best = 0
        for mono, _lin in self._terms:
            best = max(best, mono.max_y_index())
        return best

    def is_y_homogeneous(self, degree: int) -> bool:
        return all(mono.y_degree() == degree for (mono, _lin) in self._terms)

    def y_linear_parts(self) -> dict[int, "CanonicalExpr"]:
        """Decompose sum_l y_l * f_l(x); every term must have y-degree exactly 1."""
        parts: dict[int, dict] = {}
        for (mono, lin), c in self._terms.items():
            if mono.y_degree() != 1:
                raise SymExprError("expression is not linear in the fiber variables")
            (l, _e), = mono.y
            stripped = (Monomial(mono.x, ()), lin)
            _accumulate(parts.setdefault(l, {}), stripped, c)
        return {l: CanonicalExpr._of(d) for l, d in parts.items()}

    def as_unit(self) -> tuple[Fraction, LinForm] | None:
        if len(self._terms) != 1:
            return None
        (mono, lin), c = next(iter(self._terms.items()))
        if not mono.is_empty():
            return None
        return c, lin

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CanonicalExpr":
        if isinstance(value, CanonicalExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return CanonicalExpr.const(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CanonicalExpr":
        other = CanonicalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for key, q in other._terms.items():
            _accumulate(acc, key, q)
        return CanonicalExpr._of(acc)

    __radd__ = __add__

    def __neg__(self) -> "CanonicalExpr":
        if not self._terms:
            return self
        return CanonicalExpr._of({k: -q for k, q in self._terms.items()})

    def __sub__(self, other) -> "CanonicalExpr":
        other = CanonicalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        return self + (-other)

    def __rsub__(self, other) -> "CanonicalExpr":
        return (-self) + other

    def __mul__(self, other) -> "CanonicalExpr":
        if isinstance(other, (int, Fraction)):
            if not self._terms or not other:
                return ZERO
            q = Fraction(other)
            return CanonicalExpr._of({k: c * q for k, c in self._terms.items()})
        if not isinstance(other, CanonicalExpr):
            return NotImplemented
        return CanonicalExpr.sum_of_products(((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple[CanonicalExpr, CanonicalExpr]]) -> CanonicalExpr:
        """sum_i a_i * b_i, every product term accumulated into one map.

        A pair with a zero factor is skipped before its terms are read, and a
        sum that is empty or cancels is `ZERO`.  The one product loop of the
        ring: `a * b` is the sum of the single pair (a, b).
        """
        acc: dict[TermKey, Fraction] = {}
        for a, b in pairs:
            if a._terms and b._terms:
                for (m1, l1), c1 in a._terms.items():
                    for (m2, l2), c2 in b._terms.items():
                        _accumulate(acc, (m1.mul(m2), l1 + l2), c1 * c2)
        return CanonicalExpr._of(acc)

    def __pow__(self, exponent: int) -> "CanonicalExpr":
        """Power by repeated squaring.

        A t-term value to the e has at most C(t+e-1, e) terms, one per multiset
        of e factors; a power whose count exceeds MAX_TERMS is refused before
        any multiplication.
        """
        if not isinstance(exponent, int):
            raise SymExprError("power exponents must be integers")
        if exponent < 0:
            return (CanonicalExpr.const(1) / self) ** (-exponent)
        terms = len(self._terms)
        if terms and math.comb(terms + exponent - 1, exponent) > MAX_TERMS:
            raise TermBoundError(
                f"a {terms}-term value to the power {exponent} could have more than {MAX_TERMS} terms"
            )
        result, square = CanonicalExpr.const(1), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __truediv__(self, other) -> "CanonicalExpr":
        """Term by term: each coefficient over c and, for a unit c*exp(l(x)), l off each exponent."""
        if isinstance(other, (int, Fraction)):
            if not other:
                raise UnitDivisionError("division by zero")
            return CanonicalExpr._of({k: q / other for k, q in self._terms.items()})
        if not isinstance(other, CanonicalExpr):
            return NotImplemented
        unit = other.as_unit()
        if unit is None or not unit[0]:
            raise UnitDivisionError(
                "divisor must be a single term c*exp(l(x)) with nonzero rational c"
            )
        c, lin = unit
        shift = -lin
        return CanonicalExpr._of({(m, l + shift): q / c for (m, l), q in self._terms.items()})

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "CanonicalExpr":
        """Exact partial derivative with respect to a named variable; a zero is its own."""
        if not self._terms:
            return self
        kind, idx = _var_key(var)
        acc: dict[TermKey, Fraction] = {}
        for (mono, lin), c in self._terms.items():
            e = mono.exponent(kind, idx)
            if e:
                _accumulate(acc, (mono.with_exponent(kind, idx, e - 1), lin), c * e)
            if kind == "x":
                q = lin.coeff(idx)
                if q:
                    _accumulate(acc, (mono, lin), c * q)
        return CanonicalExpr._of(acc)

    # -- ordering, equality, printing --------------------------------------

    def _sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        nx = max(self.max_x_index(), 1)
        ny = max(self.max_y_index(), 1)
        return sorted(self._terms.items(), key=lambda item: _print_key(item[0], nx, ny))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CanonicalExpr.const(other)
        if not isinstance(other, CanonicalExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        """A constant hashes like its rational and zero like 0, as they compare equal."""
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and _CONST_KEY in self._terms:
            return hash(self._terms[_CONST_KEY])
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for (mono, lin), c in self._sorted_terms():
            factors = []
            for i, e in mono.x:
                factors.append(f"x{i}^{e}" if e > 1 else f"x{i}")
            for i, e in mono.y:
                factors.append(f"y{i}^{e}" if e > 1 else f"y{i}")
            if not lin.is_zero():
                factors.append(f"exp({lin})")
            if not factors:
                rendered.append(str(c))
            elif c == 1:
                rendered.append("*".join(factors))
            elif c == -1:
                rendered.append("-" + "*".join(factors))
            else:
                rendered.append(f"{c}*" + "*".join(factors))
        return _join_signed(rendered)

    def __repr__(self) -> str:
        return f"CanonicalExpr({self})"


def _split_point(point: Mapping[str, Fraction | int]) -> tuple[dict, dict]:
    """The x-values and the y-values of a point, each keyed by variable index."""
    vals: dict[str, dict[int, Fraction]] = {"x": {}, "y": {}}
    for name, val in point.items():
        kind, idx = _var_key(name)
        vals[kind][idx] = val if type(val) is Fraction else Fraction(val)
    return vals["x"], vals["y"]


def _join_signed(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


ZERO = CanonicalExpr()


def const(value: Fraction | int) -> CanonicalExpr:
    return CanonicalExpr.const(value)


def _variable(kind: str, index: int) -> CanonicalExpr:
    if index < 1:
        raise SymExprError("variable indices start at 1")
    power = ((index, 1),)
    mono = Monomial(power, ()) if kind == "x" else Monomial((), power)
    return CanonicalExpr._of({(mono, _ZERO_LIN): _FRACTION_ONE})


def xvar(index: int) -> CanonicalExpr:
    return _variable("x", index)


def yvar(index: int) -> CanonicalExpr:
    return _variable("y", index)


def exponential(coeffs: Mapping[int, Fraction | int]) -> CanonicalExpr:
    """exp of the linear form sum(coeffs[i] * x_i)."""
    return CanonicalExpr.exponential(LinForm.make(coeffs))


def specialize(exprs: Sequence[CanonicalExpr], point: Mapping[str, Fraction | int]) -> list[Fraction]:
    """Exact values of x-only expressions under one ring homomorphism to Q.

    With D the common denominator of every exponent coefficient in `exprs`,
    and g_i the gcd of the integer exponents q*D of x_i across them, x_i maps
    to point["x<i>"] and exp(g_i*x_i/D) to point["y<i>"], which must be
    nonzero.  D and g_i are shared by the whole collection, so sums, products
    and unit quotients of the expressions map to those of their values, and
    exp(10^12*x3) costs no more than exp(x3).  Mixed exponents such as
    exp(10^12*x3) and exp(x3) keep a power q*D/g_i that large; above
    MAX_REDUCED_DEGREE a DegreeBoundError is raised before any evaluation.
    """
    lins = [lin for expr in exprs for (_mono, lin), _c in expr.items()]
    denom = math.lcm(*(q.denominator for lin in lins for _i, q in lin.coeffs))
    gcds: dict[int, int] = {}
    for lin in lins:
        for i, q in lin.coeffs:
            gcds[i] = math.gcd(gcds.get(i, 0), int(q * denom))
    degree = max((abs(int(q * denom)) // gcds[i] for lin in lins for i, q in lin.coeffs), default=0)
    if degree > MAX_REDUCED_DEGREE:
        raise DegreeBoundError(degree)
    xvals, tvals = _split_point(point)
    values = []
    for expr in exprs:
        total = Fraction(0)
        for (mono, lin), c in expr.items():
            term = c * Fraction(*mono.eval(xvals, {}))  # no y-values: a y-monomial raises
            for i, q in lin.coeffs:
                if not tvals.get(i):
                    raise EvaluationError(f"no nonzero value assigned to y{i}")
                term *= tvals[i] ** (int(q * denom) // gcds[i])
            total += term
        values.append(total)
    return values


def evaluate(
    exprs: Sequence[CanonicalExpr], points: Sequence[Mapping[str, Fraction | int]]
) -> list[list[float]]:
    """IEEE-double values at rational points, the float twin of `specialize`.

    One row per point, one entry per expression.  Each expression's terms are
    sorted into print order once, and each distinct monomial and exponent is
    numbered once.  At each point, split once, each monomial is valued once as
    integers p/q and each exp(l(x)) once; a term c*m is rounded once, as
    (c.numerator*p) / (c.denominator*q), which int division rounds correctly
    just as float(c*m) does.  Each expression sums its terms in print order,
    with exp applied last per term; a zero expression is 0.0.  A value beyond
    the double range raises EvaluationError naming the point: an inf or nan
    would compare as no deviation at all.  Nothing is kept between calls.
    """
    monos: dict[Monomial, int] = {}
    lins: dict[LinForm, int] = {}
    plans = []  # per expression, in print order: (c numerator, c denominator, monomial, exponent or -1)
    for expr in exprs:
        plans.append([
            (c.numerator, c.denominator, monos.setdefault(mono, len(monos)),
             lins.setdefault(lin, len(lins)) if lin.coeffs else -1)
            for (mono, lin), c in (expr._sorted_terms() if expr else ())
        ])
    rows = []
    for point in points:
        xvals, yvals = _split_point(point)
        try:
            values = [mono.eval(xvals, yvals) for mono in monos]
            exps = [math.exp(num / den) for num, den in (lin.eval(xvals) for lin in lins)]
            row = []
            for plan in plans:
                total = 0.0
                for num, den, m, l in plan:
                    p, q = values[m]
                    total += (num * p) / (den * q) if l < 0 else (num * p) / (den * q) * exps[l]
                row.append(total)
        except OverflowError:
            row = [math.inf]
        if not all(map(math.isfinite, row)):
            where = ", ".join(f"{name}={value}" for name, value in point.items())
            raise EvaluationError(f"a value overflows a double at the sample point {where}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# One pass from text to the ring: each grammar rule returns the CanonicalExpr
# of what it read, so no syntax tree is built.  A ring error (exp(y1), 1/x1)
# is raised where the parser reaches it, before any later syntax error.
#
# Grammar (loosest to tightest): '+'/'-', '*'/'/', unary '-', '^'.
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' ['-'] INT)*
#   atom   := INT | NAME | '(' expr ')' | 'exp' '(' expr ')'
#
# Every level of parentheses or unary '-' passes through `unary`, which
# bounds the nesting by MAX_NESTING, so the recursion (five frames a level)
# stays inside Python's default limit.  An INT has at most MAX_DIGITS digits,
# so int() can read it, and one '^' raises to at most MAX_EXPONENT and builds
# at most MAX_TERMS terms.  Coefficients are checked against
# MAX_COEFFICIENT_DIGITS after each '^' and where each expr ends.  A power's
# base is an atom, so it is always checked: no step raises an unchecked
# coefficient, and the digits a product or sum builds grow only with the
# length of the text.  Each bound fails as a ParseError at its token.


# One pattern splits the source into tokens: an INT of ASCII digits, a NAME
# (a letter, then letters, digits and '_'), or any other single character,
# each after optional whitespace.  `\s` and `\w` match exactly what
# str.isspace and str.isalnum (or '_') accept; the NAME class also admits the
# non-decimal digits and numerals that are not letters (², Ⅻ), which the
# tokenizer then refuses as characters.  A token is its text; where it starts
# is found again only for a ParseError, whose column counts code points from
# the last '\n'.
_TOKEN = re.compile(r"\s*([0-9]+|[^\W\d_]\w*|\S)")
_OPERATORS = frozenset("+-*/^()")
_ADDITIVE = ("+", "-")
_MULTIPLICATIVE = ("*", "/")


def _tokenize(source: str) -> list[str]:
    """The tokens of `source`, then "" for its end; the first bad token raises."""
    tokens = _TOKEN.findall(source)
    for k, text in enumerate(tokens):
        if text[0].isalpha() or text in _OPERATORS:
            continue
        if text[0] not in _DIGITS:
            raise ParseError(f"unexpected character {text[0]!r}", *_position(source, k))
        if len(text) > MAX_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", *_position(source, k))
    tokens.append("")
    return tokens


def _position(source: str, k: int) -> tuple[int, int]:
    """Line and column of token `k` of `source`, its end if there are only k tokens."""
    offset = [*(m.start(1) for m in _TOKEN.finditer(source)), len(source)][k]
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, at: int | None = None):
        raise ParseError(message, *_position(self.source, self.pos if at is None else at))

    def parse(self) -> CanonicalExpr:
        value = self.expr()
        if self.tokens[self.pos]:
            self.fail(f"unexpected trailing input {self.tokens[self.pos]!r}")
        return value

    def expr(self) -> CanonicalExpr:
        start = self.pos
        value = self.term()
        while (op := self.tokens[self.pos]) in _ADDITIVE:
            self.pos += 1
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return self.bounded(value, start)

    def term(self) -> CanonicalExpr:
        value = self.unary()
        while (op := self.tokens[self.pos]) in _MULTIPLICATIVE:
            self.pos += 1
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> CanonicalExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        if self.tokens[self.pos] == "-":
            self.pos += 1
            value = -self.unary()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> CanonicalExpr:
        value = self.atom()
        tokens = self.tokens
        while tokens[self.pos] == "^":
            caret = self.pos
            self.pos += 1
            sign = 1
            if tokens[self.pos] == "-":
                self.pos += 1
                sign = -1
            text = tokens[self.pos]
            if not text[:1].isdigit():
                self.fail("power exponents must be integer literals")
            if int(text) > MAX_EXPONENT:
                self.fail(f"power exponent above {MAX_EXPONENT}")
            self.pos += 1
            try:
                value = value ** (sign * int(text))
            except TermBoundError as exc:
                raise ParseError(str(exc), *_position(self.source, caret)) from None
            value = self.bounded(value, caret)
        return value

    def bounded(self, value: CanonicalExpr, at: int) -> CanonicalExpr:
        """`value`, unless a coefficient or exp() coefficient has too many digits."""
        for (_mono, lin), q in value.items():
            for c in (q, *(c for _i, c in lin.coeffs)):
                if abs(c.numerator) >= _COEFFICIENT_LIMIT or c.denominator >= _COEFFICIENT_LIMIT:
                    self.fail(f"coefficient longer than {MAX_COEFFICIENT_DIGITS} digits", at)
        return value

    def closing(self) -> None:
        if self.tokens[self.pos] != ")":
            self.fail("expected ')'")
        self.pos += 1

    def atom(self) -> CanonicalExpr:
        text = self.tokens[self.pos]
        self.pos += 1
        if text[:1].isdigit():
            return CanonicalExpr.const(int(text))
        if text == "(":
            value = self.expr()
            self.closing()
            return value
        if text == "exp":
            if self.tokens[self.pos] != "(":
                self.fail("exp must be followed by '('")
            self.pos += 1
            arg = self.expr()
            self.closing()
            return CanonicalExpr.exponential(_linform_of(arg))
        if text[:1].isalpha():
            try:
                return _variable(*_var_key(text))
            except SymExprError as exc:
                raise ParseError(str(exc), *_position(self.source, self.pos - 1)) from None
        self.fail(f"unexpected token {text!r}" if text else "unexpected end of input", self.pos - 1)


def _linform_of(expr: CanonicalExpr) -> LinForm:
    """The linear form of an exp() argument; its terms are distinct x_i, so each i appears once."""
    coeffs = []
    for (mono, lin), c in expr.items():
        if not lin.is_zero():
            raise ExpArgumentError("exp argument must not contain exponential factors")
        if mono.y:
            raise ExpArgumentError("exp argument must not depend on fiber variables")
        if not mono.x:
            raise ExpArgumentError("exp argument must have no constant part")
        if len(mono.x) != 1 or mono.x[0][1] != 1:  # exponents are at least 1
            raise ExpArgumentError("exp argument must be linear in the base variables")
        coeffs.append((mono.x[0][0], c))
    return LinForm(tuple(sorted(coeffs)))


def parse_expr(source: str) -> CanonicalExpr:
    """Parse text straight into the ring; every failure is a SymExprError.

    Syntax errors and exceeded bounds are ParseErrors carrying line and column.
    """
    return _Parser(source).parse()
