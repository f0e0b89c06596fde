"""The expression parser as it stood before its one-pattern tokenizer: the reference.

A character loop builds one `_Token` per token, each with its line and
column, and the recursive-descent parser builds every value through the ring's
public, normalizing constructors; it divides as the ring then did, by a
product with the divisor's inverse.  `tests/test_symexpr_differential.py`
requires `symexpr.parse_expr` to give the same term map, or the same exception
with the same message, line and column, on every text it draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from spraylie.symexpr import (
    _COEFFICIENT_LIMIT,
    _EMPTY_MONO,
    _ZERO_LIN,
    MAX_COEFFICIENT_DIGITS,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    CanonicalExpr,
    ExpArgumentError,
    LinForm,
    Monomial,
    ParseError,
    SymExprError,
    TermBoundError,
    UnitDivisionError,
    _var_key,
)

_DIGITS = "0123456789"


def _variable(kind: str, index: int) -> CanonicalExpr:
    power = ((index, 1),)
    mono = Monomial(power, ()) if kind == "x" else Monomial((), power)
    return CanonicalExpr({(mono, _ZERO_LIN): Fraction(1)})


def _divide(value: CanonicalExpr, divisor: CanonicalExpr) -> CanonicalExpr:
    """`value` times the inverse of the unit `divisor`, c*exp(l(x)) with c nonzero."""
    unit = divisor.as_unit()
    if unit is None or not unit[0]:
        raise UnitDivisionError("divisor must be a single term c*exp(l(x)) with nonzero rational c")
    c, lin = unit
    return value * CanonicalExpr({(_EMPTY_MONO, -lin): 1 / c})


@dataclass(frozen=True)
class _Token:
    kind: str  # INT NAME OP LPAREN RPAREN END
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < len(source) and source[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", line, start_col)
            tokens.append(_Token("INT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, line, start_col))
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
        col += 1
        i += 1
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse(self) -> CanonicalExpr:
        value = self.expr()
        if self.peek().kind != "END":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return value

    def expr(self) -> CanonicalExpr:
        start = self.peek()
        value = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return self.bounded(value, start)

    def term(self) -> CanonicalExpr:
        value = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            value = value * rhs if op == "*" else _divide(value, rhs)
        return value

    def unary(self) -> CanonicalExpr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            value = -self.unary()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> CanonicalExpr:
        value = self.atom()
        while self.peek().kind == "OP" and self.peek().text == "^":
            caret = self.advance()
            sign = 1
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "INT":
                self.fail("power exponents must be integer literals", tok)
            if int(tok.text) > MAX_EXPONENT:
                self.fail(f"power exponent above {MAX_EXPONENT}", tok)
            self.advance()
            try:
                value = value ** (sign * int(tok.text))
            except TermBoundError as exc:
                raise ParseError(str(exc), caret.line, caret.col) from None
            value = self.bounded(value, caret)
        return value

    def bounded(self, value: CanonicalExpr, tok: _Token) -> CanonicalExpr:
        """`value`, unless a coefficient or exp() coefficient has too many digits."""
        for (_mono, lin), q in value.items():
            for c in (q, *(c for _i, c in lin.coeffs)):
                if abs(c.numerator) >= _COEFFICIENT_LIMIT or c.denominator >= _COEFFICIENT_LIMIT:
                    self.fail(f"coefficient longer than {MAX_COEFFICIENT_DIGITS} digits", tok)
        return value

    def atom(self) -> CanonicalExpr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return CanonicalExpr({(_EMPTY_MONO, _ZERO_LIN): Fraction(int(tok.text))})
        if tok.kind == "LPAREN":
            self.advance()
            value = self.expr()
            if self.peek().kind != "RPAREN":
                self.fail("expected ')'")
            self.advance()
            return value
        if tok.kind == "NAME":
            self.advance()
            if tok.text == "exp":
                if self.peek().kind != "LPAREN":
                    self.fail("exp must be followed by '('")
                self.advance()
                arg = self.expr()
                if self.peek().kind != "RPAREN":
                    self.fail("expected ')'")
                self.advance()
                return CanonicalExpr({(_EMPTY_MONO, _linform_of(arg)): Fraction(1)})
            try:
                return _variable(*_var_key(tok.text))
            except SymExprError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok)


def _linform_of(expr: CanonicalExpr) -> LinForm:
    coeffs: dict[int, Fraction] = {}
    for (mono, lin), c in expr.items():
        if not lin.is_zero():
            raise ExpArgumentError("exp argument must not contain exponential factors")
        if mono.y:
            raise ExpArgumentError("exp argument must not depend on fiber variables")
        if mono.is_empty():
            raise ExpArgumentError("exp argument must have no constant part")
        if mono.total_degree != 1:
            raise ExpArgumentError("exp argument must be linear in the base variables")
        (i, _e), = mono.x
        coeffs[i] = coeffs.get(i, Fraction(0)) + c
    return LinForm.make(coeffs)


def parse_expr(source: str) -> CanonicalExpr:
    return _Parser(source).parse()
