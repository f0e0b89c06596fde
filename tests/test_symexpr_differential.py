"""`parse_expr` against the reference parser kept in `tests/reference_parser.py`.

Both must give the same term map, or raise the same exception type with the
same message and, for a ParseError, the same line and column.  The texts are
every expression cell of the shipped files and of the `lie-families`
workload, and drawn strings over an alphabet with non-ASCII letters and
digits, tabs, CR and newlines, long literals and the edge of each bound.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from perfbench import workloads
from spraylie import symexpr
from spraylie.symexpr import (
    MAX_COEFFICIENT_DIGITS,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_INDEX,
    MAX_NESTING,
    SymExprError,
    parse_expr,
)
from tests import reference_parser

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _outcome(parse, text: str):
    try:
        value = parse(text)
    except SymExprError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return dict(value.items())


def _assert_same(text: str) -> None:
    got = _outcome(parse_expr, text)
    assert got == _outcome(reference_parser.parse_expr, text), text
    if isinstance(got, dict):  # the ring's invariant: a zero-free map of Fractions
        assert all(type(c) is Fraction and c for c in got.values()), text


def _expression_cells(doc: dict) -> list[str]:
    metric = doc["metric"]
    cells = []
    for block in (metric["entries"], metric.get("inverse") or []):
        for row in block:
            cells.extend(row if isinstance(row, list) else [row])
    for comps in doc.get("fields", {}).values():
        cells.extend(comps)
    return cells


def _corpus() -> list[str]:
    docs = [json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))]
    for seed in (0, 7):
        built = workloads.build("lie-families", seed, Path("unused"), PROBLEMS)
        docs.extend(json.loads(raw) for raw in built.files.values())
    return sorted({text for doc in docs for text in _expression_cells(doc)})


def test_corpus_is_not_empty():
    corpus = _corpus()
    assert "exp((x1-x2)/2)" in corpus and len(corpus) > 40


@pytest.mark.parametrize("text", _corpus())
def test_shipped_and_workload_texts_parse_as_the_reference_does(text):
    _assert_same(text)


_FRAGMENTS = (
    "x1", "x2", "x3", "y1", "y2", "x0", f"x{MAX_INDEX}", f"x{MAX_INDEX + 1}", "xx", "exp", "exp(",
    "(", ")", "+", "-", "*", "/", "^", "^-", "0", "1", "2", "10", "1/2", "_",
    "é", "²", "١", "Ⅻ", "一", "@", " ", "\t", "\r", "\n", "\r\n", " ",
    "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "12345678901",
    f"^{MAX_EXPONENT}", f"^{MAX_EXPONENT + 1}", "^-2",
)
_ALPHABET = "x1y2e()+-*/^ \t\r\n0é²١Ⅻ_"


def _nested(depth: int, body: str, opener: str, closer: str) -> str:
    return opener * depth + body + closer * depth


_EDGES = st.one_of(
    st.builds(_nested, st.integers(MAX_NESTING - 2, MAX_NESTING + 1), st.sampled_from(["1", "x1", "exp(x1)"]),
              st.just("("), st.just(")")),
    st.builds(_nested, st.integers(MAX_NESTING - 2, MAX_NESTING + 1), st.just("x1"), st.just("-"), st.just("")),
    st.builds(_nested, st.integers(MAX_NESTING // 2 - 2, MAX_NESTING // 2 + 1), st.just("x2"),
              st.just("-("), st.just(")")),
    st.builds(
        lambda a, b: "9" * a + "*" + "9" * b + "/x1" if a + b > 2 * MAX_COEFFICIENT_DIGITS else "9" * a + "*" + "9" * b,
        st.integers(1, MAX_DIGITS), st.integers(1, MAX_DIGITS),
    ),
    # MAX_TERMS: (x1+...+x10)^4 has 715 terms, (x1+...+x11)^4 could have 1001
    st.builds(lambda t, e: "(" + "+".join(f"x{i}" for i in range(1, t + 1)) + f")^{e}",
              st.sampled_from([2, 10, 11]), st.sampled_from([3, 4, MAX_EXPONENT])),
    st.builds(lambda k, e: f"(2^{k})^{e}", st.integers(1, MAX_EXPONENT), st.integers(1, 3)),
    st.builds(lambda a, b: f"exp({a}*x1/{b})", st.integers(1, 10**12), st.integers(1, 10**12)),
)
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map("".join),
    st.text(alphabet=_ALPHABET, max_size=24),
    _EDGES,
    st.tuples(_EDGES, st.sampled_from(_FRAGMENTS)).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
def test_drawn_texts_parse_as_the_reference_does(text):
    _assert_same(text)


def test_positions_count_code_points_and_newlines_only():
    # \r and U+2028 are whitespace that does not start a line, as in the reference
    for text in ("x1 +\r\n\t@", "x1\u2028+ ²", "\n\n  exp(y1", "x1 + 2 *\n"):
        _assert_same(text)
    with pytest.raises(symexpr.ParseError) as info:
        parse_expr("x1 +\r\n\t@")
    assert (info.value.line, info.value.col) == (2, 2)
