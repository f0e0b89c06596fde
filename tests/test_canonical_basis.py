"""Gates for the Lie layer's canonical basis: nothing a report says may depend
on the basis the generators are given in.

Each algebra is analysed in its standard basis and in seeded L*U bases, L
lower and U upper unitriangular with entries in {-1, 0, 1}, so every
generator is a dense integer combination of the standard ones.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from spraylie import cli
from spraylie import liealg as la
from spraylie.fields import bracket_base, combine_fields
from spraylie.linalg import det
from tests.conftest import assert_exact, base_field, mat_mul
from tests.test_liealg import _affine, _heisenberg, _parabolic_fields, _rotations


def lu_matrix(m: int, seed: int) -> list[list[int]]:
    """A seeded unimodular integer matrix L*U, L and U unitriangular."""
    rng = random.Random(seed)
    lower = [[rng.choice((-1, 0, 1)) if j < i else int(i == j) for j in range(m)] for i in range(m)]
    upper = [[rng.choice((-1, 0, 1)) if j > i else int(i == j) for j in range(m)] for i in range(m)]
    return mat_mul(lower, upper)


def lu_basis(fields, seed: int):
    """Generator r of the new basis is sum_c M[r][c] fields[c]; returns it and M."""
    matrix = lu_matrix(len(fields), seed)
    rows = [{c: Fraction(q) for c, q in enumerate(row) if q} for row in matrix]
    return [combine_fields(fields, row) for row in rows], matrix


def _standard(space: la.Subspace, matrix) -> la.Subspace:
    """A subspace over the L*U generators, over the standard ones: v -> v M."""
    m = space.ambient_dim
    vectors = [
        [sum(q * matrix[r][c] for r, q in v.items()) for c in range(m)] for v in space.rows.values()
    ]
    return la.Subspace.from_vectors(vectors, m)


def _dense_killing_det(sc: la.StructureConstants) -> Fraction:
    """det of kappa_ij = sum_(p, q) c[i][q][p] c[j][p][q], the definition on the dense table."""
    m, c = sc.dim, sc.c
    kappa = [
        [sum(c[i][q][p] * c[j][p][q] for p in range(m) for q in range(m)) for j in range(m)]
        for i in range(m)
    ]
    return det(kappa)


def _verdicts(sc: la.StructureConstants) -> dict:
    levi = la.levi_decomposition(sc)
    derivations = la.derivations(sc)
    return {
        "dimension": sc.dim,
        "jacobi": la.jacobi_check(sc),
        "semisimple": la.is_semisimple(sc),
        "simple": la.is_simple(sc),
        "derived": la.derived_subalgebra(sc).dim,
        "center": la.center(sc).dim,
        "radical": levi.radical.dim,
        "complement": levi.levi.dim,
        "derivations": (derivations.dimension, derivations.inner_dimension),
        "centroid": len(sc.canonical.centroid),
    }


CASES = {
    "aff3": lambda gens: _affine(3),
    "so4": lambda gens: _rotations(4),
    "h5": lambda gens: _heisenberg(2),
    # radicals with two and three derived levels: more than one Levi correction
    "gl[2,1]": lambda gens: _parabolic_fields((2, 1), False),
    "sl[2,2]": lambda gens: _parabolic_fields((2, 2), True),
    "gl[2,1,1]": lambda gens: _parabolic_fields((2, 1, 1), False),
    "shell": lambda gens: list(gens[0].values()),
    "flat-spray": lambda gens: list(gens[1].values()),
}


@pytest.fixture(scope="module")
def generators(shell_generators, flat_spray_generators):
    return shell_generators, flat_spray_generators


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_invariants_do_not_depend_on_the_basis(case, seed, generators):
    fields = CASES[case](generators)
    standard = la.structure_constants_from_fields(fields)
    changed, matrix = lu_basis(fields, seed)
    sc = la.structure_constants_from_fields(changed)
    assert _verdicts(sc) == _verdicts(standard)
    # the canonical fields are the echelon basis of the span itself
    assert sc.canonical.nonzero == standard.canonical.nonzero
    for read in (la.radical, la.center, la.derived_subalgebra):
        assert _standard(read(sc), matrix) == read(standard)
    dims = [[term.dim for term in t.radical_series] for t in (sc, standard)]
    assert dims[0] == dims[1]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_user_table_is_the_bracket_of_the_generators(case, seed, generators):
    fields, _matrix = lu_basis(CASES[case](generators), seed)
    sc = la.structure_constants_from_fields(fields)
    for i, a in enumerate(fields):
        for j, b in enumerate(fields):
            # the generators are independent, so the coefficients are unique
            cell = dict(sc.nonzero.get((i, j), ()))
            assert combine_fields(fields, cell) == bracket_base(a, b), (i, j)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_killing_determinant_is_that_of_the_user_table(case, seed, generators):
    fields, _matrix = lu_basis(CASES[case](generators), seed)
    sc = la.structure_constants_from_fields(fields)
    assert la.killing_det(sc) == _dense_killing_det(sc) == det(la.killing_form(sc))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_mapped_complement_passes_the_levi_verification(case, seed, generators, monkeypatch):
    fields, _matrix = lu_basis(CASES[case](generators), seed)
    sc = la.structure_constants_from_fields(fields)
    shown = la.levi_decomposition(sc)
    # verify the printed complement in the generators' own basis, on the
    # table read off the canonical one
    complement = [dict(v) for v in shown.levi.rows.values()]
    monkeypatch.setattr(la, "_levi_vectors", lambda table, series: complement)
    assert la._levi_decomposition(sc) == shown


@pytest.mark.parametrize("seed", [1, 2])
def test_complement_of_a_dense_basis_keeps_small_coefficients(seed):
    # found in the canonical basis, the complement of aff(3) has entries of
    # at most two digits; found in the L*U basis itself it had up to ten
    sc = la.structure_constants_from_fields(lu_basis(_affine(3), seed)[0])
    levi = la.levi_decomposition(sc).levi
    assert levi.dim == 8
    entries = [q for v in levi.rows.values() for q in v.values()]
    parts = [part for q in entries for part in (q.numerator, q.denominator)]
    assert max(len(str(abs(part))) for part in parts) <= 2


THREE_DIM = {
    "so3": (lambda: _rotations(3), "so3-type"),
    # the canonical Killing form of sl(2) on the line has kappa_00 = 0
    "sl2": (lambda: [base_field("1"), base_field("x1"), base_field("x1^2")], "sl2-type"),
    "h3": (lambda: _heisenberg(1), "not-simple"),
}


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(THREE_DIM))
def test_three_dim_class_does_not_depend_on_the_basis(case, seed):
    build, expected = THREE_DIM[case]
    fields = build() if seed is None else lu_basis(build(), seed)[0]
    assert la.classify_3dim_simple(la.structure_constants_from_fields(fields)) == expected


def _section5_isometries() -> la.StructureConstants:
    problem = cli.load_problem(Path(__file__).resolve().parent.parent / "problems" / "section5.json")
    labels = problem.sets["isometries"]
    return la.structure_constants_from_fields([problem.fields[f] for f in labels], labels)


# the Killing determinants as the report prints them
NORMALIZED = {
    "aff2": (lambda: lu_basis(_affine(2), 1)[0], "0"),
    "so3": (lambda: lu_basis(_rotations(3), 1)[0], "-8"),
    "h3": (lambda: lu_basis(_heisenberg(1), 1)[0], "0"),
}


@pytest.mark.parametrize("case", [*sorted(NORMALIZED), "section5-isometries"])
def test_tables_hold_ints_when_integral_and_never_floats(case):
    if case in NORMALIZED:
        build, killing_text = NORMALIZED[case]
        sc = la.structure_constants_from_fields(build())
    else:  # constants with denominator 2
        sc, killing_text = _section5_isometries(), "0"
    for table in (sc, sc.canonical):
        assert_exact((q for entries in table.nonzero.values() for _k, q in entries), normalized=True)
    canonical = sc.canonical
    levi = la.levi_decomposition(sc)
    rows = [
        *canonical.killing,
        *canonical.centroid,
        *levi.radical.rows.values(),
        *levi.levi.rows.values(),
    ]
    assert_exact(v for row in rows for v in row.values())
    assert str(la.killing_det(sc)) == killing_text == str(Fraction(la.killing_det(sc)))
    if case == "section5-isometries":
        assert any(type(q) is Fraction for entries in sc.nonzero.values() for _k, q in entries)


def test_table_given_as_constants_is_its_own_canonical_form():
    sc = la.StructureConstants(("a", "b"), (((0, 0), (1, 0)), ((-1, 0), (0, 0))))
    assert sc.canonical is sc
    assert (sc.to_canonical, sc.to_user, sc.det_to_canonical) == (None, None, 1)


def test_field_built_set_names_its_levi_witness_in_user_labels(tmp_path, monkeypatch, capsys):
    # so(3) + R in a dense basis; the complement loses its last vector
    labels = ["p", "q", "r", "s"]
    rotations = _rotations(3)
    fields, _matrix = lu_basis(rotations + [base_field("x1", "x2", "x3")], 1)
    doc = {
        "name": "so3r",
        "dim": 3,
        "metric": {"kind": "diagonal", "entries": ["1", "1", "1"]},
        "fields": {label: [str(c) for c in f.components] for label, f in zip(labels, fields)},
        "sets": {"so3r": labels},
        "analyses": ["algebra"],
    }
    path = tmp_path / "so3r.json"
    path.write_text(json.dumps(doc))
    sc = la.structure_constants_from_fields(fields, labels)
    canonical = sc.canonical
    assert canonical is not sc
    levi = la.levi_decomposition(canonical)
    kept = [dict(v) for v in list(levi.levi.rows.values())[:-1]]
    monkeypatch.setattr(la, "_levi_vectors", lambda table, series: kept)
    assert cli.main(["analyze", str(path)]) == cli.EXIT_INTERNAL
    message = capsys.readouterr().err
    found = re.fullmatch(
        r"internal invariant failure: Levi complement and radical do not span: "
        r"(.+) leaves (.+) outside them\n",
        message,
    )
    assert found, message
    # both are combinations of the user's labels, and the first is the
    # canonical basis element that the shortened complement misses
    named, leftover = (cli.parse_combination(text, labels) for text in found.groups())
    total = levi.radical.sum(la.Subspace.from_vectors(kept, 4))
    missing = next(a for a in range(4) if not total.contains({a: Fraction(1)}))
    assert named == la._combine(canonical.to_user, {missing: 1})
    assert leftover
