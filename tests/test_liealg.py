"""Exact Lie-algebra analysis on the three generator families.

The bracket tables frozen here were recomputed independently from the base
fields; the three cells of the 12-dim table that standard transcriptions get
wrong are asserted in their corrected form (see the CLI golden corpus for
the arbitration machinery).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from perfbench import workloads
from spraylie import cli, liealg as la, linalg
from spraylie.fields import bracket_base, combine_fields, constant_span, horizontal_nullity_span
from spraylie.linalg import det
from tests.conftest import (
    abelian_ideal_check,
    ad_matrix,
    assert_exact,
    base_field,
    build_pipeline,
    dense,
    identity,
    in_inner_span,
    is_derivation,
    unit_vector,
)

H = Fraction(1, 2)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="module")
def shell_sc(shell_generators):
    return la.structure_constants_from_fields(
        list(shell_generators.values()), list(shell_generators.keys())
    )


@pytest.fixture(scope="module")
def blocks_sc(blocks_generators):
    return la.structure_constants_from_fields(
        list(blocks_generators.values()), list(blocks_generators.keys())
    )


@pytest.fixture(scope="module")
def flat_spray_sc(flat_spray_generators):
    return la.structure_constants_from_fields(
        list(flat_spray_generators.values()), list(flat_spray_generators.keys())
    )


@pytest.fixture(scope="module")
def flat_isometry_sc(flat_isometry_generators):
    return la.structure_constants_from_fields(
        list(flat_isometry_generators.values()), list(flat_isometry_generators.keys())
    )


def _cell(sc, a: str, b: str) -> dict[str, Fraction]:
    i, j = sc.labels.index(a), sc.labels.index(b)
    return {sc.labels[k]: sc.c[i][j][k] for k in range(sc.dim) if sc.c[i][j][k]}


# ---------------------------------------------------------------------------
# structure constants against the frozen tables
# ---------------------------------------------------------------------------

SHELL_TABLE = {
    ("e1", "e3"): {"e2": H},
    ("e1", "e4"): {"e1": Fraction(-1)},
    ("e1", "e5"): {"e4": H},
    ("e1", "e6"): {"e3": -H},
    ("e2", "e3"): {"e1": Fraction(-2)},
    ("e2", "e4"): {"e2": Fraction(-1)},
    ("e2", "e5"): {"e3": Fraction(-1)},
    ("e2", "e6"): {"e4": Fraction(-1)},
    ("e3", "e5"): {"e6": Fraction(1)},
    ("e3", "e6"): {"e5": Fraction(-1)},
    ("e4", "e5"): {"e5": Fraction(-1)},
    ("e4", "e6"): {"e6": Fraction(-1)},
}

BLOCKS_TABLE = {
    ("e1", "e2"): {"e1": Fraction(-1)},
    ("e1", "e3"): {"e2": H},
    ("e2", "e3"): {"e3": Fraction(-1)},
    ("e4", "e5"): {"e4": Fraction(-1)},
    ("e4", "e6"): {"e5": H},
    ("e5", "e6"): {"e6": Fraction(-1)},
}

FLAT_SPRAY_TABLE = {
    ("e1", "e2"): {"e2": -H},
    ("e1", "e3"): {"e3": -H},
    ("e1", "e4"): {"e4": -H},
    ("e1", "e5"): {"e5": H},
    ("e1", "e9"): {"e9": H},
    ("e2", "e5"): {"e1": -H, "e6": H},
    ("e2", "e6"): {"e2": -H},
    ("e2", "e7"): {"e3": -H},
    ("e2", "e8"): {"e4": -H},  # corrected cell
    ("e2", "e9"): {"e10": H},
    ("e3", "e5"): {"e7": H},
    ("e3", "e9"): {"e12": H},
    ("e4", "e5"): {"e8": H},
    ("e4", "e9"): {"e1": -H, "e11": H},
    ("e4", "e10"): {"e2": -H},
    ("e4", "e11"): {"e4": -H},
    ("e4", "e12"): {"e3": -H},
    ("e5", "e6"): {"e5": H},
    ("e5", "e10"): {"e9": H},
    ("e6", "e7"): {"e7": -H},
    ("e6", "e8"): {"e8": -H},
    ("e6", "e10"): {"e10": H},
    ("e7", "e10"): {"e12": H},
    ("e8", "e9"): {"e5": -H},
    ("e8", "e10"): {"e6": -H, "e11": H},
    ("e8", "e11"): {"e8": -H},
    ("e8", "e12"): {"e7": -H},
    ("e9", "e11"): {"e9": H},
    ("e10", "e11"): {"e10": H},
    ("e11", "e12"): {"e12": -H},
}

FLAT_ISOMETRY_TABLE = {
    ("g1", "g2"): {"g4": H},
    ("g1", "g3"): {"g5": H},
    ("g1", "g4"): {"g2": -H},
    ("g1", "g5"): {"g3": -H},
    ("g2", "g3"): {"g6": -H},
    ("g3", "g5"): {"g1": H},
    ("g3", "g6"): {"g2": -H},
    ("g4", "g5"): {"g6": -H},
    ("g5", "g6"): {"g4": -H},
}


def _assert_table(sc, table):
    m = sc.dim
    for i in range(m):
        for j in range(i + 1, m):
            key = (sc.labels[i], sc.labels[j])
            assert _cell(sc, *key) == table.get(key, {}), key


def test_shell_table(shell_sc):
    _assert_table(shell_sc, SHELL_TABLE)


def test_blocks_table(blocks_sc):
    _assert_table(blocks_sc, BLOCKS_TABLE)


def test_flat_spray_table(flat_spray_sc):
    _assert_table(flat_spray_sc, FLAT_SPRAY_TABLE)


def test_flat_isometry_table(flat_isometry_sc):
    _assert_table(flat_isometry_sc, FLAT_ISOMETRY_TABLE)


def test_bracket_table_matches_field_brackets(flat_spray_generators, flat_spray_sc):
    # re-bracketing the generators reproduces each table row exactly
    fields = list(flat_spray_generators.values())
    for i in range(12):
        for j in range(i + 1, 12):
            direct = bracket_base(fields[i], fields[j])
            via_table = combine_fields(fields, dict(flat_spray_sc.nonzero.get((i, j), ())))
            assert (direct - via_table).is_zero()


def test_abelian_pair_gives_zero_table():
    sc = la.structure_constants_from_fields(
        [base_field("1", "0"), base_field("0", "1")]
    )
    assert all(not any(row) for plane in sc.c for row in plane)


def test_non_closure_is_reported():
    with pytest.raises(la.NonClosureError) as err:
        la.structure_constants_from_fields(
            [base_field("1", "0"), base_field("x1^2", "0")], ["a", "b"]
        )
    assert err.value.pair == ("a", "b")


def test_non_closure_within_the_generators_term_keys_is_reported():
    # [a, b] = d1 uses only term keys of a and b, but d1 is not in their span
    with pytest.raises(la.NonClosureError) as err:
        la.structure_constants_from_fields(
            [base_field("1", "1"), base_field("x1", "0")], ["a", "b"]
        )
    assert err.value.pair == ("a", "b")


def test_dependent_generators_rejected():
    with pytest.raises(la.DependentGeneratorsError):
        la.structure_constants_from_fields(
            [base_field("1", "0"), base_field("2", "0")]
        )


@pytest.mark.parametrize("count", [1, 2])
def test_all_zero_generators_are_dependent(count):
    with pytest.raises(la.DependentGeneratorsError):
        la.structure_constants_from_fields([base_field("0", "0")] * count)


# ---------------------------------------------------------------------------
# invariants and classical maps
# ---------------------------------------------------------------------------


def test_jacobi_everywhere(shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
    for sc in (shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
        ok, witness = la.jacobi_check(sc)
        assert ok, witness


def test_jacobi_detects_fault(shell_sc):
    c = [[list(row) for row in plane] for plane in shell_sc.c]
    c[0][1][0] += 1
    c[1][0][0] -= 1
    broken = la.StructureConstants(
        shell_sc.labels, tuple(tuple(tuple(r) for r in p) for p in c)
    )
    ok, witness = la.jacobi_check(broken)
    assert not ok and witness is not None


def _dense_jacobi_witness(c):
    """The defining m^4 loop: first failing (i, j, k) in combinations order, then s, and the sum."""
    m = len(c)
    for i, j, k in itertools.combinations(range(m), 3):
        for s in range(m):
            total = sum(
                c[i][j][l] * c[l][k][s] + c[j][k][l] * c[l][i][s] + c[k][i][l] * c[l][j][s]
                for l in range(m)
            )
            if total:
                return (i, j, k, s, total)
    return None


def _perturbed(sc, cells):
    """sc with c[i][j][k] += d (and c[j][i][k] -= d) for each (i, j, k, d)."""
    c = [[list(row) for row in plane] for plane in sc.c]
    for i, j, k, d in cells:
        if i != j:
            c[i][j][k] += d
            c[j][i][k] -= d
    return la.StructureConstants(sc.labels, tuple(tuple(tuple(r) for r in p) for p in c))


def test_jacobi_witness_with_several_failing_cells(shell_sc):
    broken = _perturbed(shell_sc, [(3, 5, 2, 1), (1, 2, 4, -1), (0, 4, 5, Fraction(1, 2))])
    witness = _dense_jacobi_witness(broken.c)
    assert witness is not None
    assert la.jacobi_check(broken) == (False, witness)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)
        ),
        min_size=1,
        max_size=4,
    )
)
def test_jacobi_witness_matches_dense_definition(shell_sc, cells):
    broken = _perturbed(shell_sc, cells)
    witness = _dense_jacobi_witness(broken.c)
    assert la.jacobi_check(broken) == ((True, None) if witness is None else (False, witness))


def test_jacobi_failure_is_searched_again_in_the_users_basis():
    # a canonical table that breaks Jacobi only on (h2, h3, h4), and its image
    # under the unimodular change of basis h1 = g4, h2 = g3 + g4, h3 = g2, h4 = g1
    to_user = ({3: 1}, {2: 1, 3: 1}, {1: 1}, {0: 1})
    to_canonical = ({3: 1}, {2: 1}, {1: 1, 0: -1}, {0: 1})
    labels = ("g1", "g2", "g3", "g4")
    nonzero = la._antisymmetric_index({(1, 2): {3: 1}, (1, 3): {1: 1}})
    canonical = la.StructureConstants._from_index(labels, nonzero, to_user=to_user)
    user = la.StructureConstants._from_index(
        labels,
        la._user_index(nonzero, to_user, to_canonical, 4),
        canonical=canonical,
        to_canonical=to_canonical,
    )
    assert la.jacobi_check(canonical) == (False, (1, 2, 3, 3, -1))
    # the witness names the generators g1, g2, g3 and the coefficient of g1
    assert la.jacobi_check(user) == (False, _dense_jacobi_witness(user.c)) == (False, (0, 1, 2, 0, 1))


def test_killing_form_symmetric_ad_invariant(flat_spray_sc):
    sc = flat_spray_sc
    m = sc.dim
    kappa = [dense(row, m) for row in la.killing_form(sc)]
    for i in range(m):
        for j in range(m):
            assert kappa[i][j] == kappa[j][i]
    # kappa([x,y],z) + kappa(y,[x,z]) = 0 on basis triples
    for x in range(m):
        for y in range(m):
            for z in range(m):
                xy = sc.c[x][y]
                xz = sc.c[x][z]
                left = sum(xy[k] * kappa[k][z] for k in range(m))
                right = sum(xz[k] * kappa[y][k] for k in range(m))
                assert left + right == 0


def test_killing_determinants(shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
    assert la.killing_det(shell_sc) == -1024
    assert la.killing_det(blocks_sc) == 4
    assert la.killing_det(flat_spray_sc) == 0
    assert la.killing_det(flat_isometry_sc) == 0


def test_semisimplicity_verdicts(shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
    assert la.is_semisimple(shell_sc)
    assert la.is_semisimple(blocks_sc)
    assert not la.is_semisimple(flat_spray_sc)
    assert not la.is_semisimple(flat_isometry_sc)
    assert la.is_simple(shell_sc)
    assert not la.is_simple(blocks_sc)
    assert not la.is_simple(flat_isometry_sc)


def test_abelian_killing_form_is_zero():
    sc = la.structure_constants_from_fields(
        [base_field("1", "0"), base_field("0", "1")]
    )
    assert la.killing_form(sc) == [{}, {}]
    assert not la.is_semisimple(sc)


def test_derived_and_center(shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
    assert la.derived_subalgebra(shell_sc).dim == 6
    assert la.derived_subalgebra(blocks_sc).dim == 6
    assert la.derived_subalgebra(flat_spray_sc).dim == 11
    assert la.derived_subalgebra(flat_isometry_sc).dim == 6
    for sc in (shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
        assert la.center(sc).is_zero()


def test_abelian_center_is_everything():
    sc = la.structure_constants_from_fields(
        [base_field("1", "0"), base_field("0", "1")]
    )
    assert la.center(sc).dim == 2
    assert la.derived_subalgebra(sc).is_zero()
    assert la.radical(sc).dim == 2


def test_radicals(shell_sc, blocks_sc, flat_spray_sc, flat_isometry_sc):
    assert la.radical(shell_sc).is_zero()
    assert la.radical(blocks_sc).is_zero()
    rad_s = la.radical(flat_spray_sc)
    mixed = [Fraction(1) if i in (0, 5, 10) else Fraction(0) for i in range(12)]
    expected_s = la.Subspace.from_vectors(
        [mixed, unit_vector(12, 2), unit_vector(12, 6), unit_vector(12, 11)], 12
    )
    assert rad_s == expected_s
    rad_g = la.radical(flat_isometry_sc)
    expected_g = la.Subspace.from_vectors(
        [unit_vector(6, 1), unit_vector(6, 3), unit_vector(6, 5)], 6
    )
    assert rad_g == expected_g


def test_radical_is_solvable_and_ideal(flat_spray_sc):
    sc = flat_spray_sc
    rad = la.radical(sc)
    series = rad
    steps = 0
    while not series.is_zero():
        basis = list(series.rows.values())
        vectors = [
            sc.bracket_coords(u, v)
            for a, u in enumerate(basis)
            for v in basis[a + 1 :]
        ]
        series = la.Subspace.from_vectors(vectors, sc.dim)
        steps += 1
        assert steps <= sc.dim
    for v in rad.rows.values():
        for i in range(sc.dim):
            assert rad.contains(sc.bracket_coords({i: 1}, v))


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


def test_abelian_ideal_checks(flat_spray_sc, flat_isometry_sc):
    decay_e = la.Subspace.from_vectors(
        [unit_vector(12, 2), unit_vector(12, 6), unit_vector(12, 11)], 12
    )
    assert abelian_ideal_check(flat_spray_sc, decay_e)
    decay_g = la.Subspace.from_vectors(
        [unit_vector(6, 1), unit_vector(6, 3), unit_vector(6, 5)], 6
    )
    assert abelian_ideal_check(flat_isometry_sc, decay_g)


def test_single_generator_span_is_not_an_ideal(shell_sc):
    one = la.Subspace.from_vectors([unit_vector(6, 0)], 6)
    assert not abelian_ideal_check(shell_sc, one)


def _subspace(sc, vectors):
    return la.Subspace.from_vectors(vectors, sc.dim)


def test_commutative_ideal_subspaces(
    shell_sc, shell_generators, shell_pipeline, flat_spray_sc, flat_spray_generators, flat_pipeline
):
    _metric, _spray, connection, curv = shell_pipeline
    shell = list(shell_generators.values())
    # the hyperbolic shell has full curvature rank, so no horizontal nullity
    assert horizontal_nullity_span(shell, connection, curv) == []
    constant = _subspace(shell_sc, constant_span(shell))
    assert constant == _subspace(shell_sc, [unit_vector(6, 4), unit_vector(6, 5)])
    assert la.is_abelian(shell_sc, constant) and not la.is_ideal(shell_sc, constant)

    _metric, _spray, connection, curv = flat_pipeline
    flat = list(flat_spray_generators.values())
    decay_e = _subspace(flat_spray_sc, [unit_vector(12, 2), unit_vector(12, 6), unit_vector(12, 11)])
    assert _subspace(flat_spray_sc, horizontal_nullity_span(flat, connection, curv)) == decay_e
    assert abelian_ideal_check(flat_spray_sc, decay_e)
    translations = _subspace(flat_spray_sc, constant_span(flat))
    assert translations.dim == 3 and not la.is_ideal(flat_spray_sc, translations)


def test_constant_subspace_of_an_abelian_algebra_is_everything():
    fields = [base_field("1", "0"), base_field("0", "1")]
    sc = la.structure_constants_from_fields(fields)
    space = _subspace(sc, constant_span(fields))
    assert space == la.Subspace.from_vectors(identity(2), 2)
    assert abelian_ideal_check(sc, space)


def test_blocks_constant_subspace_is_not_an_ideal(blocks_sc, blocks_generators, blocks_pipeline):
    # the two simple blocks are ideals, but neither is abelian, and the
    # constant fields e3, e6 span a subspace that is not an ideal
    for block in ((0, 1, 2), (3, 4, 5)):
        space = _subspace(blocks_sc, [unit_vector(6, i) for i in block])
        assert la.is_ideal(blocks_sc, space) and not la.is_abelian(blocks_sc, space)
    fields = list(blocks_generators.values())
    constant = _subspace(blocks_sc, constant_span(fields))
    assert constant == _subspace(blocks_sc, [unit_vector(6, 2), unit_vector(6, 5)])
    assert not la.is_ideal(blocks_sc, constant)
    _metric, _spray, connection, curv = blocks_pipeline
    assert horizontal_nullity_span(fields, connection, curv) == []


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def test_flat_spray_derivations_all_inner(flat_spray_sc):
    space = la.derivations(flat_spray_sc)
    assert space.dimension == 12
    assert space.inner_dimension == 12
    assert space.outer_dimension == 0


def test_flat_isometry_has_one_outer_derivation(flat_isometry_sc):
    space = la.derivations(flat_isometry_sc)
    assert space.dimension == 7
    assert space.inner_dimension == 6
    assert space.outer_dimension == 1
    diag = [[Fraction(0)] * 6 for _ in range(6)]
    diag[1][1] = diag[3][3] = diag[5][5] = Fraction(1)
    assert is_derivation(flat_isometry_sc, diag)
    assert not in_inner_span(flat_isometry_sc, diag)


def test_every_ad_is_a_derivation(shell_sc):
    for i in range(shell_sc.dim):
        ad = ad_matrix(shell_sc, i)
        assert is_derivation(shell_sc, ad)
        assert in_inner_span(shell_sc, ad)


# ---------------------------------------------------------------------------
# Levi decomposition and classification
# ---------------------------------------------------------------------------


def _check_levi(sc, result):
    m = sc.dim
    assert result.radical.dim + result.levi.dim == m
    assert result.radical.sum(result.levi).dim == m
    for u in result.levi.rows.values():
        for v in result.levi.rows.values():
            assert result.levi.contains(sc.bracket_coords(u, v))
    if result.levi.dim:
        sub = la.subalgebra_constants(sc, result.levi)
        assert det(la.killing_form(sub)) != 0


def test_levi_flat_spray(flat_spray_sc):
    result = la.levi_decomposition(flat_spray_sc)
    assert result.radical.dim == 4 and result.levi.dim == 8
    _check_levi(flat_spray_sc, result)


def test_levi_flat_isometry(flat_isometry_sc):
    result = la.levi_decomposition(flat_isometry_sc)
    assert result.radical.dim == 3 and result.levi.dim == 3
    _check_levi(flat_isometry_sc, result)


def test_levi_semisimple_and_abelian_edges(blocks_sc):
    result = la.levi_decomposition(blocks_sc)
    assert result.radical.is_zero() and result.levi.dim == 6
    abelian = la.structure_constants_from_fields(
        [base_field("1", "0"), base_field("0", "1")]
    )
    result = la.levi_decomposition(abelian)
    assert result.radical.dim == 2 and result.levi.is_zero()


def test_displayed_complement_passes_verification(flat_spray_sc):
    # the published complement differs from ours only by choice, so it is
    # validated by the same invariants rather than by equality
    sc = flat_spray_sc
    combos = [
        {0: 1, 10: -1},
        {1: 1},
        {3: 1},
        {4: 1},
        {5: 1, 10: -1},
        {7: 1},
        {8: 1},
        {9: 1},
    ]
    vectors = []
    for combo in combos:
        v = [Fraction(0)] * 12
        for i, q in combo.items():
            v[i] = Fraction(q)
        vectors.append(v)
    levi = la.Subspace.from_vectors(vectors, 12)
    _check_levi(sc, la.LeviResult(la.radical(sc), levi))


def test_classify_blocks_sl2(blocks_sc):
    for indices in ((0, 1, 2), (3, 4, 5)):
        sub = la.subalgebra_constants(
            blocks_sc,
            la.Subspace.from_vectors([unit_vector(6, i) for i in indices], 6),
        )
        assert la.classify_3dim_simple(sub) == "sl2-type"


def test_classify_flat_isometry_levi_so3(flat_isometry_sc):
    sub = la.subalgebra_constants(
        flat_isometry_sc,
        la.Subspace.from_vectors([unit_vector(6, i) for i in (0, 2, 4)], 6),
    )
    assert la.classify_3dim_simple(sub) == "so3-type"
    kappa = la.killing_form(sub)
    assert kappa == [{0: -H}, {1: -H}, {2: -H}]


def test_classify_abelian_not_simple():
    sc = la.structure_constants_from_fields(
        [base_field("1", "0", "0"), base_field("0", "1", "0"), base_field("0", "0", "1")]
    )
    assert la.classify_3dim_simple(sc) == "not-simple"


def _table_3dim(brackets: dict) -> la.StructureConstants:
    """A 3-dim table given as constants: brackets[(i, j)] = [b_i, b_j], i < j."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), v in brackets.items():
        c[i][j], c[j][i] = list(v), [-x for x in v]
    return la.StructureConstants(("a", "b", "c"), c)


@pytest.mark.parametrize(
    "brackets, expected",
    [
        # sl(2) as (h, e + f, e - f): kappa_00 = 8 and a positive leading 2x2 minor
        ({(0, 1): (0, 0, 2), (0, 2): (0, 2, 0), (1, 2): (-2, 0, 0)}, "sl2-type"),
        # sl(2) as (e, f, h): kappa_00 = 0
        ({(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}, "sl2-type"),
        ({(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}, "so3-type"),
    ],
    ids=["sl2 (h, e+f, e-f)", "sl2 (e, f, h)", "so3"],
)
def test_classify_a_table_given_as_constants(brackets, expected):
    assert la.classify_3dim_simple(_table_3dim(brackets)) == expected


@pytest.mark.parametrize(
    "diagonal, pair", [((1, 1, 1), "(3,0)"), ((1, -1, -1), "(1,2)"), ((-1, -1, 1), "(1,2)")]
)
def test_classify_refuses_a_positive_killing_determinant(diagonal, pair):
    # no Lie algebra reaches this guard, so plant the form on the canonical table
    sc = la.structure_constants_from_fields(_rotations(3))
    kappa = tuple({i: Fraction(d)} for i, d in enumerate(diagonal))
    sc.canonical.__dict__.update(killing=kappa, killing_determinant=det(kappa))
    with pytest.raises(la.LieAlgebraError, match=re.escape(f"signature {pair}")):
        la.classify_3dim_simple(sc)


def test_classify_requires_dimension_three(shell_sc):
    with pytest.raises(la.LieAlgebraError):
        la.classify_3dim_simple(shell_sc)


# ---------------------------------------------------------------------------
# known answers: aff(n), so(n) and Heisenberg algebras as vector fields
# ---------------------------------------------------------------------------


def _field(n: int, comps: dict[int, str]):
    return base_field(*(comps.get(i, "0") for i in range(n)))


def _affine(n: int):
    """Translations d_i, then x_j d_i: aff(n), dimension n^2 + n."""
    out = [_field(n, {i: "1"}) for i in range(n)]
    out += [_field(n, {i: f"x{j + 1}"}) for i in range(n) for j in range(n)]
    return out


def _rotations(n: int):
    """x_i d_j - x_j d_i for i < j: so(n), dimension n(n-1)/2."""
    return [
        _field(n, {j: f"x{i + 1}", i: f"-x{j + 1}"}) for i in range(n) for j in range(i + 1, n)
    ]


def _heisenberg(k: int):
    """d_{a_i}, d_{b_i} + a_i d_z and d_z on R^(2k+1): h(2k+1)."""
    n = 2 * k + 1
    out = [_field(n, {i: "1"}) for i in range(k)]
    out += [_field(n, {k + i: "1", n - 1: f"x{i + 1}"}) for i in range(k)]
    return out + [_field(n, {n - 1: "1"})]


# (generators, radical, Levi factor, center, derivations, simple) in closed form
KNOWN_ANSWERS = {
    "aff2": (lambda: _affine(2), 3, 3, 0, 6, False),
    "aff3": (lambda: _affine(3), 4, 8, 0, 12, False),
    "so3": (lambda: _rotations(3), 0, 3, 0, 3, True),
    "so5": (lambda: _rotations(5), 0, 10, 0, 10, True),
    "h3": (lambda: _heisenberg(1), 3, 0, 1, 6, False),
    "h5": (lambda: _heisenberg(2), 5, 0, 1, 15, False),
}


@pytest.mark.parametrize("name", sorted(KNOWN_ANSWERS))
def test_family_known_answers(name):
    make, radical, levi, center, derivations, simple = KNOWN_ANSWERS[name]
    sc = la.structure_constants_from_fields(make())
    assert la.jacobi_check(sc) == (True, None)
    result = la.levi_decomposition(sc)
    assert (result.radical.dim, result.levi.dim) == (radical, levi)
    assert la.center(sc).dim == center
    assert la.derivations(sc).dimension == derivations
    assert la.is_simple(sc) is simple


# ---------------------------------------------------------------------------
# simplicity from the centroid, and the paper's two commutative-ideal subspaces
# ---------------------------------------------------------------------------


def _table(m: int, brackets: dict) -> la.StructureConstants:
    """Constants from {(i, j): {k: c^k_ij}} for i < j, extended antisymmetrically."""
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j), out in brackets.items():
        for k, q in out.items():
            c[i][j][k] += q
            c[j][i][k] -= q
    labels = tuple(f"b{i + 1}" for i in range(m))
    return la.StructureConstants(labels, tuple(tuple(tuple(r) for r in p) for p in c))


def _direct_sum(*parts: tuple[int, dict]) -> la.StructureConstants:
    """The table of (dimension, brackets) parts placed side by side."""
    brackets, offset = {}, 0
    for size, part in parts:
        for (i, j), out in part.items():
            brackets[(i + offset, j + offset)] = {k + offset: q for k, q in out.items()}
        offset += size
    return _table(offset, brackets)


SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}
SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}  # h, e, f


def _realified(brackets: dict, n: int) -> dict:
    """A complex n-dim table over R: basis x, then i*x; [ix, y] = [x, iy] = i[x, y], [ix, iy] = -[x, y]."""
    out = {}
    for (a, b), c in brackets.items():
        out[(a, b)] = c
        out[(a, b + n)] = out[(a + n, b)] = {k + n: q for k, q in c.items()}
        out[(a + n, b + n)] = {k: -q for k, q in c.items()}
    return out


SL2C = _realified(SL2, 3)


def _lie_family(tag: str, seed: int, directory):
    """Generators and table of one lie-families set, as the benchmark builds it at `seed`."""
    workload = workloads.build("lie-families", seed, directory, PROBLEMS)
    workload.write(directory)
    problem = cli.load_problem(directory / f"{tag}.json")
    generators = [problem.fields[name] for name in problem.sets[tag]]
    return generators, la.structure_constants_from_fields(generators, problem.sets[tag])


def test_analyze_takes_the_killing_determinant_once_per_set(tmp_path, monkeypatch, capsys):
    workload = workloads.build("lie-families", 7, tmp_path, PROBLEMS)
    workload.write(tmp_path)
    calls = []

    def counted_det(matrix):
        calls.append(len(matrix))
        return det(matrix)

    monkeypatch.setattr(linalg, "det", counted_det)
    path = str(tmp_path / "aff4.json")
    assert cli.main(["analyze", path, "--format", "json", "--seed", "7"]) == 0
    sets = json.loads(capsys.readouterr().out)["sets"]
    assert [entry["algebra"]["dimension"] for entry in sets] == [20]
    assert calls == [20]


def test_analyze_computes_center_derived_algebra_and_levi_once_per_set(
    tmp_path, monkeypatch, capsys
):
    workload = workloads.build("lie-families", 7, tmp_path, PROBLEMS)
    workload.write(tmp_path)
    calls = []
    for name in ("_center", "_derived_subalgebra", "_levi_decomposition"):
        original = getattr(la, name)

        def counted(sc, name=name, original=original):
            calls.append((name, sc.dim))
            return original(sc)

        monkeypatch.setattr(la, name, counted)
    path = str(tmp_path / "aff4.json")
    assert cli.main(["analyze", path, "--format", "json", "--seed", "7"]) == 0
    algebra = json.loads(capsys.readouterr().out)["sets"][0]["algebra"]
    assert (algebra["center_dimension"], algebra["derived_dimension"]) == (0, 19)
    assert sorted(calls) == [("_center", 20), ("_derived_subalgebra", 20), ("_levi_decomposition", 20)]


@pytest.mark.parametrize("seed", [0, 7])
def test_so4_is_not_simple_in_either_basis(seed, tmp_path):
    _generators, sc = _lie_family("so4", seed, tmp_path)
    assert la.is_semisimple(sc)
    assert len(sc.centroid) == 2
    assert la.is_simple(sc) is False


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_so_n_is_simple_with_a_one_dimensional_centroid(n):
    sc = la.structure_constants_from_fields(_rotations(n))
    assert la.is_simple(sc) is True
    assert len(sc.centroid) == 1


def test_realified_sl2c_is_simple_with_centroid_q_i():
    sc = _table(6, SL2C)
    assert la.is_semisimple(sc)
    assert len(sc.centroid) == 2
    assert la.is_simple(sc) is True


@pytest.mark.parametrize(
    "parts", [((3, SO3),) * 3, ((6, SL2C), (3, SO3))], ids=["so3^3", "sl2c+so3"]
)
def test_direct_sums_are_not_simple(parts):
    sc = _direct_sum(*parts)
    assert la.is_semisimple(sc)
    assert len(sc.centroid) == 3
    assert la.is_simple(sc) is False


def _sl2_over_biquadratic() -> la.StructureConstants:
    """sl(2, K) over Q for K = Q(sqrt2, sqrt3): basis x (x) a for x in h, e, f and a in 1, r2, r3, r6."""
    # a_s * a_t = mult[s][t] as (scalar, index) over the basis 1, r2, r3, r6
    mult = [
        [(1, 0), (1, 1), (1, 2), (1, 3)],
        [(1, 1), (2, 0), (1, 3), (2, 2)],
        [(1, 2), (1, 3), (3, 0), (3, 1)],
        [(1, 3), (2, 2), (3, 1), (6, 0)],
    ]
    brackets = {}
    for (x, y), out in SL2.items():
        for s in range(4):
            for t in range(4):
                q, u = mult[s][t]
                brackets[(4 * x + s, 4 * y + t)] = {4 * k + u: q * v for k, v in out.items()}
    return _table(12, brackets)


def test_centroid_of_degree_four_without_rational_eigenvalue_is_a_limit():
    # simple, with centroid K of degree 4: p is irreducible, so no rational
    # root, and dim C = 4 leaves "field or product of two quadratic fields" open
    sc = _sl2_over_biquadratic()
    assert la.is_semisimple(sc)
    assert len(sc.centroid) == 4
    assert la.is_simple(sc) is None


def _poly(*roots_and_factors) -> list[Fraction]:
    """Product of monic factors, each given by its coefficients low to high."""
    out = [Fraction(1)]
    for factor in roots_and_factors:
        prod = [Fraction(0)] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


BIG = Fraction(10**30 + 57, 10**29 + 3)


@pytest.mark.parametrize(
    "p, expected",
    [
        (_poly([1, 0, 1]), False),
        (_poly([-2, 0, 1]), False),
        (_poly([Fraction(-1, 4), 0, 1]), True),
        (_poly([0, 0, 1]), True),
        (_poly([2, 0, 0, 1]), False),
        (_poly([-1, 1], [-2, 1], [-3, 1]), True),
        # prime-sized ends: (t - BIG)^2 + 1/BIG^2 and its shift by a rational root
        (_poly([BIG**2 + 1 / BIG**2, -2 * BIG, 1]), False),
        (_poly([BIG**2 + 1 / BIG**2, -2 * BIG, 1], [-BIG, 1]), True),
        (_poly([BIG**2 + 1 / BIG**2, -2 * BIG, 1], [-2, 0, 1]), False),
    ],
)
def test_rational_root_search_needs_no_factoring(p, expected):
    assert la._has_rational_root([Fraction(a) for a in p]) is expected
    # the same polynomial as `_minimal_polynomial` returns it: integral
    # coefficients as ints, which true division would turn into floats
    exact = [linalg._exact(a) for a in p]
    assert la._has_rational_root(exact) is expected
    sturm = la._sturm_sequence(exact)
    assert sturm == la._sturm_sequence([Fraction(a) for a in p])
    assert_exact(q for f in sturm for q in f)


def test_shell_centroid_is_a_quadratic_field(shell_sc):
    # so(3,1) is the realification of sl(2, C): centroid Q(i), still simple
    assert len(shell_sc.centroid) == 2
    assert la.is_simple(shell_sc) is True


def _subspace_verdicts(sc, vectors):
    space = _subspace(sc, vectors)
    if not space.dim:
        return (0,)
    return (space.dim, la.is_ideal(sc, space), la.is_abelian(sc, space))


@pytest.mark.parametrize("tag", [tag for tag, *_ in workloads.LIE_FAMILIES])
def test_subspace_verdicts_do_not_depend_on_the_basis(tag, tmp_path):
    seen = []
    for seed in (0, 7):
        generators, sc = _lie_family(tag, seed, tmp_path / str(seed))
        _metric, _spray, connection, curv = build_pipeline(("1",) * generators[0].dim)
        seen.append(
            (
                _subspace_verdicts(sc, horizontal_nullity_span(generators, connection, curv)),
                _subspace_verdicts(sc, constant_span(generators)),
            )
        )
    assert seen[0] == seen[1]


@pytest.mark.parametrize("n", [2, 3])
def test_affine_horizontal_subspace_is_the_translation_ideal(n):
    generators = _affine(n)
    sc = la.structure_constants_from_fields(generators)
    _metric, _spray, connection, curv = build_pipeline(("1",) * n)
    space = _subspace(sc, horizontal_nullity_span(generators, connection, curv))
    assert space == _subspace(sc, [unit_vector(sc.dim, i) for i in range(n)])
    assert abelian_ideal_check(sc, space)


# ---------------------------------------------------------------------------
# rank certificates: Der L and C = Q*I from a rank bound
# ---------------------------------------------------------------------------


def _leibniz_rows(sc: la.StructureConstants) -> list[dict[int, Fraction]]:
    """D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j], coordinate k, i < j, over D's
    entries flattened like a derivation, read off the dense table."""
    m, c = sc.dim, sc.c
    rows = []
    for (i, j), k in itertools.product(itertools.combinations(range(m), 2), range(m)):
        row: dict[int, Fraction] = {}
        for l in range(m):
            terms = ((k * m + l, c[i][j][l]), (l * m + i, -c[l][j][k]), (l * m + j, -c[i][l][k]))
            for col, v in terms:
                row[col] = row.get(col, 0) + v
        rows.append(row)
    return rows


def _centroid_rows(sc: la.StructureConstants) -> list[dict[int, Fraction]]:
    """T[b_i, b_j] - [b_i, T b_j], coordinate k, over T flattened the same way."""
    m, c = sc.dim, sc.c
    rows = []
    for i, j, k in itertools.product(range(m), repeat=3):
        row: dict[int, Fraction] = {}
        for l in range(m):
            for col, v in ((k * m + l, c[i][j][l]), (l * m + j, -c[i][l][k])):
                row[col] = row.get(col, 0) + v
        rows.append(row)
    return rows


def _sympy_rank(rows: list[dict[int, Fraction]], ncols: int) -> int:
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import QQ

    # the sparse format takes no empty row and no stored zero
    rows = [{col: v for col, v in row.items() if v} for row in rows]
    rows = [row for row in rows if row]
    entries = {
        r: {col: QQ(v.numerator, v.denominator) for col, v in row.items()}
        for r, row in enumerate(rows)
    }
    return matrices.DomainMatrix(entries, (len(rows), ncols), QQ).rank()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tag", [tag for tag, *_ in workloads.LIE_FAMILIES])
def test_rank_certificates_return_the_full_kernel(tag, seed, tmp_path, monkeypatch):
    _generators, sc = _lie_family(tag, seed, tmp_path)
    m = sc.dim
    space = la.derivations(sc)
    assert space.dimension == m * m - _sympy_rank(_leibniz_rows(sc), m * m)
    ads = [
        {r * m + col: v for r, row in enumerate(ad_matrix(sc, i)) for col, v in enumerate(row)}
        for i in range(m)
    ]
    assert space.inner_dimension == _sympy_rank(ads, m * m)

    routes = []
    kernel = linalg._kernel

    def full_kernel(*args, **kwargs):
        routes.append("kernel")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(linalg, "_kernel", full_kernel)
    centroid = la._centroid(sc)
    monkeypatch.undo()
    # Heisenberg algebras have a centroid beyond Q*I, and so(4) = so(3) +
    # so(3) a two-dimensional one: only those compute a kernel
    assert routes == (["kernel"] if tag.startswith("h") or tag == "so4" else [])
    expected = linalg.kernel_basis(_centroid_rows(sc), m * m)
    assert centroid == tuple(expected)


# ---------------------------------------------------------------------------
# Der L through the Levi decomposition, against the full Leibniz rank
# ---------------------------------------------------------------------------


def _parabolic_fields(blocks: tuple[int, ...], special: bool) -> list:
    """Block upper-triangular n x n matrices with diagonal blocks of the given
    sizes, trace-free when `special`, as the linear fields A -> A_ij x_j d_i.

    A matrix E_ij (i != j) in the pattern, then E_ii, or E_ii - E_(i+1)(i+1)
    when special.  The fields bracket like the matrices up to sign, so they
    span the opposite algebra, which A -> -A identifies with the algebra
    itself.
    """
    n = sum(blocks)
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    mats = [{(i, j): 1} for i in range(n) for j in range(n) if i != j and block_of[i] <= block_of[j]]
    if special:
        mats += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    else:
        mats += [{(i, i): 1} for i in range(n)]
    return [
        base_field(
            *(" + ".join(f"{q}*x{j + 1}" for (r, j), q in a.items() if r == i) or "0" for i in range(n))
        )
        for a in mats
    ]


def _parabolic(blocks: tuple[int, ...], special: bool, seed: int | None) -> la.StructureConstants:
    """The table of `_parabolic_fields`.  With a seed, generator r gains seeded
    multiples in {-1, 0, 1} of the generators after it: one unitriangular
    change of basis."""
    generators = _parabolic_fields(blocks, special)
    if seed is not None:
        rng = random.Random(seed)
        m = len(generators)
        draws = [{c: rng.choice((-1, 0, 1)) for c in range(r + 1, m)} for r in range(m)]
        rows = [
            {r: Fraction(1)} | {c: Fraction(q) for c, q in row.items() if q}
            for r, row in enumerate(draws)
        ]
        generators = [combine_fields(generators, row) for row in rows]
    return la.structure_constants_from_fields(generators)


# (blocks, special, seed, dim Der L, derived levels of the radical); the
# seeded [2, 2, 1] and [3, 2] cases cost 6 to 26 s of sympy rank, so they run
# in the standard basis only
PARABOLICS = [
    ((2, 1), False, None, 8, 2),
    ((2, 1), True, None, 6, 2),
    ((2, 2), False, None, 13, 2),
    ((2, 1, 1), False, None, 13, 3),
    ((2, 2, 1), False, None, 19, 3),
    ((3, 2), False, None, 20, 2),
    ((3, 2), True, None, 18, 2),
    ((2, 1), False, 1, 8, 2),
    ((2, 2), True, 1, 11, 2),
    ((2, 1, 1), False, 1, 13, 3),
    ((3, 1), False, 1, 14, 2),
    ((3, 1), True, 1, 12, 2),
]


@pytest.mark.parametrize(
    "blocks, special, seed, dimension, levels",
    PARABOLICS,
    ids=[f"{'sl' if sp else 'gl'}{list(b)}-{'std' if s is None else f'seed{s}'}" for b, sp, s, *_ in PARABOLICS],
)
def test_parabolic_derivations_match_the_leibniz_rank(blocks, special, seed, dimension, levels):
    sc = _parabolic(blocks, special, seed)
    m = sc.dim
    result = la.levi_decomposition(sc)
    assert result.radical.dim and result.levi.dim
    assert len(sc.radical_series) - 1 == levels
    space = la.derivations(sc)
    assert space.dimension == dimension == m * m - _sympy_rank(_leibniz_rows(sc), m * m)
    # gl has the scalars as center, sl none; gl [2, 1] is 7-dimensional with
    # two outer derivations
    assert space.inner_dimension == m - (0 if special else 1)


@pytest.mark.parametrize("name", ["so4", "sl2c", "sl2-biquadratic"])
def test_semisimple_derivations_need_no_elimination(name, tmp_path, monkeypatch):
    if name == "so4":
        sc = _lie_family("so4", 7, tmp_path)[1]
    else:
        sc = _table(6, SL2C) if name == "sl2c" else _sl2_over_biquadratic()
    m = sc.dim
    assert len(sc.centroid) > 1
    la.levi_decomposition(sc)
    calls = []
    echelon = linalg._echelon

    def counted(*args, **kwargs):
        calls.append(1)
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    space = la.derivations(sc)
    monkeypatch.undo()
    assert calls == []
    assert space.dimension == space.inner_dimension == m
    assert m == m * m - _sympy_rank(_leibniz_rows(sc), m * m)


@pytest.mark.parametrize("tag", ["h3", "h7"])
def test_solvable_derivations_solve_the_full_leibniz_system(tag, tmp_path):
    """With S = 0 the radical's basis is the standard one, and the Der_S rows
    are the Leibniz rows with D's entries (k, b) read at column b*m + k."""
    sc = _lie_family(tag, 7, tmp_path)[1]
    levi = la.levi_decomposition(sc)
    assert levi.levi.is_zero()
    m = sc.dim
    k = (m - 1) // 2
    assert la.derivations(sc).dimension == 2 * k * k + 3 * k + 1
    transposed = [
        {(col % m) * m + col // m: v for col, v in row.items() if v} for row in _leibniz_rows(sc)
    ]
    assert la._radical_rows(sc, levi, []) == transposed


def test_levi_decomposition_walks_the_radical_series_once(tmp_path, monkeypatch):
    _generators, sc = _lie_family("aff4", 7, tmp_path)
    calls = []
    derived = la._derived_of_subspace

    def counted(*args):
        calls.append(args)
        return derived(*args)

    monkeypatch.setattr(la, "_derived_of_subspace", counted)
    result = la.levi_decomposition(sc)
    # scalars and translations > translations > 0: one derived subspace per
    # nonzero term, shared by the solvability check and the complement
    assert [term.dim for term in sc.radical_series] == [5, 4, 0]
    assert len(calls) == 2
    _check_levi(sc, result)


# ---------------------------------------------------------------------------
# a radical with three derived levels
# ---------------------------------------------------------------------------


# upper-triangular 3 x 3 matrices E11, E12, E13, E22, E23, E33
B3 = {
    (0, 1): {1: 1},
    (0, 2): {2: 1},
    (1, 3): {1: 1},
    (1, 4): {2: 1},
    (2, 5): {2: 1},
    (3, 4): {4: 1},
    (4, 5): {4: 1},
}


def _mixed(sc: la.StructureConstants) -> la.StructureConstants:
    """The table over b_2t + b_2t+1 and b_2t+1, the mix the report-byte tests apply to fields."""
    m = sc.dim
    basis = [{i: Fraction(1)} for i in range(m)]
    for a in range(0, m - 1, 2):
        basis[a][a + 1] = Fraction(1)
    brackets = {}
    for i, j in itertools.combinations(range(m), 2):
        w = dense(sc.bracket_coords(basis[i], basis[j]), m)
        # b_2t = new_2t - new_2t+1
        for a in range(0, m - 1, 2):
            w[a + 1] -= w[a]
        brackets[(i, j)] = {k: q for k, q in enumerate(w) if q}
    return _table(m, brackets)


def test_levi_complement_of_sl2_plus_upper_triangular_3x3():
    sc = _mixed(_direct_sum((3, SL2), (6, B3)))
    assert la.jacobi_check(sc) == (True, None)
    result = la.levi_decomposition(sc)
    dims, term = [], result.radical
    while dims[-1:] != [0]:
        dims.append(term.dim)
        term = la._derived_of_subspace(sc, term)
    assert dims == [6, 3, 1, 0]
    _check_levi(sc, result)
    # rendered by the quotient-algebra recursion this loop replaced
    assert [la.render_combination(v, sc.labels) for v in result.levi.rows.values()] == [
        "b1",
        "b2",
        "b3 - b4",
    ]


# ---------------------------------------------------------------------------
# witnessed radical and Levi failures on tables that break Jacobi
# ---------------------------------------------------------------------------


def _random_table(seed: int) -> la.StructureConstants:
    """A seeded antisymmetric table of dimension 3 to 5; Jacobi usually fails."""
    rng = random.Random(seed)
    m = rng.randint(3, 5)
    brackets = {}
    for i, j in itertools.combinations(range(m), 2):
        out = {k: rng.choice([-2, -1, 1, 2]) for k in range(m) if rng.random() < 0.3}
        brackets[(i, j)] = out
    return _table(m, brackets)


@pytest.mark.parametrize(
    "seed, message",
    [
        (0, "computed radical is not an ideal: [b4, b3] leaves -2*b2 outside it"),
        (
            300,
            "no semisimple complement found for an abelian radical: no correction of b3 and b5 "
            "by the radical fixes the b2 coordinate of their bracket; 5 is left over",
        ),
        (
            1755,
            "Levi complement is not semisimple: 2*b1 + 2*b2 + b3 is orthogonal to it "
            "under its Killing form",
        ),
    ],
)
def test_levi_failure_names_its_witness(seed, message):
    sc = _random_table(seed)
    assert la.jacobi_check(sc)[0] is False
    with pytest.raises(la.LieAlgebraError) as err:
        la.levi_decomposition(sc)
    # not NonClosureError, which the command line reads as bad input
    assert type(err.value) is la.LieAlgebraError
    assert str(err.value).startswith(message)


def test_unsolvable_radical_names_its_stalled_derived_term(monkeypatch):
    # no seeded table reached this check; with the derived algebra taken as
    # zero, the radical of so(3) is all of it, an ideal that is perfect
    sc = _table(3, SO3)
    monkeypatch.setattr(la, "derived_subalgebra", lambda sc: la.Subspace(sc.dim, {}))
    with pytest.raises(la.LieAlgebraError) as err:
        la.radical(sc)
    assert str(err.value).startswith(
        "computed radical is not solvable: its derived series stops shrinking at step 0, "
        "dimension 3 (b1, b2, b3)"
    )


@pytest.mark.parametrize(
    "vectors, message",
    [
        # so(3) + R: the radical is b4; a complement missing b3 does not span
        (
            [[1, 0, 0, 0], [0, 1, 0, 0]],
            "Levi complement and radical do not span: b3 leaves b3 outside them",
        ),
        (
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
            "Levi complement meets the radical in -b4",
        ),
        (
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
            "subspace is not closed under the bracket: [b1, b2] leaves -b4 outside it",
        ),
    ],
    ids=["short", "meeting", "open"],
)
def test_levi_complement_that_fails_to_complement_names_its_witness(vectors, message, monkeypatch):
    # the construction always complements the radical; a replaced one reaches the check
    sc = _direct_sum((3, SO3), (1, {}))
    monkeypatch.setattr(
        la, "_levi_vectors", lambda sc, series: [[Fraction(q) for q in v] for v in vectors]
    )
    with pytest.raises(la.LieAlgebraError) as err:
        la.levi_decomposition(sc)
    assert str(err.value) == message
