"""Acceptance gate: every published result the package must reproduce.

Each test covers one criterion end to end and prints a single PASS line on
success; under `pytest -v` every criterion therefore shows up as exactly one
pass/fail line.  Tolerances are stated inline next to each numeric check.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from spraylie import cli, geom, liealg
from spraylie.fields import (
    VectorOneForm,
    bracket_base,
    bracket_tm,
    complete_lift,
    horizontal_nullity_span,
    in_AGamma,
    in_Ag,
    in_nullity,
    is_horizontal,
    lie_derivative_oneform,
    nullity_rank_numeric,
    solve_in_span,
    spray_field,
)
from spraylie.symexpr import parse_expr
from tests.conftest import (
    FLAT_EXPONENTIAL,
    HYPERBOLIC_SHELL,
    PRODUCT_BLOCKS,
    RANDOM_METRIC_SEEDS,
    abelian_ideal_check,
    base_field,
    build_pipeline,
    child_env,
    constant_nullity_kernel,
    in_inner_span,
    is_derivation,
    random_diag_entries,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

E = parse_expr
H = Fraction(1, 2)


def _load(name):
    return cli.load_problem(PROBLEMS / name)


def _set_constants(problem, set_name):
    labels = problem.sets[set_name]
    return liealg.structure_constants_from_fields(
        [problem.fields[f] for f in labels], labels
    )


def _expected_mismatches(problem, set_name, sc):
    """Cells where the computed table departs from the published one."""
    expected = problem.expected_tables[set_name]
    labels = problem.sets[set_name]
    out = []
    for i in range(len(labels)):
        for j in range(len(labels)):
            want = cli.parse_combination(expected[i][j], labels)
            if want != dict(sc.nonzero.get((i, j), ())):
                out.append((labels[i], labels[j]))
    return out


# ---------------------------------------------------------------------------
# criterion 1: 3-dim shell metric, connection data and symmetry algebra
# ---------------------------------------------------------------------------


def test_acceptance_01_shell_connection_and_symmetry_algebra(shell_pipeline):
    metric, spray, connection, _curv = shell_pipeline

    assert spray.G[0] == E("1/2*y1*y3")
    assert spray.G[1] == E("1/2*y2*y3")
    assert spray.G[2] == E("-1/4*exp(x3)*(y1^2 + y2^2)")

    expected_gamma = {
        (0, 0): "1/2*y3",
        (0, 2): "1/2*y1",
        (1, 1): "1/2*y3",
        (1, 2): "1/2*y2",
        (2, 0): "-1/2*exp(x3)*y1",
        (2, 1): "-1/2*exp(x3)*y2",
    }
    for j in range(3):
        for i in range(3):
            want = E(expected_gamma.get((j, i), "0"))
            assert connection.gamma1[j][i] == want, f"gamma[{j}][{i}]"

    problem = _load("example1.json")
    for name, field in problem.fields.items():
        assert in_AGamma(field, connection), name
        assert in_Ag(field, metric, spray), name

    sc = _set_constants(problem, "connection_symmetries")
    assert _expected_mismatches(problem, "connection_symmetries", sc) == []
    assert liealg.killing_det(sc) == -1024
    assert liealg.is_simple(sc)
    print("PASS criterion 1: shell connection data, memberships, table, simplicity")


# ---------------------------------------------------------------------------
# criterion 2: 4-dim product metric, table and block classification
# ---------------------------------------------------------------------------


def test_acceptance_02_product_blocks_table_and_classification(blocks_pipeline):
    _metric, _spray, connection, _curv = blocks_pipeline

    expected_gamma = {
        (0, 0): "1/2*y2",
        (0, 1): "1/2*y1",
        (1, 0): "-1/2*exp(x2)*y1",
        (2, 2): "1/2*y4",
        (2, 3): "1/2*y3",
        (3, 2): "-1/2*exp(x4)*y3",
    }
    for j in range(4):
        for i in range(4):
            want = E(expected_gamma.get((j, i), "0"))
            assert connection.gamma1[j][i] == want, f"gamma[{j}][{i}]"

    problem = _load("example2.json")
    sc = _set_constants(problem, "connection_symmetries")
    assert _expected_mismatches(problem, "connection_symmetries", sc) == []

    assert liealg.is_semisimple(sc)
    assert not liealg.is_simple(sc)
    assert liealg.radical(sc).dim == 0
    for block in ("left_block", "right_block"):
        block_sc = _set_constants(problem, block)
        assert liealg.classify_3dim_simple(block_sc) == "sl2-type", block
    print("PASS criterion 2: product-metric table, semisimple non-simple split")


# ---------------------------------------------------------------------------
# criterion 3: flat exponential metric, span solving, published tables
# ---------------------------------------------------------------------------


def test_acceptance_03_flat_solve_and_arbitrated_tables(flat_pipeline):
    metric, spray, connection, curv = flat_pipeline
    assert curv.is_zero()

    problem = _load("section5.json")
    dictionary = [problem.fields[f] for f in problem.sets["spray_symmetries"]]
    spray_sols = solve_in_span(dictionary, spray=spray)
    assert len(spray_sols) == 12
    iso_sols = solve_in_span(dictionary, spray=spray, energy=metric.energy)
    assert len(iso_sols) == 6

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "spraylie.cli",
            "analyze",
            str(PROBLEMS / "section5.json"),
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    cells = {(m["row"], m["col"]) for m in doc["discrepancies"]}
    assert cells == {("e2", "e8"), ("e8", "e2"), ("e10", "e7")}
    assert all(m["accepted_correction"] for m in doc["discrepancies"])
    spray_cmp = next(s for s in doc["sets"] if s["name"] == "spray_symmetries")
    assert spray_cmp["expected_comparison"]["matched_cells"] == 141
    iso_cmp = next(s for s in doc["sets"] if s["name"] == "isometries")
    assert iso_cmp["expected_comparison"]["mismatches"] == []
    print("PASS criterion 3: flat-metric solve dimensions and published tables")


# ---------------------------------------------------------------------------
# criterion 4: flat-metric algebra structure
# ---------------------------------------------------------------------------


def test_acceptance_04_flat_algebra_structure():
    problem = _load("section5.json")
    spray_sc = _set_constants(problem, "spray_symmetries")
    labels = list(spray_sc.labels)
    m = len(labels)

    derived = liealg.derived_subalgebra(spray_sc)
    assert derived.dim == 11
    assert derived.dim < spray_sc.dim

    def coords(combo):
        vec = [Fraction(0)] * m
        for name, q in combo.items():
            vec[labels.index(name)] = q
        return vec

    expected_radical = liealg.Subspace.from_vectors(
        [
            coords({"e1": 1, "e6": 1, "e11": 1}),
            coords({"e3": 1}),
            coords({"e7": 1}),
            coords({"e12": 1}),
        ],
        m,
    )
    assert liealg.radical(spray_sc) == expected_radical

    decay_span = liealg.Subspace.from_vectors(
        [coords({"e3": 1}), coords({"e7": 1}), coords({"e12": 1})], m
    )
    assert abelian_ideal_check(spray_sc, decay_span)
    _metric, _spray, connection, curv = build_pipeline(FLAT_EXPONENTIAL)
    generators = [problem.fields[name] for name in labels]
    horizontal = horizontal_nullity_span(generators, connection, curv)
    assert liealg.Subspace.from_vectors(horizontal, m) == decay_span

    levi = liealg.levi_decomposition(spray_sc)
    assert levi.radical.dim == 4 and levi.levi.dim == 8

    spray_der = liealg.derivations(spray_sc)
    assert (spray_der.dimension, spray_der.inner_dimension, spray_der.outer_dimension) == (
        12,
        12,
        0,
    )

    iso_sc = _set_constants(problem, "isometries")
    iso_labels = list(iso_sc.labels)
    translation_span = liealg.Subspace.from_vectors(
        [
            [Fraction(int(iso_labels[t] == name)) for t in range(6)]
            for name in ("g2", "g4", "g6")
        ],
        6,
    )
    assert abelian_ideal_check(iso_sc, translation_span)
    iso_der = liealg.derivations(iso_sc)
    assert (iso_der.dimension, iso_der.inner_dimension, iso_der.outer_dimension) == (7, 6, 1)
    diag = [[Fraction(0)] * 6 for _ in range(6)]
    for idx in (1, 3, 5):  # g2, g4, g6
        diag[idx][idx] = Fraction(1)
    assert is_derivation(iso_sc, diag)
    assert not in_inner_span(iso_sc, diag)

    levi_sc = _set_constants(problem, "isometry_levi")
    assert liealg.classify_3dim_simple(levi_sc) == "so3-type"
    kappa = liealg.killing_form(levi_sc)
    assert kappa == [{a: -H} for a in range(3)]
    print("PASS criterion 4: flat-metric radical, ideals, derivations, so3 part")


# ---------------------------------------------------------------------------
# criterion 5: semisimplicity of the isometry algebra vs curvature nullity
# ---------------------------------------------------------------------------


def test_acceptance_05_semisimplicity_matches_nullity_and_derived():
    cases = [
        ("example1.json", HYPERBOLIC_SHELL, "connection_symmetries", 0),
        ("example2.json", PRODUCT_BLOCKS, "connection_symmetries", 0),
        ("section5.json", FLAT_EXPONENTIAL, "isometries", 3),
    ]
    for fname, entries, set_name, expected_nullity in cases:
        _metric, _spray, _connection, curv = build_pipeline(entries)
        points = cli.sample_points(curv.dim, 10, 0)
        nullity_dim = curv.dim - nullity_rank_numeric(curv, points)
        assert nullity_dim == expected_nullity, fname

        problem = _load(fname)
        sc = _set_constants(problem, set_name)
        derived_is_whole = liealg.derived_subalgebra(sc).dim == sc.dim
        assert liealg.is_semisimple(sc) == (nullity_dim == 0 and derived_is_whole), fname
    print("PASS criterion 5: semisimple iff trivial nullity and perfect algebra")


# ---------------------------------------------------------------------------
# criterion 6: structural identities, exact, on fixed and random metrics
# ---------------------------------------------------------------------------


def test_acceptance_06_structural_identities_exact():
    metrics = [HYPERBOLIC_SHELL, PRODUCT_BLOCKS, FLAT_EXPONENTIAL]
    metrics += [random_diag_entries(seed, 3) for seed in RANDOM_METRIC_SEEDS]
    for entries in metrics:
        _metric, spray, connection, curv = build_pipeline(entries)
        results = cli._check_structural_identities(spray, connection, curv)
        for name, ok in results.items():
            assert ok, f"{entries}: {name}"

    # complete lift turns base brackets into tangent-bundle brackets
    rng = random.Random(7)
    pool = ["0", "1", "x1", "x2", "x1*x2", "exp(x1)", "exp(x1 - x2)", "x1^2/2", "-x2"]
    for _ in range(50):
        a = base_field(*[rng.choice(pool) for _ in range(2)])
        b = base_field(*[rng.choice(pool) for _ in range(2)])
        lhs = complete_lift(bracket_base(a, b))
        rhs = bracket_tm(complete_lift(a), complete_lift(b))
        assert (lhs - rhs).is_zero()

    # Jacobi holds in every structure-constant table the corpus produces
    for fname in ("example1.json", "example2.json", "section5.json"):
        problem = _load(fname)
        for set_name in problem.sets:
            sc = _set_constants(problem, set_name)
            ok, witness = liealg.jacobi_check(sc)
            assert ok, f"{fname}:{set_name} fails Jacobi at {witness}"
    print("PASS criterion 6: exact structural identities, lifts, Jacobi")


# ---------------------------------------------------------------------------
# criterion 7: numeric oracles within stated tolerances
# ---------------------------------------------------------------------------


def test_acceptance_07_numeric_oracles_within_tolerance():
    for entries in (HYPERBOLIC_SHELL, PRODUCT_BLOCKS, FLAT_EXPONENTIAL):
        metric, spray, connection, curv = build_pipeline(entries)
        n = metric.dim
        points = cli.sample_points(n, 10, 0)

        # derivatives against central differences at step 1e-4
        problem_stub = cli.Problem(
            name="stub",
            dim=n,
            coordinates=tuple(f"x{i}" for i in range(1, n + 1)),
            metric=metric,
            fields={},
            sets={},
            expected_tables={},
            expected_coeffs={},
            accepted_corrections={},
            analyses=(),
        )
        for target in ["E"] + [f"G{k}" for k in range(1, n + 1)]:
            _label, worst, _tol = cli._oracle_fd(problem_stub, points, target)
            assert worst <= 1e-6, f"{entries}: {target} deviation {worst}"

        # every structural identity evaluated pointwise
        component_form = geom.curvature_two_form(curv)
        h, v = geom.projectors(connection)
        J = geom.tangent_structure(n)
        C = geom.liouville(n)
        S = spray_field(spray)
        devs = [
            cli._form_max_dev(
                component_form, geom.curvature_via_projector(connection), points
            ),
            cli._form_max_dev(
                component_form, geom.curvature_via_almost_product(connection), points
            ),
            cli._form_max_dev(
                geom.connection_via_bracket(spray),
                geom.connection_oneform(connection),
                points,
            ),
            cli._form_max_dev(h.compose(h), h, points),
            cli._form_max_dev(h + v, VectorOneForm.identity(n), points),
            cli._field_max_dev(bracket_tm(C, S), S, points),
            cli._form_max_dev(lie_derivative_oneform(C, J), -J, points),
        ]
        for dev in devs:
            assert dev <= 1e-12, f"{entries}: pointwise deviation {dev}"
    print("PASS criterion 7: derivative and identity oracles within tolerance")


# ---------------------------------------------------------------------------
# criterion 8: horizontal decay frame and constant-field nullity
# ---------------------------------------------------------------------------


def test_acceptance_08_decay_frame_and_constant_nullity(flat_pipeline):
    _metric, _spray, connection, curv = flat_pipeline
    decay = [
        base_field("exp(-x1/2)", "0", "0"),
        base_field("0", "exp(-x2/2)", "0"),
        base_field("0", "0", "exp(-x3/2)"),
    ]
    for k, field in enumerate(decay, start=1):
        assert is_horizontal(field, connection), f"component {k}"
        assert in_nullity(field, curv), f"component {k}"
    for a in range(3):
        for b in range(3):
            assert bracket_base(decay[a], decay[b]).is_zero()

    for entries in (HYPERBOLIC_SHELL, PRODUCT_BLOCKS):
        _m, _s, _c, curved = build_pipeline(entries)
        assert constant_nullity_kernel(curved) == 0
    print("PASS criterion 8: decay frame horizontal and null, curved kernels trivial")
