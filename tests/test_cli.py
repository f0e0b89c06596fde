"""End-to-end tests of the command-line interface against the shipped corpus."""

import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spraylie import cli, fields, geom, liealg
from spraylie.fields import nullity_rank_numeric
from spraylie.symexpr import MAX_REDUCED_DEGREE, const, specialize
from tests.conftest import child_env
from tests.test_liealg import _sl2_over_biquadratic

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "spraylie.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    return proc


# ---------------------------------------------------------------------------
# combination parsing and rendering
# ---------------------------------------------------------------------------


def test_parse_combination_verbatim_styles():
    labels = ["e1", "e2", "e6"]
    assert cli.parse_combination("0", labels) == {}
    assert cli.parse_combination("e2/2", labels) == {1: Fraction(1, 2)}
    assert cli.parse_combination("-e1/2+e6/2", labels) == {0: Fraction(-1, 2), 2: Fraction(1, 2)}
    assert cli.parse_combination("-2*e1", labels) == {0: -2}
    assert cli.parse_combination("3/2*e2 - e6", labels) == {1: Fraction(3, 2), 2: -1}


def test_parse_combination_roundtrips_renderer():
    labels = ["e1", "e2", "e3"]
    coeffs = {0: Fraction(-1, 2), 2: Fraction(5, 3)}
    text = cli.render_combination(coeffs, labels)
    assert text == "-1/2*e1 + 5/3*e3"
    assert cli.parse_combination(text, labels) == coeffs


def test_parse_combination_rejects_unknown_generator():
    with pytest.raises(cli.InputError):
        cli.parse_combination("e1 + q7", ["e1", "e2"])


def test_parse_combination_accumulates_duplicates():
    assert cli.parse_combination("e1 + e1/2", ["e1"]) == {0: Fraction(3, 2)}
    # a coefficient that cancels is not stored
    assert cli.parse_combination("e1 + e2 - e1", ["e1", "e2"]) == {1: 1}


_SECTION5_LABELS = [f"e{i}" for i in range(1, 13)]


@pytest.mark.parametrize(
    "text, message",
    [
        # each of the first three read as another combination of section5's labels
        ("e1 0", "cannot parse combination 'e1 0' at position 3"),
        ("1 2*e3", "cannot parse combination '1 2*e3' at position 0"),
        ("e 1", "combination 'e 1' uses unknown generator 'e'"),
        ("e1 2*e3", "cannot parse combination 'e1 2*e3' at position 3"),
        # positions count the text as written, spaces included
        ("e1 +   e2 + 3**e1", "cannot parse combination 'e1 +   e2 + 3**e1' at position 12"),
        ("e1 + e2/0", "combination 'e1 + e2/0' divides by zero at position 5"),
        # every term after the first starts with its sign
        ("e1/2e2", "cannot parse combination 'e1/2e2' at position 4"),
    ],
)
def test_parse_combination_keeps_spaces_out_of_numbers_and_names(text, message):
    with pytest.raises(cli.InputError) as info:
        cli.parse_combination(text, _SECTION5_LABELS)
    assert str(info.value) == message


def test_parse_combination_reads_spaces_between_tokens():
    labels = _SECTION5_LABELS
    assert cli.parse_combination(" 3 / 2 * e2 - e6 / 2 ", labels) == {1: Fraction(3, 2), 5: Fraction(-1, 2)}
    assert cli.parse_combination("- e1", labels) == {0: -1}
    assert cli.parse_combination("  0 ", labels) == {}
    assert cli.parse_combination("e12", labels) == {11: 1}


def test_render_combination_zero():
    assert cli.render_combination({}, ["e1"]) == "0"


def test_render_combination_reads_a_sparse_row_in_column_order():
    # a kernel row holds its free column first, then the pivots
    row = {2: Fraction(1), 0: Fraction(-1)}
    assert cli.render_combination(row, ["e1", "e2", "e3"]) == "-e1 + e3"


# ---------------------------------------------------------------------------
# problem loading
# ---------------------------------------------------------------------------


def test_load_problem_corpus_files():
    for name, nsets in (("example1.json", 1), ("example2.json", 3), ("section5.json", 4)):
        problem = cli.load_problem(PROBLEMS / name)
        assert len(problem.sets) == nsets
        assert problem.metric.dim == problem.dim


def test_load_problem_parses_each_distinct_text_once(tmp_path, monkeypatch):
    texts = []
    parse = cli.parse_expr
    monkeypatch.setattr(cli, "parse_expr", lambda text: texts.append(text) or parse(text))
    cli.load_problem(PROBLEMS / "section5.json")
    assert len(texts) == len(set(texts))
    # a bad text is not stored, so it fails at its first cell
    doc = {"dim": 2, "metric": {"kind": "diagonal", "entries": [["1", "x1^"], ["x1^", "1"]]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InputError, match=r"^metric entry \(1,2\): line 1, col 4: "):
        cli.load_problem(path)


def test_load_problem_parses_each_distinct_table_text_once_per_set(tmp_path, monkeypatch):
    texts = []
    parse = cli.parse_combination
    monkeypatch.setattr(
        cli, "parse_combination", lambda text, labels: texts.append((labels, text)) or parse(text, labels)
    )
    problem = cli.load_problem(PROBLEMS / "section5.json")
    assert len(texts) == len(set(texts))
    for name, table in problem.expected_tables.items():
        assert sum(labels == problem.sets[name] for labels, _text in texts) == len(
            {cell for row in table for cell in row}
        )
    # a bad text is not stored, so it fails at its first cell
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_small_problem(expected_tables={"s": [["0", "e3"], ["e3", "0"]]})))
    with pytest.raises(cli.InputError, match=r"^expected table for 's' cell \(1,2\): "):
        cli.load_problem(path)


@pytest.mark.parametrize(
    "stem, expressions, combinations",
    [("example1", 12, 21), ("example2", 9, 13), ("section5", 17, 38)],
)
def test_load_problem_work_counts(monkeypatch, stem, expressions, combinations):
    """One `parse_expr` per distinct cell text of the file, one
    `parse_combination` per distinct cell text of each expected table.  A
    change that parses a text again raises a count and fails here."""
    counts = {"expr": 0, "combination": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cli, "parse_expr", counted("expr", cli.parse_expr))
    monkeypatch.setattr(cli, "parse_combination", counted("combination", cli.parse_combination))
    cli.load_problem(PROBLEMS / f"{stem}.json")
    assert counts == {"expr": expressions, "combination": combinations}


def test_load_problem_flat_diagonal_entry_list(tmp_path):
    doc = {
        "name": "flat-entries",
        "dim": 2,
        "metric": {"kind": "diagonal", "entries": ["exp(x1)", "1"]},
        "fields": {"e1": ["1", "0"]},
        "sets": {"s": ["e1"]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    problem = cli.load_problem(path)
    assert problem.metric.kind == "diagonal"
    assert str(problem.metric.g[0][0]) == "exp(x1)"


def test_flat_diagonal_list_loads_the_metric_of_the_nested_matrix(tmp_path):
    dim = 200
    diagonal = ["1" if i % 2 else f"2*exp(x{i + 1})" for i in range(dim)]
    nested = [[diagonal[i] if i == j else "0" for j in range(dim)] for i in range(dim)]
    metrics = []
    for entries in (diagonal, nested):
        path = tmp_path / "p.json"
        doc = {"dim": dim, "metric": {"kind": "diagonal", "entries": entries}}
        path.write_text(json.dumps(doc))
        metrics.append(cli.load_problem(path).metric)
    assert metrics[0] == metrics[1]


def test_a_dim_above_the_largest_coordinate_index_exits_one(tmp_path):
    path = tmp_path / "wide.json"
    doc = {"dim": 1001, "metric": {"kind": "diagonal", "entries": ["1"] * 1001}}
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: dim 1001 exceeds 1000, the largest coordinate index\n"


def test_load_problem_rejects_fibre_dependent_field(tmp_path):
    doc = {
        "dim": 2,
        "metric": {"kind": "diagonal", "entries": ["1", "1"]},
        "fields": {"e1": ["y1", "0"]},
        "sets": {"s": ["e1"]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InputError, match="fibre"):
        cli.load_problem(path)


def test_load_problem_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        '{"dim": 2, "dim": 3, "metric": {"kind": "diagonal", "entries": ["1", "1"]}}'
    )
    with pytest.raises(cli.InputError, match="duplicate"):
        cli.load_problem(path)


def test_load_problem_rejects_out_of_range_index(tmp_path):
    doc = {
        "dim": 2,
        "metric": {"kind": "diagonal", "entries": ["1", "1"]},
        "fields": {"e1": ["x3", "0"]},
        "sets": {"s": ["e1"]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InputError, match="index"):
        cli.load_problem(path)


def test_load_problem_validates_expected_table_shape(tmp_path):
    doc = {
        "dim": 2,
        "metric": {"kind": "diagonal", "entries": ["1", "1"]},
        "fields": {"e1": ["1", "0"], "e2": ["0", "1"]},
        "sets": {"s": ["e1", "e2"]},
        "expected_tables": {"s": [["0", "0"]]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InputError, match="2x2"):
        cli.load_problem(path)


# ---------------------------------------------------------------------------
# analyze: golden corpus
# ---------------------------------------------------------------------------


def test_analyze_example1_exits_clean():
    proc = run_cli("analyze", str(PROBLEMS / "example1.json"))
    assert proc.returncode == 0
    assert "all 36 cells match" in proc.stdout
    assert "- none" in proc.stdout.split("## Discrepancies")[1]
    assert "simple: yes" in proc.stdout


def test_analyze_example2_exits_clean():
    proc = run_cli("analyze", str(PROBLEMS / "example2.json"))
    assert proc.returncode == 0
    assert "all 36 cells match" in proc.stdout
    assert proc.stdout.count("3-dim classification: sl2-type") == 2


def test_analyze_section5_accepts_exactly_three_corrections():
    proc = run_cli("analyze", str(PROBLEMS / "section5.json"))
    assert proc.returncode == 0
    tail = proc.stdout.split("## Discrepancies")[1]
    assert tail.count("accepted correction") == 3
    assert "UNRESOLVED" not in tail
    assert "[e2,e8]" in tail and "[e8,e2]" in tail and "[e10,e7]" in tail
    assert "141 of 144 cells match" in proc.stdout


def test_analyze_section5_json_structure():
    proc = run_cli("analyze", str(PROBLEMS / "section5.json"), "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pipeline"]["curvature_zero"] is True
    assert doc["pipeline"]["numeric_nullity"]["nullity_dimension"] == 3
    cells = {(m["row"], m["col"]) for m in doc["discrepancies"]}
    assert cells == {("e2", "e8"), ("e8", "e2"), ("e10", "e7")}
    spray_set = next(s for s in doc["sets"] if s["name"] == "spray_symmetries")
    assert spray_set["algebra"]["derived_dimension"] == 11
    assert spray_set["algebra"]["radical"]["basis"] == [
        "e1 + e6 + e11",
        "e3",
        "e7",
        "e12",
    ]
    levi_set = next(s for s in doc["sets"] if s["name"] == "isometry_levi")
    assert levi_set["algebra"]["three_dim_class"] == "so3-type"
    iso_set = next(s for s in doc["sets"] if s["name"] == "isometries")
    assert iso_set["algebra"]["derivations"] == {"dimension": 7, "inner": 6, "outer": 1}


def test_analyze_lifts_each_field_once_and_builds_one_energy(monkeypatch, capsys):
    lifted, energies = [], []
    lift, energy = fields.complete_lift, geom.energy_from_metric

    def counted_lift(field):
        lifted.append(id(field))
        return lift(field)

    def counted_energy(metric):
        energies.append(metric)
        return energy(metric)

    monkeypatch.setattr(fields, "complete_lift", counted_lift)
    monkeypatch.setattr(geom, "energy_from_metric", counted_energy)
    assert cli.main(["analyze", str(PROBLEMS / "section5.json"), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["membership"]
    # isometry rows need X^c(E) beside [X^c, S], from the same lift
    assert any(row["isometry"] for row in rows)
    assert len(lifted) == len(set(lifted)) == len(rows) == 18
    assert len(energies) == 1


@pytest.mark.parametrize("seed", [13, 14, 24, 28, 40])
def test_section5_verdicts_do_not_depend_on_the_sample_point(seed, capsys):
    # At these seeds the single point has x2 = x3, where e2 - e4 vanishes, so
    # both the expected and the computed [e2,e8] deviate by 0 there.
    argv = ["analyze", str(PROBLEMS / "section5.json"), "--points", "1", "--format", "json"]
    assert cli.main([*argv, "--seed", str(seed)]) == 0
    discrepancies = json.loads(capsys.readouterr().out)["discrepancies"]
    assert len(discrepancies) == 3
    assert all(m["accepted_correction"] for m in discrepancies)


def test_analyze_report_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a.md"
    out_b = tmp_path / "b.md"
    for out in (out_a, out_b):
        proc = run_cli("analyze", str(PROBLEMS / "section5.json"), "--out", str(out))
        assert proc.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_analyze_unmarked_mismatch_exits_two(tmp_path):
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    doc["expected_tables"]["connection_symmetries"][0][2] = "e2"
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "UNRESOLVED" in proc.stdout


def test_analyze_partially_marked_corrections_still_fail(tmp_path):
    # unmark one of the three known bad cells; the other two stay accepted
    # but the orphaned mismatch must fail the run
    doc = json.loads((PROBLEMS / "section5.json").read_text())
    doc["accepted_corrections"]["spray_symmetries"] = [["e2", "e8"], ["e8", "e2"]]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    tail = proc.stdout.split("## Discrepancies")[1]
    assert tail.count("accepted correction") == 2
    assert tail.count("UNRESOLVED") == 1


def test_analyze_marking_a_matching_cell_is_harmless(tmp_path):
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    doc["accepted_corrections"] = {"connection_symmetries": [["e1", "e4"]]}
    path = tmp_path / "marked.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 0
    assert "- none" in proc.stdout.split("## Discrepancies")[1]


def _affine_problem(n: int) -> dict:
    """aff(n) as vector fields on flat R^n: translations, then x_j d_i."""
    zero = ["0"] * n
    fields = {}
    for i in range(n):
        fields[f"e{i + 1}"] = zero[:i] + ["1"] + zero[i + 1 :]
    for i in range(n):
        for j in range(n):
            fields[f"e{n + n * i + j + 1}"] = zero[:i] + [f"x{j + 1}"] + zero[i + 1 :]
    return {
        "name": f"aff{n}",
        "dim": n,
        "metric": {"kind": "diagonal", "entries": ["1"] * n},
        "fields": fields,
        "sets": {"aff": list(fields)},
    }


def test_analyze_aff4_reports_every_invariant_and_its_translation_ideal(tmp_path, capsys):
    path = tmp_path / "aff4.json"
    path.write_text(json.dumps(_affine_problem(4)))
    assert cli.main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    translations = "dimension 4 (e1, e2, e3, e4); ideal: yes; abelian: yes"
    assert f"- horizontal nullity subspace: {translations}" in out
    assert f"- constant subspace: {translations}" in out
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    algebra = json.loads(capsys.readouterr().out)["sets"][0]["algebra"]
    assert algebra["dimension"] == 20
    assert algebra["radical"]["dimension"] == 5
    assert algebra["levi"]["complement_dimension"] == 15
    assert algebra["center_dimension"] == 0
    assert algebra["derivations"]["dimension"] == 20
    assert algebra["simple"] is False


def _rotation_problem(n: int) -> dict:
    """so(n) as the rotations x_i d_j - x_j d_i on flat R^n, dimension n(n-1)/2."""
    fields = {}
    for i in range(n):
        for j in range(i + 1, n):
            comps = ["0"] * n
            comps[i], comps[j] = f"-x{j + 1}", f"x{i + 1}"
            fields[f"r{i + 1}{j + 1}"] = comps
    return {
        "name": f"so{n}",
        "dim": n,
        "metric": {"kind": "diagonal", "entries": ["1"] * n},
        "fields": fields,
        "sets": {"so": list(fields)},
    }


def test_analyze_so7_is_simple_from_its_centroid(tmp_path, capsys):
    path = tmp_path / "so7.json"
    path.write_text(json.dumps(_rotation_problem(7)))
    assert cli.main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "- semisimple: yes" in out
    assert "- simple: yes" in out
    assert "- horizontal nullity subspace: none" in out
    assert "- constant subspace: none" in out
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    algebra = json.loads(capsys.readouterr().out)["sets"][0]["algebra"]
    assert algebra["dimension"] == 21
    assert algebra["semisimple"] is True
    assert algebra["simple"] is True
    assert "simple_skipped" not in algebra
    # a zero subspace carries no verdicts, so nothing passes vacuously
    assert algebra["horizontal_nullity_subspace"] == {"dimension": 0, "basis": []}
    assert algebra["constant_subspace"] == {"dimension": 0, "basis": []}


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_analyze_reports_a_simplicity_limit_as_skipped(tmp_path, capsys, fmt):
    """sl(2, Q(sqrt2, sqrt3)) as the linear fields Y_a = -(ad a x) d on flat R^12:
    [Y_a, Y_b] = Y_[a,b], and its centroid, of dimension 4, has no rational eigenvalue."""
    sc = _sl2_over_biquadratic()
    m = sc.dim
    components = [[[] for _ in range(m)] for _ in range(m)]  # [a][k]: terms of Y_a^k
    for (a, l), entries in sc.nonzero.items():
        for k, q in entries:
            components[a][k].append(f"{-q}*x{l + 1}")
    labels = [f"Y{a + 1}" for a in range(m)]
    doc = {
        "name": "sl2-biquadratic",
        "dim": m,
        "metric": {"kind": "diagonal", "entries": ["1"] * m},
        "fields": {
            label: [" + ".join(terms) or "0" for terms in comps]
            for label, comps in zip(labels, components)
        },
        "sets": {"sl2K": labels},
    }
    path = tmp_path / "sl2k.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    skipped = "centroid dimension 4 > 3 with no rational eigenvalue"
    if fmt == "md":
        assert f"- simple: skipped ({skipped})\n" in out
    else:
        algebra = json.loads(out)["sets"][0]["algebra"]
        assert algebra["semisimple"] is True
        assert algebra["simple"] is None
        assert algebra["simple_skipped"] == skipped


def test_analyze_finishes_on_generators_scaled_by_large_primes(tmp_path):
    # the set still closes, but the centroid's minimal polynomial gets
    # prime-sized coefficients, which no rational-root search may factor
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    primes = [1000000007, 998244353, 1000000009, 754974721, 167772161, 469762049]
    doc["fields"] = {
        name: [f"{p}*({c})" for c in comps]
        for (name, comps), p in zip(doc["fields"].items(), primes)
    }
    del doc["expected_tables"]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "- simple: yes" in proc.stdout


def test_jacobi_failure_names_generators_and_residual():
    # [a,b] = a and [b,c] = b, antisymmetric, with Jacobi sum on (a, b, c)
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = [a,c] + [b,a] + 0 = -a
    zero, one = Fraction(0), Fraction(1)
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 0), (1, 2, 1)):
        table[i][j][k], table[j][i][k] = one, -one
    sc = liealg.StructureConstants(
        ("a", "b", "c"), tuple(tuple(tuple(r) for r in p) for p in table)
    )
    # the Jacobi check comes first, so no generators, connection or curvature are reached
    with pytest.raises(geom.InvariantViolation) as info:
        cli._analyze_algebra("broken", sc, [], None, None)
    assert str(info.value) == (
        "Jacobi identity failed for set 'broken' at generators (a, b, c): coefficient of a is -1"
    )


def _stages(metric: geom.MetricSpec):
    """Spray, connection and curvature of a metric."""
    spray = geom.spray_from_metric(metric)
    connection = geom.connection_from_spray(spray)
    return spray, connection, geom.curvature(connection)


@pytest.mark.parametrize("name, rank", [("example1", 3), ("example2", 4), ("section5", 0)])
def test_numeric_nullity_rank_is_known_at_every_seed(name, rank):
    problem = cli.load_problem(PROBLEMS / f"{name}.json")
    _spray, _connection, curvature = _stages(problem.metric)
    for seed in range(50):
        for count in (1, 10):
            points = cli.sample_points(problem.dim, count, seed)
            assert nullity_rank_numeric(curvature, points) == rank, (seed, count)


def _nullity_rank_by_brute_force(curvature, points):
    """Max over every point of the rank of every row (k, i, j), zero rows included."""
    sympy = pytest.importorskip("sympy")
    n = curvature.dim
    entries = [
        curvature.R1[k][i][j].diff(f"y{l + 1}")
        for k in range(n)
        for i in range(n)
        for j in range(i + 1, n)
        for l in range(n)
    ]
    best = 0
    for point in points:
        values = specialize(entries, point)
        rows = [values[r : r + n] for r in range(0, len(values), n)]
        best = max(best, sympy.Matrix(rows).rank() if rows else 0)
    return best


@pytest.mark.parametrize("name", ["example1", "example2", "section5", "flat-h7"])
def test_nullity_rank_equals_the_brute_force_maximum(name):
    if name == "flat-h7":
        dim, metric = 7, geom.diagonal_metric([const(1)] * 7)
    else:
        problem = cli.load_problem(PROBLEMS / f"{name}.json")
        dim, metric = problem.dim, problem.metric
    _spray, _connection, curvature = _stages(metric)
    for seed in (0, 7):
        for count in (1, 3, 10):
            points = cli.sample_points(dim, count, seed)
            expected = _nullity_rank_by_brute_force(curvature, points)
            assert nullity_rank_numeric(curvature, points) == expected, (seed, count)


def test_nullity_probe_finishes_on_a_huge_common_exponent(tmp_path, capsys):
    # exp(10^12*x3) specializes through exp(x3) -> y3^(10^12) unless the
    # exponent gcd of x3 is divided out first
    huge = "exp(1000000000000*x3)"
    doc = {"name": "huge", "dim": 3, "metric": {"kind": "diagonal", "entries": [huge, huge, "1"]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    # the unbounded specialization never finished; 10 s leaves room for a loaded runner
    assert time.perf_counter() - start < 10.0
    nullity = json.loads(capsys.readouterr().out)["pipeline"]["numeric_nullity"]
    assert (nullity["rank"], nullity["nullity_dimension"]) == (3, 0)


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_nullity_probe_skips_mixed_exponents_above_the_degree_cap(fmt, tmp_path, capsys):
    # exp(10^12*x3) beside exp(x3): the gcd of x3's exponents is 1, so the
    # probe would raise a sample value to a power near 10^12; it is a limit
    entries = ["exp(1000000000000*x3)", "exp(x3)", "1"]
    doc = {"name": "mixed", "dim": 3, "metric": {"kind": "diagonal", "entries": entries}}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["analyze", str(path), "--format", fmt]) == 0
    # the uncapped specialization ran for more than 20 s; 10 s leaves room for a loaded runner
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out
    if fmt == "json":
        nullity = json.loads(out)["pipeline"]["numeric_nullity"]
        assert "rank" not in nullity
        skipped = nullity["skipped"]
    else:
        line = next(l for l in out.splitlines() if l.startswith("- numeric nullity:"))
        skipped = line.removeprefix("- numeric nullity: skipped (").removesuffix(")")
    degree, cap = re.fullmatch(r"exponent degree (\d+) > cap (\d+)", skipped).groups()
    assert int(cap) == MAX_REDUCED_DEGREE < int(degree)


CURVATURE_IDENTITIES = ("curvature equals half the horizontal self-bracket",)


def _named_stages(name: str):
    if name == "flat":
        return _stages(geom.diagonal_metric([const(1)] * 3))
    return _stages(cli.load_problem(PROBLEMS / f"{name}.json").metric)


def _assert_witnessed(verdict):
    assert not verdict
    assert verdict.location
    assert verdict.residual is not None and not verdict.residual.is_zero()


@pytest.mark.parametrize("own, foreign", [("example1", "section5"), ("section5", "example1")])
def test_structural_identities_fail_on_a_foreign_curvature(own, foreign):
    spray, connection, curvature = _named_stages(own)
    assert all(cli._check_structural_identities(spray, connection, curvature).values())
    _, _, other_curvature = _named_stages(foreign)
    results = cli._check_structural_identities(spray, connection, other_curvature)
    for name in CURVATURE_IDENTITIES:
        _assert_witnessed(results[name])
    assert all(ok for name, ok in results.items() if name not in CURVATURE_IDENTITIES)


CONNECTION_IDENTITY = "spray-tangent bracket reproduces the connection"




@pytest.mark.parametrize(
    "own, foreign",
    [("example1", "section5"), ("section5", "example1"), ("flat", "example1"), ("flat", "section5")],
)
def test_structural_identities_fail_on_a_foreign_connection(own, foreign):
    """On flat R^3 the own spray is zero, so nearly every derivative is skipped."""
    spray, connection, curvature = _named_stages(own)
    assert all(cli._check_structural_identities(spray, connection, curvature).values())
    assert (own == "flat") == all(g.is_zero() for g in spray.G)
    _, other_connection, other_curvature = _named_stages(foreign)
    results = cli._check_structural_identities(spray, other_connection, other_curvature)
    _assert_witnessed(results[CONNECTION_IDENTITY])
    assert all(ok for name, ok in results.items() if name != CONNECTION_IDENTITY)


def test_analyze_names_the_witness_of_a_failed_identity(monkeypatch, capsys):
    spray, connection, _ = _named_stages("example1")
    _, _, foreign = _named_stages("section5")
    monkeypatch.setattr(geom, "curvature", lambda connection: foreign)
    verdict = cli._check_structural_identities(spray, connection, foreign)[CURVATURE_IDENTITIES[0]]
    assert cli.main(["analyze", str(PROBLEMS / "example1.json")]) == 3
    err = capsys.readouterr().err
    assert f"structural identity failed: {CURVATURE_IDENTITIES[0]} at frame pair (" in err
    assert f"{verdict.location}: {verdict.residual}" in err


def test_cli_import_does_not_load_numpy():
    """Neither numpy nor the test-only sympy reaches the command-line program."""
    probe = "import sys, spraylie.cli; print([m for m in ('numpy', 'sympy') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_analyze_missing_file_exits_one():
    proc = run_cli("analyze", "/no/such/file.json")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_analyze_unwritable_out_exits_one(tmp_path):
    target = tmp_path / "missing" / "report.md"
    proc = run_cli("analyze", str(PROBLEMS / "example1.json"), "--out", str(target))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write {target}:")
    assert "Traceback" not in proc.stderr
    assert not target.parent.exists()


def test_output_the_locale_cannot_encode(tmp_path, capsys):
    """Under an ASCII locale, `--out` still writes the report as UTF-8, and a
    report that stdout cannot encode exits 1 with a message."""
    path = tmp_path / "alpha.json"
    doc = _small_problem(fields={"α": ["0", "1"], "e2": ["x1", "x2"]}, sets={"s": ["α", "e2"]})
    del doc["expected_tables"], doc["accepted_corrections"]
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert cli.main(["analyze", str(path)]) == 0
    report = capsys.readouterr().out
    assert "α" in report
    env = {**child_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def run(*argv):
        command = [sys.executable, "-m", "spraylie.cli", "analyze", str(path), *argv]
        return subprocess.run(command, capture_output=True, timeout=120, env=env)

    out = tmp_path / "report.md"
    proc = run("--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == report.encode("utf-8")
    proc = run()
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error:")
    assert b"Traceback" not in proc.stderr


def test_analyze_invalid_json_exits_one(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1


def _small_problem(**blocks) -> dict:
    doc = {
        "name": "small",
        "dim": 2,
        "coordinates": ["x1", "x2"],
        "metric": {"kind": "diagonal", "entries": ["exp(x1)", "1"]},
        "fields": {"e1": ["0", "1"], "e2": ["x1", "x2"]},
        "sets": {"s": ["e1", "e2"]},
        "expected_tables": {"s": [["0", "e1"], ["-e1", "0"]]},
        "accepted_corrections": {"s": [["e1", "e2"]]},
        "analyses": ["pipeline", "membership", "tables", "algebra"],
    }
    doc.update(blocks)
    return doc


@pytest.mark.parametrize(
    "blocks, message",
    [
        *(
            pytest.param(blocks, None, id=json.dumps(blocks)[:40])
            for blocks in (
                {"coordinates": 5},
                {"coordinates": ["a", "a"]},
                {"fields": [1]},
                {"sets": [1]},
                {"metric": {"kind": "general", "entries": [["1", "0"], ["0", "1"]], "inverse": 5}},
                {"analyses": 5},
                {"accepted_corrections": {"s": 5}},
                {"sets": {"s": [["a"]]}},
                {"name": 7},
                {"name": ["a"]},
            )
        ),
        *(
            pytest.param({"metric": metric}, message, id=f"metric {name}")
            for name, metric, message in (
                ("missing", None, "metric block is required"),
                (
                    "unknown kind",
                    {"kind": "round", "entries": ["1", "1"]},
                    "metric kind must be 'diagonal' or 'general'",
                ),
                (
                    "flat list of a general metric",
                    {"kind": "general", "entries": ["1", "1"]},
                    "flat metric entry list is only allowed for diagonal metrics",
                ),
                (
                    "flat list of the wrong length",
                    {"kind": "diagonal", "entries": ["1"]},
                    "flat metric entry list must hold 2 entries",
                ),
                (
                    "cell that is not a string",
                    {"kind": "diagonal", "entries": [5, "1"]},
                    "metric entry (1,1): expected an expression string, got int",
                ),
                (
                    "general without inverse",
                    {"kind": "general", "entries": [["1", "0"], ["0", "1"]]},
                    "general metrics require an 'inverse' matrix",
                ),
                (
                    "rejected by the metric",
                    {"kind": "diagonal", "entries": ["1 + x1", "1"]},
                    "metric: diagonal metric entries must be single terms c*exp(l(x))",
                ),
            )
        ),
        *(
            pytest.param(blocks, message, id=name)
            for name, blocks, message in (
                (
                    "field of the wrong length",
                    {"fields": {"e1": ["0"], "e2": ["x1", "x2"]}},
                    "field 'e1' must list 2 component expressions",
                ),
                ("empty set", {"sets": {"s": []}}, "set 's' must be a nonempty list of field names"),
                ("set repeating a field", {"sets": {"s": ["e1", "e1"]}}, "set 's' repeats a field name"),
                (
                    "correction that is not a pair",
                    {"accepted_corrections": {"s": [["e1"]]}},
                    "accepted_corrections cells must be [row, col] pairs",
                ),
                (
                    "correction outside the set",
                    {"accepted_corrections": {"s": [["e1", "e3"]]}},
                    "accepted_corrections cell (e1,e3) is outside the set",
                ),
                (
                    "table cell that does not parse",
                    {"expected_tables": {"s": [["0", "e1*"], ["-e1", "0"]]}},
                    "expected table for 's' cell (1,2): cannot parse combination 'e1*' at position 2",
                ),
            )
        ),
        *(
            pytest.param({"metric": {"kind": "diagonal", "entries": [entry, "1"]}}, None, id=f"metric {name}")
            for name, entry in (
                ("nested parentheses", "(" * 3000 + "1" + ")" * 3000),
                ("nested unary minus", "-" * 3000 + "1"),
                ("long literal", "1" * 5000),
                ("long variable index", "x" + "1" * 5000),
                ("long exponent", "2^" + "9" * 5000),
                ("large exponent", "2^99999"),
                ("large variable exponent", "x1^99999999"),
                ("non-ascii digit", "x\u00b2"),
                ("power with too many terms", "(x1+x2+x3+x4)^40"),
                ("long coefficient from a power", "((2^100)^100)^100"),
                ("long coefficient from a product", "*".join(["9" * 99] * 50)),
            )
        ),
        *(
            pytest.param({"expected_tables": {"s": [["0", cell], ["-e1", "0"]]}}, None, id=f"table cell {name}")
            for name, cell in (
                ("zero denominator", "e1/0"),
                ("zero over zero", "0/0*e1"),
                ("long coefficient", "1" * 5000 + "*e1"),
                ("long denominator", "e1/" + "1" * 5000),
            )
        ),
    ],
)
def test_malformed_block_exits_one_with_a_message(tmp_path, blocks, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_small_problem(**blocks)))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    if message is not None:
        assert proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", [7, ["a"]])
def test_a_name_that_is_not_a_string_exits_one(tmp_path, capsys, name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps(_small_problem(name=name)))
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: name must be a string\n"


def test_a_null_name_takes_the_file_stem(tmp_path, capsys):
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps(_small_problem(name=None)))
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.startswith("# Analysis report: unnamed\n")


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'\xff\xfe{"dim": 1}', "not UTF-8: "),
        (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: nested too deeply\n"),
        (b"[1]", "top level must be an object\n"),
    ],
    ids=["not UTF-8", "nested too deeply", "top level not an object"],
)
def test_unreadable_file_exits_one_with_a_message(tmp_path, content, reason):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: {reason}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["table", "--set", "s"], ["analyze"]])
def test_all_zero_generators_exit_one_as_dependent(tmp_path, command):
    path = tmp_path / "zero.json"
    doc = {"dim": 1, "metric": {"kind": "diagonal", "entries": ["1"]}, "fields": {"Z": ["0"]}, "sets": {"s": ["Z"]}}
    path.write_text(json.dumps(doc))
    proc = run_cli(*command, str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: set 's': generators are linearly dependent over the rationals\n"
    assert "Traceback" not in proc.stderr


def test_oracle_malformed_table_cell_exits_one_naming_the_cell(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_small_problem(expected_tables={"s": [["0", "e1/0"], ["-e1", "0"]]})))
    proc = run_cli("oracle", str(path), "--check", "table-cell e1 e2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: expected table for 's' cell (1,2):")
    assert "Traceback" not in proc.stderr


# one run of each subcommand on `_small_problem`'s set s
_SUBCOMMANDS = [
    ("analyze",),
    ("table", "--set", "s"),
    ("solve", "--dict", "s", "--isometry"),
    ("oracle", "--check", "diff-vs-fd E"),
    ("oracle", "--check", "table-cell e1 e1"),
]


@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=" ".join)
def test_malformed_table_cell_exits_one_under_every_subcommand(tmp_path, capsys, command):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_small_problem(expected_tables={"s": [["zz", "e1"], ["-e1", "0"]]})))
    assert cli.main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: expected table for 's' cell (1,1): "
        "combination 'zz' uses unknown generator 'zz'\n"
    )


@pytest.mark.parametrize("command", _SUBCOMMANDS, ids=" ".join)
def test_space_inside_a_table_cell_name_exits_one_under_every_subcommand(tmp_path, capsys, command):
    # "e 1" once read as e1, the cell's right value
    path = tmp_path / "glued.json"
    path.write_text(json.dumps(_small_problem(expected_tables={"s": [["0", "e 1"], ["-e1", "0"]]})))
    assert cli.main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: expected table for 's' cell (1,2): combination 'e 1' uses unknown generator 'e'\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_TOP_LEVEL_KEYS = tuple(_small_problem())


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(_TOP_LEVEL_KEYS), _JSON_VALUES, min_size=1))
def test_any_json_block_exits_zero_one_or_two(tmp_path_factory, blocks):
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(json.dumps(_small_problem(**blocks)))
    assert cli.main(["analyze", str(path)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_markdown_output():
    proc = run_cli("table", str(PROBLEMS / "example1.json"), "--set", "connection_symmetries")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("| [.,.] | e1 |")
    assert "| e2 | 0 | 0 | -2*e1 | -e2 | -e3 | -e4 |" in lines


def test_table_csv_output():
    proc = run_cli(
        "table",
        str(PROBLEMS / "example1.json"),
        "--set",
        "connection_symmetries",
        "--format",
        "csv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == ",e1,e2,e3,e4,e5,e6"
    assert lines[1] == "e1,0,0,1/2*e2,-e1,1/2*e4,-1/2*e3"


def test_table_unknown_set_exits_one():
    proc = run_cli("table", str(PROBLEMS / "example1.json"), "--set", "nope")
    assert proc.returncode == 1
    assert "unknown set" in proc.stderr


def test_table_non_closed_set_exits_one(tmp_path):
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    doc["fields"]["bad"] = ["x1*x1*x2", "0", "0"]
    doc["sets"]["broken"] = ["e1", "bad"]
    doc.pop("expected_tables")
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("table", str(path), "--set", "broken")
    assert proc.returncode == 1
    assert "does not close" in proc.stderr
    assert "[e1, bad]" in proc.stderr


def test_table_blocks_left_and_right():
    for set_name, expect in (
        ("left_block", "e1,0,-e1,1/2*e2"),
        ("right_block", "e4,0,-e4,1/2*e5"),
    ):
        proc = run_cli(
            "table",
            str(PROBLEMS / "example2.json"),
            "--set",
            set_name,
            "--format",
            "csv",
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == expect


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "selector",
    [
        "R-vs-half-[h,h]",
        "R-vs-half-hh",
        "R-vs-eighth-[Gamma,Gamma]",
        "R-vs-eighth-GG",
        "connection-vs-bracket",
        "diff-vs-fd E",
        "diff-vs-fd G1",
        "table-cell e1 e3",
    ],
)
def test_oracle_selectors_pass_on_example1(selector):
    proc = run_cli("oracle", str(PROBLEMS / "example1.json"), "--check", selector)
    assert proc.returncode == 0
    assert "within tolerance" in proc.stdout
    assert "- seed: 0" in proc.stdout
    assert "- points: 10" in proc.stdout


def test_oracle_typo_cell_exceeds_tolerance():
    proc = run_cli(
        "oracle",
        str(PROBLEMS / "section5.json"),
        "--check",
        "table-cell spray_symmetries e2 e8",
    )
    assert proc.returncode == 2
    assert "EXCEEDED" in proc.stdout


def test_oracle_corrected_cell_direction_passes():
    proc = run_cli(
        "oracle",
        str(PROBLEMS / "section5.json"),
        "--check",
        "table-cell spray_symmetries e7 e10",
    )
    assert proc.returncode == 0


def test_oracle_unknown_selector_exits_one():
    proc = run_cli("oracle", str(PROBLEMS / "example1.json"), "--check", "bogus")
    assert proc.returncode == 1
    assert "unknown selector" in proc.stderr


def test_oracle_value_beyond_the_double_range_exits_one(tmp_path):
    # the point pool reaches x1 = 2, where E holds e^800
    path = tmp_path / "steep.json"
    doc = {"dim": 2, "metric": {"kind": "diagonal", "entries": ["exp(400*x1)", "1"]}}
    path.write_text(json.dumps(doc))
    proc = run_cli("oracle", str(path), "--check", "diff-vs-fd E")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: a value overflows a double at the sample point x1=2, ")
    assert "Traceback" not in proc.stderr


def _unread(stage: str):
    def build(*_args):
        raise AssertionError(f"{stage} is built but not read")

    return build


@pytest.mark.parametrize("name", ["example1", "example2", "section5"])
def test_each_subcommand_builds_only_the_stages_it_reads(monkeypatch, capsys, name):
    path = str(PROBLEMS / f"{name}.json")
    set_name, labels = next(iter(cli.load_problem(path).sets.items()))
    cell = f"table-cell {set_name} {labels[0]} {labels[1]}"
    runs = [
        (("oracle", "--check", cell), ("spray_from_metric", "curvature")),
        (("oracle", "--check", "diff-vs-fd E"), ("spray_from_metric", "curvature")),
        (("oracle", "--check", "diff-vs-fd G1"), ("curvature",)),
        (("oracle", "--check", "connection-vs-bracket"), ("curvature",)),
        (("solve", "--dict", set_name, "--isometry"), ("connection_from_spray", "curvature")),
        (("solve", "--dict", set_name, "--spray-symmetry"), ("connection_from_spray", "curvature")),
    ]
    for (command, *options), unread in runs:
        argv = [command, path, *options]
        code = cli.main(argv)
        want = capsys.readouterr()
        with monkeypatch.context() as patch:
            for stage in unread:
                patch.setattr(geom, stage, _unread(stage))
            assert cli.main(argv) == code, argv
        assert capsys.readouterr() == want, argv


def test_oracle_seed_changes_points_but_not_verdict():
    outs = []
    for seed in ("0", "5"):
        proc = run_cli(
            "oracle",
            str(PROBLEMS / "example1.json"),
            "--check",
            "R-vs-half-hh",
            "--seed",
            seed,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    point_lines = [
        next(l for l in out.splitlines() if l.startswith("- sampled points")) for out in outs
    ]
    assert point_lines[0] != point_lines[1]


def test_oracle_fd_target_validation():
    proc = run_cli("oracle", str(PROBLEMS / "example1.json"), "--check", "diff-vs-fd G9")
    assert proc.returncode == 1
    proc = run_cli("oracle", str(PROBLEMS / "example1.json"), "--check", "diff-vs-fd e1")
    assert proc.returncode == 1


@pytest.mark.parametrize("target", ["G+1", "G\u0661", "G1_0", "G", "F"])
def test_oracle_spray_target_takes_only_ascii_digits(target, capsys):
    # int() reads the first three (two of them as 1); x<k> takes only ASCII
    # digits; a target that is neither E, G<k> nor a field name is unknown too
    argv = ["oracle", str(PROBLEMS / "example1.json"), "--check", f"diff-vs-fd {target}"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown derivative target {target!r}\n"


@pytest.mark.parametrize(
    "check, message",
    [
        ("", "empty selector"),
        ("table-cell nope e1 e2", "unknown set 'nope'"),
        ("table-cell e1", "table-cell expects [set] field field"),
        ("table-cell left_block e1 e2 e3", "table-cell expects [set] field field"),
        ("table-cell left_block e1 e4", "table-cell fields must belong to set 'left_block'"),
    ],
)
def test_oracle_bad_selector_exits_one_with_a_message(check, message, capsys):
    assert cli.main(["oracle", str(PROBLEMS / "example2.json"), "--check", check]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_table_cell_checks_a_computed_cell_without_an_expected_table(capsys):
    argv = ["oracle", str(PROBLEMS / "example2.json"), "--check", "table-cell left_block e1 e2"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "- check: [e1,e2] vs computed table cell\n" in out
    assert "- verdict: within tolerance\n" in out


def test_oracle_table_cell_needs_set_when_ambiguous():
    proc = run_cli(
        "oracle", str(PROBLEMS / "section5.json"), "--check", "table-cell e1 e3"
    )
    assert proc.returncode == 1
    assert "set name" in proc.stderr


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_spray_symmetry_dimension_twelve():
    proc = run_cli(
        "solve",
        str(PROBLEMS / "section5.json"),
        "--dict",
        "spray_symmetries",
        "--spray-symmetry",
    )
    assert proc.returncode == 0
    assert "- solution dimension: 12" in proc.stdout


def test_solve_isometry_dimension_six():
    proc = run_cli(
        "solve",
        str(PROBLEMS / "section5.json"),
        "--dict",
        "spray_symmetries",
        "--isometry",
    )
    assert proc.returncode == 0
    assert "- solution dimension: 6" in proc.stdout


def test_solve_isometry_and_horizontal_dimension_three():
    proc = run_cli(
        "solve",
        str(PROBLEMS / "section5.json"),
        "--dict",
        "spray_symmetries",
        "--isometry",
        "--horizontal",
    )
    assert proc.returncode == 0
    assert "- solution dimension: 3" in proc.stdout
    assert "- basis 1: e3" in proc.stdout


def test_solve_requires_a_condition():
    proc = run_cli(
        "solve", str(PROBLEMS / "section5.json"), "--dict", "spray_symmetries"
    )
    assert proc.returncode == 1
    assert "at least one" in proc.stderr


def test_solve_unknown_dictionary_exits_one():
    proc = run_cli("solve", str(PROBLEMS / "section5.json"), "--dict", "nope", "--isometry")
    assert proc.returncode == 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("points", ["0", "-3", "many", "1001", "9" * 30])
@pytest.mark.parametrize(
    "command", [("analyze",), ("oracle", "--check", "R-vs-half-hh")], ids=["analyze", "oracle"]
)
def test_point_count_must_be_positive(command, points):
    proc = run_cli(command[0], str(PROBLEMS / "example1.json"), *command[1:], "--points", points)
    assert proc.returncode == 1
    assert "--points" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_non_string_expected_cell_exits_one(tmp_path):
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    doc["expected_tables"]["connection_symmetries"][0][2] = 5
    path = tmp_path / "number-cell.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 1
    assert "cell (1,3) must be a string, got int" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_subcommand_exits_one():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_missing_required_argument_exits_one():
    proc = run_cli("table", str(PROBLEMS / "example1.json"))
    assert proc.returncode == 1


def test_successive_calls_parse_their_own_arguments(capsys):
    # one parser serves every call in a process; no option carries over
    section5 = str(PROBLEMS / "section5.json")
    assert cli.main(["table", section5, "--set", "isometry_levi", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith(",g1,g3,g5\n")
    assert cli.main(["solve", section5, "--dict", "isometries", "--isometry"]) == 0
    assert "- conditions: isometry\n" in capsys.readouterr().out
    assert cli.main(["table", section5, "--set", "isometry_levi"]) == 0
    assert capsys.readouterr().out.startswith("| [.,.] |")
    assert cli.main(["solve", section5, "--dict", "isometries", "--spray-symmetry"]) == 0
    assert "- conditions: spray-symmetry\n" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


def test_package_runs_as_a_module(capsys):
    argv = ["table", str(PROBLEMS / "example1.json"), "--set", "connection_symmetries"]
    proc = subprocess.run(
        [sys.executable, "-m", "spraylie", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "| e1 |" in proc.stdout
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_console_script_is_installed():
    exe = shutil.which("spraylie")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "table", str(PROBLEMS / "example1.json"), "--set", "connection_symmetries"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "| e1 |" in proc.stdout
