"""Curved families with the paper's two commutative-ideal candidates as gates.

Each problem file is built here from closed forms: hyperbolic space H^n in
horospherical coordinates with its n(n+1)/2 Killing fields, the product
H^p x R^q with the Euclidean motions of the flat factor added, and flat R^q
with e(q).  The three cases cover the paper's statement: no ideal, the
horizontal-nullity ideal alone, and both candidates coinciding.  Every
answer is gated in the given basis and in a seeded L*U basis.
"""

from __future__ import annotations

import json

import pytest

from spraylie import cli
from tests.test_canonical_basis import lu_matrix

# A field is a list of component expressions, one per coordinate x1..xn.


def _field(n: int, components: dict[int, str]) -> list[str]:
    """The field with the given nonzero components (0-based coordinate index)."""
    return [components.get(k, "0") for k in range(n)]


def hyperbolic_fields(p: int, n: int) -> dict[str, list[str]]:
    """Killing fields of H^p = {dx1^2 + e^(2 x1) |du|^2}, u = (x2, ..., xp),
    inside a space of n >= p coordinates: so(p, 1), dim p(p+1)/2."""
    u = [f"x{i + 1}" for i in range(1, p)]
    slots = range(1, p)
    norm = " + ".join(f"{v}^2" for v in u)
    out = {f"P{i}": _field(n, {i: "1"}) for i in slots}
    for a in slots:
        for b in slots:
            if a < b:
                out[f"M{a}{b}"] = _field(n, {b: u[a - 1], a: f"-{u[b - 1]}"})
    out["D"] = _field(n, {0: "-1", **{i: u[i - 1] for i in slots}})
    for i in slots:
        comps = {0: f"-2*{u[i - 1]}"}
        for j in slots:
            comps[j] = f"2*{u[i - 1]}*{u[j - 1]}"
        comps[i] += f" - ({norm} + exp(-2*x1))"
        out[f"K{i}"] = _field(n, comps)
    return out


def euclidean_fields(offset: int, q: int, n: int) -> dict[str, list[str]]:
    """Translations T_i and rotations R_ij of the flat coordinates
    x(offset+1)..x(offset+q): e(q), dim q(q+1)/2."""
    slots = range(offset, offset + q)
    out = {f"T{k - offset + 1}": _field(n, {k: "1"}) for k in slots}
    for a in slots:
        for b in slots:
            if a < b:
                name = f"R{a - offset + 1}{b - offset + 1}"
                out[name] = _field(n, {b: f"x{a + 1}", a: f"-x{b + 1}"})
    return out


def curved_problem(p: int, q: int) -> dict:
    """H^p x R^q (p = 0: flat R^q) with its Killing fields as one set."""
    n = p + q
    entries = (["1"] + ["exp(2*x1)"] * (p - 1) if p else []) + ["1"] * q
    fields = {**(hyperbolic_fields(p, n) if p else {}), **euclidean_fields(p, q, n)}
    return {
        "name": f"H{p}xR{q}",
        "dim": n,
        "metric": {"kind": "diagonal", "entries": entries},
        "fields": fields,
        "sets": {"killing": list(fields)},
        "analyses": ["membership", "algebra"],
    }


def in_lu_basis(doc: dict, seed: int) -> dict:
    """The same problem with generator r replaced by sum_c M[r][c] field_c."""
    labels = doc["sets"]["killing"]
    matrix = lu_matrix(len(labels), seed)
    fields = {}
    for r, row in enumerate(matrix):
        comps = []
        for k in range(doc["dim"]):
            terms = [f"({q})*({doc['fields'][labels[c]][k]})" for c, q in enumerate(row) if q]
            comps.append(" + ".join(terms) or "0")
        fields[f"g{r + 1}"] = comps
    return dict(doc, fields=fields, sets={"killing": list(fields)})


def _subspace(block: dict) -> tuple:
    return block["dimension"], block.get("ideal"), block.get("abelian")


def _answers(algebra: dict) -> dict:
    return {
        "dimension": algebra["dimension"],
        "simple": algebra["simple"],
        "radical": algebra["radical"]["dimension"],
        "center": algebra["center_dimension"],
        "derivations": algebra["derivations"]["dimension"],
        "horizontal_nullity": _subspace(algebra["horizontal_nullity_subspace"]),
        "constant": _subspace(algebra["constant_subspace"]),
    }


# (p, q) -> the closed-form answers; a zero subspace carries no verdicts
CASES = {
    "H3": (
        (3, 0),
        {"dimension": 6, "simple": True, "radical": 0, "center": 0, "derivations": 6,
         "horizontal_nullity": (0, None, None), "constant": (2, False, True)},
    ),
    "H4": (
        (4, 0),
        {"dimension": 10, "simple": True, "radical": 0, "center": 0, "derivations": 10,
         "horizontal_nullity": (0, None, None), "constant": (3, False, True)},
    ),
    "H2xR3": (
        (2, 3),
        {"dimension": 9, "simple": False, "radical": 3, "center": 0, "derivations": 10,
         "horizontal_nullity": (3, True, True), "constant": (4, False, True)},
    ),
    "R3": (
        (0, 3),
        {"dimension": 6, "simple": False, "radical": 3, "center": 0, "derivations": 7,
         "horizontal_nullity": (3, True, True), "constant": (3, True, True)},
    ),
}


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_curved_family_answers(case, seed, tmp_path, capsys):
    (p, q), want = CASES[case]
    doc = curved_problem(p, q)
    if seed is not None:
        doc = in_lu_basis(doc, seed)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pipeline"]["curvature_zero"] is (p < 2)
    assert all(row["isometry"] for row in report["membership"])
    (entry,) = report["sets"]
    assert _answers(entry["algebra"]) == want
