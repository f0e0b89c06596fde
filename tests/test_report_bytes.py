"""Byte identity of reports on the shipped problem files, Lie families and
two problems built here (a curved space and a general metric).

The digests pin the exact md and json `analyze` output at seed 0, and the
float `oracle` output with its exit code.  Changes to the exact layers
(elimination, structure constants, Lie-algebra invariants) and to the float
evaluator must leave every report byte as it is; a change that means to alter
a report updates the digest here in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from spraylie import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

REPORT_SHA256 = {
    ("example1", "md"): "3a32bffca9da11e422185607af1a5e9163a62e0d89c8e40dd1698694fa3a02f1",
    ("example1", "json"): "1e5fd154ea1766a721e637a5fe445c354e6f7fea4fe8c1f60f0d9d11114662f5",
    ("example2", "md"): "0b0734af0d104736c34c78afb0cf6fc3798e4c58da314880bba92a814f5fdabd",
    ("example2", "json"): "23663bb3a68becc435c640bcb88e79010ca628817cf9a53b5863b57d6b817f75",
    ("section5", "md"): "d8a49e52cc19401cff6d143b5b22fd4ce747cb5905d9319c97901873c4878e85",
    ("section5", "json"): "5ccfe43b7473ee05042dc637eb65cf5533ef275fb6f64e1baa6931f2866d2bec",
}


@pytest.mark.parametrize("stem, fmt", sorted(REPORT_SHA256))
def test_analyze_report_bytes_are_pinned(stem, fmt, capsys):
    code = cli.main(["analyze", str(PROBLEMS / f"{stem}.json"), "--format", fmt, "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[(stem, fmt)]


ORACLE_SHA256 = {
    ("example1", "R-vs-half-hh"): (0, "bd03325508d6347d6646052477fb74bf780971e8bfcf0587dcaacb26416680b8"),
    ("example1", "R-vs-eighth-GG"): (0, "ca1be365c36460d114a0aff19d95e041a90dd5a05fc0257ce36701721b0f3969"),
    ("example1", "connection-vs-bracket"): (0, "d5f9af281c5b33b3361a5756161ab562b5d59fc67ea2877e6afeaed0eb73af1c"),
    ("example1", "diff-vs-fd E"): (0, "21a214520940a3ce1b717468800b697cd615b93649087c8a5625571d7ddaafc7"),
    ("example1", "diff-vs-fd G1"): (0, "2032b2b3d98d91985c599effc861ec07c4ff089a3af73fba320e2a410aee7339"),
    ("example2", "R-vs-half-hh"): (0, "b4d9f461a6745a0e01160711a04653f5d13abee21f35b059c3908324422df3bb"),
    ("example2", "R-vs-eighth-GG"): (0, "da0fadde406ad73d6f48a11b240342a396092971e4537c417033c960ec04d9bb"),
    ("example2", "connection-vs-bracket"): (0, "8a82ff0515f94f835670a3b685783ebae3b3500dccb3993dcbcc9dfc27d290d5"),
    ("example2", "diff-vs-fd E"): (0, "faca2c8244392bbc7b8f466c1203cab3320ff1f1d685dff3a99bc0da1ff86428"),
    ("example2", "diff-vs-fd G1"): (0, "667d6b37f0d0153dc88db785bc6765a0f2a0dd3844ca5d99efd6a7c458e03bec"),
    ("section5", "R-vs-half-hh"): (0, "ccee01902071ebaa8b7357ef873d18f957945012cd9c4229242880de81a9aa0e"),
    ("section5", "R-vs-eighth-GG"): (0, "171957fa2b0f7701827f01730161a4eb10f265b2ac5822591d2f7b2287cc364f"),
    ("section5", "connection-vs-bracket"): (0, "24d392f2262fd44223c42a193c49e1634302ea8489b13c0c8342a9a16c75985f"),
    ("section5", "diff-vs-fd E"): (0, "1445c8566563eddbce86a3182627b592b6d97e8981189ab9862354dd5b0e1c6a"),
    ("section5", "diff-vs-fd G1"): (0, "ed43fb933d0453cf0a1a9d689c6934e7a2f8d09b269d578e70938008f72e5b47"),
    ("section5", "table-cell spray_symmetries e2 e8"): (2, "69b10b2fcfb2ff9450ebcbb03f0ffcd83cac19de6a4a9ef346fa608f91081c1f"),
}


@pytest.mark.parametrize("stem, selector", sorted(ORACLE_SHA256))
def test_oracle_report_bytes_are_pinned(stem, selector, capsys):
    argv = ["oracle", str(PROBLEMS / f"{stem}.json"), "--check", selector, "--seed", "0"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == ORACLE_SHA256[(stem, selector)]


# Lie families as affine vector fields on flat R^n.  A field is one string per
# component; "basis change" adds generator 2t+1 to generator 2t, which keeps
# the span but makes every table and every elimination non-trivial.


def _affine(n: int, parts: dict[int, str]) -> list[str]:
    return [parts.get(i, "0") for i in range(n)]


def _aff(n: int) -> list[list[str]]:
    out = [_affine(n, {i: "1"}) for i in range(n)]
    return out + [_affine(n, {i: f"x{j + 1}"}) for i in range(n) for j in range(n)]


def _so(n: int) -> list[list[str]]:
    return [
        _affine(n, {i: f"-x{j + 1}", j: f"x{i + 1}"}) for i in range(n) for j in range(i + 1, n)
    ]


def _heisenberg(k: int) -> list[list[str]]:
    n = 2 * k + 1
    out = [_affine(n, {i: "1"}) for i in range(k)]
    out += [_affine(n, {k + i: "1", n - 1: f"x{i + 1}"}) for i in range(k)]
    return out + [_affine(n, {n - 1: "1"})]


def _basis_change(fields: list[list[str]]) -> list[list[str]]:
    out = [list(f) for f in fields]
    for a in range(0, len(out) - 1, 2):
        out[a] = [f"({p}) + ({q})" for p, q in zip(out[a], out[a + 1])]
    return out


# aff(4) corrects its Levi complement on two levels of the radical and takes
# the derivation certificate; so(4) is semisimple but not simple, so its
# centroid takes the kernel route
FAMILIES = {
    "aff3": lambda: _aff(3),
    "aff4": lambda: _aff(4),
    "so4": lambda: _so(4),
    "so5": lambda: _so(5),
    "h5": lambda: _heisenberg(2),
}

FAMILY_JSON_SHA256 = {
    ("aff3", False): "7a2e43cf3fc3bbd665ffa6677b2087e77a9e7e411ebeedc7476b637eb7a9a41c",
    ("aff3", True): "7d96bee01f41f2baaf6818d89dea8c42353794e6e5eeff63ef40a0af9853f4f6",
    ("aff4", False): "1f3b9df61f5638a01981790515f857183be4c80e692a9b61694dce3717583055",
    ("aff4", True): "21a2a5452009b2fb6b196e5fc8fe9ba2a1bf40b8d322596c0c8b9e64b3e65427",
    ("h5", False): "cb6bce497a216a9e67887c6d84b633e0ad5eb6ac0490678290916fc84009a7b3",
    ("h5", True): "2bca7ab2bf0ffbd2cc3f1ebe14ee3de909726083430fada725725de96c7211a7",
    ("so4", False): "00bbd49ff151f87043bfbbbc7ede785a47d7206d68cd9fe15d0f5e00e9a29583",
    ("so4", True): "5268cec40887097eb499cec2e4c062d363b6d176c33006016183eabc1ae941e2",
    ("so5", False): "019165358637c356a5c46409c8ce3659ee90138315ced9c4c7f384ee20abe4d1",
    ("so5", True): "dc590e19e2acf82a5980aece69fd206ab4be4980244da573e054dc42ceab09d9",
}


@pytest.mark.parametrize("tag, changed", sorted(FAMILY_JSON_SHA256))
def test_lie_family_report_bytes_are_pinned(tag, changed, tmp_path, capsys):
    fields = FAMILIES[tag]()
    if changed:
        fields = _basis_change(fields)
    dim = len(fields[0])
    labels = [f"e{i + 1}" for i in range(len(fields))]
    doc = {
        "name": tag,
        "dim": dim,
        "metric": {"kind": "diagonal", "entries": ["1"] * dim},
        "fields": dict(zip(labels, fields)),
        "sets": {tag: labels},
    }
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["analyze", str(path), "--format", "json", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_JSON_SHA256[(tag, changed)]


# Reports that no shipped file pins: H^4, curved above n = 4 with multi-term
# curvature sums, and a general (non-diagonal) metric, whose spray goes through
# the supplied inverse.  The general metric is g = U^T D U with U = [[1, x2],
# [0, 1]] and D = diag(exp(x1), 1), the "2d" metric of tests/test_geom_sympy.py.


def _general_problem() -> dict:
    return {
        "name": "general2d",
        "dim": 2,
        "metric": {
            "kind": "general",
            "entries": [["exp(x1)", "x2*exp(x1)"], ["x2*exp(x1)", "1 + x2^2*exp(x1)"]],
            "inverse": [["exp(-x1) + x2^2", "-x2"], ["-x2", "1"]],
        },
        "fields": {"T1": ["1", "0"], "T2": ["0", "1"], "S": ["x2", "0"]},
        "sets": {"s": ["T1", "T2", "S"]},
    }


def _curved_problem() -> dict:
    from tests.test_curved_families import curved_problem

    return curved_problem(4, 0)


BUILT = {"H4": _curved_problem, "general2d": _general_problem}

BUILT_SHA256 = {
    ("H4", "md"): "02068825f8f7dcbefe12a46a8629da2b49852c083530513f9bab28a8bb9f1f58",
    ("H4", "json"): "d814911dc184f9a2041c945c2743b13b9e63e4aac707f9d3c2eaf03b57a9ba2c",
    ("general2d", "md"): "4bfcf429be3cb89ca8477a6115dc01887ea70bc5109e6cd1dc0aa0c83f63ea62",
    ("general2d", "json"): "25e1fa607659f658c1a81c0676b3417cddad43fc2109831459dd02623adaa638",
}


@pytest.mark.parametrize("tag, fmt", sorted(BUILT_SHA256))
def test_built_problem_report_bytes_are_pinned(tag, fmt, tmp_path, capsys):
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(BUILT[tag]()))
    code = cli.main(["analyze", str(path), "--format", fmt, "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BUILT_SHA256[(tag, fmt)]
