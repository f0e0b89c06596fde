"""Byte identity of `analyze` reports on the shipped problem files and Lie families.

The digests pin the exact md and json output at seed 0.  Changes to the
exact layers (elimination, structure constants, Lie-algebra invariants) must
leave every report byte as it is; a change that means to alter a report
updates the digest here in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from spraylie import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

REPORT_SHA256 = {
    ("example1", "md"): "08b058ef19ecc560ca4526a9b05fc43359d48d6b9a8b6a03fed2486b9359b9aa",
    ("example1", "json"): "2db3beaccb43bcd0040c63723eb6f0396f2e1194c169ad427c99cbbde4f1c699",
    ("example2", "md"): "104d926fdc296ebe8b6538380405f6e04ff40207728e4dd1a75635440e8611f2",
    ("example2", "json"): "ebdfd639a0a43d80828f5ed01961cfd9935610be2ad3bf00897c1f9f95cd29ad",
    ("section5", "md"): "58cfb2c3538cbdeaa61fad106de3970b9c1214a9e3ddb9a8c4d7e0a93c35e237",
    ("section5", "json"): "ae5dc6ca8097b75f5ee068fbad3eff28d2bef3504d6cc63fec2ab165a4eed68a",
}


@pytest.mark.parametrize("stem, fmt", sorted(REPORT_SHA256))
def test_analyze_report_bytes_are_pinned(stem, fmt, capsys):
    code = cli.main(["analyze", str(PROBLEMS / f"{stem}.json"), "--format", fmt, "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[(stem, fmt)]


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


FAMILIES = {"aff3": lambda: _aff(3), "so5": lambda: _so(5), "h5": lambda: _heisenberg(2)}

FAMILY_JSON_SHA256 = {
    ("aff3", False): "66b5f9a24198c01c0fc70fd65f20670c159fef87a0bab2303053679be8aa2ed2",
    ("aff3", True): "4e490e0cc4ea442bee55860b25cdb33b62293005477a4684e3877a730d7fab01",
    ("h5", False): "1a09da20a4e98a3b597b07ab0c358b2de3025ad29454edcb5d4d5939844e75cc",
    ("h5", True): "2baec351ed27fb5b755333c85ddead60cd880c053bc67df7b5780f88de9fba29",
    ("so5", False): "d417c35dc12a06d7a7a2de17a21784f5005d2bd306eceaa443cf1a7d5e88b284",
    ("so5", True): "1fd52f087f969b2d172ad41f3868661236bbae5a563a22f60c9cbcfea6f97fe2",
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
