"""Byte identity of `analyze` reports on the shipped problem files.

The digests pin the exact md and json output at seed 0.  Changes to the
exact layers (elimination, structure constants, Lie-algebra invariants) must
leave every report byte as it is; a change that means to alter a report
updates the digest here in the same commit and says why.
"""

from __future__ import annotations

import hashlib
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
