"""Seeded mutation fuzzing of the shipped problem files through `cli.main`, in process.

Each case copies a shipped file, makes one mutation (a cell replaced, deleted
or duplicated, or two expressions spliced into one cell) and runs one
subcommand on it.  Whatever the mutation, the run must end in exit 0, 1 or 2:
never an invariant failure (3), never an escaped exception, never a traceback.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest

from spraylie import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
FILES = ("example1", "example2", "section5")
COMMANDS = ("analyze", "table", "oracle", "solve")
CASES_PER_TEST = 40  # 12 tests, 480 cases

_NON_STRINGS = (0, 1.5, None, True, [], {}, ["x1"])
_SELECTORS = ("R-vs-half-hh", "R-vs-eighth-GG", "connection-vs-bracket", "diff-vs-fd E", "diff-vs-fd G1")


def _slots(node, section: str, out: list) -> list:
    """Every (top-level block, container, key) below `node`: a list index or a dict key."""
    keys = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in list(keys):
        out.append((section or key, node, key))
        _slots(child, section or key, out)
    return out


def _mutate(doc: dict, rng: random.Random) -> str:
    """Mutate `doc` in place once; the description names what was done.

    A replacement mostly comes from the same block, so that many mutated files
    still load and reach the pipeline, the tables and the verdicts.
    """
    slots = _slots(doc, "", [])
    section, container, key = rng.choice(slots)
    pool = [c[k] for s, c, k in slots if isinstance(c[k], str)]
    same_block = [c[k] for s, c, k in slots if s == section and isinstance(c[k], str)]
    kind = rng.choice(("replace", "replace", "replace", "splice", "splice", "edit", "delete", "duplicate"))
    if kind == "edit" and not (isinstance(container[key], str) and container[key]):
        kind = "delete"
    if kind == "replace":
        container[key] = rng.choice(same_block or pool) if rng.random() < 0.8 else rng.choice(_NON_STRINGS)
    elif kind == "splice":
        a, b = rng.choice(same_block or pool), rng.choice(pool)
        container[key] = a[: rng.randint(0, len(a))] + b[rng.randint(0, len(b)) :]
    elif kind == "edit":
        text = container[key]
        i = rng.randrange(len(text))
        container[key] = rng.choice((text[:i] + text[i + 1 :], text[: i + 1] + text[i:]))
    elif kind == "duplicate" and isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:  # a dict entry cannot be duplicated under its own key, so it goes
        del container[key]
    return f"{kind} {section}[{key!r}]"


def _argv(command: str, path: Path, doc: dict, rng: random.Random) -> list[str]:
    sets = list(doc.get("sets", {})) if isinstance(doc.get("sets"), dict) else []
    name = rng.choice(sets) if sets else "s"
    if command == "analyze":
        return ["analyze", str(path), "--format", rng.choice(("md", "json")), "--points", "2"]
    if command == "table":
        return ["table", str(path), "--set", name]
    if command == "oracle":
        check = rng.choice((*_SELECTORS, f"table-cell {name} e1 e2"))
        return ["oracle", str(path), "--check", check, "--points", "2"]
    flag = rng.choice(("--isometry", "--spray-symmetry", "--horizontal"))
    return ["solve", str(path), "--dict", name, flag]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("stem", FILES)
def test_mutated_problem_files_exit_zero_one_or_two(tmp_path, capsys, stem, command):
    shipped = json.loads((PROBLEMS / f"{stem}.json").read_text())
    rng = random.Random(f"fuzz:{stem}:{command}")
    failures = []
    for case in range(CASES_PER_TEST):
        doc = copy.deepcopy(shipped)
        what = _mutate(doc, rng)
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = _argv(command, path, doc, rng)
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a finding, not a crash of the gate
            code = f"raised {type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            failures.append(f"case {case}, {what}, {argv[0]} {' '.join(argv[2:])}: {code} {err!r}")
    assert not failures, "\n".join(failures)
