"""Golden outputs: CLI bytes, exit codes and n-cycle solves, pinned.

``tests/golden/cli.json`` holds the exact stdout, stderr and exit code of
every built-in in both formats, of each file subcommand on the scenario
documents next to it, and of a few rejected commands.
``tests/golden/ncycles.json`` holds status, M*, rank/nullity and witness
masses for the n-cycle families n = 3..14.  ``tests/golden/witnesses.json``
holds the ``minimize_l1`` status, M*, rank and witness and the
``feasible_proper`` witness (or null) of every built-in and of 200 seeded
random systems, whose negative row values exercise the row-flip path;
the 100 on up to four variables and eight rows include degenerate ties
that the leaving row's tie-break decides.
All were captured from the dense-tableau solver, except the n-cycles
n = 11..14, which were captured from the revised simplex while it still
priced by scanning every atom; a change that moves one byte of them
changes the Bland path or the rendering and must say so.

To rewrite the data (only from a commit whose outputs are trusted):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from negprob import (
    ConstraintSystem,
    SignedMeasure,
    family_system,
    feasible_proper,
    minimize_l1,
    rank_nullity,
)
from negprob import cli, solver
from negprob.cli import run
from negprob.scenarios import builtin_bundle

from helpers import ncycle, random_small_system

GOLDEN = Path(__file__).parent / "golden"

BUILTINS = [f"mz-case-{n}" for n in range(1, 9)] + [
    "mz-counterfactual",
    "mz-detuned",
    "pr-box",
    "tsirelson",
    "lg-chain",
]

# "@name" stands for the scenario document tests/golden/name
FILE_COMMANDS = {
    "contexts.json": [
        ["solve"],
        ["viable"],
        ["bias"],
        ["condition", "--target", "X=1", "--given", "Y=1"],
    ],
    "constraints.json": [
        ["solve"],
        ["viable"],
        ["bias"],
        ["condition", "--target", "Da=1", "--given", "D1=1"],
        ["condition", "--target", "Db=1", "--given", "D2=1"],
    ],
    "biased.json": [
        ["solve"],
        ["viable"],
        ["bias"],
        ["condition", "--target", "Da=1", "--given", "D1=1"],
    ],
    "inconsistent.json": [["solve"], ["viable"]],
}

REJECTED = [
    ["builtin", "mz-warp"],
    ["builtin", "mz-warp", "--param", "1"],
    ["builtin", "mz-counterfactual", "--param", "1/2"],
    ["builtin", "mz-detuned", "--param", "nu=1/10"],
    ["builtin", "mz-detuned", "--param", "0.1"],
    ["builtin", "mz-detuned", "--param", "1/2"],
    ["builtin", "lg-chain"] + ["--param", "1"] * 4,
    ["builtin", "pr-box", "--param", "2"],
]


def cli_commands() -> list[list[str]]:
    commands = []
    for name in BUILTINS:
        for fmt in ("table", "json"):
            commands.append(["builtin", name, "--format", fmt])
    for doc, runs in FILE_COMMANDS.items():
        for argv in runs:
            for fmt in ("table", "json"):
                commands.append(
                    [argv[0], "@" + doc, *argv[1:], "--format", fmt]
                )
    return commands + REJECTED


def run_captured(argv: list[str]) -> dict:
    resolved = [
        str(GOLDEN / arg[1:]) if arg.startswith("@") else arg for arg in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(resolved)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def masses(m: SignedMeasure | None) -> dict[str, str] | None:
    """Nonzero masses keyed by atom label, or None for no measure."""
    if m is None:
        return None
    return {
        m.space.atom_label(atom): str(mass)
        for atom, mass in enumerate(m.mass)
        if mass != 0
    }


def ncycle_solve(n: int) -> dict:
    system = family_system(ncycle(n))
    result = minimize_l1(system)
    return {
        "status": result.status.value,
        "mstar": str(result.mstar),
        "rank": result.rank,
        "nullity": result.nullity,
        "rank_nullity": list(rank_nullity(system)),
        "witness": masses(result.witness),
    }


def witness_systems() -> dict[str, ConstraintSystem]:
    """The 13 built-ins with default parameters, then 200 random systems."""
    systems = {}
    for name in BUILTINS:
        payload = builtin_bundle(name, {}).payload
        systems[name] = (
            payload
            if isinstance(payload, ConstraintSystem)
            else family_system(payload)
        )
    rng = random.Random(4)
    for k in range(100):
        systems[f"random-{k}"] = random_small_system(rng)
    rng = random.Random(6)
    for k in range(100):
        systems[f"random4-{k}"] = random_small_system(rng, 4, 8)
    return systems


def witness_solve(system: ConstraintSystem) -> dict:
    result = minimize_l1(system)
    return {
        "status": result.status.value,
        "mstar": None if result.mstar is None else str(result.mstar),
        "rank": result.rank,
        "witness": masses(result.witness),
        "proper": masses(feasible_proper(system)),
    }


def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


WRITING = __name__ == "__main__"
CLI_GOLDEN = {} if WRITING else load("cli.json")
NCYCLE_GOLDEN = {} if WRITING else load("ncycles.json")
WITNESS_GOLDEN = {} if WRITING else load("witnesses.json")
SYSTEMS = witness_systems()


def test_golden_covers_every_command():
    assert list(CLI_GOLDEN) == [" ".join(argv) for argv in cli_commands()]


@pytest.mark.parametrize("key", list(CLI_GOLDEN))
def test_cli_output_matches_golden(key):
    expected = CLI_GOLDEN[key]
    got = run_captured(expected["argv"])
    assert got["exit"] == expected["exit"]
    assert got["stdout"].encode("utf-8") == expected["stdout"].encode("utf-8")
    assert got["stderr"] == expected["stderr"]


def test_golden_json_reports_render_as_the_stdlib_does():
    """Every golden JSON report, read back, renders to its golden bytes
    both through cli._render and through json.dumps(report, indent=2)."""
    rendered = 0
    for key, expected in CLI_GOLDEN.items():
        if not key.endswith("--format json") or not expected["stdout"]:
            continue
        report = json.loads(expected["stdout"])
        stdlib = json.dumps(report, indent=2) + "\n"
        assert cli._render(report, "json") == stdlib == expected["stdout"]
        rendered += 1
    assert rendered == 27


@pytest.mark.parametrize("n", range(3, 15))
def test_ncycle_solve_matches_golden(n):
    assert ncycle_solve(n) == NCYCLE_GOLDEN[str(n)]


def test_witness_golden_covers_every_system():
    assert list(WITNESS_GOLDEN) == list(SYSTEMS)


@pytest.mark.parametrize("key", list(WITNESS_GOLDEN))
def test_witnesses_match_golden(key):
    assert witness_solve(SYSTEMS[key]) == WITNESS_GOLDEN[key]


def test_elimination_pricing_matches_every_golden_solve(monkeypatch):
    """Every golden witness system and the golden n-cycles 3..8, priced by
    variable elimination, though all of them but the 8-cycle scan by
    default: the search returns the scan's atom, so every witness, rank
    and M* stays the same."""
    monkeypatch.setattr(solver, "SCAN_PER_TABLE", 0)
    for key, solved in SYSTEMS.items():
        # an equal system: one already solved keeps the columns it built
        system = ConstraintSystem(solved.space, solved.rows)
        assert solver._RevisedLP(system, split=True).elim is not None
        assert witness_solve(system) == WITNESS_GOLDEN[key], key
    for n in range(3, 9):
        assert ncycle_solve(n) == NCYCLE_GOLDEN[str(n)], n


def test_scan_pricing_matches_the_eliminated_golden_cycles(monkeypatch):
    """The converse: the golden n-cycles 8..10, which the solver prices by
    variable elimination, priced by the scan instead."""
    monkeypatch.setattr(solver, "SCAN_PER_TABLE", 10**9)
    for n in range(8, 11):
        system = family_system(ncycle(n))
        assert solver._RevisedLP(system, split=True).elim is None
        assert ncycle_solve(n) == NCYCLE_GOLDEN[str(n)], n


def _write(name: str, data: dict) -> None:
    text = json.dumps(data, indent=1, ensure_ascii=False) + "\n"
    (GOLDEN / name).write_text(text, encoding="utf-8")


if WRITING:
    _write(
        "cli.json",
        {
            " ".join(argv): {"argv": argv, **run_captured(argv)}
            for argv in cli_commands()
        },
    )
    _write("ncycles.json", {str(n): ncycle_solve(n) for n in range(3, 15)})
    _write(
        "witnesses.json",
        {key: witness_solve(system) for key, system in SYSTEMS.items()},
    )
