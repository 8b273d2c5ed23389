"""The package surface and the README's examples."""

import ast
import json
import re
import shlex
import types
from pathlib import Path

import negprob
from negprob import SolveStatus
from negprob.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)

PUBLIC_NAMES = [
    "AlphaOutOfRange", "BiasWitness", "ConstraintSystem", "Context",
    "ContextFamily", "ContradictoryRows", "CorrelationOutOfRange",
    "DegenerateGeometry", "DuplicateName", "EpsOutOfRange", "Event",
    "ImproperDistribution", "InvalidAssignment", "InvalidCase",
    "InvalidName", "MissingNormalization", "MissingPairContext",
    "NegprobError", "SampleSpace", "ScenarioBundle", "ScenarioFormatError",
    "SignedMeasure", "SolveResult", "SolveStatus", "SpaceMismatch",
    "TooManyVariables", "UndefinedConditional", "UnknownVariable",
    "ValueOutOfBounds", "Violation", "WaveConfig", "WaveDetection",
    "assemble", "bell_box", "build_space", "check_mstar_s_relation",
    "chsh_s", "cylinder", "detect_bias", "event_mass", "family_mstar",
    "family_system", "feasible_proper", "jordan_decompose", "l1_norm",
    "leggett_garg_chain", "mach_zehnder_case", "marginalize", "minimize_l1",
    "mz_counterfactual", "mz_counterfactual_detuned", "mz_family_member",
    "mz_general_member", "mz_space", "nearest_rational",
    "nonmonotonicity_witness", "rank_nullity", "signed_conditional",
    "tsirelson_box", "validate_kolmogorov", "validate_upper",
    "verify_member", "wave_detection",
]


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from negprob import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC_NAMES) == 63
    assert negprob.__all__ == PUBLIC_NAMES
    assert sorted(namespace) == PUBLIC_NAMES
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.startswith("negprob."), name


def test_readme_python_example_states_true_values():
    """Run the example; each bare expression must equal its comment."""
    (source,) = fenced_blocks("python")
    lines = source.splitlines()
    namespace: dict = {"SolveStatus": SolveStatus}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README",
                             "eval"), namespace)
        comment = lines[statement.end_lineno - 1].split("#", 1)[1]
        stated = eval(comment.split(":")[0], namespace)
        assert value == stated, comment
        checked += 1
    assert checked == 5


def test_readme_documents_run_through_the_cli(tmp_path, capsys):
    (contexts,) = fenced_blocks("json")
    path = tmp_path / "contexts.json"
    path.write_text(contexts, encoding="utf-8")
    assert run(["solve", str(path)]) == 0
    assert "M* = 1\n" in capsys.readouterr().out
    (builtin,) = re.findall(r"`(\{\"builtin\": .*?\})`", README, re.S)
    path = tmp_path / "builtin.json"
    path.write_text(builtin, encoding="utf-8")
    assert run(["solve", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["label"], report["mstar"]) == ("pr-box", "7/4")


def test_readme_command_examples_succeed(capsys):
    commands = [
        line
        for block in fenced_blocks("")
        for line in block.splitlines()
        if line.startswith("negprob builtin ") and "<" not in line
    ]
    assert len(commands) == 3
    for line in commands:
        assert run(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
