"""Command-line interface: exit codes, rendering, and scenario files."""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import negprob
import negprob.cli
import negprob.contextuality
import negprob.measure
import negprob.solver
from negprob import (
    ScenarioFormatError,
    SolveStatus,
    UndefinedConditional,
    cylinder,
    detect_bias,
    family_mstar,
    family_system,
    feasible_proper,
    minimize_l1,
    rank_nullity,
    signed_conditional,
    tsirelson_box,
)
from negprob.cli import (
    family_to_scenario,
    parse_rational,
    run,
    scenario_from_data,
)
from negprob.measure import RATIONAL_MAX_CHARS
from helpers import (
    families_with_repeats,
    mz_family,
    ncycle,
    negative_atom_document,
)

GOLDEN = Path(__file__).parent / "golden"

COUNTERFACTUAL_ROWS = [
    ({"Da": -1, "D1": 1, "D2": -1}, "1/2"),
    ({"Da": -1, "D1": -1, "D2": 1}, "1/2"),
    ({"Db": -1, "D1": -1, "D2": 1}, "1/2"),
    ({"Db": -1, "D1": 1, "D2": -1}, "1/2"),
    ({"D1": 1, "D2": 1}, "0"),
    ({"D1": 1, "D2": -1}, "1"),
    ({"D1": -1, "D2": 1}, "0"),
    ({"D1": -1, "D2": -1}, "0"),
    ({"Da": 1, "Db": 1}, "0"),
    ({"Da": 1, "Db": -1}, "1/2"),
    ({"Da": -1, "Db": 1}, "1/2"),
    ({"Da": -1, "Db": -1}, "0"),
]

CONSTRAINTS_DOC = {
    "variables": ["Da", "Db", "D1", "D2"],
    "constraints": [
        {"event": event, "value": value}
        for event, value in COUNTERFACTUAL_ROWS
    ],
}


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def family_file(tmp_path, name, family):
    return write_json(tmp_path, name, family_to_scenario(family))


# -- builtin -----------------------------------------------------------------


def test_builtin_counterfactual_table(capsys):
    assert run(["builtin", "mz-counterfactual"]) == 0
    out = capsys.readouterr().out
    assert "status: SignedFeasibleOnly" in out
    assert "M* = 3" in out
    assert "rank: 11" in out
    assert "nullity: 5" in out


def test_builtin_box_values(capsys):
    assert run(["builtin", "pr-box"]) == 0
    assert "M* = 2" in capsys.readouterr().out
    assert run(["builtin", "lg-chain"]) == 0
    assert "M* = 2" in capsys.readouterr().out
    assert run(["builtin", "mz-case-1"]) == 0
    out = capsys.readouterr().out
    assert "status: ProperFeasible" in out
    assert "M* = 1" in out


def test_builtin_json_schema(capsys):
    assert run(["builtin", "mz-counterfactual", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "command",
        "label",
        "variables",
        "status",
        "mstar",
        "rank",
        "nullity",
        "witness",
        "viable",
        "bias",
        "conditional",
    ]
    assert report["command"] == "solve"
    assert report["label"] == "mz-counterfactual"
    assert report["variables"] == ["Da", "Db", "D1", "D2"]
    assert report["mstar"] == "3"
    assert report["viable"] is None and report["conditional"] is None


def test_output_is_byte_stable(capsys):
    run(["builtin", "tsirelson", "--format", "json"])
    first = capsys.readouterr().out
    # the parser is shared by every run in a process: neither a --param
    # list nor a rejected command may leak into the next run
    assert run(["builtin", "lg-chain", "--param", "1/2"]) == 0
    assert run(["builtin", "tsirelson", "--format", "yaml"]) == 1
    capsys.readouterr()
    run(["builtin", "tsirelson", "--format", "json"])
    assert capsys.readouterr().out == first


def test_builtin_param_forms_agree(capsys):
    run(["builtin", "mz-detuned", "--param", "1/10", "--format", "json"])
    positional = capsys.readouterr().out
    run(["builtin", "mz-detuned", "--param", "eps=1/10", "--format", "json"])
    assert capsys.readouterr().out == positional
    run(["builtin", "lg-chain", "--param", "1/2", "--param", "1/3"])
    positional = capsys.readouterr().out
    run(["builtin", "lg-chain", "--param", "e_yz=1/3", "--param", "e_xy=1/2"])
    assert capsys.readouterr().out == positional
    assert "M* = 17/12\n" in positional


def test_builtin_errors(capsys):
    assert run(["builtin", "mz-warp"]) == 1
    assert "known:" in capsys.readouterr().err
    assert run(["builtin", "mz-detuned", "--param", "0.1"]) == 1
    assert "rational" in capsys.readouterr().err
    assert run(["builtin", "mz-counterfactual", "--param", "1/2"]) == 1
    assert run(["builtin", "mz-detuned", "--param", "nu=1/10"]) == 1


@pytest.mark.parametrize(
    "builtin, params, name",
    [
        ("pr-box", ["e_ab=1/2", "1", "1"], "e_ab"),  # by name, by position
        ("pr-box", ["1", "e_ab=1/2"], "e_ab"),  # by position, by name
        ("pr-box", ["e_ab2=1", "e_ab2=-1"], "e_ab2"),  # by name twice
        ("mz-detuned", ["eps=1/10", "eps=1/20"], "eps"),
    ],
)
def test_builtin_parameter_set_twice_is_refused(capsys, builtin, params, name):
    argv = ["builtin", builtin]
    for value in params:
        argv += ["--param", value]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"input error: builtin {builtin!r} parameter {name!r} set twice\n"
    )


def test_usage_errors(capsys):
    assert run([]) == 1
    assert run(["dance"]) == 1
    assert run(["solve"]) == 1
    capsys.readouterr()


# -- solve and viable on files -------------------------------------------------


def test_solve_contexts_file(tmp_path, capsys):
    path = family_file(tmp_path, "box.json", tsirelson_box())
    assert run(["solve", path]) == 0
    assert "M* = 816/577" in capsys.readouterr().out


def test_solve_matches_builtin_up_to_label(tmp_path, capsys):
    path = family_file(tmp_path, "box.json", tsirelson_box())
    run(["solve", path, "--format", "json"])
    from_file = json.loads(capsys.readouterr().out)
    run(["builtin", "tsirelson", "--format", "json"])
    from_builtin = json.loads(capsys.readouterr().out)
    assert from_file["label"] is None
    from_file["label"] = from_builtin["label"]
    assert from_file == from_builtin


def test_solve_biased_contexts_exits_two(tmp_path, capsys):
    path = family_file(tmp_path, "biased.json", mz_family(5, 6))
    assert run(["solve", path]) == 2
    out = capsys.readouterr().out
    assert "status: Infeasible" in out
    assert "bias witness: D1=+1" in out


def test_solve_constraints_file(tmp_path, capsys):
    path = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    assert run(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "M* = 3" in out
    assert "witness (atom chars follow Da Db D1 D2" in out


def test_viable_file(tmp_path, capsys):
    good = family_file(tmp_path, "good.json", mz_family(1))
    assert run(["viable", good]) == 0
    assert "VIABLE" in capsys.readouterr().out
    bad = family_file(tmp_path, "bad.json", mz_family(1, 4))
    assert run(["viable", bad]) == 2
    assert "NOT VIABLE" in capsys.readouterr().out
    rows = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    assert run(["viable", rows]) == 2


# -- bias ------------------------------------------------------------------------


def test_bias_reports_witness(tmp_path, capsys):
    path = family_file(tmp_path, "biased.json", mz_family(5, 6))
    assert run(["bias", path]) == 0
    out = capsys.readouterr().out
    assert "BIAS on D1=+1: context 0 gives 1, context 1 gives 1/2" in out


def test_bias_reports_agreement(tmp_path, capsys):
    path = family_file(tmp_path, "fine.json", tsirelson_box())
    assert run(["bias", path]) == 0
    assert "NO BIAS" in capsys.readouterr().out


def test_bias_needs_contexts(tmp_path, capsys):
    path = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    assert run(["bias", path]) == 1
    assert "contexts" in capsys.readouterr().err


# -- condition ---------------------------------------------------------------------


def test_condition_proper_value(tmp_path, capsys):
    path = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    code = run(
        ["condition", path, "--target", "Da=1", "--given", "D1=1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "P(Da=+1 | D1=+1) = 1/2  (proper range)" in out


def test_condition_undefined_is_reported_not_fatal(tmp_path, capsys):
    path = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    code = run(
        [
            "condition",
            path,
            "--target",
            "Da=1",
            "--given",
            "D2=1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conditional"]["defined"] is False
    assert report["conditional"]["value"] is None


def test_condition_infeasible_exits_two(tmp_path, capsys):
    path = family_file(tmp_path, "biased.json", mz_family(5, 6))
    code = run(["condition", path, "--target", "Da=1", "--given", "D1=1"])
    assert code == 2
    assert "status: Infeasible" in capsys.readouterr().out


def test_condition_flag_validation(tmp_path, capsys):
    path = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    assert run(["condition", path, "--target", "Da", "--given", "D1=1"]) == 1
    assert run(["condition", path, "--target", "Da=2", "--given", "D1=1"]) == 1
    capsys.readouterr()


def test_condition_variable_named_twice_is_refused(tmp_path, capsys):
    path = write_json(tmp_path, "rows.json", CONSTRAINTS_DOC)
    argv = ["condition", path, "--target", "Da=1,Da=-1", "--given", "D1=1"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "input error: --target variable 'Da' set twice\n"
    )
    argv = ["condition", path, "--target", "Da=1", "--given", "D1=1,D1=+1"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "input error: --given variable 'D1' set twice\n"
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("name", ["inconsistent.json", "contexts.json"])
@pytest.mark.parametrize("flag", ["--target", "--given"])
def test_condition_unknown_variable_is_refused_before_solving(
    monkeypatch, capsys, fmt, name, flag
):
    """An unknown name is an input error whatever the verdict would be:
    the Infeasible file and the feasible one both exit 1 with no report,
    and neither is solved."""

    def no_solve(system):
        raise AssertionError("condition solved before checking its names")

    monkeypatch.setattr(negprob.cli, "minimize_l1", no_solve)
    path = str(GOLDEN / name)
    flags = {"--target": "X=1", "--given": "X=-1", flag: "Q=1"}
    argv = ["condition", path, *(x for kv in flags.items() for x in kv)]
    assert run([*argv, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: variable 'Q' not in space")
    assert err.count("\n") == 1


# -- scenario file validation ---------------------------------------------------


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert run(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_file(capsys):
    assert run(["solve", "/nonexistent/scenario.json"]) == 1
    assert "input error" in capsys.readouterr().err


def test_document_shape_errors(tmp_path, capsys):
    bad_docs = [
        [],
        {"contexts": []},
        {"variables": ["X"], "contexts": [], "constraints": []},
        {"variables": ["X"]},
        {"variables": ["X"], "contexts": []},
        {
            "variables": ["X", "Y"],
            "contexts": [
                {"variables": ["X"], "distribution": {"++": "1"}}
            ],
        },
        {
            "variables": ["X"],
            "constraints": [{"event": {"X": 1}, "value": "0.5"}],
        },
        {
            "variables": ["X"],
            "constraints": [{"event": {"X": 2}, "value": "1/2"}],
        },
        {"variables": ["X"], "builtin": "pr-box"},
    ]
    for i, doc in enumerate(bad_docs):
        path = write_json(tmp_path, f"bad{i}.json", doc)
        assert run(["solve", path]) == 1, doc
    capsys.readouterr()


def test_round_trip_preserves_analysis(tmp_path):
    family = tsirelson_box()
    doc = family_to_scenario(family)
    bundle = scenario_from_data(
        json.loads(json.dumps(doc)), label=None
    )
    assert bundle.kind == "contexts"
    again = family_mstar(bundle.payload)
    original = family_mstar(family)
    assert again.mstar == original.mstar
    assert again.witness.mass == original.witness.mass


def test_builtin_document_with_params(tmp_path, capsys):
    doc = {
        "variables": ["A", "A2", "B", "B2"],
        "builtin": {"name": "pr-box", "params": {"e_ab": "1/2"}},
    }
    path = write_json(tmp_path, "builtin.json", doc)
    assert run(["solve", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["label"] == "pr-box"
    assert report["mstar"] == "7/4"


def test_builtin_document_may_leave_out_variables(tmp_path, capsys):
    doc = {"builtin": {"name": "pr-box", "params": {"e_ab": "1/2"}}}
    path = write_json(tmp_path, "builtin.json", doc)
    assert run(["solve", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["variables"] == ["A", "A2", "B", "B2"]
    assert report["mstar"] == "7/4"


def test_builtin_document_assembles_its_rows_once(tmp_path, monkeypatch):
    """The "variables" check and the solve read one system: the one row
    builder runs once."""
    calls = []
    build = negprob.contextuality._row_system

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(negprob.contextuality, "_row_system", counted)
    doc = {"builtin": {"name": "pr-box"}, "variables": ["A", "A2", "B", "B2"]}
    assert run(["solve", write_json(tmp_path, "builtin.json", doc)]) == 0
    assert len(calls) == 1


def test_contexts_document_builds_each_space_once(tmp_path, monkeypatch):
    """One sample space per context, and one over the global variables."""
    built = []
    init = negprob.measure.SampleSpace.__init__

    def counted(self, variables):
        built.append(tuple(variables))
        init(self, variables)

    monkeypatch.setattr(negprob.measure.SampleSpace, "__init__", counted)
    family = mz_family(6, 7)
    path = family_file(tmp_path, "contexts.json", family)
    built.clear()
    assert run(["solve", path]) == 0
    assert built == [c.variables for c in family.contexts] + [
        family.global_variables
    ]


def test_builtin_document_variables_must_match(tmp_path, capsys):
    doc = {"variables": ["Q"], "builtin": {"name": "pr-box"}}
    assert run(["solve", write_json(tmp_path, "builtin.json", doc)]) == 1
    assert capsys.readouterr().err == (
        "input error: builtin 'pr-box' has \"variables\" "
        "['A', 'A2', 'B', 'B2'], got ['Q']\n"
    )


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"variables": ["X"], "contexts": [5]},
            "contexts[0] must be an object",
        ),
        (
            {
                "variables": ["X"],
                "contexts": [{"variables": ["X"], "distribution": ["+"]}],
            },
            "contexts[0].distribution must be an object",
        ),
        (
            {"variables": ["X"], "constraints": {"event": {}}},
            "\"constraints\" must be a list",
        ),
        (
            {"variables": ["X"], "constraints": [{"event": {"X": 1}}]},
            "constraints[0] needs \"event\" and \"value\"",
        ),
        (
            {"variables": ["X"], "constraints": [{"value": "1/2"}]},
            "constraints[0] needs \"event\" and \"value\"",
        ),
        (
            {"variables": ["X"], "constraints": [{"event": [1], "value": "1"}]},
            "constraints[0].event must be an object",
        ),
        (
            {"builtin": {"name": "pr-box", "params": ["1/2"]}},
            "builtin params must be an object",
        ),
    ],
)
def test_document_rejections_name_the_fault(tmp_path, capsys, doc, message):
    assert run(["solve", write_json(tmp_path, "bad.json", doc)]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "text, key",
    [
        (
            '{"builtin": {"name": "pr-box", '
            '"params": {"e_ab": "1/2", "e_ab": "1"}}}',
            "e_ab",
        ),
        (
            '{"variables": ["X"], "constraints": '
            '[{"event": {"X": 1, "X": -1}, "value": "1/4"}]}',
            "X",
        ),
        (
            '{"variables": ["X"], "contexts": [{"variables": ["X"], '
            '"distribution": {"+": "1", "+": "0", "-": "1"}}]}',
            "+",
        ),
        (
            '{"variables": ["X"], "variables": ["Y"], "contexts": []}',
            "variables",
        ),
    ],
)
def test_repeated_json_keys_are_refused(tmp_path, capsys, text, key):
    """The last of two equal keys used to win without a word."""
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    for command in ("solve", "viable"):
        assert run([command, str(path)]) == 1
        assert capsys.readouterr().err == (
            f"input error: key {key!r} given twice in one object\n"
        )


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"variables": ["Ä"]}'.encode("latin-1"))
    assert run(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("input error: cannot read")


def test_deeply_nested_file_is_an_input_error(tmp_path, capsys):
    """Nesting past the recursion limit is worded, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert run(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_long_variable_list_is_refused_at_once(tmp_path):
    """The variable count is checked before the names are scanned for
    duplicates, a scan quadratic in the list's length."""
    names = [f"v{i}" for i in range(200_000)]
    doc = {"variables": names, "constraints": []}
    path = write_json(tmp_path, "wide.json", doc)
    src = str(Path(negprob.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "negprob.cli", "solve", path],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "input error: 200000 variables exceed the 24-variable "
        "enumeration limit\n"
    )


def test_overlong_literals_are_input_errors(tmp_path, capsys):
    digits = "1" * 5000
    doc = {
        "variables": ["X"],
        "constraints": [{"event": {"X": 1}, "value": f"1/{digits}"}],
    }
    assert run(["solve", write_json(tmp_path, "long.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("input error:")
    path = tmp_path / "long-sign.json"
    path.write_text(
        '{"variables": ["X"], "constraints": '
        f'[{{"event": {{"X": {digits}}}, "value": "1"}}]}}',
        encoding="utf-8",
    )
    assert run(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert run(["builtin", "mz-detuned", "--param", digits]) == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_rational_literals_are_bounded_in_characters():
    """A literal over RATIONAL_MAX_CHARS is refused by its length alone,
    before its digits are read; one at the bound still parses."""
    digits = "7" * 5000
    for text in (f"{digits}/3", f"3/{digits}", f"  {digits}  "):
        length = len(text.strip())
        with pytest.raises(ScenarioFormatError, match=f"of {length} char"):
            parse_rational(text)
    at_bound = "1/" + "9" * (RATIONAL_MAX_CHARS - 2)
    assert parse_rational(at_bound) == Fraction(1, 10 ** 98 - 1)
    with pytest.raises(ScenarioFormatError, match="longer than the limit"):
        parse_rational(at_bound + "9")
    # the last seven are forms Fraction accepts or nearly accepts
    for bad in (None, 3, "1.5", "", "1e3", "1_000", "0x1f", "1 /2", "1/0",
                "1/-2", "--1"):
        with pytest.raises(ScenarioFormatError, match="rational string"):
            parse_rational(bad)


@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.sampled_from(["", "+"]),
    st.integers(0, 3),
    st.text(" \t\n", max_size=3),
    st.text(" \t\n", max_size=3),
)
def test_rational_literal_parses_to_its_fraction(n, d, plus, zeros, lead, tail):
    """Sign, leading zeros and surrounding spaces do not change the value."""
    sign = "-" if n < 0 else plus
    literal = f"{lead}{sign}{'0' * zeros}{abs(n)}/{d}{tail}"
    assert parse_rational(literal) == Fraction(n, d)


def test_float_signs_are_rejected(tmp_path, capsys):
    for sign in (1.0, -1.0, True, False, 2, 0, "1", None):
        doc = {
            "variables": ["X"],
            "constraints": [{"event": {"X": sign}, "value": "1/2"}],
        }
        path = write_json(tmp_path, "float-sign.json", doc)
        assert run(["solve", path]) == 1
        assert "must be 1 or -1" in capsys.readouterr().err



# -- literals read once per document ----------------------------------------

NOT_A_LITERAL = (
    'input error: expected a rational string like "1/2" or "-3", got '
)
OVERLONG = "1/" + "9" * (RATIONAL_MAX_CHARS - 1)


def _x_rows(*values):
    return [
        {"event": {"X": sign}, "value": value}
        for sign, value in zip((1, -1), values)
    ]


def _x_contexts(*tables):
    return [{"variables": ["X"], "distribution": table} for table in tables]


@pytest.mark.parametrize(
    "doc, err",
    [
        # a bad literal repeated, in rows and in contexts
        (
            {"variables": ["X"], "constraints": _x_rows("0.5", "0.5")},
            NOT_A_LITERAL + "'0.5'",
        ),
        (
            {
                "variables": ["X"],
                "contexts": _x_contexts(
                    {"+": "1/2", "-": "half"}, {"+": "half", "-": "1/2"}
                ),
            },
            NOT_A_LITERAL + "'half'",
        ),
        # a JSON number, or true, where an equal string was read earlier
        (
            {"variables": ["X"], "constraints": _x_rows("1", 1)},
            NOT_A_LITERAL + "1",
        ),
        (
            {
                "variables": ["X"],
                "contexts": _x_contexts(
                    {"+": "1", "-": "0"}, {"+": 1, "-": "0"}
                ),
            },
            NOT_A_LITERAL + "1",
        ),
        (
            {
                "variables": ["X"],
                "contexts": _x_contexts(
                    {"+": "1", "-": "0"}, {"+": True, "-": "0"}
                ),
            },
            NOT_A_LITERAL + "True",
        ),
        # over the character bound, repeated, and as a builtin parameter
        (
            {"variables": ["X"], "constraints": _x_rows(OVERLONG, OVERLONG)},
            "input error: rational literal of 101 characters is longer "
            "than the limit of 100",
        ),
        (
            {"builtin": {"name": "mz-detuned", "params": {"eps": OVERLONG}}},
            "input error: rational literal of 101 characters is longer "
            "than the limit of 100",
        ),
    ],
)
def test_literals_read_once_per_document_keep_every_refusal(
    tmp_path, capsys, doc, err
):
    """Each distinct literal string of a document is parsed once; every
    refusal keeps its message and exit code 1."""
    path = write_json(tmp_path, "doc.json", doc)
    for command in ("solve", "viable"):
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err + "\n")


def test_a_repeated_literal_is_parsed_once(tmp_path, monkeypatch):
    parsed = []
    as_fraction = negprob.cli.as_fraction

    def counted(text):
        parsed.append(text)
        return as_fraction(text)

    monkeypatch.setattr(negprob.cli, "as_fraction", counted)
    doc = {
        "variables": ["X"],
        "contexts": _x_contexts(
            {"+": "1/2", "-": "1/2"}, {"+": "1/2", "-": " 1/2"}
        ),
    }
    assert run(["solve", write_json(tmp_path, "doc.json", doc)]) == 0
    assert parsed == ["1/2", " 1/2"]


# -- the bias-first verdict equals the simplex route --------------------------


def _cli_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([*argv, "--format", "json"])
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())


def _labels(measure):
    if measure is None:
        return None
    return {measure.space.atom_label(a): str(m) for a, m in measure.support}


@settings(max_examples=150, deadline=None)
@given(families_with_repeats())
def test_bias_first_verdicts_equal_the_simplex_route(family):
    """solve, viable and condition report what minimize_l1 and
    feasible_proper say of the family's rows, though a biased family
    reaches neither."""
    system = family_system(family)
    result, proper = minimize_l1(system), feasible_proper(system)
    bias = detect_bias(family)
    event("biased" if bias else "unbiased")
    if bias is not None:
        assert result.status is SolveStatus.INFEASIBLE
        assert rank_nullity(system) == (result.rank, result.nullity)
    names = list(family.global_variables)
    empty = dict.fromkeys(
        "status mstar rank nullity witness viable bias conditional".split()
    )
    solved = {
        "label": None,
        "variables": names,
        **empty,
        "status": result.status.value,
        "mstar": None if result.mstar is None else str(result.mstar),
        "rank": result.rank,
        "nullity": result.nullity,
    }
    target, given_ = {names[0]: 1}, {names[-1]: -1}
    if result.witness is None:
        conditional = None
    else:
        entry = {"target": target, "given": given_, "defined": True}
        try:
            value = signed_conditional(
                result.witness,
                cylinder(system.space, target),
                cylinder(system.space, given_),
            )
            entry.update(value=str(value), proper_range=0 <= value <= 1)
        except UndefinedConditional:
            entry.update(defined=False, value=None, proper_range=None)
        conditional = entry
    bias_entry = None if bias is None else {
        "event": dict(bias.event),
        "context_i": bias.context_i,
        "context_j": bias.context_j,
        "value_i": str(bias.value_i),
        "value_j": str(bias.value_j),
    }
    infeasible = 2 if result.status is SolveStatus.INFEASIBLE else 0
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "family.json")
        Path(path).write_text(json.dumps(family_to_scenario(family)))
        assert _cli_json(["solve", path]) == (
            infeasible,
            {
                "command": "solve",
                **solved,
                "witness": _labels(result.witness),
                "bias": bias_entry,
            },
        )
        assert _cli_json(["viable", path]) == (
            0 if proper is not None else 2,
            {
                "command": "viable",
                "label": None,
                "variables": names,
                **empty,
                "viable": proper is not None,
                "witness": _labels(proper),
            },
        )
        flags = ["--target", f"{names[0]}=1", "--given", f"{names[-1]}=-1"]
        assert _cli_json(["condition", path, *flags]) == (
            infeasible,
            {"command": "condition", **solved, "conditional": conditional},
        )


def test_biased_solve_and_condition_build_no_rows(
    tmp_path, monkeypatch, capsys
):
    """A biased family's verdict and its closed-form rank and nullity need
    no row and no LP; an unknown name is still refused before a solve."""
    family = mz_family(5, 6)
    path = family_file(tmp_path, "biased.json", family)
    rank, nullity = rank_nullity(family_system(family))

    def refuse(*args, **kwargs):
        raise AssertionError("a biased family built rows or an LP")

    monkeypatch.setattr(negprob.solver, "_row_system", refuse)
    monkeypatch.setattr(negprob.contextuality, "_row_system", refuse)
    monkeypatch.setattr(negprob.solver, "_RevisedLP", refuse)
    code, report = _cli_json(["solve", path])
    assert code == 2
    assert report["status"] == "Infeasible"
    assert (report["rank"], report["nullity"]) == (rank, nullity)
    assert report["bias"] is not None
    flags = ["--target", "Da=1", "--given", "D1=1"]
    code, report = _cli_json(["condition", path, *flags])
    assert code == 2
    assert report["status"] == "Infeasible"
    assert (report["rank"], report["nullity"]) == (rank, nullity)
    assert report["conditional"] is None
    flags = ["--target", "Da=1", "--given", "Q=1"]
    assert run(["condition", path, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: variable 'Q' not in space")


def test_builtin_variables_are_checked_without_rows(tmp_path, monkeypatch):
    """A builtin document's "variables" are read off the payload's space,
    so bias on a contexts built-in builds no row; a wrong list is still
    refused."""
    def refuse(*args, **kwargs):
        raise AssertionError("the variables check built rows")

    monkeypatch.setattr(negprob.contextuality, "_row_system", refuse)
    path = tmp_path / "pr-box.json"
    builtin = {"name": "pr-box"}
    document = {"variables": ["A", "A2", "B", "B2"], "builtin": builtin}
    path.write_text(json.dumps(document))
    code, report = _cli_json(["bias", str(path)])
    assert code == 0
    assert report["bias"] is None
    assert report["variables"] == ["A", "A2", "B", "B2"]
    document["variables"] = ["A2", "A", "B", "B2"]
    with pytest.raises(ScenarioFormatError, match="has \"variables\""):
        scenario_from_data(document, "pr-box")


def test_refuted_viable_runs_no_simplex(tmp_path, monkeypatch):
    """viable answers NOT VIABLE, exit 2, from a Farkas vector read off the
    rows: the ring's broken n-cycle inequality, pr-box's CHSH, and the one
    negative row of a 12-variable document whose phase 1 takes seconds."""
    def refuse(*args, **kwargs):
        raise AssertionError("a refuted viable ran the simplex")

    monkeypatch.setattr(negprob.solver, "_phase1", refuse)
    documents = [
        family_to_scenario(ncycle(10)),
        {"builtin": {"name": "pr-box"}},
        negative_atom_document(),
    ]
    for k, document in enumerate(documents):
        path = write_json(tmp_path, f"refuted-{k}.json", document)
        code, report = _cli_json(["viable", path])
        assert code == 2
        assert report["viable"] is False and report["witness"] is None
