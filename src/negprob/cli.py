"""Command-line front end.

Subcommands
-----------
* ``solve <file>``: assemble the scenario's constraint system and minimize
  the L1 norm; reports status, M*, rank/nullity, and the witness.
* ``viable <file>``: look for a proper (nonnegative) solution; prints the
  witness or ``NOT VIABLE``.
* ``bias <file>``: compare the contexts pairwise on shared events; prints
  the first disagreement or ``NO BIAS``.
* ``condition <file> --target k=v[,k=v] --given k=v[,k=v]``: conditional
  of the target cylinder given the given cylinder, evaluated on the solve
  witness.
* ``builtin <name> [--param v | --param k=v] ...``: materialize a built-in
  scenario and solve it.

Every subcommand accepts ``--format {table,json}``.  Exit codes: 0 on
success, 2 when the answer is Infeasible or NOT VIABLE, 1 on input
errors (malformed JSON is reported with line and column).

Scenario files are JSON documents with a ``variables`` list plus exactly
one of ``contexts``, ``constraints``, or ``builtin`` (where ``variables``
may be left out, and must match the built-in's if given); all numbers are
rational strings like ``"1/2"`` or ``"-3"``, never floats.  Context
distribution keys spell one sign per context variable in order, for
example ``"+-"``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache, partial
from typing import Mapping, Sequence

from .contextuality import (
    BiasWitness, ContextFamily, _family_rank, detect_bias
)
from .errors import (
    InvalidAssignment,
    NegprobError,
    ScenarioFormatError,
    UndefinedConditional,
)
from .measure import (
    Context,
    SignedMeasure,
    _not_a_literal,
    as_fraction,
    build_space,
    cylinder,
    signed_conditional,
)
from .scenarios import (
    BUILTIN_NAMES,
    ScenarioBundle,
    builtin_bundle,
    builtin_spec,
)
from .solver import (
    SolveResult,
    SolveStatus,
    assemble,
    feasible_proper,
    minimize_l1,
)

def parse_rational(text: object, parse=as_fraction) -> Fraction:
    """parse, as_fraction by default, of a JSON value that must be a string."""
    if not isinstance(text, str):
        raise _not_a_literal(text)
    return parse(text)


def _names(value: object, what: str) -> list[str]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) for v in value)
    ):
        raise ScenarioFormatError(f"{what} must be a nonempty list of names")
    return value


def _context_from_data(entry: object, index: int, read) -> Context:
    where = f"contexts[{index}]"
    if not isinstance(entry, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    variables = _names(entry.get("variables"), f"{where}.variables")
    distribution = entry.get("distribution")
    if not isinstance(distribution, dict):
        raise ScenarioFormatError(f"{where}.distribution must be an object")
    space = build_space(variables)
    mass = [Fraction(0)] * space.atom_count
    try:
        for key, raw in distribution.items():
            mass[space.atom_from_label(key)] = read(raw)
    except InvalidAssignment as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    return Context(space, mass)


def scenario_from_data(data: object, label: str) -> ScenarioBundle:
    """Validate a decoded scenario document and build its bundle."""
    # each distinct literal string of the document is parsed once
    read = partial(parse_rational, parse=lru_cache(maxsize=None)(as_fraction))
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    variables = data.get("variables")  # optional in a builtin document
    if "variables" in data or "builtin" not in data:
        variables = _names(variables, "\"variables\"")
    present = [k for k in ("contexts", "constraints", "builtin") if k in data]
    if len(present) != 1:
        raise ScenarioFormatError(
            "exactly one of \"contexts\", \"constraints\", \"builtin\" "
            f"must be present, found {present or 'none'}"
        )
    kind = present[0]
    if kind == "contexts":
        entries = data["contexts"]
        if not isinstance(entries, list) or not entries:
            raise ScenarioFormatError("\"contexts\" must be a nonempty list")
        contexts = tuple(  # a list: see SignedMeasure.__init__
            [_context_from_data(e, i, read) for i, e in enumerate(entries)]
        )
        family = ContextFamily(tuple(variables), contexts)
        return ScenarioBundle(family, label)
    if kind == "constraints":
        entries = data["constraints"]
        if not isinstance(entries, list):
            raise ScenarioFormatError("\"constraints\" must be a list")
        space = build_space(variables)
        rows = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "event" not in entry \
                    or "value" not in entry:
                raise ScenarioFormatError(
                    f"constraints[{i}] needs \"event\" and \"value\""
                )
            event = entry["event"]
            if not isinstance(event, dict):
                raise ScenarioFormatError(
                    f"constraints[{i}].event must be an object"
                )
            rows.append((event, read(entry["value"])))
        return ScenarioBundle(assemble(space, rows), label)
    entry = data["builtin"]
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ScenarioFormatError("\"builtin\" must be {\"name\": ..., ...}")
    params_data = entry.get("params", {})
    if not isinstance(params_data, dict):
        raise ScenarioFormatError("builtin params must be an object")
    params = {str(k): read(v) for k, v in params_data.items()}
    bundle = builtin_bundle(entry["name"], params)
    if variables is not None:
        expected = list(bundle.payload.space.variables)
        if variables != expected:
            raise ScenarioFormatError(
                f"builtin {entry['name']!r} has \"variables\" {expected}, "
                f"got {variables}"
            )
    return bundle


def family_to_scenario(family: ContextFamily) -> dict:
    """Serialize a context family to the scenario-file structure."""
    contexts = []
    for context in family.contexts:
        joint = SignedMeasure(context.space, context.distribution)
        contexts.append(
            {
                "variables": list(context.variables),
                "distribution": _label_table(joint),
            }
        )
    return {"variables": list(family.global_variables), "contexts": contexts}


# --- reports ---------------------------------------------------------------


def _label_table(m: SignedMeasure | None) -> dict[str, str] | None:
    """Nonzero masses keyed by atom label, as scenario files write them."""
    if m is None:
        return None
    return {m.space.atom_label(a): str(mass) for a, mass in m.support}


def _bias_entry(witness: BiasWitness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "event": {name: sign for name, sign in witness.event},
        "context_i": witness.context_i,
        "context_j": witness.context_j,
        "value_i": str(witness.value_i),
        "value_j": str(witness.value_j),
    }


def _empty_report(command: str, bundle: ScenarioBundle) -> dict:
    fields = "status mstar rank nullity witness viable bias conditional"
    report = {"command": command, "label": bundle.label}
    report["variables"] = list(bundle.payload.space.variables)
    return report | dict.fromkeys(fields.split())


def _assignment_text(partial: Mapping[str, int]) -> str:
    return ",".join(f"{name}={sign:+d}" for name, sign in partial.items())


def _render_table(report: dict) -> str:
    lines: list[str] = []
    if report["label"]:
        lines.append(f"label: {report['label']}")
    if report["viable"] is not None:
        lines.append("VIABLE" if report["viable"] else "NOT VIABLE")
    if report["status"] is not None:
        lines.append(f"status: {report['status']}")
    if report["mstar"] is not None:
        lines.append(f"M* = {report['mstar']}")
    if report["rank"] is not None:
        lines.append(f"rank: {report['rank']}")
        lines.append(f"nullity: {report['nullity']}")
    if report["witness"] is not None:
        header = " ".join(report["variables"])
        lines.append(f"witness (atom chars follow {header}; zeros omitted):")
        width = max(len(label) for label in report["witness"])
        for label, mass in report["witness"].items():
            lines.append(f"  {label:<{width}}  {mass}")
    if report["command"] == "bias":
        bias = report["bias"]
        if bias is None:
            lines.append("NO BIAS")
        else:
            event = _assignment_text(bias["event"])
            lines.append(
                f"BIAS on {event}: context {bias['context_i']} gives "
                f"{bias['value_i']}, context {bias['context_j']} gives "
                f"{bias['value_j']}"
            )
    elif report["bias"] is not None:
        bias = report["bias"]
        event = _assignment_text(bias["event"])
        lines.append(
            f"bias witness: {event} gets {bias['value_i']} in context "
            f"{bias['context_i']} but {bias['value_j']} in context "
            f"{bias['context_j']}"
        )
    conditional = report["conditional"]
    if conditional is not None:
        target = _assignment_text(conditional["target"])
        given = _assignment_text(conditional["given"])
        if conditional["defined"]:
            note = (
                "proper range"
                if conditional["proper_range"]
                else "outside [0,1]"
            )
            lines.append(
                f"P({target} | {given}) = {conditional['value']}  ({note})"
            )
        else:
            lines.append(
                f"P({target} | {given}) undefined: conditioning event "
                "has mass zero"
            )
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return _render_table(report)


# --- subcommand handlers ----------------------------------------------------


def _solve_report(command: str, bundle: ScenarioBundle) -> tuple:
    """Solve the bundle: a report, the result, and a contexts bundle's bias,
    found first; a biased family gets its closed-form rank and no rows."""
    bias = detect_bias(bundle.payload) if bundle.kind == "contexts" else None
    result = minimize_l1(bundle.system) if bias is None else SolveResult(
        SolveStatus.INFEASIBLE, None, None, *_family_rank(bundle.payload)
    )
    report = _empty_report(command, bundle)
    report["status"] = result.status.value
    report["mstar"] = None if result.mstar is None else str(result.mstar)
    report["rank"], report["nullity"] = result.rank, result.nullity
    return report, result, bias


def _cmd_solve(bundle: ScenarioBundle) -> tuple[dict, int]:
    report, result, bias = _solve_report("solve", bundle)
    report["witness"] = _label_table(result.witness)
    report["bias"] = _bias_entry(bias)
    return report, 2 if result.status is SolveStatus.INFEASIBLE else 0


def _cmd_viable(bundle: ScenarioBundle) -> tuple[dict, int]:
    """A biased family is NOT VIABLE before its rows are built."""
    biased = bundle.kind == "contexts" and detect_bias(bundle.payload)
    witness = None if biased else feasible_proper(bundle.system)
    report = _empty_report("viable", bundle)
    report["viable"] = witness is not None
    report["witness"] = _label_table(witness)
    return report, 0 if witness is not None else 2


def _cmd_bias(bundle: ScenarioBundle) -> tuple[dict, int]:
    if bundle.kind != "contexts":
        raise ScenarioFormatError(
            "bias analysis needs a scenario with contexts"
        )
    report = _empty_report("bias", bundle)
    report["bias"] = _bias_entry(detect_bias(bundle.payload))
    return report, 0


def _set_once(settings: dict, key: str, value: object, what: str) -> None:
    if key in settings:
        raise ScenarioFormatError(f"{what} {key!r} set twice")
    settings[key] = value


def _parse_assignment_flag(text: str, flag: str) -> dict[str, int]:
    partial: dict[str, int] = {}
    for chunk in text.split(","):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or value not in ("1", "+1", "-1"):
            raise ScenarioFormatError(
                f"{flag} expects k=v pairs with v one of 1, +1, -1; "
                f"got {chunk!r}"
            )
        sign = 1 if value in ("1", "+1") else -1
        _set_once(partial, name, sign, f"{flag} variable")
    return partial


def _cmd_condition(args: argparse.Namespace) -> tuple[dict, int]:
    bundle = _load_bundle(args.file)
    target = _parse_assignment_flag(args.target, "--target")
    given = _parse_assignment_flag(args.given, "--given")
    space = bundle.payload.space  # an unknown name is refused before a solve
    events = cylinder(space, target), cylinder(space, given)
    report, result, _ = _solve_report("condition", bundle)
    if result.witness is None:
        return report, 2
    entry: dict = {"target": target, "given": given}
    try:
        value = signed_conditional(result.witness, *events)
        entry["defined"] = True
        entry["value"] = str(value)
        entry["proper_range"] = 0 <= value <= 1
    except UndefinedConditional:
        entry["defined"] = False
        entry["value"] = None
        entry["proper_range"] = None
    report["conditional"] = entry
    return report, 0


def _cmd_builtin(args: argparse.Namespace) -> tuple[dict, int]:
    order = tuple(builtin_spec(args.name).defaults)
    params: dict[str, Fraction] = {}
    what = f"builtin {args.name!r} parameter"
    positional = 0
    for raw in args.param:
        key, sep, value = raw.partition("=")
        if not sep:
            if positional >= len(order):
                raise ScenarioFormatError(
                    f"builtin {args.name!r} takes at most {len(order)} "
                    "positional parameters"
                )
            key, value = order[positional], raw
            positional += 1
        _set_once(params, key.strip(), parse_rational(value), what)
    return _cmd_solve(builtin_bundle(args.name, params))


# --- argument parsing --------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "None":  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="negprob",
        description=(
            "Feasibility and minimum-L1-norm analysis of signed joint "
            "distributions for ±1-valued variables."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output rendering (default: table)",
        )

    for name, doc, cmd in (
        ("solve", "minimize the L1 norm over all signed solutions", _cmd_solve),
        ("viable", "look for a proper nonnegative solution", _cmd_viable),
        ("bias", "compare contexts pairwise on shared events", _cmd_bias),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("file", help="scenario JSON file")
        p.set_defaults(handler=lambda a, cmd=cmd: cmd(_load_bundle(a.file)))
        add_format(p)

    p = sub.add_parser(
        "condition", help="conditional probability on the solve witness"
    )
    p.add_argument("file", help="scenario JSON file")
    p.add_argument("--target", required=True, help="k=v[,k=v] cylinder")
    p.add_argument("--given", required=True, help="k=v[,k=v] cylinder")
    p.set_defaults(handler=_cmd_condition)
    add_format(p)

    p = sub.add_parser("builtin", help="solve a built-in scenario")
    p.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="V",
        help="builtin parameter, positional value or k=v; repeatable",
    )
    p.set_defaults(handler=_cmd_builtin)
    add_format(p)
    return parser


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; a key given twice is refused, not
    silently overwritten by the last."""
    members = dict(pairs)
    if len(members) < len(pairs):  # name the first key met twice
        seen: set = set()  # seen.add returns None, so only a repeat passes
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ScenarioFormatError(f"key {key!r} given twice in one object")
    return members


def _load_bundle(path: str) -> ScenarioBundle:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from exc
    except ScenarioFormatError:  # a repeated key, already worded
        raise
    # bytes that are not UTF-8, overlong integers, nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    return scenario_from_data(data, label=None)


_PARSER = _build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        args = _PARSER.parse_args(argv)
        report, code = args.handler(args)
        print(_render(report, args.format), end="")
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, NegprobError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
