"""Hostile scenario documents: every command ends in a report or a worded
error, within a wall bound, never in a traceback.

``Hostile`` is a plain generator over ``random.Random``; the property
draws that generator from hypothesis, so a failing document is replayed
and shrunk like any other example.  It aims at one input hazard after
another: the variable count across the cap, wrong JSON types at every
schema position, NaN, Infinity, floats and bools where signs and values
go, literals at and past the 100-character bound, huge numerators and
denominators within it, repeated keys, contradictory rows, long and odd
names, and deep nesting.  Each document draws how hostile it is, so some
are clean and reach the solver.  The sizes the engine cannot yet bound
stay small: contexts of at most 4 variables, at most 8 contexts, at most
16 constraint rows.  A second property holds the library's entry points
and the CLI to one rational-literal grammar.  Rerun both with other
seeds with ``pytest tests/test_hostile.py --hypothesis-seed=N``.
"""

import io
import json
import math
import random
import signal
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from negprob import (
    ConstraintSystem,
    Context,
    Event,
    ScenarioFormatError,
    SignedMeasure,
    assemble,
    build_space,
)
from negprob.cli import parse_rational, run
from negprob.measure import as_fraction
from negprob.scenarios import BUILTIN_NAMES, builtin_spec

WALL_S = 5  # per document, all four commands

WRONG = [
    None, True, False, 0, 1, -1, 0.5, -1.0, 1e300, math.nan, math.inf,
    -math.inf, "", " ", "x", "1", [], ["X"], {}, {"X": 1}, 10**99,
]
ODD_NAMES = [
    "", " ", "A,B", "A=1", "-", "+", "é", "名", "\n", "\x00", "1", "null",
    "__class__", "X" * 1000,
]
ODD_SIGNS = [0, 2, True, False, 1.0, -1.0, math.nan, math.inf, "1", None]
ODD_LITERALS = [
    "1" * 100, "1" * 101, "9" * 99, "-" + "9" * 99, "1/" + "9" * 98,
    "9" * 49 + "/" + "7" * 50, " 1/2 ", "1/0", "1.5", "1e3", "0x10", "",
    "+1", "½", math.nan, math.inf, -math.inf, 0.5, True, 1,
]
ODD_LABELS = ["", "+-+-+", "0", "x", "++ "]
# literals on both sides of the grammar; Fraction alone reads several
LITERALS = [text for text in ODD_LITERALS if isinstance(text, str)] + [
    "1e-4000000", "0.5", "-0.25e1", "1_000", "1/02", " +3 ",
]


class Raw(str):
    """JSON text written as it is: nesting too deep to build as lists."""


class Members(list):
    """A JSON object as (key, value) pairs, so a key may repeat."""


def dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Members):
        pairs = (f"{json.dumps(k)}: {dump(v)}" for k, v in value)
        return "{" + ", ".join(pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)  # NaN and Infinity as json writes them


class Hostile:
    """Scenario documents from one random stream; ``level`` scales how
    often a position gets a hostile value (0: never)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.level = rng.choice([0, 0, 0.2, 1, 2])

    def odd(self, p: float) -> bool:
        return self.rng.random() < p * self.level

    def maybe(self, good):
        """good, or now and then a value of a wrong JSON type."""
        if not self.odd(0.02):
            return good
        if self.odd(0.3):
            depth = self.rng.choice([2, 50, 900, 990, 1100, 5000])
            return Raw("[" * depth + "]" * depth)
        return self.rng.choice(WRONG)

    def members(self, pairs) -> Members:
        """An object, now and then with one of its keys given twice."""
        out = Members(pairs)
        if out and self.odd(0.02):
            key, value = self.rng.choice(out)
            twice = self.literal() if self.odd(0.5) else value
            out.insert(self.rng.randrange(len(out) + 1), (key, twice))
        return self.maybe(out)

    def literal(self):
        """A rational string where a value goes."""
        if self.odd(0.05):
            return self.rng.choice(ODD_LITERALS)
        num, den = self.rng.randint(-1, 4), self.rng.randint(1, 4)
        return self.maybe(self.rng.choice([f"{num}/{den}", str(num), "1/2"]))

    def names(self) -> list:
        count = self.rng.choice([1, 2, 3, 3, 4, 4, 5, 6, 23, 24, 25, 30])
        out = [
            self.rng.choice(ODD_NAMES) if self.odd(0.02) else f"v{i}"
            for i in range(count)
        ]
        if self.odd(0.05):
            out.append(self.rng.choice(out))  # a name listed twice
        return out

    def partial(self, variables: list) -> Members:
        width = self.rng.randint(0, min(3, len(variables)))
        chosen = self.rng.sample(variables, width)
        if self.odd(0.03):
            chosen.append("stranger")
        return self.members(
            (name, self.rng.choice(ODD_SIGNS if self.odd(0.03) else [1, -1]))
            for name in chosen
        )

    def constraints(self, variables: list) -> list:
        """Up to 16 rows over the first four variables, some events twice."""
        events = [
            self.partial(variables[:4]) for _ in range(self.rng.randint(0, 12))
        ]
        if events:
            events += self.rng.choices(events, k=self.rng.randint(0, 4))
        rows = []
        for event in events:
            row = [("event", event), ("value", self.literal())]
            if self.odd(0.03):
                del row[self.rng.randrange(2)]
            rows.append(self.members(row))
        return self.maybe(rows)

    def distribution(self, width: int) -> Members:
        """Masses over a context's atoms, summing to one unless hostile."""
        labels = [
            "".join("+" if a >> i & 1 else "-" for i in range(width))
            for a in range(1 << width)
        ]
        total = self.rng.choice([1, 2, 4, 12])
        cuts = sorted(self.rng.randint(0, total) for _ in labels[1:])
        masses = [
            self.literal() if self.odd(0.03) else f"{b - a}/{total}"
            for a, b in zip([0, *cuts], [*cuts, total])
        ]
        if self.odd(0.05):
            labels[0] = self.rng.choice(ODD_LABELS)
        return self.members(zip(labels, masses))

    def contexts(self, variables: list) -> list:
        """Up to 8 contexts of up to 4 of the first five variables, so
        they overlap and may disagree; now and then one given twice."""
        shared = variables[:5]
        out = []
        for _ in range(self.rng.randint(1, 7)):
            width = self.rng.randint(1, min(4, len(shared)))
            chosen = self.rng.sample(shared, width)
            if self.odd(0.03):
                chosen.append("stranger")
            pairs = [
                ("variables", self.maybe(chosen)),
                ("distribution", self.distribution(len(chosen))),
            ]
            out.append(self.members(pairs))
        if self.rng.random() < 0.3:
            out.append(self.rng.choice(out))
        return self.maybe(out)

    def builtin(self, variables: list) -> Members:
        name = self.rng.choice([*BUILTIN_NAMES, "nope"])
        params = [] if name == "nope" else list(builtin_spec(name).defaults)
        chosen = self.rng.sample(params, self.rng.randint(0, len(params)))
        if self.odd(0.1):
            chosen.append("stranger")
        pairs = [("name", self.maybe(name))]
        if chosen or self.rng.random() < 0.5:
            given = self.members((p, self.literal()) for p in chosen)
            pairs.append(("params", given))
        return self.members(pairs)

    def document(self) -> tuple[str, list]:
        """JSON text of one scenario document, and its variable names."""
        variables = self.names()
        kind = self.rng.choice(["contexts", "constraints", "builtin"])
        body = getattr(self, kind)(variables)
        pairs = [("variables", self.maybe(variables)), (kind, body)]
        if kind == "builtin" and self.rng.random() < 0.8:
            del pairs[0]  # a builtin document may leave out its variables
        if self.odd(0.03):
            pairs.append((self.rng.choice(["contexts", "constraints"]), body))
        return dump(self.members(pairs)), variables

    def assignment(self, variables: list) -> str:
        """A --target or --given flag over the document's names."""
        chosen = self.rng.sample(variables, min(len(variables), 2))
        if self.odd(0.05):
            chosen.append("stranger")
        return ",".join(f"{n}={self.rng.choice(['1', '-1'])}" for n in chosen)


class Overtime(BaseException):
    """Past the wall bound.  A BaseException, so that no handler in the
    program takes it for an input error."""


def _overtime(signum, frame):
    raise Overtime(f"a document took over {WALL_S} s")


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_command_reports_or_refuses_a_hostile_document(rng):
    hostile = Hostile(rng)
    text, variables = hostile.document()
    flags = [
        "--target", hostile.assignment(variables),
        "--given", hostile.assignment(variables),
    ]
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, WALL_S)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(text, encoding="utf-8")
            for command in ("solve", "viable", "bias", "condition"):
                argv = [command, str(path), "--format", "json"]
                if command == "condition":
                    argv += flags
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = run(argv)
                out, err = out.getvalue(), err.getvalue()
                if code in (0, 2):
                    assert err == ""
                    assert json.loads(out)["command"] == command
                else:
                    assert code == 1
                    assert out == ""
                    assert err.startswith(("input error:", "usage error:"))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _read(parse, text):
    """parse(text), or the message of the ScenarioFormatError it raises."""
    try:
        return parse(text)
    except ScenarioFormatError as exc:
        return f"refused: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(LITERALS) | st.text("0123456789+-/._eE ", max_size=12)
)
def test_library_and_cli_read_one_rational_literal_grammar(text):
    """as_fraction, the coercion behind every library entry point, and
    parse_rational, the CLI's, give one Fraction or one refusal for every
    string; so do ConstraintSystem and both SignedMeasure constructors,
    and assemble and Context refuse what they refuse.  A non-string is
    the CLI's own refusal, and no part of this property."""
    read = _read(as_fraction, text)
    assert _read(parse_rational, text) == read
    space = build_space(["X"])
    entry_points = [
        lambda t: ConstraintSystem(space, [(Event.full(space), t)]).rows[0][1],
        lambda t: SignedMeasure(space, [t, 0]).mass[0],
        lambda t: SignedMeasure.from_sparse(space, {1: t}).mass[1],
    ]
    if isinstance(read, str):  # assemble bounds a value; a Context sums to 1
        entry_points += [
            lambda t: assemble(space, [({"X": 1}, t)]),
            lambda t: Context(["X"], [t, 0]),
        ]
    for entry_point in entry_points:
        assert _read(entry_point, text) == read
