"""The immutable records: what a frozen dataclass gave each of them.

Each record equals an equal instance of its own class only, hashes as
the tuple of its compared fields, prints in the dataclass format, refuses
assignment and deletion, and takes its arguments by position or keyword.
A frozen dataclass built here with the same fields is the reference for
the hash and the repr.
"""

import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import negprob
from negprob import (
    BiasWitness,
    ConstraintSystem,
    Context,
    ContextFamily,
    Event,
    SampleSpace,
    ScenarioBundle,
    SignedMeasure,
    SolveResult,
    Violation,
    WaveConfig,
    assemble,
    cylinder,
    minimize_l1,
)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
XY = SampleSpace(("X", "Y"))
CTX = Context(("X",), (HALF, HALF))
FAMILY = ContextFamily(("X", "Y"), (CTX,))
SYSTEM = assemble(XY, [({"X": 1}, HALF), ({"X": 1, "Y": -1}, QUARTER)])
RESULT = minimize_l1(SYSTEM)

# record class, its arguments by keyword in order, its compared fields
CASES = [
    (SampleSpace, {"variables": ("X", "Y")}, None),
    (
        SignedMeasure,
        {"space": XY, "mass": (HALF, 0, 0, HALF)},
        {"space": XY, "support": ((0, HALF), (3, HALF))},
    ),
    (Context, {"variables": ("X",), "distribution": (HALF, HALF)}, None),
    (Violation, {"axiom": "K1", "detail": "atom -+", "atoms": (1,)}, None),
    (ConstraintSystem, {"space": XY, "rows": SYSTEM.rows}, None),
    (
        SolveResult,
        {
            "status": RESULT.status,
            "mstar": RESULT.mstar,
            "witness": RESULT.witness,
            "rank": RESULT.rank,
            "nullity": RESULT.nullity,
        },
        None,
    ),
    (
        ContextFamily,
        {"global_variables": ("X", "Y"), "contexts": (CTX,)},
        None,
    ),
    (
        BiasWitness,
        {
            "event": (("X", 1),),
            "context_i": 0,
            "context_j": 1,
            "value_i": HALF,
            "value_j": QUARTER,
        },
        None,
    ),
    (
        WaveConfig,
        {"amplitude": Fraction(2), "phi1": 0.5, "phi2": -0.5, "detuning": 0},
        None,
    ),
    (ScenarioBundle, {"payload": FAMILY, "label": "one"}, None),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _fields(case):
    _, kwargs, fields = case
    return kwargs if fields is None else fields


def _reference(cls, fields):
    """The frozen dataclass the record was written as."""
    return make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_record_by_position_equals_record_by_keyword(case):
    cls, kwargs, _ = case
    by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
    assert by_position == by_keyword and not by_position != by_keyword
    assert hash(by_position) == hash(by_keyword)
    for name, value in _fields(case).items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_record_equals_only_its_own_class(case):
    cls, kwargs, _ = case
    record, fields = cls(**kwargs), _fields(case)
    strangers = [tuple(fields.values()), _reference(cls, fields), object()]
    strangers += [c(**args) for c, args, _ in CASES if c is not cls]
    for other in strangers:
        assert record.__eq__(other) is NotImplemented
        assert record != other and not record == other


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_record_hash_and_repr_are_the_dataclass_ones(case):
    cls, kwargs, _ = case
    record, fields = cls(**kwargs), _fields(case)
    assert hash(record) == hash(tuple(fields.values()))
    assert hash(record) == hash(_reference(cls, fields))
    assert repr(record) == repr(_reference(cls, fields))
    assert repr(record).startswith(f"{cls.__name__}({next(iter(fields))}=")


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(case):
    cls, kwargs, _ = case
    record = cls(**kwargs)
    for name, value in _fields(case).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_context_keeps_its_space_out_of_repr_and_equality():
    assert CTX.space == SampleSpace(("X",))
    assert "space" not in repr(CTX)
    shown = f"Context(variables=('X',), distribution={CTX.distribution!r})"
    assert repr(CTX) == shown
    assert hash(CTX) == hash((CTX.variables, CTX.distribution))
    with pytest.raises(AttributeError):
        CTX.space = XY


def test_cylinder_repr_lists_its_lowest_atoms_without_building_the_rest():
    """A cylinder prints as the event of its atoms listed out, but reads
    only its eight lowest, so a contradictory row over 24 variables is
    worded at once."""
    for n in range(1, 6):
        space = SampleSpace([f"v{i}" for i in range(n)])
        for mask in range(1 << n):
            for want in range(1 << n):
                if want & ~mask:
                    continue
                partial = {
                    name: 1 if want >> i & 1 else -1
                    for i, name in enumerate(space.variables)
                    if mask >> i & 1
                }
                event = cylinder(space, partial)
                assert repr(event) == repr(Event(space, event.atoms))
    wide = SampleSpace([f"v{i}" for i in range(24)])
    event = cylinder(wide, {"v1": 1, "v23": -1})
    assert repr(event) == (
        "Event({-+----------------------, ++----------------------, "
        "-++---------------------, +++---------------------, "
        "-+-+--------------------, ++-+--------------------, ...})"
    )
    assert "atoms" not in vars(event)


def test_event_is_frozen_and_keeps_its_own_equality_hash_and_repr():
    by_position = Event(XY, [2, 3])
    by_keyword = Event(space=XY, atoms=frozenset({3, 2}))
    built = cylinder(XY, {"Y": 1})
    assert by_position == by_keyword == built
    assert by_position.__eq__(object()) is NotImplemented
    assert by_position.__eq__((XY, frozenset({2, 3}))) is NotImplemented
    assert hash(built) == hash(by_position) == hash((XY, 2, 2, 3))
    assert repr(built) == repr(by_position) == "Event({-+, ++})"
    for record in (by_position, built):
        for name in ("space", "atoms", "cylinder"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_importing_the_cli_loads_no_dataclasses():
    """A fresh process importing negprob.cli adds none of dataclasses and
    the modules it imports (inspect, ast, dis, tokenize) to sys.modules."""
    src = str(Path(negprob.__file__).resolve().parent.parent)
    probe = (
        "import sys; before = set(sys.modules); import negprob.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert "negprob.measure" in out
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert heavy.isdisjoint(out)


def test_a_subclass_keeps_the_fields_of_its_record():
    """As with a frozen dataclass, a subclass that declares no fields
    takes its base's, and equals only instances of itself."""

    class Tagged(Violation):
        pass

    tagged = Tagged("K2", "total mass is 0, not 1")
    assert tagged.atoms == () and tagged == Tagged(*tagged._key)
    assert tagged != Violation("K2", "total mass is 0, not 1")
    shown = "Tagged(axiom='K2', detail='total mass is 0, not 1', atoms=())"
    assert repr(tagged).endswith(shown)
