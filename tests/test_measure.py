"""Sample spaces, events, and signed measure operations."""

import itertools
import random
import re
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negprob import (
    Context,
    DuplicateName,
    Event,
    InvalidAssignment,
    InvalidName,
    SampleSpace,
    ScenarioFormatError,
    SignedMeasure,
    SpaceMismatch,
    TooManyVariables,
    UndefinedConditional,
    UnknownVariable,
    assemble,
    build_space,
    cylinder,
    event_mass,
    jordan_decompose,
    l1_norm,
    marginalize,
    minimize_l1,
    mz_family_member,
    nonmonotonicity_witness,
    signed_conditional,
    validate_kolmogorov,
    validate_upper,
    verify_member,
)
from negprob.measure import RATIONAL_MAX_CHARS, as_fraction

from helpers import random_small_system

MZ = build_space(("Da", "Db", "D1", "D2"))


# -- spaces ----------------------------------------------------------------


def test_build_space_atom_count():
    assert build_space(("A",)).atom_count == 2
    assert MZ.atom_count == 16


def test_build_space_rejects_duplicates():
    with pytest.raises(DuplicateName):
        build_space(("A", "B", "A"))


def test_build_space_rejects_too_many():
    names = tuple(f"v{i}" for i in range(25))
    with pytest.raises(TooManyVariables):
        build_space(names)
    # over the cap, the count is refused before any name is checked
    with pytest.raises(TooManyVariables):
        build_space(names + ("v0", ""))


def test_build_space_rejects_empty_name():
    with pytest.raises(InvalidName):
        build_space(("A", ""))


def test_space_stores_its_variables_as_a_tuple():
    """A space built from a list or a generator is the space build_space
    gives: equal, hashable alike, and good for a measure checked against a
    system over the other."""
    listed = SampleSpace(["X", "Y"])
    built = build_space(["X", "Y"])
    assert listed.variables == ("X", "Y")
    assert listed == built and hash(listed) == hash(built)
    assert SampleSpace(name for name in "XY") == built
    cs = assemble(built, [({"X": 1}, Fraction(1, 2))])
    m = SignedMeasure(listed, [Fraction(1, 4)] * 4)
    assert verify_member(cs, m, 1)


def test_atom_labels_first_variable_least_significant():
    space = build_space(("A", "B"))
    # atom index 1 has bit 0 set, so A=+1 and B=-1
    assert space.atom_label(1) == "+-"
    assert space.atom_sign(1, "A") == 1
    assert space.atom_sign(1, "B") == -1
    assert [space.atom_label(a) for a in space.atoms()] == [
        "--", "+-", "-+", "++",
    ]
    assert space.atom_from_label("+-") == 1
    # label -> atom inverts atom -> label on every atom
    for n in range(1, 6):
        wide = build_space(tuple(f"v{i}" for i in range(n)))
        for atom in wide.atoms():
            assert wide.atom_from_label(wide.atom_label(atom)) == atom
    for bad in ("+", "+-+", "+0", "ab", 1, None, ("+", "-")):
        with pytest.raises(InvalidAssignment):
            space.atom_from_label(bad)


def _bit_loop_label(k, atom):
    """atom_label as the per-bit loop wrote it before it read the binary."""
    return "".join("+" if atom >> i & 1 else "-" for i in range(k))


def test_atom_labels_equal_the_bit_loop():
    """The binary-string codec gives the per-bit loop's label for every
    atom up to 12 variables, and for negative and out-of-range ints."""
    for k in range(1, 13):
        space = build_space(tuple(f"v{i}" for i in range(k)))
        for atom in space.atoms():
            label = space.atom_label(atom)
            assert label == _bit_loop_label(k, atom)
            assert space.atom_from_label(label) == atom
        for atom in (-1, -5, 2 ** k, 2 ** k + 3):
            assert space.atom_label(atom) == _bit_loop_label(k, atom)


@pytest.mark.parametrize(
    "k, bad",
    [(2, bad) for bad in ("+ -", "+x", "++-", "", 1, None)] + [(3, "+ -")],
)
def test_atom_from_label_refusals_keep_their_message(k, bad):
    space = build_space(tuple(f"v{i}" for i in range(k)))
    message = (
        f"label {bad!r} must spell one +/- per variable "
        f"in order {space.variables}"
    )
    with pytest.raises(InvalidAssignment, match=re.escape(message) + "$"):
        space.atom_from_label(bad)


# -- events ----------------------------------------------------------------


def test_cylinder_sizes():
    assert len(cylinder(MZ, {"D1": 1})) == 8
    assert len(cylinder(MZ, {"D1": 1, "D2": -1})) == 4
    assert len(cylinder(MZ, {})) == 16


def test_cylinder_rejects_unknown_variable():
    with pytest.raises(UnknownVariable):
        cylinder(MZ, {"Dx": 1})


def test_cylinder_rejects_bad_sign():
    context = Context(("D1",), (Fraction(1, 2), Fraction(1, 2)))
    for sign in (0, 2, True, False, 1.0, -1.0, "+"):
        with pytest.raises(InvalidAssignment):
            cylinder(MZ, {"D1": sign})
        with pytest.raises(InvalidAssignment):
            context.partial_mass({"D1": sign})


@st.composite
def spaces_and_partials(draw):
    n = draw(st.integers(1, 6))
    space = build_space(tuple(f"v{i}" for i in range(n)))
    names = draw(st.lists(st.sampled_from(space.variables), unique=True))
    return space, {name: draw(st.sampled_from((1, -1))) for name in names}


@given(spaces_and_partials())
def test_cylinder_matches_brute_force(case):
    space, partial = case
    expected = {
        atom
        for atom in space.atoms()
        if all(space.atom_sign(atom, v) == s for v, s in partial.items())
    }
    event = cylinder(space, partial)
    assert event.atoms == expected
    bits = {name: 1 << i for i, name in enumerate(space.variables)}
    mask = sum(bits[v] for v in partial)
    want = sum(bits[v] for v, s in partial.items() if s == +1)
    assert event.cylinder == (mask, want)
    # recorded, not part of the value: equal to the same atoms built plainly
    plain = Event.of(space, expected)
    assert plain == event and hash(plain) == hash(event)
    for other in (plain, event & event, event | plain, ~event):
        assert other.cylinder is None
    assert Event.empty(space).cylinder is None


def test_every_cylinder_holds_exactly_its_atoms():
    """cylinder builds its atoms without Event's atom check, so every
    partial assignment over 1-5 variables is checked here: its atoms are
    the ints of range(2^n) that agree with it."""
    for n in range(1, 6):
        space = build_space(tuple(f"v{i}" for i in range(n)))
        for signs in itertools.product((1, -1, 0), repeat=n):
            partial = {v: s for v, s in zip(space.variables, signs) if s}
            expected = [
                atom
                for atom in range(2**n)
                if all(space.atom_sign(atom, v) == partial[v] for v in partial)
            ]
            atoms = cylinder(space, partial).atoms
            assert sorted(atoms) == expected
            assert {type(atom) for atom in atoms} == {int}


def test_event_algebra():
    a = cylinder(MZ, {"D1": 1})
    b = cylinder(MZ, {"D2": -1})
    assert a & b == cylinder(MZ, {"D1": 1, "D2": -1})
    assert len(a | b) == 12
    assert ~a == cylinder(MZ, {"D1": -1})
    assert (a | ~a) == Event.full(MZ)
    assert (a & ~a) == Event.empty(MZ)


# -- one value, two forms: a cylinder's (mask, want) and an atom set ---------


def test_cylinder_and_atom_set_are_one_value():
    """A cylinder keeps no atoms until asked; it equals and hashes like
    the same atoms built plainly, so either finds the other in a set or
    a dict, and len and membership agree without building its atoms."""
    everywhere = dict.fromkeys(MZ.variables, 1)
    for partial in ({}, {"D1": 1}, {"Da": -1, "D2": 1}, everywhere):
        built = cylinder(MZ, partial)
        size, members = len(built), [a in built for a in range(-1, 17)]
        assert "atoms" not in vars(built)
        plain = Event.of(MZ, built.atoms)
        assert built == plain and plain == built
        assert hash(built) == hash(plain)
        assert size == len(plain)
        assert members == [a in plain for a in range(-1, 17)]
        odd = (None, "0", 0.0, True, 16.0)
        assert [x in built for x in odd] == [x in plain for x in odd]
        assert plain in {built} and built in {plain}
        assert {built: "value"}[plain] == "value"
        fresh = cylinder(MZ, partial)  # no atoms built on either side
        assert fresh == built and hash(fresh) == hash(cylinder(MZ, partial))
        assert "atoms" not in vars(fresh)
    assert cylinder(MZ, {"D1": 1}) != cylinder(MZ, {"D1": -1})
    assert cylinder(MZ, {"D1": 1}) != Event.of(MZ, [4])
    assert cylinder(MZ, {}) != Event.full(build_space(["X"]))


def test_event_algebra_is_the_same_on_both_forms():
    pairs = [
        ({"D1": 1}, {"D2": -1}),
        ({"Da": 1, "Db": 1}, {}),
        ({}, {"D1": 1}),
    ]
    for left, right in pairs:
        a, b = cylinder(MZ, left), cylinder(MZ, right)
        plain_a, plain_b = Event.of(MZ, a.atoms), Event.of(MZ, b.atoms)
        for x, y in ((a, b), (plain_a, plain_b), (a, plain_b), (plain_a, b)):
            assert x & y == plain_a & plain_b
            assert x | y == plain_a | plain_b
            assert ~x == ~plain_a
            assert (x & y).atoms == a.atoms & b.atoms
            assert (x | y).atoms == a.atoms | b.atoms
            assert (~x).atoms == frozenset(range(16)) - a.atoms


def test_sparse_and_dense_measures_are_one_value():
    """from_sparse drops explicit zeros: it equals and hashes like the
    dense constructor, stores only the nonzero masses, and rebuilds the
    dense tuple on demand."""
    masses = [0] * 16
    masses[3], masses[15] = Fraction(-1, 2), Fraction(3, 2)
    dense = SignedMeasure(MZ, masses)
    sparse = SignedMeasure.from_sparse(
        MZ, {15: "3/2", 0: 0, 3: Fraction(-1, 2), 7: Fraction(0)}
    )
    assert sparse == dense and hash(sparse) == hash(dense)
    support = ((3, Fraction(-1, 2)), (15, Fraction(3, 2)))
    assert sparse.support == dense.support == support
    assert sparse.mass == dense.mass and len(sparse.mass) == 16
    assert {dense: 1}[sparse] == 1
    assert SignedMeasure.from_sparse(MZ, {}) == SignedMeasure(MZ, [0] * 16)
    assert sparse != SignedMeasure.from_sparse(MZ, {15: Fraction(3, 2)})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_both_forms_agree_on_random_systems(seed):
    """Every row of a random system equals its atom set, and the solve
    witness equals its dense copy; event_mass, membership and the row
    values agree on both forms."""
    cs = random_small_system(random.Random(seed), 4, 6)
    result = minimize_l1(cs)
    for event, value in cs.rows:
        plain = Event.of(cs.space, event.atoms)
        assert event == plain and hash(event) == hash(plain)
        assert len(event) == len(plain)
        assert [a in event for a in cs.space.atoms()] == [
            a in plain for a in cs.space.atoms()
        ]
        if result.witness is not None:
            assert event_mass(result.witness, event) == value
            assert event_mass(result.witness, plain) == value
    if result.witness is not None:
        w = result.witness
        copy = SignedMeasure(cs.space, w.mass)
        assert copy == w and hash(copy) == hash(w) and copy.mass == w.mass
        assert all(m != 0 for _, m in w.support)
        assert l1_norm(copy) == l1_norm(w) == result.mstar


@pytest.mark.parametrize(
    "atom", [MZ.atom_count, -1, -4, 1.5, 2.0, True, "1", None]
)
def test_event_rejects_atom_outside_space(atom):
    """Events and sparse measures share one check: an int in range."""
    match = rf"atom index {re.escape(repr(atom))} outside space of 16 atoms"
    with pytest.raises(ValueError, match=match):
        Event.of(MZ, [0, atom])
    with pytest.raises(ValueError, match=match):
        SignedMeasure.from_sparse(MZ, {0: 1, atom: 1})


def test_atom_index_may_be_an_int_subclass():
    """Only bools are refused among ints: an IntEnum index names its atom."""
    Atom = IntEnum("Atom", {"LAST": MZ.atom_count - 1})
    assert Event.of(MZ, [Atom.LAST]) == Event.of(MZ, [15])
    measure = SignedMeasure.from_sparse(MZ, {Atom.LAST: 1})
    assert measure.mass[15] == 1 and measure.total() == 1


def test_event_cross_space_operations_rejected():
    other = build_space(("A", "B"))
    with pytest.raises(SpaceMismatch):
        cylinder(MZ, {"D1": 1}) & cylinder(other, {"A": 1})


# -- masses and norms ------------------------------------------------------


def test_event_mass_on_minimizer():
    m = mz_family_member(Fraction(1, 2))
    assert event_mass(m, cylinder(MZ, {"D1": -1, "D2": 1})) == 0
    assert event_mass(m, cylinder(MZ, {"Da": -1, "D1": -1, "D2": 1})) == (
        Fraction(1, 2)
    )
    assert event_mass(m, Event.empty(MZ)) == 0
    assert event_mass(m, Event.full(MZ)) == 1


def test_event_mass_rejects_foreign_event():
    other = build_space(("A",))
    m = mz_family_member(0)
    with pytest.raises(SpaceMismatch):
        event_mass(m, Event.full(other))


def test_l1_norm():
    assert l1_norm(mz_family_member(0)) == 3
    space = build_space(("A",))
    assert l1_norm(SignedMeasure.from_sparse(space, {})) == 0
    proper = SignedMeasure(space, (Fraction(1, 3), Fraction(2, 3)))
    assert l1_norm(proper) == 1


def test_from_sparse_rejects_float():
    space = build_space(("A",))
    with pytest.raises(TypeError):
        SignedMeasure.from_sparse(space, {0: 0.5})


# -- Jordan decomposition --------------------------------------------------


def test_jordan_simple():
    space = build_space(("A",))
    m = SignedMeasure(space, (Fraction(3, 2), Fraction(-1, 2)))
    pos, neg = jordan_decompose(m)
    assert pos.mass == (Fraction(3, 2), Fraction(0))
    assert neg.mass == (Fraction(0), Fraction(1, 2))


def test_jordan_of_nonnegative_measure():
    space = build_space(("A",))
    m = SignedMeasure(space, (Fraction(1, 4), Fraction(3, 4)))
    pos, neg = jordan_decompose(m)
    assert pos == m
    assert neg.total() == 0


def test_jordan_on_interferometer_minimizer():
    m = mz_family_member(Fraction(1, 2))
    pos, neg = jordan_decompose(m)
    negative_support = {
        MZ.atom_label(i) for i, v in enumerate(neg.mass) if v
    }
    assert negative_support == {"++-+", "--++"}
    assert neg.total() == 1
    assert pos.total() == 2
    assert pos.total() - neg.total() == m.total() == 1
    assert pos.total() + neg.total() == l1_norm(m)


# -- marginals and conditionals --------------------------------------------


def test_marginalize_family_member():
    m = mz_family_member(Fraction(1, 4))
    onto_paths = marginalize(m, ("D1", "D2"))
    assert onto_paths.space.variables == ("D1", "D2")
    # all mass sits on D1=+1, D2=-1
    assert onto_paths.mass == (0, Fraction(1), 0, 0)
    onto_detectors = marginalize(m, ("Da", "Db"))
    assert onto_detectors.mass == (0, Fraction(1, 2), Fraction(1, 2), 0)


def test_marginalize_keeps_parent_order():
    m = mz_family_member(0)
    out = marginalize(m, ("D2", "Da"))
    assert out.space.variables == ("Da", "D2")


def test_marginalize_all_variables_is_identity():
    m = mz_family_member(Fraction(1, 8))
    assert marginalize(m, MZ.variables).mass == m.mass


def test_marginalize_rejects_unknown():
    with pytest.raises(UnknownVariable):
        marginalize(mz_family_member(0), ("Da", "Q"))


def test_signed_conditional_values():
    m = mz_family_member(Fraction(1, 4))
    hit = signed_conditional(
        m, cylinder(MZ, {"Da": 1}), cylinder(MZ, {"D1": 1})
    )
    assert hit == Fraction(3, 4)


def test_signed_conditional_undefined():
    m = mz_family_member(0)
    with pytest.raises(UndefinedConditional):
        signed_conditional(
            m, cylinder(MZ, {"Da": 1}), cylinder(MZ, {"D2": 1})
        )


# -- axiom checks ----------------------------------------------------------


def test_validate_kolmogorov_accepts_uniform():
    space = build_space(("A", "B"))
    uniform = SignedMeasure(space, (Fraction(1, 4),) * 4)
    assert validate_kolmogorov(uniform) == []


def test_validate_kolmogorov_flags_negative_atoms():
    m = mz_family_member(0)
    violations = validate_kolmogorov(m)
    assert [v.axiom for v in violations] == ["K1", "K1"]
    flagged = [a for v in violations for a in v.atoms]
    assert all(m.mass[a] < 0 for a in flagged)
    assert len(flagged) == 2


def test_validate_kolmogorov_flags_bad_total():
    space = build_space(("A",))
    m = SignedMeasure(space, (Fraction(1), Fraction(1)))
    assert [v.axiom for v in validate_kolmogorov(m)] == ["K2"]


def test_validate_upper_accepts_consistent_table():
    masses = {
        0: Fraction(1, 2),
        1: Fraction(1, 4),
        2: Fraction(1, 4),
        3: Fraction(0),
    }
    events = {
        (0, 1): Fraction(3, 4),
        (0, 1, 2, 3): Fraction(1),
    }
    assert validate_upper(masses, events) == []


def test_validate_upper_flags_each_axiom():
    out = validate_upper(
        {0: Fraction(3, 2), 1: Fraction(0), 2: Fraction(0)},
        {(0, 1): Fraction(2), (0, 1, 2): Fraction(1, 2)},
    )
    axioms = {v.axiom for v in out}
    assert axioms == {"U1", "U2", "U3"}


def test_validate_upper_skips_u2_without_full_entry():
    assert validate_upper({0: Fraction(1, 4), 1: Fraction(1, 4)}, {}) == []


def test_validate_upper_rejects_unknown_atom():
    with pytest.raises(SpaceMismatch):
        validate_upper({0: Fraction(1)}, {(0, 5): Fraction(1, 2)})


def test_nonmonotonicity_witness():
    m = mz_family_member(Fraction(1, 2))
    witness = nonmonotonicity_witness(m)
    assert witness is not None
    s1, s2 = witness
    assert s1.atoms < s2.atoms
    assert event_mass(m, s1) > event_mass(m, s2)


def test_nonmonotonicity_witness_none_for_proper():
    space = build_space(("A",))
    proper = SignedMeasure(space, (Fraction(1, 2), Fraction(1, 2)))
    assert nonmonotonicity_witness(proper) is None


# -- property tests --------------------------------------------------------

small_fractions = st.fractions(
    min_value=-2, max_value=2, max_denominator=16
)


@st.composite
def measures(draw, n_vars=3):
    space = build_space(("X", "Y", "Z")[:n_vars])
    mass = tuple(draw(small_fractions) for _ in range(space.atom_count))
    return SignedMeasure(space, mass)


@given(measures())
def test_disjoint_additivity(m):
    a = cylinder(m.space, {"X": 1})
    b = cylinder(m.space, {"X": -1, "Y": 1})
    assert not (a & b)
    assert event_mass(m, a | b) == event_mass(m, a) + event_mass(m, b)


@given(measures())
def test_jordan_recomposes_and_is_minimal(m):
    pos, neg = jordan_decompose(m)
    for i in range(m.space.atom_count):
        assert pos.mass[i] - neg.mass[i] == m.mass[i]
        assert pos.mass[i] >= 0 and neg.mass[i] >= 0
        # disjoint supports, so no smaller decomposition exists
        assert pos.mass[i] == 0 or neg.mass[i] == 0
    assert pos.total() + neg.total() == l1_norm(m)


@given(measures())
def test_marginalize_preserves_total(m):
    assert marginalize(m, ("Y",)).total() == m.total()
    assert marginalize(m, ("X", "Z")).total() == m.total()


@st.composite
def sparse_measures_and_subsets(draw):
    n = draw(st.integers(1, 5))
    space = build_space([f"V{i}" for i in range(n)])
    atoms = st.integers(0, space.atom_count - 1)
    entries = draw(st.dictionaries(atoms, small_fractions, max_size=8))
    kept = draw(st.sets(st.sampled_from(space.variables), min_size=1))
    return SignedMeasure.from_sparse(space, entries), kept


@given(sparse_measures_and_subsets())
def test_marginalize_matches_label_sums(case):
    """Each sub-atom's mass is the sum over the atoms whose label,
    read at the kept positions, spells the sub-atom's label."""
    m, kept = case
    positions = [i for i, v in enumerate(m.space.variables) if v in kept]
    expected: dict[str, Fraction] = {}
    for atom, value in m.support:
        label = m.space.atom_label(atom)
        key = "".join(label[p] for p in positions)
        expected[key] = expected.get(key, Fraction(0)) + value
    out = marginalize(m, kept)
    assert out.space.variables == tuple(m.space.variables[p] for p in positions)
    assert list(out.mass) == [
        expected.get(out.space.atom_label(a), 0) for a in out.space.atoms()
    ]


@given(measures(), st.integers(0, 7), st.integers(0, 7))
def test_conditional_consistency(m, i, j):
    a = Event(m.space, frozenset({i}))
    b = Event(m.space, frozenset({j, (j + 1) % 8}))
    try:
        c = signed_conditional(m, a, b)
    except UndefinedConditional:
        assert event_mass(m, b) == 0
        return
    assert c * event_mass(m, b) == event_mass(m, a & b)


@settings(max_examples=25)
@given(measures(n_vars=2))
def test_event_mass_matches_atom_sum_exhaustively(m):
    for bits in range(16):
        ev = Event(m.space, frozenset(i for i in range(4) if bits >> i & 1))
        assert event_mass(m, ev) == sum(
            (m.mass[i] for i in ev.atoms), Fraction(0)
        )


# -- guards ---------------------------------------------------------------------


def test_as_fraction_coerces_refuses_and_does_not_copy():
    """A Fraction is returned as it is, an int or a literal is read, and a
    float, a bool or another object is a TypeError.  A string outside the
    literal grammar is a ScenarioFormatError, and a ValueError, as
    Fraction's own refusals were: decimals and exponents too, so a short
    string cannot ask for a denominator of millions of bits."""
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert as_fraction("-3/4") == Fraction(-3, 4)
    assert as_fraction(" +06/8\n") == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)
    for bad in (object(), None, 0.5, True):
        with pytest.raises(TypeError, match="exact rational required"):
            as_fraction(bad)
    for bad in ("0.5", "1e-4000000", "-0.25e1", "1_000", "1/02", "1/0",
                "0x10", "", "1 /2", "--1", "inf", "nan"):
        with pytest.raises(ScenarioFormatError, match="rational string") as e:
            as_fraction(bad)
        assert isinstance(e.value, ValueError)
        assert str(e.value).endswith(f"got {bad!r}")
    at_bound = "1/" + "9" * (RATIONAL_MAX_CHARS - 2)
    assert as_fraction(f" {at_bound} ") == Fraction(1, 10**98 - 1)
    with pytest.raises(ScenarioFormatError, match="of 101 characters"):
        as_fraction(at_bound + "9")


@pytest.mark.parametrize(
    "text",
    ["\u0663/4", "3/1\u0664", "3/\u0664", "-\u0663", "\uff11/2", "1/2\uff12"],
)
def test_literal_digits_are_ascii(text):
    """A digit of another script is refused wherever it stands, though int
    reads it: Arabic-Indic 3 and 4 and fullwidth 1 and 2 here."""
    assert int("".join(c for c in text if c.isdigit())) > 0
    with pytest.raises(ScenarioFormatError, match="rational string"):
        as_fraction(text)


def test_space_needs_a_variable():
    with pytest.raises(InvalidName, match="at least one variable"):
        build_space([])


def test_event_membership_and_ascending_iteration():
    space = build_space(["X", "Y", "Z"])
    event = Event.of(space, [6, 1, 4])
    assert 4 in event and 5 not in event
    assert list(event) == [1, 4, 6]


def test_measure_needs_one_mass_per_atom():
    with pytest.raises(ValueError, match="expected 4 masses, got 3"):
        SignedMeasure(build_space(["X", "Y"]), (Fraction(1),) * 3)


def test_marginalize_needs_a_variable():
    m = SignedMeasure(build_space(["X"]), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvalidName, match="at least one variable"):
        marginalize(m, [])


def test_conditional_refuses_events_of_another_space():
    m = SignedMeasure(build_space(["X"]), (Fraction(1, 2), Fraction(1, 2)))
    stranger = Event.full(build_space(["Y"]))
    with pytest.raises(SpaceMismatch):
        signed_conditional(m, stranger, Event.full(m.space))
    with pytest.raises(SpaceMismatch):
        signed_conditional(m, Event.full(m.space), stranger)
