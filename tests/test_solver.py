"""Constraint assembly, exact linear algebra, and the L1 simplex."""

import itertools
import random
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negprob import (
    ConstraintSystem,
    ContradictoryRows,
    Event,
    InvalidAssignment,
    MissingNormalization,
    SignedMeasure,
    SolveStatus,
    SpaceMismatch,
    UnknownVariable,
    ValueOutOfBounds,
    assemble,
    build_space,
    cylinder,
    event_mass,
    family_mstar,
    family_system,
    feasible_proper,
    l1_norm,
    minimize_l1,
    mz_counterfactual,
    mz_counterfactual_detuned,
    mz_family_member,
    mz_general_member,
    rank_nullity,
    tsirelson_box,
    validate_kolmogorov,
    verify_member,
)
from negprob import solver
from negprob.scenarios import BUILTINS, builtin_bundle
from negprob.solver import (
    _drop_redundant,
    _Elimination,
    _phase1,
    _phase2,
    _pieces,
    _RevisedLP,
)

from gridsearch import grid_minimum, parameterization
from helpers import mz_family, ncycle, random_small_system

XY = build_space(("X", "Y"))


# -- assemble ---------------------------------------------------------------


def test_assemble_appends_normalization():
    cs = assemble(XY, [({"X": 1}, Fraction(1, 2))])
    assert len(cs.rows) == 2
    assert cs.includes_normalization
    assert cs.rows[-1] == (Event.full(XY), Fraction(1))
    # a generator is read once, and its rows come before normalization
    rows = (({"Y": sign}, Fraction(1, 2)) for sign in (1, -1))
    assert [e.cylinder for e, _ in assemble(XY, rows).rows] == [
        (2, 2),
        (2, 0),
        (0, 0),
    ]
    assert next(rows, None) is None


def test_assemble_drops_exact_duplicates():
    cs = assemble(
        XY,
        [({"X": 1}, Fraction(1, 2)), ({"X": 1}, Fraction(1, 2))],
    )
    assert len(cs.rows) == 2
    # a string value is the Fraction it spells, so these are duplicates too
    rows = [({"X": 1}, "1/2"), ({"X": 1}, Fraction(2, 4)), ({}, "1")]
    cs = assemble(XY, rows)
    assert cs.rows == (
        (cylinder(XY, {"X": 1}), Fraction(1, 2)),
        (Event.full(XY), Fraction(1)),
    )


def test_assemble_rejects_contradiction():
    with pytest.raises(ContradictoryRows):
        assemble(
            XY,
            [({"X": 1}, Fraction(1, 2)), ({"X": 1}, Fraction(1, 3))],
        )


def test_assemble_keeps_contradictions_on_request():
    rows = [
        ({"X": 1}, Fraction(1, 2)),
        ({"X": 1}, Fraction(1, 3)),
        ({"X": 1}, Fraction(1, 2)),
    ]
    cs = assemble(XY, rows, keep_contradictions=True)
    assert [value for _, value in cs.rows] == [
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1),
    ]
    result = minimize_l1(cs)
    assert result.status is SolveStatus.INFEASIBLE
    assert (result.rank, result.nullity) == rank_nullity(cs) == (2, 2)
    # a caller's full-space row is kept like any other, ahead of the 1
    cs = assemble(XY, [({}, "1/2")], keep_contradictions=True)
    assert cs.rows == (
        (Event.full(XY), Fraction(1, 2)),
        (Event.full(XY), Fraction(1)),
    )


def test_includes_normalization_is_read_from_rows():
    full = Event.full(XY)
    assert ConstraintSystem(XY, ((full, Fraction(1)),)).includes_normalization
    half = ConstraintSystem(XY, ((full, Fraction(1, 2)),))
    assert not half.includes_normalization
    with pytest.raises(MissingNormalization):
        minimize_l1(half)


def test_assemble_accepts_explicit_normalization():
    cs = assemble(XY, [({}, 1)])
    assert len(cs.rows) == 1


def test_assemble_rejects_wrong_total():
    with pytest.raises(ContradictoryRows):
        assemble(XY, [({}, Fraction(1, 2))])


def test_assemble_rejects_huge_values():
    with pytest.raises(ValueOutOfBounds):
        assemble(XY, [({"X": 1}, Fraction(10) ** 9 + 1)])
    cs = assemble(XY, [({"X": 1}, 10**9), ({"X": -1}, Fraction(-(10**9)))])
    assert [value for _, value in cs.rows] == [10**9, -(10**9), 1]
    for value, text in [
        (10**9 + Fraction(1, 10**6), "1000000000000001/1000000"),
        (-(10**9) - 1, "-1000000001"),
    ]:
        with pytest.raises(ValueOutOfBounds) as info:
            assemble(XY, [({"X": 1}, value)])
        assert str(info.value) == (
            f"constraint value {text} outside sanity bound"
        )


def test_assemble_rejects_floats():
    with pytest.raises(TypeError):
        assemble(XY, [({"X": 1}, 0.5)])


@pytest.mark.parametrize(
    "rows, error",
    [
        # within a row: the value's type, then its bound, then the partial
        ([({"Q": 0}, 0.5)], TypeError),
        ([({"Q": 0}, 10**10)], ValueOutOfBounds),
        ([({"X": 0}, 0)], InvalidAssignment),
        ([({"Q": 1}, 0)], UnknownVariable),
        # across rows: the first faulty row decides
        ([({"X": 1}, 0), ({"X": 1}, 1), ({"Q": 1}, 0.5)], ContradictoryRows),
        ([({"X": 1}, 0), ({"X": 1}, 0), ({"Q": 1}, 0)], UnknownVariable),
        ([({"X": 1}, 0), ({}, 0)], ContradictoryRows),
    ],
)
def test_assemble_error_precedence(rows, error):
    with pytest.raises(error):
        assemble(XY, rows)


def reference_assemble(space, constraints, keep_contradictions):
    """assemble's docstring, written out: one cylinder row per input pair
    in order, then normalization; exact duplicates dropped; a second value
    for one event refused unless contradictions are kept."""
    rows = []
    for partial, raw in [*constraints, ({}, 1)]:
        if isinstance(raw, float):
            raise TypeError(f"exact rational required, got {raw!r}")
        value = Fraction(raw)
        if abs(value) > Fraction(10) ** 9:
            raise ValueOutOfBounds(
                f"constraint value {value} outside sanity bound"
            )
        event = cylinder(space, partial)
        values = [v for e, v in rows if e == event]
        if not values or keep_contradictions and value not in values:
            rows.append((event, value))
        elif not keep_contradictions and values[0] != value:
            raise ContradictoryRows(event, values[0], value)
    return [(e.cylinder, v) for e, v in rows]


_PARTIALS = st.sampled_from(
    [{}, {"X": 1}, {"X": -1}, {"Y": 1}, {"X": 1, "Y": -1}, {"Y": -1, "X": 1}]
    + [{"X": 2}, {"Q": 1}]
)
_VALUES = st.sampled_from(
    [0, 1, Fraction(1, 2), "1/2", "-1/3", 10**9, -(10**9), 10**9 + 1, 0.5]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_PARTIALS, _VALUES), max_size=8),
    st.booleans(),
)
def test_assemble_matches_its_docstring(rows, keep):
    try:
        expected = reference_assemble(XY, rows, keep)
    except Exception as error:
        with pytest.raises(type(error)) as info:
            assemble(XY, rows, keep_contradictions=keep)
        assert type(info.value) is type(error)
        assert str(info.value) == str(error)
    else:
        cs = assemble(XY, iter(rows), keep_contradictions=keep)
        assert [(e.cylinder, v) for e, v in cs.rows] == expected


def test_system_refuses_an_event_of_another_space():
    stranger = Event.full(build_space(["Q"]))
    with pytest.raises(SpaceMismatch, match="different space"):
        ConstraintSystem(XY, ((stranger, Fraction(1)),))


def test_system_stores_row_values_as_fractions():
    """Row values go through as_fraction: a float or a bool is refused when
    the system is built, not deep in the solver."""
    x, full = cylinder(XY, {"X": 1}), Event.full(XY)
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="exact rational"):
            ConstraintSystem(XY, ((x, bad), (full, Fraction(1))))
    cs = ConstraintSystem(XY, ((x, "1/2"), (full, 1)))
    assert cs.rows == ((x, Fraction(1, 2)), (full, Fraction(1)))
    assert [type(value) for _, value in cs.rows] == [Fraction, Fraction]
    assert minimize_l1(cs).mstar == 1


def test_counterfactual_system_shape():
    cs = mz_counterfactual()
    assert len(cs.rows) == 13  # twelve pooled rows plus normalization
    assert rank_nullity(cs) == (11, 5)


# -- rank and nullity -------------------------------------------------------


def test_rank_nullity_normalization_only():
    cs = assemble(build_space(("Da", "Db", "D1", "D2")), [])
    assert rank_nullity(cs) == (1, 15)


def test_rank_nullity_fully_pinned():
    rows = [
        ({"X": sx, "Y": sy}, Fraction(1, 4))
        for sx in (+1, -1)
        for sy in (+1, -1)
    ]
    assert rank_nullity(assemble(XY, rows)) == (4, 0)


def test_solver_rank_matches_independent_row_reduction():
    rng = random.Random(11)
    statuses = set()
    for _ in range(150):
        cs = random_small_system(rng)
        result = minimize_l1(cs)
        statuses.add(result.status)
        homogeneous = ConstraintSystem(
            cs.space, tuple((event, Fraction(0)) for event, _ in cs.rows)
        )
        _, _, free_cols = parameterization(homogeneous)
        expected = (cs.space.atom_count - len(free_cols), len(free_cols))
        assert (result.rank, result.nullity) == expected
        assert rank_nullity(cs) == expected
    assert statuses == set(SolveStatus)


# -- proper feasibility -----------------------------------------------------


def test_feasible_proper_finds_distribution():
    cs = family_system(mz_family(1))
    witness = feasible_proper(cs)
    assert witness is not None
    assert validate_kolmogorov(witness) == []
    for event, value in cs.rows:
        assert event_mass(witness, event) == value


def test_feasible_proper_none_for_counterfactual():
    assert feasible_proper(mz_counterfactual()) is None


def test_feasible_proper_none_when_signed_only():
    cs = assemble(XY, [({"X": 1, "Y": 1}, Fraction(-1, 4))])
    assert feasible_proper(cs) is None
    assert minimize_l1(cs).status is SolveStatus.SIGNED_FEASIBLE_ONLY


def test_normalization_row_is_required():
    bare = ConstraintSystem(XY, ())
    with pytest.raises(MissingNormalization):
        feasible_proper(bare)
    with pytest.raises(MissingNormalization):
        minimize_l1(bare)


# -- L1 minimization --------------------------------------------------------


def test_minimize_l1_counterfactual():
    result = minimize_l1(mz_counterfactual())
    assert result.status is SolveStatus.SIGNED_FEASIBLE_ONLY
    assert result.mstar == 3
    assert result.rank == 11 and result.nullity == 5
    assert l1_norm(result.witness) == 3
    for event, value in mz_counterfactual().rows:
        assert event_mass(result.witness, event) == value


def test_minimize_l1_proper_case():
    result = minimize_l1(family_system(mz_family(1)))
    assert result.status is SolveStatus.PROPER_FEASIBLE
    assert result.mstar == 1
    assert validate_kolmogorov(result.witness) == []


def test_minimize_l1_infeasible_union():
    # blocking both arms contradicts the open-output statistics
    result = family_mstar(mz_family(1, 4))
    assert result.status is SolveStatus.INFEASIBLE
    assert result.mstar is None
    assert result.witness is None


def test_minimize_l1_signed_only_value():
    cs = assemble(XY, [({"X": 1, "Y": 1}, Fraction(-1, 4))])
    result = minimize_l1(cs)
    assert result.mstar == Fraction(3, 2)


def test_minimize_l1_is_deterministic():
    first = minimize_l1(mz_counterfactual())
    second = minimize_l1(mz_counterfactual())
    assert first.witness.mass == second.witness.mass


def test_verify_member():
    cs = mz_counterfactual()
    assert verify_member(cs, mz_family_member(Fraction(1, 4)), 3)
    # satisfies the rows but its norm is larger than claimed
    perturbed = mz_general_member(0, Fraction(1, 8), 0, 0, 0)
    assert not verify_member(cs, perturbed, 3)
    assert verify_member(cs, perturbed, l1_norm(perturbed))
    zero = SignedMeasure.from_sparse(cs.space, {})
    assert not verify_member(cs, zero, 0)


def test_verify_member_rejects_foreign_space():
    cs = mz_counterfactual()
    foreign = SignedMeasure.from_sparse(XY, {0: 1})
    with pytest.raises(SpaceMismatch):
        verify_member(cs, foreign, 1)


# -- certificate properties over random systems -----------------------------


def test_witness_always_satisfies_rows():
    rng = random.Random(4242)
    for _ in range(60):
        cs = random_small_system(rng)
        result = minimize_l1(cs)
        if result.status is SolveStatus.INFEASIBLE:
            assert result.witness is None
            continue
        assert result.mstar >= 1
        assert l1_norm(result.witness) == result.mstar
        for event, value in cs.rows:
            assert event_mass(result.witness, event) == value
        if result.status is SolveStatus.PROPER_FEASIBLE:
            assert validate_kolmogorov(result.witness) == []


def test_proper_feasible_iff_mstar_one():
    rng = random.Random(777)
    for _ in range(60):
        cs = random_small_system(rng)
        proper = feasible_proper(cs)
        result = minimize_l1(cs)
        if proper is None:
            assert result.status is not SolveStatus.PROPER_FEASIBLE
        else:
            assert result.status is SolveStatus.PROPER_FEASIBLE
            assert result.mstar == 1


# -- independent grid check of the optimizer --------------------------------


def assert_grid_confirms(cs, expect=None):
    result = minimize_l1(cs)
    x0, basis, free_cols = parameterization(cs)
    for col in free_cols:
        assert -2 <= result.witness.mass[col] <= 2
    gmin, bound, values = grid_minimum(cs)
    assert all(v >= result.mstar for v in values)
    assert result.mstar <= gmin <= result.mstar + bound
    if expect is not None:
        assert result.mstar == expect
    return gmin, bound


def test_grid_confirms_two_free_coordinates():
    cs = assemble(XY, [({"X": 1, "Y": 1}, Fraction(1, 2))])
    assert rank_nullity(cs) == (2, 2)
    gmin, _ = assert_grid_confirms(cs, expect=1)
    assert gmin == 1


def test_grid_confirms_signed_only_system():
    cs = assemble(XY, [({"X": 1, "Y": 1}, Fraction(-1, 4))])
    gmin, _ = assert_grid_confirms(cs, expect=Fraction(3, 2))
    assert gmin == Fraction(3, 2)


def test_grid_confirms_three_free_coordinates():
    cs = assemble(XY, [])
    assert rank_nullity(cs) == (1, 3)
    gmin, _ = assert_grid_confirms(cs, expect=1)
    assert gmin == 1


def test_grid_rejects_large_nullity():
    with pytest.raises(ValueError):
        grid_minimum(mz_counterfactual())


def test_grid_reports_infeasible_as_none():
    cs = family_system(mz_family(1, 4))
    assert parameterization(cs) is None
    assert grid_minimum(cs) is None


# -- fraction-free simplex state --------------------------------------------


def _entry(cs, lp, k, col):
    """Row k of [A | flips] at simplex column col."""
    if col >= lp.ncols:
        return lp.flip[k] if col - lp.ncols == k else 0
    sign = 1 if col < lp.n else -1
    return sign if col % lp.n in cs.rows[k][0].atoms else 0


def assert_adjugate_state(cs, lp):
    """adj is det times the inverse of the basic columns, det > 0, and
    adj maps the scaled row values onto rhs."""
    assert lp.det > 0
    m = len(cs.rows)
    basic = [[_entry(cs, lp, k, col) for k in range(m)] for col in lp.basis]
    scaled_b = [value * lp.scale_b for _, value in cs.rows]
    assert {value.denominator for value in scaled_b} == {1}
    scaled_b = [value.numerator for value in scaled_b]
    for i, row in enumerate(lp.adj):
        for j, column in enumerate(basic):
            product = sum(map(mul, row, column))
            assert product == (lp.det if i == j else 0)
        assert sum(map(mul, row, scaled_b)) == row[-1]


def test_adjugate_invariant_holds_after_every_pivot(monkeypatch):
    """Checked after each pivot as well as between phases: a row left
    unscaled when det moves 1 -> 2 -> 1 passes the phase-end checks."""
    pivot = _RevisedLP.pivot

    def checked_pivot(lp, row, j, col):
        pivot(lp, row, j, col)
        assert_adjugate_state(cs, lp)  # the system the loop below solves

    monkeypatch.setattr(_RevisedLP, "pivot", checked_pivot)
    systems = []
    for name in BUILTINS:
        payload = builtin_bundle(name, {}).payload
        systems.append(
            payload
            if isinstance(payload, ConstraintSystem)
            else family_system(payload)
        )
    rng = random.Random(6)
    systems += [random_small_system(rng, 4, 8) for _ in range(100)]
    for cs in systems:
        lp, feasible = _phase1(cs, split=True)
        assert_adjugate_state(cs, lp)
        _drop_redundant(lp)
        assert_adjugate_state(cs, lp)
        if feasible:
            _phase2(lp)
            assert_adjugate_state(cs, lp)


def _read_rows(space, hidden, pinned=()):
    """Every one- and two-variable cylinder row of a hidden measure, plus
    full-assignment rows for the pinned atoms."""
    rows = []
    for size in (1, 2):
        for names in itertools.combinations(space.variables, size):
            for signs in itertools.product((1, -1), repeat=size):
                partial = dict(zip(names, signs))
                rows.append(
                    (partial, event_mass(hidden, cylinder(space, partial)))
                )
    for atom in pinned:
        partial = {v: space.atom_sign(atom, v) for v in space.variables}
        rows.append((partial, hidden.mass[atom]))
    return assemble(space, rows)


COPRIME = (
    Fraction(1, 7),
    Fraction(1, 11),
    Fraction(1, 13),
    Fraction(1, 7),
    Fraction(2, 11),
    Fraction(1, 13),
    Fraction(1, 7),
)
XYZ = build_space(("X", "Y", "Z"))


def test_coprime_denominators_proper():
    mass = [*COPRIME, 1 - sum(COPRIME)]
    assert min(mass) > 0
    cs = _read_rows(XYZ, SignedMeasure(XYZ, mass))
    assert _RevisedLP(cs, split=True).scale_b == 1001
    result = minimize_l1(cs)
    assert result.status is SolveStatus.PROPER_FEASIBLE
    assert result.mstar == 1
    assert verify_member(cs, result.witness, 1)
    assert verify_member(cs, feasible_proper(cs), 1)


def test_coprime_denominators_signed():
    mass = [-COPRIME[0], *COPRIME[1:]]
    mass.append(1 - sum(mass))
    hidden = SignedMeasure(XYZ, mass)
    cs = _read_rows(XYZ, hidden, pinned=(0,))
    assert _RevisedLP(cs, split=True).scale_b == 1001
    result = minimize_l1(cs)
    assert result.status is SolveStatus.SIGNED_FEASIBLE_ONLY
    assert 1 + 2 * COPRIME[0] <= result.mstar <= l1_norm(hidden)
    assert verify_member(cs, result.witness, result.mstar)
    assert feasible_proper(cs) is None


# -- pricing by variable elimination ---------------------------------------


@st.composite
def cylinder_prices(draw):
    """Rows over up to 8 variables as pieces (row, mask, want), and an
    integer price per row.  Each cylinder row is one piece.  Every draw
    carries a mask-0 row, a singleton row and a row over the first and
    last variable, which keeps the first variable on the frontier to the
    end; random masks add rows over other non-adjacent variables.  The
    last row is not a cylinder: a random atom set, one full-mask piece per
    atom.  Prices include zeros and both signs."""
    nvars = draw(st.integers(1, 8))
    full = (1 << nvars) - 1
    masks = draw(st.lists(st.integers(0, full), max_size=8))
    masks += [0, full, 1 | 1 << (nvars - 1)]
    pieces = [
        (r, mask, mask & draw(st.integers(0, full)))
        for r, mask in enumerate(masks)
    ]
    atoms = draw(st.sets(st.integers(0, full)))
    pieces += [(len(masks), full, atom) for atom in sorted(atoms)]
    size = len(masks) + 1
    y = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return nvars, pieces, y


@settings(max_examples=300, deadline=None)
@given(cylinder_prices(), st.integers(0, 3))
def test_elimination_search_matches_brute_force(case, cost):
    nvars, pieces, y = case
    prices = [
        sum(y[r] for r, mask, want in pieces if atom & mask == want)
        for atom in range(1 << nvars)
    ]

    def first(test):
        return next((a for a, w in enumerate(prices) if test(w)), -1)

    elim = _Elimination(pieces, nvars)
    assert elim.lowest(y, cost) == first(lambda w: w > cost)
    assert elim.lowest([-v for v in y], cost) == first(lambda w: w < -cost)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pieces_partition_the_event(data):
    """_pieces gives pairwise-disjoint cylinders whose union is the event,
    for Event.of atom sets and cylinders over 1-5 variables; a cylinder
    gives exactly the one it was built from."""
    nvars = data.draw(st.integers(1, 5))
    space = build_space(tuple(f"v{k}" for k in range(nvars)))
    atoms = data.draw(st.sets(st.integers(0, space.atom_count - 1)))
    names, signs = st.sampled_from(space.variables), st.sampled_from((1, -1))
    built = cylinder(space, data.draw(st.dictionaries(names, signs)))
    assert _pieces(built) == [built.cylinder]
    for event in (Event.of(space, atoms), built):
        held = [
            {a for a in space.atoms() if a & mask == want}
            for mask, want in _pieces(event)
        ]
        for one, other in itertools.combinations(held, 2):
            assert not one & other
        assert set().union(*held) == event.atoms


def _cylinder_rows(space, rows, values):
    """ConstraintSystem rows built by cylinder from (mask, want) pairs."""
    out = []
    for (mask, want), value in zip(rows, values):
        partial = {
            name: 1 if want >> k & 1 else -1
            for k, name in enumerate(space.variables)
            if mask >> k & 1
        }
        out.append((cylinder(space, partial), value))
    return tuple(out)


def _check_first_real(nvars, rows, y, c, plain):
    """first_real against brute force on rows plus a context's rows priced
    c and the full-space row priced -c, which add 0 to every atom."""
    full = (1 << nvars) - 1
    context = 1 | 1 << (nvars - 1)
    rows = rows + [(context, w) for w in range(full + 1) if w & ~context == 0]
    y = y + [c] * (len(rows) - len(y))
    rows, y = rows + [(0, 0)], y + [-c]
    entries = [
        sum(v for (mask, want), v in zip(rows, y) if atom & mask == want)
        for atom in range(full + 1)
    ]
    expected = next((a for a, entry in enumerate(entries) if entry), -1)
    space = build_space(tuple(f"v{k}" for k in range(nvars)))
    system_rows = _cylinder_rows(space, rows, [Fraction(0)] * len(rows))
    if plain:
        (event, value), *rest = system_rows
        system_rows = ((Event.of(space, event.atoms), value), *rest)
    cs = ConstraintSystem(space, system_rows)
    for per_table in (solver.SCAN_PER_TABLE, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "SCAN_PER_TABLE", per_table)
            lp = _RevisedLP(cs, split=False)
        lp.adj = [y]
        assert lp.first_real(0) == expected
        probes = [atom for atom, _ in lp.probes]
        if plain:
            assert probes == list(range(full + 1))
        else:
            assert probes == [
                atom
                for atom in range(full + 1)
                if any(atom & ~mask == 0 for mask, _ in rows)
            ]
    return expected, len(probes)


@settings(max_examples=300, deadline=None)
@given(cylinder_prices(), st.integers(1, 3), st.booleans())
def test_first_real_probes_match_brute_force(case, c, plain):
    """first_real tries only the probe atoms; it must return the lowest
    atom of all 2^n with a nonzero entry, or -1 when the prices cancel on
    every atom.  Each draw is checked on its rows and again on those over
    at most two variables, which leaves fewer probes than atoms; plain
    rebuilds the first row with Event.of, which makes every atom a probe.
    The draw's last row, not a cylinder, is left out: its full-mask pieces
    would make every atom a probe in every draw."""
    nvars, pieces, y = case
    y = y[:-1]
    rows = [(mask, want) for r, mask, want in pieces if r < len(y)]
    _check_first_real(nvars, rows, y, c, plain)
    kept = [i for i, (mask, _) in enumerate(rows) if mask.bit_count() < 3]
    _check_first_real(
        nvars, [rows[i] for i in kept], [y[i] for i in kept], c, plain
    )


def _hidden_system(rng, nvars, plain=False):
    """Rows read off a hidden signed measure of total 1: 3 * nvars random
    partial assignments of one to three variables, and all four rows of
    one variable pair, which with the total-mass row are dependent.  plain
    adds a row that is not a cylinder, V0 == V1, built with Event.of."""
    space = build_space(tuple(f"V{k}" for k in range(nvars)))
    mass = [Fraction(rng.randint(-3, 6), 7) for _ in range(2**nvars - 1)]
    hidden = SignedMeasure(space, mass + [1 - sum(mass)])
    partials = []
    for _ in range(3 * nvars):
        names = rng.sample(space.variables, rng.randint(1, 3))
        partials.append({v: rng.choice((1, -1)) for v in names})
    a, b = rng.sample(space.variables, 2)
    partials += [{a: s, b: t} for s in (1, -1) for t in (1, -1)]
    cs = assemble(
        space, [(p, event_mass(hidden, cylinder(space, p))) for p in partials]
    )
    if plain:
        same = [x for x in space.atoms() if x & 1 == x >> 1 & 1]
        equal = Event.of(space, same)
        extra = ((equal, event_mass(hidden, equal)),)
        cs = ConstraintSystem(space, cs.rows + extra)
    return cs


def test_rank_from_probes_matches_independent_row_reduction():
    """On n-cycles and on systems read off a hidden measure, the rows
    dropped as redundant are found by probing far fewer atoms than the
    space holds, on both pricing paths; rank and nullity still match the
    grid oracle's own row reduction."""
    rng = random.Random(10)
    systems = [(family_system(ncycle(n)), 2 * n + 1) for n in range(3, 11)]
    for nvars, plain in ((7, False), (8, False), (9, False), (8, True)):
        cs = _hidden_system(rng, nvars, plain)
        systems.append((cs, cs.space.atom_count if plain else None))
    for cs, probes in systems:
        atoms = cs.space.atom_count
        _, _, free_cols = parameterization(cs)
        expected = (atoms - len(free_cols), len(free_cols))
        for per_table in (solver.SCAN_PER_TABLE, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "SCAN_PER_TABLE", per_table)
                assert rank_nullity(cs) == expected
                result = minimize_l1(cs)
                assert (result.rank, result.nullity) == expected
                assert verify_member(cs, result.witness, result.mstar)
                lp = _RevisedLP(cs, split=False)
            _drop_redundant(lp)
            assert len(lp.basis) == expected[0]
            if probes is None:
                assert 2 * len(lp.probes) < atoms
            else:
                assert len(lp.probes) == probes


def test_pricing_path_follows_the_counts():
    """Built-ins and cycles up to 7 variables scan; larger cycles
    eliminate.  A row that is not a cylinder keeps even a large cycle on
    the scan."""
    for name in BUILTINS:
        payload = builtin_bundle(name, {}).payload
        cs = (
            payload
            if isinstance(payload, ConstraintSystem)
            else family_system(payload)
        )
        assert _RevisedLP(cs, split=True).elim is None, name
    for n in range(3, 12):
        lp = _RevisedLP(family_system(ncycle(n)), split=True)
        assert (lp.elim is not None) == (n >= 8), n


def _builtin_systems():
    systems = []
    for name in BUILTINS:
        payload = builtin_bundle(name, {}).payload
        systems.append(
            payload
            if isinstance(payload, ConstraintSystem)
            else family_system(payload)
        )
    return systems


def _cycles_and_hidden_systems():
    """n-cycles 3..10, then three systems read off a hidden measure, of
    6, 7 and 8 variables."""
    rng = random.Random(13)
    return [family_system(ncycle(n)) for n in range(3, 11)] + [
        _hidden_system(rng, nvars) for nvars in (6, 7, 8)
    ]


def test_carried_prices_are_the_prices(monkeypatch):
    """The prices _bland_iterate carries through its pivots equal, at every
    pricing of both phases, the column sums of the costed adj rows summed
    afresh, on the scan and on elimination."""
    entering = _RevisedLP.entering
    phases = set()

    def checked_entering(lp, phase1, big_y):
        costed = [
            row
            for row, col in zip(lp.adj, lp.basis)
            if col >= lp.ncols or not phase1
        ]
        sums = [sum(row[k] for row in costed) for k in range(len(big_y))]
        assert big_y == sums
        phases.add(phase1)
        return entering(lp, phase1, big_y)

    monkeypatch.setattr(_RevisedLP, "entering", checked_entering)
    systems = _builtin_systems() + _cycles_and_hidden_systems()
    for per_table in (solver.SCAN_PER_TABLE, 0):
        monkeypatch.setattr(solver, "SCAN_PER_TABLE", per_table)
        for cs in systems:
            minimize_l1(cs)
            feasible_proper(cs)
    assert phases == {True, False}


def test_adjugate_invariant_holds_on_both_pivot_kinds(monkeypatch):
    """A pivot whose |p| equals det changes adj in place on the pivot
    row's nonzeros; any other rebuilds every row.  The other invariant
    test's systems almost never change det, so here the invariant is
    checked after every pivot of minimize_l1 and feasible_proper on
    n-cycles and hidden-measure systems, on which both kinds occur."""
    pivot = _RevisedLP.pivot
    keeps_det = []

    def checked_pivot(lp, row, j, col):
        keeps_det.append(abs(col[row]) == lp.det)
        pivot(lp, row, j, col)
        assert_adjugate_state(cs, lp)  # the system the loop below solves

    monkeypatch.setattr(_RevisedLP, "pivot", checked_pivot)
    for cs in _cycles_and_hidden_systems():
        minimize_l1(cs)
        feasible_proper(cs)
    assert True in keeps_det and False in keeps_det


def _pivot_counts(monkeypatch):
    """Per system of the table below: the pivots of minimize_l1 in each
    step it runs (_phase1, _drop_redundant, _phase2), and of
    feasible_proper."""
    calls = []
    pivot = _RevisedLP.pivot

    def counted_pivot(lp, row, j, col):
        calls[-1] += 1
        pivot(lp, row, j, col)

    def counted(step):
        def run(*args, **kwargs):
            calls.append(0)
            return step(*args, **kwargs)

        return run

    monkeypatch.setattr(_RevisedLP, "pivot", counted_pivot)
    for name in ("_phase1", "_drop_redundant", "_phase2"):
        monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
    systems = dict(zip(BUILTINS, _builtin_systems()))
    for n in range(3, 15):
        systems[f"cycle-{n}"] = family_system(ncycle(n))
    for cs in _cycles_and_hidden_systems()[-3:]:
        systems[f"hidden-{len(cs.space.variables)}"] = cs
    counts = {}
    for name, cs in systems.items():
        calls.clear()
        minimize_l1(cs)
        steps = tuple(calls)
        calls.clear()
        feasible_proper(cs)
        counts[name] = (steps, calls[0])
    return counts


# minimize_l1's pivots per step it runs, and feasible_proper's pivots, as
# Bland's rule takes them from the all-artificial start basis
PIVOT_COUNTS = {
    "mz-case-1": ((4, 0, 0), 4),
    "mz-case-2": ((8, 0, 0), 8),
    "mz-case-3": ((8, 0, 0), 8),
    "mz-case-4": ((16, 0, 0), 16),
    "mz-case-5": ((4, 0, 0), 4),
    "mz-case-6": ((8, 0, 0), 8),
    "mz-case-7": ((8, 0, 0), 8),
    "mz-case-8": ((16, 0, 0), 16),
    "mz-counterfactual": ((17, 1, 5), 13),
    "mz-detuned": ((18, 1, 2), 13),
    "pr-box": ((11, 0, 1), 8),
    "tsirelson": ((10, 0, 0), 8),
    "lg-chain": ((9, 0, 1), 6),
    "cycle-3": ((9, 0, 1), 6),
    "cycle-4": ((11, 0, 0), 8),
    "cycle-5": ((13, 0, 2), 10),
    "cycle-6": ((15, 0, 2), 12),
    "cycle-7": ((17, 0, 4), 14),
    "cycle-8": ((19, 0, 4), 16),
    "cycle-9": ((21, 0, 6), 18),
    "cycle-10": ((23, 0, 6), 20),
    "cycle-11": ((25, 0, 8), 22),
    "cycle-12": ((27, 0, 8), 24),
    "cycle-13": ((29, 0, 10), 26),
    "cycle-14": ((31, 0, 10), 28),
    "hidden-6": ((42, 0, 44), 4),
    "hidden-7": ((34, 0, 227), 1),
    "hidden-8": ((35, 0, 92), 4),
}


def test_bland_pivot_counts_are_pinned(monkeypatch):
    """A change to the simplex's state or bookkeeping that keeps every
    decision of Bland's rule keeps these counts, step by step."""
    assert _pivot_counts(monkeypatch) == PIVOT_COUNTS


def _assert_elimination_matches_scan(cs):
    """cs scans by default; with SCAN_PER_TABLE = 0 it eliminates, and
    minimize_l1 and feasible_proper give the scan's answers and witnesses."""
    assert _RevisedLP(cs, split=True).elim is None
    expected = (minimize_l1(cs), feasible_proper(cs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "SCAN_PER_TABLE", 0)
        assert _RevisedLP(cs, split=True).elim is not None
        assert (minimize_l1(cs), feasible_proper(cs)) == expected


def test_non_cylinder_rows_are_priced_by_the_scan():
    equal = Event.of(XY, [0, 3])  # X == Y
    either = cylinder(XY, {"X": 1}) | cylinder(XY, {"Y": 1})
    assert equal.cylinder is None and either.cylinder is None
    cs = ConstraintSystem(
        XY,
        (
            (equal, Fraction(1, 2)),
            (either, Fraction(5, 4)),
            (Event.full(XY), Fraction(1)),
        ),
    )
    result = minimize_l1(cs)
    assert result.status is SolveStatus.SIGNED_FEASIBLE_ONLY
    assert verify_member(cs, result.witness, result.mstar)
    assert_grid_confirms(cs, expect=Fraction(3, 2))
    _, _, free_cols = parameterization(cs)
    expected = (cs.space.atom_count - len(free_cols), len(free_cols))
    assert (result.rank, result.nullity) == expected == (3, 1)
    assert rank_nullity(cs) == expected
    _assert_elimination_matches_scan(cs)


def test_non_cylinder_row_on_a_large_cycle():
    """V0 == V1 holds with mass 1 on the 10-cycle (its first edge has
    correlation +1), so the extra row changes no answer, only the path.
    The cycle's own rows rebuilt with Event.of are the same atoms with no
    recorded cylinder: they go to the scan and give the same witness.
    Forced onto elimination, the cycle with the extra row and the 6-cycle
    rebuilt with Event.of give the scan's answers."""
    cycle = family_system(ncycle(10))
    space = cycle.space
    equal = Event.of(space, (a for a in space.atoms() if a & 1 == a >> 1 & 1))
    cs = ConstraintSystem(space, cycle.rows + ((equal, Fraction(1)),))
    plain = ConstraintSystem(
        space,
        tuple((Event.of(space, e.atoms), value) for e, value in cycle.rows),
    )
    assert plain.rows == cycle.rows
    assert _RevisedLP(cycle, split=True).elim is not None
    assert _RevisedLP(cs, split=True).elim is None
    assert _RevisedLP(plain, split=True).elim is None
    expected = minimize_l1(cycle)
    for system in (cs, plain):
        result = minimize_l1(system)
        assert result.status is expected.status
        assert result.mstar == expected.mstar == Fraction(5, 4)
        assert (result.rank, result.nullity) == (
            expected.rank,
            expected.nullity,
        )
        assert verify_member(system, result.witness, result.mstar)
        if system is plain:
            assert result.witness == expected.witness
    _assert_elimination_matches_scan(cs)
    # not plain: its 11k per-atom pieces would make the plan take seconds
    small = family_system(ncycle(6))
    _assert_elimination_matches_scan(
        ConstraintSystem(
            small.space,
            tuple((Event.of(small.space, e.atoms), v) for e, v in small.rows),
        )
    )


# -- performance ------------------------------------------------------------


def test_builtin_systems_solve_quickly():
    systems = [
        mz_counterfactual(),
        mz_counterfactual_detuned(Fraction(1, 100)),
        family_system(tsirelson_box()),
    ]
    for cs in systems:
        start = time.perf_counter()
        minimize_l1(cs)
        assert time.perf_counter() - start < 1.0


def _solve_without_dense_forms(family, monkeypatch):
    """family_system, minimize_l1 and feasible_proper on the family, with
    every row's atom set and every dense mass tuple forbidden: reading
    Event.atoms or SignedMeasure.mass, or building a measure from a dense
    tuple, fails the test."""

    def forbidden(*args):
        raise AssertionError("a dense form was built on the solve path")

    with monkeypatch.context() as patch:
        patch.setattr(Event, "atoms", property(forbidden))
        patch.setattr(SignedMeasure, "mass", property(forbidden))
        patch.setattr(SignedMeasure, "__init__", forbidden)
        cs = family_system(family)
        result = minimize_l1(cs)
        proper = feasible_proper(cs)
        assert verify_member(cs, result.witness, result.mstar)
    assert all("atoms" not in vars(event) for event, _ in cs.rows)
    return cs, result, proper


def test_ncycle_rung_builds_no_atom_set_and_no_dense_mass(monkeypatch):
    """An n=10 rung of the n-cycle ladder, on the elimination path: its
    rows stay cylinders and its witness stays sparse from end to end."""
    cs, result, proper = _solve_without_dense_forms(ncycle(10), monkeypatch)
    assert _RevisedLP(cs, split=True).elim is not None
    assert proper is None and result.mstar == Fraction(5, 4)
    assert len(result.witness.support) <= result.rank == 21


def test_twenty_variable_ring_solves_in_kilobytes(monkeypatch):
    """The 20-cycle has 2^20 atoms.  No row's atom set is built, the
    witness holds at most rank-many atoms, and the three calls take well
    under a second and peak under 1,024 kB of traced allocations (about
    120 kB on CPython 3.11).  Its M* is not asserted here: the n-cycle law
    has no certificate yet."""
    family = ncycle(20)
    start = time.perf_counter()
    cs, result, proper = _solve_without_dense_forms(family, monkeypatch)
    assert time.perf_counter() - start < 1.0
    assert proper is None and result.status is SolveStatus.SIGNED_FEASIBLE_ONLY
    assert 0 < len(result.witness.support) <= result.rank
    tracemalloc.start()
    try:
        minimize_l1(family_system(family))
        feasible_proper(family_system(family))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


# -- one column side per system ----------------------------------------------


def test_columns_are_built_once_per_system(monkeypatch):
    """minimize_l1, then feasible_proper, then rank_nullity on one system
    read its rows into pieces once, one _pieces call per row, not three.
    The later calls build no pieces, no elimination plan and no probes
    (each would call _subsets), on the scan and on elimination."""
    calls = {"_pieces": 0, "_subsets": 0}

    def counted(name):
        step = getattr(solver, name)

        def run(*args):
            calls[name] += 1
            return step(*args)

        return run

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    systems = [(mz_counterfactual(), False), (family_system(ncycle(10)), True)]
    for cs, elim in systems:
        calls.update(dict.fromkeys(calls, 0))
        result = minimize_l1(cs)
        assert calls["_pieces"] == len(cs.rows)
        assert (_RevisedLP(cs, split=False).elim is not None) == elim
        calls.update(dict.fromkeys(calls, 0))
        assert feasible_proper(cs) is None
        assert rank_nullity(cs) == (result.rank, result.nullity)
        assert calls == {"_pieces": 0, "_subsets": 0}


def _fresh(cs):
    """An equal system that has built nothing yet."""
    return ConstraintSystem(cs.space, cs.rows)


def _assert_shared_columns_give_fresh_answers(cs):
    """minimize_l1, feasible_proper and rank_nullity on one system, then
    again in reverse order, each equal to its answer on a fresh equal
    system; every system on the scan, then on elimination."""
    for per_table in (10**9, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "SCAN_PER_TABLE", per_table)
            expected = [
                minimize_l1(_fresh(cs)),
                feasible_proper(_fresh(cs)),
                rank_nullity(_fresh(cs)),
            ]
            shared = _fresh(cs)
            first = [
                minimize_l1(shared),
                feasible_proper(shared),
                rank_nullity(shared),
            ]
            again = [
                rank_nullity(shared),
                feasible_proper(shared),
                minimize_l1(shared),
            ]
            assert first == expected == again[::-1]


def test_shared_columns_give_fresh_answers():
    """The 13 built-ins and the golden n-cycles 3..14."""
    systems = _builtin_systems()
    systems += [family_system(ncycle(n)) for n in range(3, 15)]
    for cs in systems:
        _assert_shared_columns_give_fresh_answers(cs)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_shared_columns_give_fresh_answers_on_random_systems(seed):
    _assert_shared_columns_give_fresh_answers(
        random_small_system(random.Random(seed), 4, 6)
    )


def test_threads_sharing_one_system_agree_with_serial_answers():
    """Four threads, released together, each solve one shared system that
    has built nothing yet; every thread's answers equal the serial ones.
    The systems cover the scan, elimination, and elimination forced on
    rows that are no cylinders, where column fills the gather cache.  A
    short switch interval makes the threads interleave inside the builds."""
    small = family_system(ncycle(6))
    plain = ConstraintSystem(
        small.space,
        tuple((Event.of(small.space, e.atoms), v) for e, v in small.rows),
    )
    cases = [
        (mz_counterfactual(), solver.SCAN_PER_TABLE),
        (family_system(ncycle(10)), solver.SCAN_PER_TABLE),
        (family_system(ncycle(9)), 0),
        (plain, 0),
    ]
    calls = (minimize_l1, feasible_proper, rank_nullity)
    orders = [(0, 1, 2), (2, 1, 0), (1, 0, 2), (0, 2, 1)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cs, per_table in cases:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "SCAN_PER_TABLE", per_table)
                serial = [call(_fresh(cs)) for call in calls]
                shared = _fresh(cs)
                start = threading.Barrier(len(orders))

                def solve(order):
                    start.wait(timeout=60)
                    return {k: calls[k](shared) for k in order}

                with ThreadPoolExecutor(len(orders)) as pool:
                    answers = list(pool.map(solve, orders, timeout=120))
            for got in answers:
                assert [got[k] for k in range(3)] == serial
    finally:
        sys.setswitchinterval(interval)


def test_normalization_and_solves_take_no_len_of_a_cylinder(monkeypatch):
    """len of a cylinder over 63 or more variables does not fit
    Py_ssize_t; includes_normalization reads a cylinder row's mask, and
    the solves read pieces, so neither calls Event.__len__."""
    cs = family_system(ncycle(8))
    expected = minimize_l1(_fresh(cs)), feasible_proper(_fresh(cs))

    def no_len(event):
        raise OverflowError("len of an event called")

    monkeypatch.setattr(Event, "__len__", no_len)
    assert cs.includes_normalization
    assert (minimize_l1(cs), feasible_proper(cs)) == expected


def test_event_hash_takes_no_len(monkeypatch):
    """Hashing a row event reads its size without len, which a cylinder
    over 63 or more free variables overflows; every hash stays the same."""
    events = [event for event, _ in family_system(ncycle(8)).rows]
    events += [Event.of(e.space, e.atoms) for e in events[:3]]
    expected = [hash(event) for event in events]

    def no_len(event):
        raise OverflowError("len of an event called")

    monkeypatch.setattr(Event, "__len__", no_len)
    assert [hash(event) for event in events] == expected


def test_first_real_stores_the_probe_gathers_once(monkeypatch):
    """On elimination the gather cache starts empty; the first first_real
    builds every probe's gather in one pass and assigns the merged cache
    once, where one assignment per probe atom copied it each time."""
    monkeypatch.setattr(solver, "SCAN_PER_TABLE", 0)
    lp = _RevisedLP(family_system(ncycle(8)), split=False)
    assert lp.elim is not None and lp.cols.gathers == {}
    stores = []

    class Counting(type(lp.cols)):
        def __setattr__(self, name, value):
            stores.append(name)
            super().__setattr__(name, value)

    lp.cols.__class__ = Counting
    assert lp.first_real(0) >= 0
    assert len(lp.probes) > 1
    assert stores.count("gathers") == 1
    assert [get for _, get in lp.probes] == [
        lp.cols.gathers[atom] for atom, _ in lp.probes
    ]
