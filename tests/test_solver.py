"""Constraint assembly, exact linear algebra, and the L1 simplex."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from negprob import (
    ConstraintSystem,
    ContradictoryRows,
    Event,
    MissingNormalization,
    SignedMeasure,
    SolveStatus,
    SpaceMismatch,
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
from negprob.scenarios import BUILTINS, builtin_bundle
from negprob.solver import _drop_redundant, _phase1, _phase2, _RevisedLP

from gridsearch import grid_minimum, parameterization
from helpers import mz_family, random_small_system

XY = build_space(("X", "Y"))


# -- assemble ---------------------------------------------------------------


def test_assemble_appends_normalization():
    cs = assemble(XY, [({"X": 1}, Fraction(1, 2))])
    assert len(cs.rows) == 2
    assert cs.includes_normalization
    assert cs.rows[-1] == (Event.full(XY), Fraction(1))


def test_assemble_drops_exact_duplicates():
    cs = assemble(
        XY,
        [({"X": 1}, Fraction(1, 2)), ({"X": 1}, Fraction(1, 2))],
    )
    assert len(cs.rows) == 2


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


def test_assemble_rejects_floats():
    with pytest.raises(TypeError):
        assemble(XY, [({"X": 1}, 0.5)])


def test_system_refuses_an_event_of_another_space():
    stranger = Event.full(build_space(["Q"]))
    with pytest.raises(SpaceMismatch, match="different space"):
        ConstraintSystem(XY, ((stranger, Fraction(1)),))


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
    for i, row in enumerate(lp.adj):
        for j, col in enumerate(lp.basis):
            product = sum(row[k] * _entry(cs, lp, k, col) for k in range(m))
            assert product == (lp.det if i == j else 0)
        scaled_b = sum(
            row[k] * value * lp.scale_b for k, (_, value) in enumerate(cs.rows)
        )
        assert scaled_b == lp.rhs[i]


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
