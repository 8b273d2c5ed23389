"""Bias detection, family analysis, and the CHSH relation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import negprob.contextuality
from negprob import (
    BiasWitness,
    Context,
    ContextFamily,
    ImproperDistribution,
    MissingPairContext,
    SolveStatus,
    UnknownVariable,
    assemble,
    bell_box,
    build_space,
    check_mstar_s_relation,
    chsh_s,
    detect_bias,
    family_mstar,
    family_system,
    leggett_garg_chain,
    mach_zehnder_case,
    rank_nullity,
    tsirelson_box,
)
from negprob.contextuality import _family_rank
from helpers import (
    families,
    families_with_repeats,
    mz_family,
    random_pair_context,
)

HALF = Fraction(1, 2)


# -- construction and validation --------------------------------------------


def test_family_rejects_stray_context_variable():
    ctx = Context(("Q",), (HALF, HALF))
    with pytest.raises(UnknownVariable):
        ContextFamily(("X", "Y"), (ctx,))


def test_context_must_be_proper():
    with pytest.raises(ImproperDistribution):
        Context(("X",), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ImproperDistribution):
        Context(("X",), (HALF, HALF, HALF))
    with pytest.raises(ImproperDistribution):
        Context(("X", "Y"), (HALF, HALF, HALF, HALF))


@pytest.mark.parametrize(
    "variables, distribution, message",
    [
        (  # K1 entries in atom order
            ("X", "Y"),
            (Fraction(-1, 4), Fraction(3, 2), 0, Fraction(-1, 4)),
            "atom -- has mass -1/4; atom +- has mass 3/2; "
            "atom ++ has mass -1/4",
        ),
        (("X", "Y"), (Fraction(1, 4),) * 3 + (0,), "total mass is 3/4, not 1"),
        (  # K1, then K2; strings and ints are exact masses too
            ("X", "Y", "Z"),
            ("1/2", 2, "-1/2", 0, 0, 0, 0, 0),
            "atom +-- has mass 2; atom -+- has mass -1/2; "
            "total mass is 2, not 1",
        ),
        (("X",), (0.5, 0.5, 0.5), "expected 2 masses, got 3"),  # size first
    ],
)
def test_improper_context_messages(variables, distribution, message):
    with pytest.raises(ImproperDistribution) as caught:
        Context(variables, distribution)
    assert str(caught.value) == message


def test_context_refuses_float_masses():
    with pytest.raises(TypeError, match="exact rational required, got 0.5"):
        Context(("X",), (0.5, 0.5))


def test_context_keeps_a_space_passed_as_its_variables():
    space = build_space(("Y", "X"))
    context = Context(space, (0, HALF, HALF, 0))
    assert context.space is space
    assert context == Context(("Y", "X"), (0, HALF, HALF, 0))


# -- bias detection ----------------------------------------------------------


def test_bias_between_bare_and_monitored_interferometer():
    witness = detect_bias(mz_family(5, 6))
    assert witness == BiasWitness(
        event=(("D1", 1),),
        context_i=0,
        context_j=1,
        value_i=Fraction(1),
        value_j=HALF,
    )


def test_bias_between_open_and_blocked_interferometer():
    witness = detect_bias(mz_family(1, 4))
    assert witness.event == (("D1", 1),)
    assert witness.value_i == 1
    assert witness.value_j == 0


def test_no_bias_for_identical_contexts():
    assert detect_bias(mz_family(1, 5)) is None


def test_no_bias_without_shared_variables():
    family = ContextFamily(
        ("X", "Y"),
        (
            Context(("X",), (HALF, HALF)),
            Context(("Y",), (Fraction(1, 4), Fraction(3, 4))),
        ),
    )
    assert detect_bias(family) is None
    assert family_mstar(family).status is SolveStatus.PROPER_FEASIBLE


def test_bias_scan_returns_earliest_witness():
    # both marginals disagree; the single-variable event on D1 comes first
    sharp = Context(("D1", "D2"), (0, Fraction(1), 0, 0))
    flat = Context(("D1", "D2"), (Fraction(1, 4),) * 4)
    family = ContextFamily(("D1", "D2"), (sharp, flat))
    witness = detect_bias(family)
    assert witness.event == (("D1", 1),)
    assert (witness.value_i, witness.value_j) == (Fraction(1), HALF)


def test_bias_detection_is_deterministic():
    family = mz_family(5, 6, 4)
    assert detect_bias(family) == detect_bias(family)


def reference_bias(family):
    """The scan detect_bias promises, one partial_mass call per event."""
    for i, j in itertools.combinations(range(len(family.contexts)), 2):
        ctx_i, ctx_j = family.contexts[i], family.contexts[j]
        shared = [
            v
            for v in family.global_variables
            if v in ctx_i.variables and v in ctx_j.variables
        ]
        for mask in range(1, 1 << len(shared)):
            subset = [v for k, v in enumerate(shared) if mask >> k & 1]
            for signs in itertools.product((+1, -1), repeat=len(subset)):
                partial = dict(zip(subset, signs))
                value_i = ctx_i.partial_mass(partial)
                value_j = ctx_j.partial_mass(partial)
                if value_i != value_j:
                    event = tuple(zip(subset, signs))
                    return BiasWitness(event, i, j, value_i, value_j)
    return None


@settings(max_examples=300, deadline=None)
@given(families())
def test_detect_bias_matches_the_partial_mass_scan(family):
    witness = detect_bias(family)
    contexts = family.contexts
    event("biased" if witness else "unbiased")
    if any(
        len(set(a.variables) & set(b.variables)) >= 2
        for a, b in itertools.combinations(contexts, 2)
    ):
        event("a pair shares two or more variables")
    expected = reference_bias(family)
    assert witness == expected
    assert repr(witness) == repr(expected)


def test_wide_contexts_are_read_as_tables(monkeypatch):
    """Twelve shared variables: 531,440 shared events, none priced alone."""
    names = tuple(f"v{i}" for i in range(12))
    uniform = [Fraction(1, 4096)] * 4096
    moved = list(uniform)
    moved[0], moved[1 << 11] = 0, Fraction(2, 4096)  # differ in v11 only
    same = ContextFamily(names, (Context(names, uniform),) * 2)
    shifted = ContextFamily(
        names, (Context(names, uniform), Context(names, moved))
    )

    def refuse(self, partial):
        raise AssertionError("partial_mass called")

    monkeypatch.setattr(Context, "partial_mass", refuse)
    assert detect_bias(same) is None
    assert detect_bias(shifted) == BiasWitness(
        (("v11", 1),), 0, 1, HALF, Fraction(2049, 4096)
    )


def test_a_bias_in_the_full_parity_alone_is_found():
    """Two 12-variable contexts that agree on every marginal of 11 or
    fewer variables: the witness is the all +1 event on all twelve, the
    last subset in scan order."""
    names = tuple(f"v{i}" for i in range(12))
    odd = [Fraction(2 * (a.bit_count() % 2), 4096) for a in range(4096)]
    flat = Context(names, [Fraction(1, 4096)] * 4096)
    family = ContextFamily(names, (flat, Context(names, odd)))
    assert detect_bias(family) == BiasWitness(
        tuple((v, 1) for v in names), 0, 1, Fraction(1, 4096), Fraction(0)
    )


@settings(max_examples=300, deadline=None)
@given(families_with_repeats())
def test_bias_witness_events_are_all_plus(family):
    """The first event two contexts price apart has every sign +1: the
    proper subsets of its variables agree, so by Mobius inversion each
    assignment of them differs, the all +1 one included.  Skipping the
    repeated contexts leaves the full scan's witness."""
    witness = detect_bias(family)
    event("biased" if witness else "unbiased")
    assert witness == reference_bias(family)
    if witness is not None:
        assert witness.event
        assert all(sign == 1 for _, sign in witness.event)


@pytest.mark.parametrize("at", [1000, 500, 1, None])
def test_repeated_contexts_are_paired_once(monkeypatch, at):
    """1,000 equal contexts and one that disagrees, inserted at index at:
    two contexts are read, and the witness is the full scan's.  With no
    disagreeing context there is no pair and nothing is read."""
    contexts = [Context(("X",), (HALF, HALF)) for _ in range(1000)]
    if at is not None:
        contexts.insert(at, Context(("X",), (Fraction(1, 4), Fraction(3, 4))))
    family = ContextFamily(("X",), contexts)
    calls = []
    read = negprob.contextuality._superset_sums

    def counted(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(negprob.contextuality, "_superset_sums", counted)
    witness = detect_bias(family)
    if at is None:
        assert witness is None and calls == []
        return
    assert len(calls) == 2
    assert (witness.context_i, witness.context_j) == (0, at)
    assert witness == reference_bias(family)


# -- family systems ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.one_of(families(), families_with_repeats()))
def test_family_rank_is_the_rank_of_the_rows(family):
    """One independent all +1 cylinder per variable subset inside some
    context, the empty subset being normalization."""
    event("biased" if detect_bias(family) else "unbiased")
    assert _family_rank(family) == rank_nullity(family_system(family))


def test_family_rank_of_wide_families():
    """Two 12-variable contexts: on the same variables every full
    assignment is a row; sharing 11, the two down-sets overlap in 2^11."""
    names = tuple(f"v{i}" for i in range(13))
    uniform = Context(names[:12], [Fraction(1, 4096)] * 4096)
    shifted = Context(names[1:], [Fraction(1, 4096)] * 4096)
    same = ContextFamily(names[:12], (uniform, uniform))
    overlap = ContextFamily(names, (uniform, shifted))
    assert _family_rank(same) == (4096, 0)
    assert _family_rank(overlap) == (6144, 2048)


def test_family_system_deduplicates_repeated_contexts():
    once = family_system(mz_family(1))
    twice = family_system(mz_family(1, 5))  # identical distributions
    assert len(once.rows) == len(twice.rows) == 5


def test_family_system_row_count_for_chain():
    cs = family_system(leggett_garg_chain(1, 1, -1))
    assert len(cs.rows) == 13


def per_atom_rows(family):
    """family_system's rows, one atom_sign per variable per atom."""
    rows = []
    for context in family.contexts:
        sign = context.space.atom_sign
        for atom, value in enumerate(context.distribution):
            partial = {name: sign(atom, name) for name in context.variables}
            rows.append((partial, value))
    space = build_space(family.global_variables)
    return assemble(space, rows, keep_contradictions=True)


def row_keys(system):
    return [(event.cylinder, value) for event, value in system.rows]


@settings(max_examples=100, deadline=None)
@given(families())
def test_family_system_rows_match_per_atom_rows(family):
    system = family_system(family)
    expected = per_atom_rows(family)
    assert system.space == expected.space
    assert row_keys(system) == row_keys(expected)


@settings(max_examples=100, deadline=None)
@given(families_with_repeats())
def test_family_system_is_assemble_row_for_row(family):
    """family_system and assemble share one row builder: the same rows in
    the same order, repeated contexts dropped as exact duplicates."""
    rows = []
    for context in family.contexts:
        names = context.variables
        for atom, value in enumerate(context.distribution):
            signs = [1 if atom >> i & 1 else -1 for i in range(len(names))]
            rows.append((dict(zip(names, signs)), value))
    expected = assemble(family.space, rows, keep_contradictions=True)
    system = family_system(family)
    assert system == expected
    assert row_keys(system) == row_keys(expected)
    assert all(type(value) is Fraction for _, value in system.rows)


def test_builtin_family_rows_match_per_atom_rows():
    for family in [mz_family(1, 4, 6, 8), leggett_garg_chain(1, 1, -1)]:
        assert row_keys(family_system(family)) == row_keys(
            per_atom_rows(family)
        )


def test_single_case_families_admit_proper_joints():
    for n in range(1, 9):
        result = family_mstar(mach_zehnder_case(n))
        assert result.status is SolveStatus.PROPER_FEASIBLE
        assert result.mstar == 1


def test_biased_families_have_no_joint():
    for cases in [(5, 6), (1, 4), (5, 8), (2, 5)]:
        family = mz_family(*cases)
        assert detect_bias(family) is not None
        assert family_mstar(family).status is SolveStatus.INFEASIBLE


def test_monitored_pair_agrees_and_admits_joint():
    # cases 6 and 7 share only the output statistics, which match
    family = mz_family(6, 7)
    assert detect_bias(family) is None
    assert family_mstar(family).status is SolveStatus.PROPER_FEASIBLE


def test_family_mstar_of_extremal_box():
    result = family_mstar(bell_box(1, 1, 1, -1))
    assert result.status is SolveStatus.SIGNED_FEASIBLE_ONLY
    assert result.mstar == 2


# -- CHSH --------------------------------------------------------------------


def test_chsh_s_values():
    assert chsh_s(bell_box(1, 1, 1, -1), "A", "A2", "B", "B2") == 4
    assert chsh_s(bell_box(0, 0, 0, 0), "A", "A2", "B", "B2") == 0
    assert chsh_s(bell_box(1, 1, 1, 1), "A", "A2", "B", "B2") == 2
    assert chsh_s(tsirelson_box(), "A", "A2", "B", "B2") == Fraction(1632, 577)


def test_chsh_s_missing_pair():
    with pytest.raises(MissingPairContext):
        chsh_s(leggett_garg_chain(0, 0, 0), "A", "A2", "B", "B2")


def test_relation_extremal_box():
    assert check_mstar_s_relation(
        bell_box(1, 1, 1, -1), "A", "A2", "B", "B2"
    ) == (2, 4, True)


def test_relation_uncorrelated_box():
    assert check_mstar_s_relation(
        bell_box(0, 0, 0, 0), "A", "A2", "B", "B2"
    ) == (1, 0, True)


def test_relation_near_quantum_maximum():
    mstar, s, holds = check_mstar_s_relation(
        tsirelson_box(), "A", "A2", "B", "B2"
    )
    assert (mstar, s, holds) == (
        Fraction(816, 577),
        Fraction(1632, 577),
        True,
    )


def test_relation_on_biased_family():
    deterministic = Context(("A", "B"), (0, 0, 0, Fraction(1)))
    box = bell_box(0, 0, 0, 0)
    tampered = ContextFamily(
        box.global_variables, (deterministic,) + box.contexts[1:]
    )
    assert detect_bias(tampered) is not None
    mstar, s, holds = check_mstar_s_relation(tampered, "A", "A2", "B", "B2")
    assert mstar is None
    assert s == 1
    assert not holds


# -- bias vs joint existence on random families ------------------------------


def test_bias_decides_joint_existence():
    """For pair-context cycles, a joint exists exactly when no bias does."""
    rng = random.Random(31415)
    for trial in range(120):
        if trial % 3 == 0:
            pairs = (("A", "B"), ("A", "B2"), ("A2", "B"), ("A2", "B2"))
            names = ("A", "A2", "B", "B2")
        else:
            pairs = (("X", "Y"), ("Y", "Z"), ("X", "Z"))
            names = ("X", "Y", "Z")
        contexts = tuple(random_pair_context(rng, p) for p in pairs)
        family = ContextFamily(names, contexts)
        result = family_mstar(family)
        if detect_bias(family) is None:
            assert result.status is not SolveStatus.INFEASIBLE
            assert result.mstar >= 1
        else:
            assert result.status is SolveStatus.INFEASIBLE


class _LowestRandom(random.Random):
    """Answers every randint with its lower bound, as hypothesis's minimal
    st.randoms() does, and fails past 100 answers instead of hanging."""

    answers = 0

    def randint(self, a, b):
        self.answers += 1
        assert self.answers <= 100, "randint asked again and again"
        return a


def test_random_pair_context_returns_on_all_zero_weights():
    """All-zero weights no longer send random_pair_context drawing
    forever; a draw with a nonzero total is unchanged."""
    context = random_pair_context(_LowestRandom(), ("X", "Y"))
    assert context.distribution == (1, 0, 0, 0)
    rng, again = random.Random(7), random.Random(7)
    weights = [again.randint(0, 8) for _ in range(4)]
    assert sum(weights)
    expected = tuple(Fraction(w, sum(weights)) for w in weights)
    assert random_pair_context(rng, ("X", "Y")).distribution == expected


def test_unbiased_builders_never_show_bias():
    rng = random.Random(92653)
    for _ in range(30):
        es = [Fraction(rng.randint(-8, 8), 8) for _ in range(4)]
        assert detect_bias(bell_box(*es)) is None
        assert detect_bias(leggett_garg_chain(*es[:3])) is None
