"""Built-in interferometer cases, box builders, and the wave model."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from negprob import (
    AlphaOutOfRange,
    Context,
    CorrelationOutOfRange,
    DegenerateGeometry,
    EpsOutOfRange,
    InvalidCase,
    ScenarioBundle,
    ValueOutOfBounds,
    WaveConfig,
    bell_box,
    cylinder,
    l1_norm,
    leggett_garg_chain,
    mach_zehnder_case,
    mz_counterfactual,
    mz_counterfactual_detuned,
    mz_family_member,
    mz_general_member,
    mz_space,
    nearest_rational,
    tsirelson_box,
    verify_member,
    wave_detection,
)
import negprob.scenarios as scenarios
from negprob.scenarios import BUILTINS, builtin_bundle

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def row_values(cs):
    return {event.atoms: value for event, value in cs.rows}


# -- detector placements -----------------------------------------------------


def test_case_one_all_output_at_first_detector():
    family = mach_zehnder_case(1)
    assert family.global_variables == ("D1", "D2")
    assert family.contexts[0].distribution == (0, Fraction(1), 0, 0)


def test_case_two_absorber_splits_output():
    ctx = mach_zehnder_case(2).contexts[0]
    assert ctx.variables == ("Da", "D1", "D2")
    assert ctx.partial_mass({"Da": -1}) == 1
    assert ctx.partial_mass({"D1": 1, "D2": -1}) == HALF
    assert ctx.partial_mass({"D1": -1, "D2": 1}) == HALF


def test_case_six_nondestructive_monitor():
    ctx = mach_zehnder_case(6).contexts[0]
    assert ctx.partial_mass({"Da": 1}) == HALF
    assert ctx.partial_mass({"Da": 1, "D1": 1, "D2": -1}) == QUARTER
    assert ctx.partial_mass({"D1": 1}) == HALF


def test_case_eight_paths_anticorrelate_with_outputs():
    ctx = mach_zehnder_case(8).contexts[0]
    assert ctx.partial_mass({"Da": 1, "Db": 1}) == 0
    assert ctx.partial_mass({"Da": 1, "Db": -1}) == HALF
    assert ctx.partial_mass({"Da": 1, "D1": 1, "D2": -1}) == QUARTER


def test_absorbing_and_nondestructive_runs_agree_after_selection():
    # conditioning case 6 on its monitor matches the absorber statistics
    absorbing = mach_zehnder_case(2).contexts[0]
    monitored = mach_zehnder_case(6).contexts[0]
    for d1, d2 in ((+1, -1), (-1, +1)):
        selected = monitored.partial_mass(
            {"Da": -1, "D1": d1, "D2": d2}
        ) / monitored.partial_mass({"Da": -1})
        assert selected == absorbing.partial_mass(
            {"Da": -1, "D1": d1, "D2": d2}
        )


def test_invalid_case_numbers():
    for bad in (0, 9, "1", True, 1.0, 2.0, Fraction(2)):
        with pytest.raises(InvalidCase):
            mach_zehnder_case(bad)


# -- pooled counterfactual system ---------------------------------------------


def test_counterfactual_row_values():
    values = row_values(mz_counterfactual())
    space = mz_space()
    assert values[cylinder(space, {"D1": 1, "D2": -1}).atoms] == 1
    assert values[cylinder(space, {"D1": -1, "D2": 1}).atoms] == 0
    assert values[cylinder(space, {"Da": -1, "D1": 1, "D2": -1}).atoms] == HALF
    assert values[cylinder(space, {"Da": 1, "Db": 1}).atoms] == 0
    assert values[cylinder(space, {"Da": 1, "Db": -1}).atoms] == HALF


def test_detuned_at_zero_matches_baseline():
    assert mz_counterfactual_detuned(0).rows == mz_counterfactual().rows


def test_detuned_moves_only_interference_rows():
    eps = Fraction(1, 100)
    space = mz_space()
    base = row_values(mz_counterfactual())
    moved = row_values(mz_counterfactual_detuned(eps))
    d1_wins = cylinder(space, {"D1": 1, "D2": -1}).atoms
    d2_wins = cylinder(space, {"D1": -1, "D2": 1}).atoms
    assert moved[d1_wins] == 1 - eps
    assert moved[d2_wins] == eps
    for key, value in base.items():
        if key not in (d1_wins, d2_wins):
            assert moved[key] == value


def test_detuned_range_checks():
    with pytest.raises(EpsOutOfRange):
        mz_counterfactual_detuned(HALF)
    with pytest.raises(EpsOutOfRange):
        mz_counterfactual_detuned(Fraction(-1, 100))
    with pytest.raises(TypeError):
        mz_counterfactual_detuned(0.01)


# -- general solution and minimum-norm family ---------------------------------


def test_general_member_satisfies_every_row():
    cs = mz_counterfactual()
    rng = random.Random(1618)
    for _ in range(100):
        params = [
            Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 8)))
            for _ in range(5)
        ]
        member = mz_general_member(*params)
        assert verify_member(cs, member, l1_norm(member))


def test_family_member_norm_and_membership():
    cs = mz_counterfactual()
    for k in range(9):
        alpha = Fraction(k, 16)
        member = mz_family_member(alpha)
        assert l1_norm(member) == 3
        assert verify_member(cs, member, 3)
        assert member == mz_general_member(alpha, 0, -alpha, 0, 0)


def test_family_member_range():
    with pytest.raises(AlphaOutOfRange):
        mz_family_member(Fraction(-1, 16))
    with pytest.raises(AlphaOutOfRange):
        mz_family_member(Fraction(9, 16))


def test_family_member_extreme_alpha_table():
    m = mz_family_member(HALF)
    space = m.space
    expected = {
        (+1, +1, +1, +1): HALF,
        (+1, +1, -1, +1): -HALF,
        (+1, -1, +1, -1): HALF,
        (-1, +1, +1, -1): HALF,
        (-1, -1, +1, +1): -HALF,
        (-1, -1, -1, +1): HALF,
    }
    for atom in space.atoms():
        signs = tuple(
            space.atom_sign(atom, v) for v in space.variables
        )
        assert m.mass[atom] == expected.get(signs, Fraction(0))


def test_perturbations_off_the_family_cost_more():
    for sign in (Fraction(1, 8), Fraction(-1, 8)):
        assert l1_norm(mz_general_member(0, sign, 0, 0, 0)) > 3
        assert l1_norm(mz_general_member(0, 0, 0, sign, 0)) > 3
        assert l1_norm(mz_general_member(0, 0, 0, 0, sign)) > 3


# -- box builders --------------------------------------------------------------


def test_bell_box_extremal_distributions():
    box = bell_box(1, 1, 1, -1)
    assert box.contexts[0].distribution == (HALF, 0, 0, HALF)
    assert box.contexts[3].distribution == (0, HALF, HALF, 0)
    for ctx in box.contexts:
        for name in ctx.variables:
            assert ctx.partial_mass({name: 1}) == HALF


def test_bell_box_range_check():
    with pytest.raises(CorrelationOutOfRange):
        bell_box(Fraction(9, 8), 0, 0, 0)


def test_tsirelson_box_masses():
    ctx = tsirelson_box().contexts[0]
    assert ctx.partial_mass({"A": 1, "B": 1}) == Fraction(985, 2308)


def test_chain_distributions():
    chain = leggett_garg_chain(1, 1, -1)
    assert chain.contexts[0].variables == ("X", "Y")
    assert chain.contexts[0].distribution == (HALF, 0, 0, HALF)
    assert chain.contexts[2].distribution == (0, HALF, HALF, 0)
    with pytest.raises(CorrelationOutOfRange):
        leggett_garg_chain(-2, 0, 0)


# -- wave model -----------------------------------------------------------------


def test_wave_tuned_geometry_sends_everything_to_d1():
    out = wave_detection(WaveConfig(Fraction(1), 0.0, 0.0, 0.0))
    assert out.i_d1 == pytest.approx(0.5, rel=1e-12)
    assert out.i_d2 == pytest.approx(0.0, abs=1e-12)
    assert out.p_d1 == pytest.approx(1.0, rel=1e-12)


def test_wave_half_turn_detuning_swaps_outputs():
    out = wave_detection(WaveConfig(Fraction(1), 0.3, -1.1, math.pi))
    assert out.p_d1 == pytest.approx(0.0, abs=1e-12)
    assert out.p_d2 == pytest.approx(1.0, rel=1e-12)


def test_wave_energy_and_fringe_law():
    rng = random.Random(2718)
    for _ in range(100):
        cfg = WaveConfig(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            rng.uniform(-6, 6),
            rng.uniform(-6, 6),
            rng.uniform(-6, 6),
        )
        out = wave_detection(cfg)
        energy = float(cfg.amplitude) ** 2 / 2
        assert out.i_d1 + out.i_d2 == pytest.approx(energy, rel=1e-12)
        assert out.p_d1 == pytest.approx(
            math.cos(cfg.detuning / 2) ** 2, abs=1e-12
        )


def test_wave_outputs_ignore_common_phases():
    a = wave_detection(WaveConfig(Fraction(2), 0.0, 0.0, 1.0))
    b = wave_detection(WaveConfig(Fraction(2), 2.5, -0.7, 1.0))
    assert a.i_d1 == pytest.approx(b.i_d1, rel=1e-12)
    assert a.i_d2 == pytest.approx(b.i_d2, rel=1e-12)


def test_wave_config_validation():
    with pytest.raises(ValueOutOfBounds):
        WaveConfig(Fraction(0), 0.0, 0.0, 0.0)
    with pytest.raises(ValueOutOfBounds):
        WaveConfig(Fraction(-1), 0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        WaveConfig(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueOutOfBounds):
        WaveConfig(Fraction(1), math.inf, 0.0, 0.0)
    for phase in ("0.5", Decimal("0.5")):  # refused at build, not later
        with pytest.raises(TypeError):
            WaveConfig(1, phase, 0.0, 0.0)
    for at in range(3):  # bools, as everywhere else in the package
        phases = [0.0, 0.0, 0.0]
        phases[at] = True
        label = ("phi1", "phi2", "detuning")[at]
        with pytest.raises(TypeError, match=f"{label} must be a real number"):
            WaveConfig(1, *phases)
    for phase in (10**400, Fraction(10**400), -(10**400), math.nan):
        with pytest.raises(ValueOutOfBounds, match="phi2 must be finite"):
            WaveConfig(1, 0.0, phase, 0.0)


def test_wave_detection_refuses_an_underflowing_amplitude():
    # A positive exact amplitude can still round to 0.0 as a float.
    cfg = WaveConfig(Fraction(1, 10**400), 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateGeometry, match="both output intensities"):
        wave_detection(cfg)


def test_nearest_rational():
    assert nearest_rational(0.5) == HALF
    assert nearest_rational(math.cos(math.pi / 3) ** 2) == QUARTER
    assert nearest_rational(math.pi, 7) == Fraction(22, 7)


# -- bundles ---------------------------------------------------------------------


def test_bundle_kind_must_match_payload():
    family = mach_zehnder_case(1)
    bundle = ScenarioBundle(family, "case-1")
    assert bundle.label == "case-1"
    assert bundle.kind == "contexts"
    assert ScenarioBundle(mz_counterfactual(), None).kind == "constraints"
    with pytest.raises(AttributeError):
        bundle.kind = "constraints"
    with pytest.raises(ValueError):
        ScenarioBundle(family.contexts[0], "case-1")
    with pytest.raises(ValueError):
        ScenarioBundle(mz_space(), "case-1")


# -- built-in registry -------------------------------------------------------


def readme_builtins():
    """{name: ([(parameter, default), ...], description)} from the README
    built-in table, backquotes dropped from the description."""
    readme = Path(__file__).parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("Built-in scenarios", 1)[1]
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    table = {}
    for line in rows:
        cells = (c.strip() for c in line[1:-1].split("|"))
        name_cell, param_cell, text = cells
        first, *last = re.findall(r"`([^`]+)`", name_cell)
        names = [first]
        if last:  # `stem-1` .. `stem-8`
            stem, low = first.rsplit("-", 1)
            high = int(last[0].rsplit("-", 1)[1])
            names = [f"{stem}-{k}" for k in range(int(low), high + 1)]
        entry = []
        if param_cell != "none":
            params, defaults = re.fullmatch(
                r"`([^`]+)` \(default `([^`]+)`\)", param_cell
            ).groups()
            entry = list(zip(params.split(), map(Fraction, defaults.split())))
        table.update((name, (entry, text.replace("`", ""))) for name in names)
    return table


def test_readme_table_matches_registry():
    registry = {
        name: (list(spec.defaults.items()), spec.description)
        for name, spec in BUILTINS.items()
    }
    assert readme_builtins() == registry


def test_builtin_builders_are_looked_up_by_name(monkeypatch):
    calls = []

    def spy(**values):
        calls.append(values)
        return bell_box(**values)

    monkeypatch.setattr(scenarios, "bell_box", spy)
    bundle = builtin_bundle("pr-box", {"e_ab": HALF})
    assert calls == [{"e_ab": HALF, "e_ab2": 1, "e_a2b": 1, "e_a2b2": -1}]
    assert (bundle.kind, bundle.label) == ("contexts", "pr-box")
