"""Built-in experimental configurations.

The centerpiece is a balanced two-arm interferometer with movable
which-path detectors.  Variables:

* ``Da``, ``Db``: the path detectors on arms a and b (+1 means it fired);
* ``D1``, ``D2``: the output detectors behind the recombining
  beamsplitter (+1 means it fired).

Eight detector placements ("cases") each yield an ordinary proper
distribution over the variables actually present in that run.  Combining
the statistics of several placements counterfactually, as if one photon
had definite answers to all four detectors at once, produces a constraint
system with no proper joint solution; its signed solutions and their
minimum L1 norm are what the rest of the package analyzes.

Also here: a two-party four-setting box builder and a three-time pairwise
chain builder (both from pair correlations with unbiased singles), and a
classical wave model of the same interferometer that generates the output
intensities the constraint rows encode.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

from .contextuality import ContextFamily, family_system
from .errors import (
    AlphaOutOfRange,
    CorrelationOutOfRange,
    DegenerateGeometry,
    EpsOutOfRange,
    InvalidCase,
    ScenarioFormatError,
    ValueOutOfBounds,
)
from .measure import Context, SampleSpace, SignedMeasure, _Record, as_fraction, build_space
from .solver import ConstraintSystem, assemble

MZ_VARIABLES = ("Da", "Db", "D1", "D2")
BELL_VARIABLES = ("A", "A2", "B", "B2")
CHAIN_VARIABLES = ("X", "Y", "Z")

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def mz_space() -> SampleSpace:
    return build_space(MZ_VARIABLES)


def _from_labels(
    variables: tuple[str, ...], entries: dict[str, Fraction]
) -> SignedMeasure:
    """Masses from a table keyed by atom labels; unlisted atoms get 0."""
    space = build_space(variables)
    atoms = {space.atom_from_label(label): v for label, v in entries.items()}
    return SignedMeasure.from_sparse(space, atoms)


# Case distributions.  Atom labels follow the variable order given next to
# each case; cases differ in which path detectors are present and whether
# they absorb the photon.  A lone path detector gives the same table on
# arm a (Da) as on arm b (Db), so cases 2 and 3, and 6 and 7, share one.
# no path detector in the run: all output at D1 (cases 1 and 5)
_OPEN = (("D1", "D2"), {"+-": Fraction(1)})
# absorbing detector on one arm: it eats half; the rest splits evenly
_ABSORBED = {"-+-": _HALF, "--+": _HALF}
# non-destructive detector on one arm: it fires half the time, and the
# output splits evenly whether it fired or not
_MARKED = {
    "++-": _QUARTER,
    "+-+": _QUARTER,
    "-+-": _QUARTER,
    "--+": _QUARTER,
}
_CASES: dict[int, tuple[tuple[str, ...], dict[str, Fraction]]] = {
    1: _OPEN,
    2: (("Da", "D1", "D2"), _ABSORBED),
    3: (("Db", "D1", "D2"), _ABSORBED),
    # absorbing detectors on both arms: photon never reaches the output
    4: (
        ("Da", "Db", "D1", "D2"),
        {"-+--": _HALF, "+---": _HALF},
    ),
    # the same geometries with non-destructive path detectors
    5: _OPEN,
    6: (("Da", "D1", "D2"), _MARKED),
    7: (("Db", "D1", "D2"), _MARKED),
    8: (
        ("Da", "Db", "D1", "D2"),
        {
            "-+-+": _QUARTER,
            "-++-": _QUARTER,
            "+--+": _QUARTER,
            "+-+-": _QUARTER,
        },
    ),
}


def mach_zehnder_case(n: int) -> ContextFamily:
    """Proper distribution observed with detector placement n (1..8)."""
    if type(n) is not int or n not in _CASES:
        raise InvalidCase(f"case must be 1..8, got {n!r}")
    variables, entries = _CASES[n]
    joint = _from_labels(variables, entries)
    return ContextFamily(variables, (Context(joint.space, joint.mass),))


def mz_counterfactual() -> ConstraintSystem:
    """Joint constraints pooled from the blocked-arm and open runs.

    Twelve cylinder rows plus normalization over (Da, Db, D1, D2).  The
    system has signed solutions but no proper one.
    """
    return mz_counterfactual_detuned(0)


def mz_counterfactual_detuned(eps: object) -> ConstraintSystem:
    """Counterfactual system with the output interference detuned.

    Only the both-arms-open output rows move: D1 fires with probability
    1-eps and D2 with probability eps.  The blocked-arm rows keep their
    value 1/2 because inserting a blocker destroys interference no matter
    how the phases are tuned, and the single-photon rows are geometry
    independent.
    """
    eps_f = as_fraction(eps)
    if not 0 <= eps_f < _HALF:
        raise EpsOutOfRange(f"eps must lie in [0, 1/2), got {eps_f}")
    return assemble(
        mz_space(),
        [
            # runs with arm a blocked, kept only when Da stayed silent
            ({"Da": -1, "D1": +1, "D2": -1}, _HALF),
            ({"Da": -1, "D1": -1, "D2": +1}, _HALF),
            # runs with arm b blocked, kept only when Db stayed silent
            ({"Db": -1, "D1": -1, "D2": +1}, _HALF),
            ({"Db": -1, "D1": +1, "D2": -1}, _HALF),
            # output statistics with both arms open
            ({"D1": +1, "D2": +1}, Fraction(0)),
            ({"D1": +1, "D2": -1}, 1 - eps_f),
            ({"D1": -1, "D2": +1}, eps_f),
            ({"D1": -1, "D2": -1}, Fraction(0)),
            # one photon: never both path detectors, each arm half the time
            ({"Da": +1, "Db": +1}, Fraction(0)),
            ({"Da": +1, "Db": -1}, _HALF),
            ({"Da": -1, "Db": +1}, _HALF),
            ({"Da": -1, "Db": -1}, Fraction(0)),
        ],
    )


def mz_general_member(
    alpha: object,
    beta: object,
    gamma: object,
    delta: object,
    theta: object,
) -> SignedMeasure:
    """General signed solution of the counterfactual system.

    The system over 16 atoms has rank 11, so its solution set carries five
    free parameters.  The table below expresses every atom mass in terms
    of (alpha, beta, gamma, delta, theta); substituting any rational
    values satisfies all thirteen rows exactly.
    """
    a, b, g, d, t = map(as_fraction, (alpha, beta, gamma, delta, theta))
    # atom labels ordered (Da, Db, D1, D2)
    table: dict[str, Fraction] = {
        "++++": a,
        "+++-": t + (d - g + b - a) / 2,
        "++-+": -_HALF - t,
        "++--": _HALF + (-d + g - b - a) / 2,
        "+-++": (-d - g + b - a) / 2,
        "+-+-": _HALF - t + (-d + g - b + a) / 2,
        "+--+": t,
        "+---": d,
        "-+++": (d - g - b - a) / 2,
        "-++-": _HALF - t + (-d + g - b + a) / 2,
        "-+-+": t,
        "-+--": b,
        "--++": g,
        "--+-": t + (d - g + b - a) / 2,
        "---+": _HALF - t,
        "----": -_HALF + (-d - g - b + a) / 2,
    }
    return _from_labels(MZ_VARIABLES, table)


def mz_family_member(alpha: object) -> SignedMeasure:
    """Member of the minimum-norm family, parameterized by alpha in [0, 1/2].

    These are exactly the general solutions at beta = delta = theta = 0 and
    gamma = -alpha; every member has L1 norm 3, the minimum for the system.
    """
    a = as_fraction(alpha)
    if not 0 <= a <= _HALF:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1/2], got {a}")
    return mz_general_member(a, 0, -a, 0, 0)


def _pair_distribution(e: Fraction) -> tuple[Fraction, ...]:
    # unbiased singles; only the product expectation is prescribed
    agree = (1 + e) / 4
    differ = (1 - e) / 4
    return (agree, differ, differ, agree)


def _pair_family(
    variables: tuple[str, ...],
    pairs: tuple[tuple[str, str], ...],
    correlations: dict[str, object],
) -> ContextFamily:
    """One pair context per named correlation, in order; unbiased singles."""
    values = []
    for label, value in correlations.items():
        e = as_fraction(value)
        if abs(e) > 1:
            raise CorrelationOutOfRange(
                f"{label} must lie in [-1, 1], got {e}"
            )
        values.append(e)
    contexts = tuple(
        Context(pair, _pair_distribution(e)) for pair, e in zip(pairs, values)
    )
    return ContextFamily(variables, contexts)


def bell_box(
    e_ab: object, e_ab2: object, e_a2b: object, e_a2b2: object
) -> ContextFamily:
    """Four pair contexts over (A, A2, B, B2) with unbiased singles."""
    pairs = (("A", "B"), ("A", "B2"), ("A2", "B"), ("A2", "B2"))
    correlations = dict(e_ab=e_ab, e_ab2=e_ab2, e_a2b=e_a2b, e_a2b2=e_a2b2)
    return _pair_family(BELL_VARIABLES, pairs, correlations)


def tsirelson_box() -> ContextFamily:
    """Bell box at a rational stand-in for the quantum maximum.

    408/577 approximates sqrt(2)/2 to better than 1e-5, putting the box
    just inside the quantum boundary while keeping every mass rational.
    """
    e = Fraction(408, 577)
    return bell_box(e, e, e, -e)


def leggett_garg_chain(
    e_xy: object, e_yz: object, e_xz: object
) -> ContextFamily:
    """Three pair contexts over (X, Y, Z) with unbiased singles."""
    pairs = (("X", "Y"), ("Y", "Z"), ("X", "Z"))
    correlations = dict(e_xy=e_xy, e_yz=e_yz, e_xz=e_xz)
    return _pair_family(CHAIN_VARIABLES, pairs, correlations)


class WaveConfig(_Record):
    """Geometry of the classical wave run.

    amplitude is the source amplitude A (exact rational, positive);
    phi1 and phi2 are the propagation phases of the two legs shared by
    both arms (radians); detuning is the extra phase added to arm b.
    Only phi1 + phi2 enters the intensities; the fields are kept separate
    because the two legs are physically distinct.
    """

    amplitude: Fraction
    phi1: float
    phi2: float
    detuning: float

    def __init__(self, amplitude, phi1, phi2, detuning) -> None:
        self._set(as_fraction(amplitude), phi1, phi2, detuning)
        if self.amplitude <= 0:
            raise ValueOutOfBounds(
                f"amplitude must be positive, got {self.amplitude}"
            )
        for label in ("phi1", "phi2", "detuning"):
            phase = getattr(self, label)
            if type(phase) is bool or not isinstance(phase, numbers.Real):
                raise TypeError(f"{label} must be a real number, got {phase!r}")
            if not abs(phase) <= sys.float_info.max:  # nan, inf, 10**400
                raise ValueOutOfBounds(f"{label} must be finite")


class WaveDetection(NamedTuple):
    i_d1: float
    i_d2: float
    p_d1: float
    p_d2: float


def wave_detection(cfg: WaveConfig) -> WaveDetection:
    """Time-averaged output intensities of the two-arm interferometer.

    Each beamsplitter transmits with amplitude 1/sqrt(2) and reflects
    with amplitude i/sqrt(2) (a 90 degree phase jump); each mirror
    reflects with amplitude i.  Arm a is transmitted at the first
    splitter, arm b reflected; both cross one mirror and pick up the
    common propagation phase phi1 + phi2, and arm b additionally picks up
    the detuning.  The time-averaged intensity of Re[z e^(i w t)] is
    |z|^2 / 2.  This is the one floating-point surface of the package;
    results carry relative error well below 1e-12.
    """
    amp = float(cfg.amplitude)
    transmit = 1 / math.sqrt(2)
    reflect = 1j / math.sqrt(2)
    mirror = 1j
    common = cmath.exp(1j * (cfg.phi1 + cfg.phi2))
    detune = cmath.exp(1j * cfg.detuning)
    arm_a = transmit * mirror * common
    arm_b = reflect * mirror * common * detune
    z_d1 = amp * (arm_a * reflect + arm_b * transmit)
    z_d2 = amp * (arm_a * transmit + arm_b * reflect)
    i_d1 = abs(z_d1) ** 2 / 2
    i_d2 = abs(z_d2) ** 2 / 2
    total = i_d1 + i_d2
    if total == 0:
        raise DegenerateGeometry("both output intensities vanished")
    return WaveDetection(i_d1, i_d2, i_d1 / total, i_d2 / total)


def nearest_rational(value: float, max_denominator: int = 10**6) -> Fraction:
    """Closest fraction with bounded denominator, for rationalizing
    wave-model outputs before they enter a constraint system."""
    return Fraction.from_float(value).limit_denominator(max_denominator)


class ScenarioBundle(_Record):
    """A named, ready-to-analyze scenario.

    kind is "contexts" when payload is a ContextFamily and "constraints"
    when payload is a ConstraintSystem; any other payload is refused.
    system is the rows every command solves, built at most once.
    """

    payload: ContextFamily | ConstraintSystem
    label: str | None

    def __init__(self, payload, label) -> None:
        if not isinstance(payload, (ContextFamily, ConstraintSystem)):
            raise ValueError(
                "bundle payload must be a ContextFamily or a "
                f"ConstraintSystem, got {type(payload).__name__}"
            )
        self._set(payload, label)

    @property
    def kind(self) -> str:
        if isinstance(self.payload, ContextFamily):
            return "contexts"
        return "constraints"

    @cached_property
    def system(self) -> ConstraintSystem:
        if isinstance(self.payload, ContextFamily):
            return family_system(self.payload)
        return self.payload


# --- built-in registry -------------------------------------------------------


class Builtin(NamedTuple):
    """One built-in: defaults by parameter name in positional order, a
    builder taking {name: value}, and a one-line description."""

    defaults: dict[str, Fraction]
    build: Callable[[dict[str, Fraction]], ContextFamily | ConstraintSystem]
    description: str


# Builders are lambdas so they look the builder functions up by name at
# call time; each parameter name is the builder's argument name.
_ONE = Fraction(1)
BUILTINS: dict[str, Builtin] = {
    **{
        f"mz-case-{n}": Builtin(
            {},
            lambda v, n=n: mach_zehnder_case(n),
            "a single interferometer placement, "
            "an ordinary proper distribution",
        )
        for n in range(1, 9)
    },
    "mz-counterfactual": Builtin(
        {},
        lambda v: mz_counterfactual(),
        "the pooled four-detector system with M* = 3",
    ),
    "mz-detuned": Builtin(
        {"eps": Fraction(1, 100)},
        lambda v: mz_counterfactual_detuned(**v),
        "same system with the interference rows moved to 1-eps and eps",
    ),
    "pr-box": Builtin(
        {"e_ab": _ONE, "e_ab2": _ONE, "e_a2b": _ONE, "e_a2b2": -_ONE},
        lambda v: bell_box(**v),
        "four pair contexts with unbiased singles; defaults give M* = 2",
    ),
    "tsirelson": Builtin(
        {},
        lambda v: tsirelson_box(),
        "the box at correlation 408/577, a rational stand-in for sqrt(2)/2",
    ),
    "lg-chain": Builtin(
        {"e_xy": _ONE, "e_yz": _ONE, "e_xz": -_ONE},
        lambda v: leggett_garg_chain(**v),
        "three pairwise contexts over a chain of times",
    ),
}
BUILTIN_NAMES = tuple(sorted(BUILTINS))


def builtin_spec(name: str) -> Builtin:
    """The registry entry for a built-in name."""
    if name not in BUILTINS:
        raise ScenarioFormatError(
            f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        )
    return BUILTINS[name]


def builtin_bundle(
    name: str, params: Mapping[str, Fraction]
) -> ScenarioBundle:
    """Materialize a built-in scenario; unset parameters take defaults."""
    spec = builtin_spec(name)
    unknown = set(params) - set(spec.defaults)
    if unknown:
        raise ScenarioFormatError(
            f"builtin {name!r} takes parameters {tuple(spec.defaults) or '()'}"
            f", got {sorted(unknown)}"
        )
    return ScenarioBundle(spec.build({**spec.defaults, **params}), name)
