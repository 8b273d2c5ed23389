"""Signed joint distributions for ±1-valued variables, exactly.

Given marginal or context constraints on a finite family of two-valued
observables, this package decides whether a proper joint probability
exists, whether a signed (quasi-probability) joint exists, and computes
the minimum L1 norm M* over all signed solutions together with a witness
measure, all in exact rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .contextuality import (
    BiasWitness,
    ContextFamily,
    check_mstar_s_relation,
    chsh_s,
    detect_bias,
    family_mstar,
    family_system,
)
from .errors import (
    AlphaOutOfRange,
    ContradictoryRows,
    CorrelationOutOfRange,
    DegenerateGeometry,
    DuplicateName,
    EpsOutOfRange,
    ImproperDistribution,
    InvalidAssignment,
    InvalidCase,
    InvalidName,
    MissingNormalization,
    MissingPairContext,
    NegprobError,
    ScenarioFormatError,
    SpaceMismatch,
    TooManyVariables,
    UndefinedConditional,
    UnknownVariable,
    ValueOutOfBounds,
)
from .measure import (
    Context,
    Event,
    SampleSpace,
    SignedMeasure,
    Violation,
    build_space,
    cylinder,
    event_mass,
    jordan_decompose,
    l1_norm,
    marginalize,
    nonmonotonicity_witness,
    signed_conditional,
    validate_kolmogorov,
    validate_upper,
)
from .scenarios import (
    ScenarioBundle,
    WaveConfig,
    WaveDetection,
    bell_box,
    leggett_garg_chain,
    mach_zehnder_case,
    mz_counterfactual,
    mz_counterfactual_detuned,
    mz_family_member,
    mz_general_member,
    mz_space,
    nearest_rational,
    tsirelson_box,
    wave_detection,
)
from .solver import (
    ConstraintSystem,
    SolveResult,
    SolveStatus,
    assemble,
    feasible_proper,
    minimize_l1,
    rank_nullity,
    verify_member,
)

__version__ = "0.1.0"

# The imports above are the public API; __all__ is read off them.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
