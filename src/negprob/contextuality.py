"""Cross-context analysis: marginal agreement, joint existence, CHSH.

A context family is a set of experimental configurations, each given as a
proper distribution over a subset of the global variables.  Two contexts
are *biased* against each other when they disagree on the probability of
some event over their shared variables; for two-party scenarios this is
exactly a no-signaling violation.  A family with no bias admits a signed
joint measure reproducing every context, and the minimum L1 norm of such
a joint serves as a degree of contextuality: 1 means a proper joint
exists, larger values mean signed masses are unavoidable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import MissingPairContext
from .measure import Context, _Record, build_space
from .solver import ConstraintSystem, SolveResult, assemble, minimize_l1


class ContextFamily(_Record):
    """Global variable list plus contexts over subsets of it."""

    global_variables: tuple[str, ...]
    contexts: tuple[Context, ...]

    def __init__(self, global_variables, contexts) -> None:
        self._set(tuple(global_variables), tuple(contexts))
        space = build_space(self.global_variables)  # validates names, count
        for context in self.contexts:
            for name in context.variables:
                space.position(name)  # raises UnknownVariable for strangers


class BiasWitness(_Record):
    """A shared event two contexts price differently.

    event is a partial assignment, stored as (variable, sign) pairs in
    global variable order; its variables belong to both contexts.
    """

    event: tuple[tuple[str, int], ...]
    context_i: int
    context_j: int
    value_i: Fraction
    value_j: Fraction

    def __init__(self, event, context_i, context_j, value_i, value_j) -> None:
        self._set(event, context_i, context_j, value_i, value_j)


def detect_bias(family: ContextFamily) -> BiasWitness | None:
    """First disagreement between any two contexts on a shared event.

    Scan order is deterministic: context pairs by index, then subsets of
    the shared variables (earlier variables first), then assignments with
    +1 before -1, the last variable varying fastest.  All nonempty
    sub-assignments are compared, not only full ones, since any shared
    event can disagree.  Returns None exactly when every pair of contexts
    agrees on all shared events.
    """
    for i, j in itertools.combinations(range(len(family.contexts)), 2):
        ctx_i = family.contexts[i]
        ctx_j = family.contexts[j]
        shared = tuple(  # a list: see SignedMeasure.__init__
            [
                v
                for v in family.global_variables
                if v in ctx_i.variables and v in ctx_j.variables
            ]
        )
        if not shared:
            continue
        for mask in range(1, 1 << len(shared)):
            subset = tuple(
                [shared[k] for k in range(len(shared)) if mask >> k & 1]
            )
            for signs in itertools.product((+1, -1), repeat=len(subset)):
                partial = dict(zip(subset, signs))
                value_i = ctx_i.partial_mass(partial)
                value_j = ctx_j.partial_mass(partial)
                if value_i != value_j:
                    return BiasWitness(
                        event=tuple(zip(subset, signs)),
                        context_i=i,
                        context_j=j,
                        value_i=value_i,
                        value_j=value_j,
                    )
    return None


def family_system(family: ContextFamily) -> ConstraintSystem:
    """Constraint rows a joint measure must satisfy to reproduce the family.

    One cylinder row per context atom (zero-probability atoms included;
    they constrain too), plus normalization.  Exact duplicate rows are
    dropped.  Rows that pin the same event to different values are kept:
    they make the system infeasible, which is the correct verdict for a
    biased family, so no contradiction check happens here.
    """
    rows = []
    for context in family.contexts:
        sign = context.space.atom_sign
        for atom, value in enumerate(context.distribution):
            partial = {name: sign(atom, name) for name in context.variables}
            rows.append((partial, value))
    space = build_space(family.global_variables)
    return assemble(space, rows, keep_contradictions=True)


def family_mstar(family: ContextFamily) -> SolveResult:
    """Minimum-L1 joint analysis of a context family.

    Infeasible exactly when the family is contextually biased; otherwise
    mstar measures how far from a proper joint the family forces the
    measure to be.
    """
    return minimize_l1(family_system(family))


def _pair_context(family: ContextFamily, x: str, y: str) -> Context:
    wanted = {x, y}
    for context in family.contexts:
        if set(context.variables) == wanted:
            return context
    raise MissingPairContext(f"no context over the pair ({x}, {y})")


def _correlation(context: Context, x: str, y: str) -> Fraction:
    mass = context.partial_mass
    return (
        mass({x: +1, y: +1})
        + mass({x: -1, y: -1})
        - mass({x: +1, y: -1})
        - mass({x: -1, y: +1})
    )


def chsh_s(
    family: ContextFamily, a: str, a2: str, b: str, b2: str
) -> Fraction:
    """CHSH parameter of a four-pair-context family.

    S is the largest absolute value of the four signed combinations of
    the pair correlations that put a minus sign on exactly one term.
    """
    e_ab = _correlation(_pair_context(family, a, b), a, b)
    e_ab2 = _correlation(_pair_context(family, a, b2), a, b2)
    e_a2b = _correlation(_pair_context(family, a2, b), a2, b)
    e_a2b2 = _correlation(_pair_context(family, a2, b2), a2, b2)
    return max(
        abs(e_ab + e_ab2 + e_a2b - e_a2b2),
        abs(e_ab + e_ab2 - e_a2b + e_a2b2),
        abs(e_ab - e_ab2 + e_a2b + e_a2b2),
        abs(-e_ab + e_ab2 + e_a2b + e_a2b2),
    )


def check_mstar_s_relation(
    family: ContextFamily, a: str, a2: str, b: str, b2: str
) -> tuple[Fraction | None, Fraction, bool]:
    """Compare the family's mstar against its CHSH parameter.

    For S above 2 no proper joint exists and the expected relation is
    mstar = S/2; for S at most 2 a proper joint exists and mstar should
    be 1.  Returns (mstar, S, holds).  A biased family has no joint at
    all; then mstar is None and holds is False.
    """
    s = chsh_s(family, a, a2, b, b2)
    result = family_mstar(family)
    if result.mstar is None:
        return None, s, False
    holds = result.mstar == s / 2 if s > 2 else result.mstar == 1
    return result.mstar, s, holds
