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
from .measure import Context, _Record, _subsets, build_space
from .solver import ConstraintSystem, SolveResult, _row_system, minimize_l1


class ContextFamily(_Record):
    """Global variable list plus contexts over subsets of it.  space and
    _bits, each context's global bits in its variable order, are not fields."""

    global_variables: tuple[str, ...]
    contexts: tuple[Context, ...]

    def __init__(self, global_variables, contexts) -> None:
        self._set(tuple(global_variables), tuple(contexts))
        space = build_space(self.global_variables)  # validates names, count
        bits = tuple([  # position raises UnknownVariable for strangers
            tuple([1 << space.position(v) for v in context.variables])
            for context in self.contexts
        ])
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_bits", bits)


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


def _spread(bits: tuple[int, ...] | list[int]) -> list[int]:
    """Per atom of a context, the OR of bits[i] over its +1 variables i."""
    entry = [0]
    for bit in bits:
        entry += [s | bit for s in entry]
    return entry


def _superset_sums(table: list) -> list:
    """Entry s of the result sums the table over the supersets of s."""
    for b in [1 << k for k in range(len(table).bit_length() - 1)]:
        table = [t if s & b else t + table[s | b] for s, t in enumerate(table)]
    return table


def detect_bias(family: ContextFamily) -> BiasWitness | None:
    """First disagreement between any two contexts on a shared event.

    Context pairs go by index, repeats of a context skipped: a biased pair
    holding one follows its pair of first occurrences.  The event is all
    +1 on the first nonzero subset of the shared variables, in integer
    order with earlier variables the lower bits, that the pair prices
    apart; its proper subsets agree, so by Mobius inversion each of its
    assignments differs, and a scan with +1 before -1 finds it first.
    None exactly when all pairs agree on all shared events.  A distinct
    context is read once, on its first pair sharing a variable: all +1
    masses keyed on global variable sets, as integers over its own lcm.
    """
    first: dict = {}  # keyed on integers: hashing the Fractions is slower
    for i, ctx in enumerate(family.contexts):
        first.setdefault((ctx.variables, ctx._units[0], *ctx._units[1]), i)
    reads: dict = {}  # context index -> (lcm, {global bits: all +1 mass})
    for i, j in itertools.combinations(list(first.values()), 2):
        shared = sum(family._bits[i]) & sum(family._bits[j])
        if not shared:
            continue
        for k in (i, j):
            if k not in reads:
                den, units = family.contexts[k]._units
                keys = _spread(family._bits[k])
                reads[k] = den, dict(zip(keys, _superset_sums(units)))
        (den_i, sums_i), (den_j, sums_j) = reads[i], reads[j]
        for mask in _subsets(shared):
            if sums_i[mask] * den_j != sums_j[mask] * den_i:
                event = [(v, 1) for k, v in enumerate(family.global_variables)
                         if mask >> k & 1]
                values = [Fraction(s[mask], d) for d, s in (reads[i], reads[j])]
                return BiasWitness(tuple(event), i, j, *values)
    return None


def _family_rank(family: ContextFamily) -> tuple[int, int]:
    """Rank and nullity of family_system's rows, none built: a context's
    atom rows span the all +1 cylinders of its variable subsets (Mobius
    inversion), independent across subsets (triangular in the monomials),
    so the rank counts the subsets in some context, the empty one too."""
    subsets = {s for bits in set(family._bits) for s in _spread(bits)}
    return len(subsets), family.space.atom_count - len(subsets)


def family_system(family: ContextFamily) -> ConstraintSystem:
    """Constraint rows a joint measure must satisfy to reproduce the family.

    One cylinder row per context atom (zero-probability atoms included;
    they constrain too), read off the global bit positions of the
    context's variables, plus normalization.  Exact duplicate rows are
    dropped.  Rows that pin the same event to different values are kept:
    they make the system infeasible, the verdict for a biased family.
    """
    rows = []
    for bits, context in zip(family._bits, family.contexts):
        mask, wants = sum(bits), _spread(bits)
        rows += [((mask, w), p) for w, p in zip(wants, context.distribution)]
    rows.append(((0, 0), 1))
    return _row_system(family.space, rows, keep=True)


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
    signs = (1, 1), (-1, -1), (1, -1), (-1, 1)
    return sum([s * t * mass({x: s, y: t}) for s, t in signs], Fraction(0))


def chsh_s(
    family: ContextFamily, a: str, a2: str, b: str, b2: str
) -> Fraction:
    """CHSH parameter of a four-pair-context family.

    S is the largest absolute value of the four signed combinations of
    the pair correlations that put a minus sign on exactly one term.
    """
    pairs = (a, b), (a, b2), (a2, b), (a2, b2)
    es = [_correlation(_pair_context(family, x, y), x, y) for x, y in pairs]
    return max([abs(sum(es) - 2 * e) for e in es])


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
