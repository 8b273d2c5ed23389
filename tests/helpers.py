"""Shared construction helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from negprob import (
    ConstraintSystem,
    Context,
    ContextFamily,
    ContradictoryRows,
    assemble,
    build_space,
    mach_zehnder_case,
)

MZ_ORDER = ("Da", "Db", "D1", "D2")


def mz_family(*cases: int) -> ContextFamily:
    """Merge several interferometer cases into one context family."""
    families = [mach_zehnder_case(n) for n in cases]
    used = tuple(
        v
        for v in MZ_ORDER
        if any(v in f.global_variables for f in families)
    )
    contexts = tuple(c for f in families for c in f.contexts)
    return ContextFamily(used, contexts)


_VALUE_POOL = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(1, 3),
    Fraction(-1, 4),
    Fraction(3, 2),
]

_NAMES = ("X", "Y", "Z", "W")


def random_small_system(
    rng: random.Random, max_vars: int = 3, max_rows: int = 4
) -> ConstraintSystem:
    """Random solvable-or-not system over at most max_vars variables.

    The value pool includes negatives and values above 1 so all three
    solve statuses occur.  Draws that hit a contradictory duplicate event
    are rejected and retried.
    """
    while True:
        n_vars = rng.randint(1, max_vars)
        space = build_space(_NAMES[:n_vars])
        rows = []
        for _ in range(rng.randint(0, max_rows)):
            subset = [v for v in _NAMES[:n_vars] if rng.random() < 0.6]
            partial = {v: rng.choice((1, -1)) for v in subset}
            rows.append((partial, rng.choice(_VALUE_POOL)))
        try:
            return assemble(space, rows)
        except ContradictoryRows:
            continue


def random_pair_context(
    rng: random.Random, variables: tuple[str, str]
) -> Context:
    """Random proper distribution over one variable pair.  All-zero
    weights put a nonzero weight at one drawn atom instead of drawing
    again, so a Random that always answers randint with its lower bound,
    as hypothesis's minimal st.randoms() does, gets (1, 0, 0, 0)."""
    weights = [rng.randint(0, 8) for _ in range(4)]
    if not any(weights):
        weights[rng.randint(0, 3)] = rng.randint(1, 8)
    total = sum(weights)
    return Context(
        variables, tuple(Fraction(w, total) for w in weights)
    )


def ncycle(n: int) -> ContextFamily:
    """Pair contexts on a ring of n variables, unbiased singles.

    Every correlation is +1 except the last edge (V{n-1}, V0), which is -1.
    """
    names = tuple(f"V{k}" for k in range(n))
    contexts = []
    for k in range(n):
        e = -1 if k == n - 1 else 1
        agree, differ = Fraction(1 + e, 4), Fraction(1 - e, 4)
        contexts.append(
            Context(
                (names[k], names[(k + 1) % n]), (agree, differ, differ, agree)
            )
        )
    return ContextFamily(names, tuple(contexts))


@st.composite
def families(draw):
    """Marginals of one hidden joint on 2-5 variables, each context over a
    drawn subset in a shuffled order; a drawn number of contexts then have
    one unit of mass moved between two of their atoms, which biases the
    family when the two atoms differ on a variable another context has."""
    n = draw(st.integers(2, 5))
    names = tuple(f"v{i}" for i in range(n))
    weights = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    weights[draw(st.integers(0, (1 << n) - 1))] += 1  # a positive total
    total = sum(weights)
    contexts = []
    for _ in range(draw(st.integers(2, 4))):
        order = draw(st.permutations(names))[: draw(st.integers(1, n))]
        bits = [names.index(v) for v in order]
        units = [0] * (1 << len(order))
        for atom, w in enumerate(weights):
            units[sum((atom >> b & 1) << k for k, b in enumerate(bits))] += w
        if draw(st.booleans()):
            source = draw(st.sampled_from([a for a, u in enumerate(units) if u]))
            units[source] -= 1
            units[draw(st.integers(0, len(units) - 1))] += 1
        contexts.append(Context(order, [Fraction(u, total) for u in units]))
    return ContextFamily(names, contexts)


@st.composite
def families_with_repeats(draw):
    """families(), with up to two of its contexts repeated at drawn places."""
    family = draw(families())
    contexts = list(family.contexts)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(contexts)))
        contexts.insert(at, draw(st.sampled_from(family.contexts)))
    return ContextFamily(family.global_variables, contexts)


def wide_contexts_document(shift: int = 0, moved: bool = True) -> dict:
    """A scenario document of two uniform 12-variable contexts, over
    v0..v11 and over v{shift}..v{shift + 11}.  With moved, the second
    context's first atom gives its mass to its second atom, which biases
    the pair on every variable they share.  CI's wide-context CLI steps
    write these documents."""
    names = [f"v{i}" for i in range(12 + shift)]
    labels = [
        "".join("+" if a >> i & 1 else "-" for i in range(12))
        for a in range(4096)
    ]
    same = dict.fromkeys(labels, "1/4096")
    second = {**same, labels[0]: "0", labels[1]: "1/2048"} if moved else same
    contexts = [
        {"variables": names[k : k + 12], "distribution": d}
        for k, d in ((0, same), (shift, second))
    ]
    return {"variables": names, "contexts": contexts}


def negative_atom_document(n: int = 12) -> dict:
    """A scenario document of one row per full assignment of v0..v{n-1},
    each valued 1/2^n except the all -1 one, valued -1/2^n.  No proper
    joint meets that one row; phase 1 of the simplex takes seconds at
    n = 12 to find that out.  CI's negative-atom viable step writes it."""
    names = [f"v{i}" for i in range(n)]
    rows = []
    for atom in range(1 << n):
        event = {v: 1 if atom >> i & 1 else -1 for i, v in enumerate(names)}
        value = f"{-1 if atom == 0 else 1}/{1 << n}"
        rows.append({"event": event, "value": value})
    return {"variables": names, "constraints": rows}


def farkas_holds(cs: ConstraintSystem, y: dict[int, int]) -> bool:
    """True when y, row index -> coefficient, proves that no nonnegative
    solution of cs exists: sum_r y_r value_r > 0, while at every atom a
    sum_r y_r [a in E_r] <= 0.  Checked atom by atom, so only for spaces
    of at most 10 variables."""
    assert len(cs.space.variables) <= 10
    if sum(c * cs.rows[r][1] for r, c in y.items()) <= 0:
        return False
    members = [(cs.rows[r][0].atoms, c) for r, c in y.items()]
    return all(
        sum(c for atoms, c in members if a in atoms) <= 0
        for a in range(cs.space.atom_count)
    )


def random_ring(rng: random.Random, n: int) -> ContextFamily:
    """A ring of n random proper pair contexts; their singles seldom
    agree, so the family is usually biased."""
    names = tuple(f"V{k}" for k in range(n))
    pairs = [(names[k], names[(k + 1) % n]) for k in range(n)]
    return ContextFamily(names, [random_pair_context(rng, p) for p in pairs])
