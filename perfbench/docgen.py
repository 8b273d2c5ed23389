"""Seeded scenario documents for the mixed-docs workload.

Four kinds in equal numbers, on 3 to 6 variables, each built so its
answers are known without running the solver:

* ``proper``: constraint rows read off a hidden nonnegative measure, so
  a proper joint exists and ``M* = 1``;
* ``signed``: rows read off a hidden signed measure, including a
  full-assignment row that pins a negative atom, so no proper joint
  exists and ``1 + 2a <= M* <= L1(hidden)``;
* ``cycle``: pair contexts around a ring with quarter-grid correlations
  and unbiased singles; the KDL rule decides proper existence, and on
  four variables ``M* = max(1, s_odd / 2)``;
* ``biased``: a ring or chain whose one context shifts its single
  marginals, so the family is biased and no signed joint exists.

Every document also carries duplicate and redundant rows or contexts.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction

from oracles import context_rows, cycle_is_proper, pair_masses, s_odd

# Documents per replicate, by kind and variable count: seven of each kind.
# Small systems are many and cheap, so they, not the few large ones, set
# the medians.  Context families stop at five variables, where one
# six-variable cycle would cost as much as a dozen smaller documents; the
# five-variable families are the largest group of similar cost, so the
# tail percentile falls inside them rather than in a gap between groups.
SIZES = {
    "proper": {3: 3, 4: 2, 5: 1, 6: 1},
    "signed": {3: 3, 4: 2, 5: 1, 6: 1},
    "cycle": {3: 3, 4: 2, 5: 2},
    "biased": {3: 3, 4: 2, 5: 2},
}
QUARTER_GRID = tuple(Fraction(k, 4) for k in range(-4, 5))


@dataclass
class Doc:
    """One scenario file with the answers it was built to have."""

    kind: str
    n: int
    data: dict
    rows: list  # (partial, value) rows any solution must satisfy
    contexts: list | None  # (variables, masses) for contexts documents
    solve: dict  # expectation for oracles.check_solve_report
    viable: bool
    biased: bool = False
    path: str = ""
    commands: tuple = field(default=())


def _cylinder_mass(hidden: dict, variables, partial) -> Fraction:
    total = Fraction(0)
    for atom, mass in hidden.items():
        if all(
            (1 if atom >> variables.index(name) & 1 else -1) == sign
            for name, sign in partial.items()
        ):
            total += mass
    return total


def _random_partial(rng: random.Random, variables, size: int) -> dict:
    chosen = sorted(rng.sample(range(len(variables)), size))
    return {variables[i]: rng.choice((1, -1)) for i in chosen}


def _weights(rng: random.Random, count: int, total: Fraction) -> list:
    raw = [rng.randint(1, 6) for _ in range(count)]
    return [Fraction(w, sum(raw)) * total for w in raw]


def _constraints_doc(rng: random.Random, n: int, signed: bool) -> Doc:
    variables = rng.sample(string.ascii_uppercase, n)
    atoms = rng.sample(range(1 << n), min(1 << n, rng.randint(3, 7)))
    hidden: dict[int, Fraction] = {}
    pinned = None
    if signed:
        negative = atoms[0]
        depth = rng.choice((Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)))
        hidden[negative] = -depth
        for atom, mass in zip(atoms[1:], _weights(rng, len(atoms) - 1, 1 + depth)):
            hidden[atom] = mass
        pinned = {
            name: (1 if negative >> k & 1 else -1)
            for k, name in enumerate(variables)
        }
    else:
        hidden = dict(zip(atoms, _weights(rng, len(atoms), Fraction(1))))

    partials = []
    for _ in range(n + 2):
        size = rng.choice([s for s in (1, 1, 2, 2, 3, n) if s <= n])
        partials.append(_random_partial(rng, variables, size))
    if pinned is not None:
        partials.append(pinned)
    # redundant: both children of an existing row, which then follows
    for _ in range(2):
        parent = rng.choice(partials)
        free = [v for v in variables if v not in parent]
        if free:
            extra = rng.choice(free)
            partials += [{**parent, extra: 1}, {**parent, extra: -1}]
    # duplicates, and sometimes an explicit normalization row
    partials += [dict(rng.choice(partials)) for _ in range(2)]
    if rng.random() < 0.5:
        partials.append({})
    rng.shuffle(partials)

    rows = [(p, _cylinder_mass(hidden, variables, p)) for p in partials]
    data = {
        "variables": variables,
        "constraints": [
            {"event": p, "value": str(v)} for p, v in rows
        ],
    }
    l1 = sum(abs(m) for m in hidden.values())
    if signed:
        solve = {
            "status": "SignedFeasibleOnly",
            "mstar_range": (1 + 2 * depth, l1),
        }
    else:
        solve = {"status": "ProperFeasible", "mstar": Fraction(1)}
    kind = "signed" if signed else "proper"
    return Doc(kind, n, data, rows, None, solve, viable=not signed)


def _contexts_data(variables, contexts, rng: random.Random) -> dict:
    entries = []
    for ctx_vars, masses in contexts:
        distribution = {}
        for atom, mass in enumerate(masses):
            if mass == 0 and rng.random() < 0.7:
                continue
            key = "".join(
                "+" if atom >> k & 1 else "-" for k in range(len(ctx_vars))
            )
            distribution[key] = str(mass)
        entries.append({"variables": list(ctx_vars), "distribution": distribution})
    return {"variables": list(variables), "contexts": entries}


def _context_doc(rng: random.Random, n: int, biased: bool) -> Doc:
    variables = rng.sample(string.ascii_uppercase, n)
    ring = biased is False or rng.random() < 0.5
    edges = n if ring else n - 1
    correlations = [rng.choice(QUARTER_GRID) for _ in range(edges)]
    contexts = []
    for i, e in enumerate(correlations):
        pair = (variables[i], variables[(i + 1) % n])
        contexts.append((pair, pair_masses(e)))
    if biased:
        i = rng.randrange(edges)
        e = rng.choice([g for g in QUARTER_GRID if g >= 0])
        shift = rng.choice((Fraction(1, 8), Fraction(1, 4)))
        correlations[i] = e
        contexts[i] = (contexts[i][0], pair_masses(e, shift))
    # duplicate context and a redundant single-variable context
    contexts.append(rng.choice(contexts))
    contexts.append(((rng.choice(variables),), (Fraction(1, 2), Fraction(1, 2))))
    rng.shuffle(contexts)

    data = _contexts_data(variables, contexts, rng)
    rows = context_rows(contexts)
    if biased:
        solve = {"status": "Infeasible"}
        viable = False
    else:
        viable = cycle_is_proper(correlations)
        solve = {
            "status": "ProperFeasible" if viable else "SignedFeasibleOnly",
            "bias_free": True,
        }
        if n == 4:
            solve["mstar"] = max(Fraction(1), s_odd(correlations) / 2)
    kind = "biased" if biased else "cycle"
    return Doc(kind, n, data, rows, contexts, solve, viable, biased=biased)


def build_pool(seed: int, replicates: int) -> list[Doc]:
    """Fixed counts of every (kind, size) cell; contents drawn from seed."""
    rng = random.Random(seed)
    docs = []
    for kind, sizes in SIZES.items():
        for n, count in sizes.items():
            for _ in range(count * replicates):
                if kind in ("proper", "signed"):
                    doc = _constraints_doc(rng, n, signed=kind == "signed")
                    doc.commands = ("solve", "viable")
                else:
                    doc = _context_doc(rng, n, biased=kind == "biased")
                    doc.commands = ("solve", "viable", "bias")
                docs.append(doc)
    return docs


def write_pool(docs: list[Doc], directory) -> None:
    for index, doc in enumerate(docs):
        path = directory / f"doc{index:04d}-{doc.kind}-{doc.n}.json"
        path.write_text(json.dumps(doc.data, indent=1), encoding="utf-8")
        doc.path = str(path)
