"""Expected answers that share no code with the solver.

The tables below are written by hand from the package's documented
claims; the cycle rule is the Kujala-Dzhafarov-Larsson criterion; every
witness is re-checked row by row with ``event_mass`` and ``l1_norm`` from
``negprob.measure``.  None of this runs inside a timed region.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# status, M*, and (rank, nullity) where the documentation pins them
BUILTIN_TABLE = {
    **{
        f"mz-case-{k}": ("ProperFeasible", Fraction(1), None)
        for k in range(1, 9)
    },
    "mz-counterfactual": ("SignedFeasibleOnly", Fraction(3), (11, 5)),
    "mz-detuned": ("SignedFeasibleOnly", Fraction(3), None),
    "pr-box": ("SignedFeasibleOnly", Fraction(2), None),
    "tsirelson": ("SignedFeasibleOnly", Fraction(816, 577), None),
    "lg-chain": ("SignedFeasibleOnly", Fraction(2), None),
}

# M* of the +-1 n-cycle with one anticorrelated edge, n = 4..10
NCYCLE_MSTAR = {
    4: Fraction(2),
    5: Fraction(3, 2),
    6: Fraction(3, 2),
    7: Fraction(4, 3),
    8: Fraction(4, 3),
    9: Fraction(5, 4),
    10: Fraction(5, 4),
}


def counterfactual_rows(p_d1: Fraction, p_d2: Fraction) -> list:
    """The pooled interferometer rows over (Da, Db, D1, D2), from the README."""
    half = Fraction(1, 2)
    return [
        ({"Da": -1, "D1": 1, "D2": -1}, half),
        ({"Da": -1, "D1": -1, "D2": 1}, half),
        ({"Db": -1, "D1": -1, "D2": 1}, half),
        ({"Db": -1, "D1": 1, "D2": -1}, half),
        ({"D1": 1, "D2": 1}, Fraction(0)),
        ({"D1": 1, "D2": -1}, p_d1),
        ({"D1": -1, "D2": 1}, p_d2),
        ({"D1": -1, "D2": -1}, Fraction(0)),
        ({"Da": 1, "Db": 1}, Fraction(0)),
        ({"Da": 1, "Db": -1}, half),
        ({"Da": -1, "Db": 1}, half),
        ({"Da": -1, "Db": -1}, Fraction(0)),
    ]


def s_odd(correlations) -> Fraction:
    """Max of sum(s_i * E_i) over sign vectors with an odd number of -1."""
    best = None
    for signs in itertools.product((1, -1), repeat=len(correlations)):
        if signs.count(-1) % 2 == 1:
            total = sum(s * e for s, e in zip(signs, correlations))
            best = total if best is None else max(best, total)
    return best


def cycle_is_proper(correlations) -> bool:
    """KDL rule for a consistently connected cycle: proper iff s_odd <= n-2."""
    return s_odd(correlations) <= len(correlations) - 2


def pair_masses(e: Fraction, bias: Fraction = Fraction(0)) -> tuple:
    """Pair distribution in atom order (--, +-, -+, ++) with correlation e.

    ``bias`` moves mass from -- to ++, shifting both single marginals.
    """
    agree = (1 + e) / 4
    differ = (1 - e) / 4
    return (agree - bias, differ, differ, agree + bias)


def context_rows(contexts) -> list[tuple[dict, Fraction]]:
    """One (partial assignment, value) row per atom of every context."""
    rows = []
    for variables, masses in contexts:
        for atom, value in enumerate(masses):
            partial = {
                name: (1 if atom >> k & 1 else -1)
                for k, name in enumerate(variables)
            }
            rows.append((partial, Fraction(value)))
    return rows


def partial_mass(variables, masses, partial) -> Fraction:
    total = Fraction(0)
    for atom, value in enumerate(masses):
        if all(
            (1 if atom >> variables.index(name) & 1 else -1) == sign
            for name, sign in partial.items()
        ):
            total += Fraction(value)
    return total


def label_atom(label: str) -> int:
    return sum(1 << i for i, ch in enumerate(label) if ch == "+")


def check_witness(measure, variables, rows, table, norm) -> list[str]:
    """Problems found re-checking a reported witness against its rows.

    ``table`` maps atom labels to rational strings as the CLI prints them;
    ``rows`` are (partial assignment, value) pairs; ``norm`` is the claimed
    L1 norm.  Normalization is checked as the empty assignment.
    """
    space = measure.build_space(variables)
    mass = {label_atom(label): Fraction(text) for label, text in table.items()}
    m = measure.SignedMeasure.from_sparse(space, mass)
    problems = []
    for partial, value in list(rows) + [({}, Fraction(1))]:
        got = measure.event_mass(m, measure.cylinder(space, partial))
        if got != value:
            problems.append(f"row {partial} has mass {got}, wants {value}")
    if measure.l1_norm(m) != norm:
        problems.append(f"L1 norm {measure.l1_norm(m)} != claimed {norm}")
    return problems


def check_solve_report(measure, report, rows, expect) -> list[str]:
    """Check a ``solve`` report against an expectation dict.

    ``expect`` keys: status (required); mstar, mstar_range (lo, hi), rank,
    nullity, bias_free (optional).
    """
    problems = []
    if report.get("status") != expect["status"]:
        return [f"status {report.get('status')} != {expect['status']}"]
    if expect["status"] == "Infeasible":
        if report.get("mstar") is not None or report.get("witness") is not None:
            problems.append("Infeasible report carries a solution")
        return problems
    mstar = Fraction(report["mstar"])
    if "mstar" in expect and mstar != expect["mstar"]:
        problems.append(f"M* {mstar} != {expect['mstar']}")
    if "mstar_range" in expect:
        lo, hi = expect["mstar_range"]
        if not lo <= mstar <= hi:
            problems.append(f"M* {mstar} outside [{lo}, {hi}]")
    if (mstar == 1) != (expect["status"] == "ProperFeasible"):
        problems.append(f"M* {mstar} disagrees with status")
    for key in ("rank", "nullity"):
        if key in expect and report.get(key) != expect[key]:
            problems.append(f"{key} {report.get(key)} != {expect[key]}")
    if report["rank"] + report["nullity"] != 1 << len(report["variables"]):
        problems.append("rank + nullity != atom count")
    if expect.get("bias_free") and report.get("bias") is not None:
        problems.append(f"unexpected bias {report['bias']}")
    problems += check_witness(
        measure, report["variables"], rows, report["witness"], mstar
    )
    return problems


def check_viable_report(measure, report, rows, viable: bool) -> list[str]:
    if report.get("viable") is not viable:
        return [f"viable {report.get('viable')} != {viable}"]
    if not viable:
        return [] if report.get("witness") is None else ["NOT VIABLE with witness"]
    table = report["witness"]
    if any(Fraction(v) < 0 for v in table.values()):
        return ["VIABLE witness has a negative mass"]
    return check_witness(measure, report["variables"], rows, table, Fraction(1))


def check_bias_report(report, contexts, biased: bool) -> list[str]:
    """A reported disagreement must be real, and present exactly when built in."""
    bias = report.get("bias")
    if not biased:
        return [] if bias is None else [f"unexpected bias {bias}"]
    if bias is None:
        return ["bias built in but NO BIAS reported"]
    partial = dict(bias["event"])
    values = []
    for index, key in (("context_i", "value_i"), ("context_j", "value_j")):
        variables, masses = contexts[bias[index]]
        got = partial_mass(list(variables), masses, partial)
        if got != Fraction(bias[key]):
            return [f"bias {key} {bias[key]} != context mass {got}"]
        values.append(got)
    if values[0] == values[1]:
        return ["reported bias is no disagreement"]
    return []


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among the values."""
    return max(
        (
            max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            for v in values
        ),
        default=0,
    )
