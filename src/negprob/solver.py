"""Exact rational linear algebra and L1-minimizing linear programming.

A constraint system is a list of equality rows "mass of event E equals v"
over one sample space, plus the total-mass row.  Three questions are
answered, all over exact rationals with no tolerances anywhere:

* rank/nullity of the row matrix (dimension of the solution set);
* does a proper (nonnegative) solution exist, and if so produce one;
* what is the minimum of the L1 norm over all signed solutions, with a
  witness measure attaining it.

The optimizer is a dense two-phase primal simplex over ``Fraction``
entries.  Bland's rule (lowest eligible index enters, ties on the leaving
row broken by lowest basis index) guarantees termination and makes every
returned witness deterministic.  The L1 objective is handled by the
standard variable split x = xp - xn with xp, xn >= 0 and cost 1 on both
halves; at any optimal basis the two halves of one atom are never both
basic (their columns are negatives of each other), so the objective value
equals the L1 norm of the reconstructed solution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    ContradictoryRows,
    MissingNormalization,
    SpaceMismatch,
    ValueOutOfBounds,
)
from .measure import (
    Event,
    SampleSpace,
    SignedMeasure,
    as_fraction,
    cylinder,
    event_mass,
    l1_norm,
)

ASSEMBLE_VALUE_BOUND = Fraction(10) ** 9


class SolveStatus(Enum):
    PROPER_FEASIBLE = "ProperFeasible"
    SIGNED_FEASIBLE_ONLY = "SignedFeasibleOnly"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality rows (event, value) over one space."""

    space: SampleSpace
    rows: tuple[tuple[Event, Fraction], ...]

    def __post_init__(self) -> None:
        for event, _ in self.rows:
            if event.space != self.space:
                raise SpaceMismatch(
                    "constraint event lives in a different space"
                )

    @property
    def includes_normalization(self) -> bool:
        """True when some row pins the full space to total mass 1."""
        full = self.space.atom_count
        return any(
            value == 1 and len(event.atoms) == full
            for event, value in self.rows
        )


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an L1 minimization.

    status is INFEASIBLE when no signed measure satisfies the rows, in
    which case mstar and witness are None.  Otherwise mstar is the exact
    minimum L1 norm, the witness attains it, and the status says whether
    the witness is a proper distribution (mstar equal to 1) or signed
    masses are unavoidable (mstar above 1).
    """

    status: SolveStatus
    mstar: Fraction | None
    witness: SignedMeasure | None
    rank: int
    nullity: int


def assemble(
    space: SampleSpace,
    constraints: Iterable[tuple[Mapping[str, int], object]],
    *,
    keep_contradictions: bool = False,
) -> ConstraintSystem:
    """Build a system from (partial assignment, value) pairs.

    Each pair becomes one cylinder-event row, in input order.  Exact
    duplicates are dropped; the same event with two different values
    raises ContradictoryRows, unless keep_contradictions is set: then both
    rows stay, and the system is infeasible (the verdict for a biased
    context family).  The normalization row (full space equals 1) is
    appended unless the caller already supplied it.
    """
    rows: list[tuple[Event, Fraction]] = []
    seen: dict[object, Fraction] = {}

    def add(event: Event, value: Fraction) -> None:
        key = (event.atoms, value) if keep_contradictions else event.atoms
        if key not in seen:
            seen[key] = value
            rows.append((event, value))
        elif seen[key] != value:
            raise ContradictoryRows(event, seen[key], value)

    for partial, raw in constraints:
        value = as_fraction(raw)
        if abs(value) > ASSEMBLE_VALUE_BOUND:
            raise ValueOutOfBounds(
                f"constraint value {value} outside sanity bound"
            )
        add(cylinder(space, partial), value)
    add(Event.full(space), Fraction(1))
    return ConstraintSystem(space, tuple(rows))


def rank_nullity(cs: ConstraintSystem) -> tuple[int, int]:
    """Rank of the 0/1 row matrix and nullity = atom_count - rank.

    Every row starts on an artificial basis, so the simplex's drop step
    is plain row reduction here.
    """
    n = cs.space.atom_count
    tab, b = _system_matrix(cs)
    basis = [n + i for i in range(len(tab))]
    tab, _, _ = _drop_redundant(tab, b, [Fraction(0)] * (n + 1), basis, n)
    return len(tab), n - len(tab)


# --- simplex internals ---------------------------------------------------


def _pivot(
    tab: list[list[Fraction]],
    rhs: list[Fraction],
    cost_row: list[Fraction],
    basis: list[int],
    row: int,
    col: int,
) -> None:
    inv = 1 / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    rhs[row] *= inv
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [x - factor * y for x, y in zip(tab[i], tab[row])]
            rhs[i] -= factor * rhs[row]
    factor = cost_row[col]
    if factor != 0:
        for j in range(len(tab[row])):
            cost_row[j] -= factor * tab[row][j]
        cost_row[-1] -= factor * rhs[row]
    basis[row] = col


def _bland_iterate(
    tab: list[list[Fraction]],
    rhs: list[Fraction],
    cost_row: list[Fraction],
    basis: list[int],
) -> None:
    """Primal simplex to optimality; Bland's rule, so it always halts."""
    ncols = len(cost_row) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if cost_row[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best: Fraction | None = None
        for i in range(len(tab)):
            coef = tab[i][enter]
            if coef > 0:
                ratio = rhs[i] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # cannot happen for the L1 and feasibility programs solved
            # here (both objectives are bounded below), kept defensive
            raise ArithmeticError("linear program unbounded below")
        _pivot(tab, rhs, cost_row, basis, leave, enter)


def _phase1(
    a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[list[list[Fraction]], list[Fraction], list[Fraction], list[int]]:
    """Phase 1 for Ax = b, x >= 0, one artificial per row.

    Returns (tab, rhs, cost_row, basis); x >= 0 exists iff cost_row[-1] is 0.
    """
    m = len(a_rows)
    n = len(a_rows[0])
    zero = Fraction(0)
    one = Fraction(1)
    tab: list[list[Fraction]] = []
    rhs = [Fraction(v) for v in b]
    for i, row in enumerate(a_rows):
        if rhs[i] < 0:
            row, rhs[i] = [-x for x in row], -rhs[i]
        tab.append([*row, *(one if k == i else zero for k in range(m))])
    basis = [n + i for i in range(m)]
    cost_row = [zero] * (n + m + 1)
    for j in range(n, n + m):
        cost_row[j] = one
    for i in range(m):
        for j in range(n + m):
            cost_row[j] -= tab[i][j]
        cost_row[-1] -= rhs[i]
    _bland_iterate(tab, rhs, cost_row, basis)
    return tab, rhs, cost_row, basis


def _drop_redundant(
    tab: list[list[Fraction]],
    rhs: list[Fraction],
    cost_row: list[Fraction],
    basis: list[int],
    n: int,
) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Pivot artificials (basis >= n) out onto their row's first nonzero
    real column, dropping rows with no such column as redundant.  Returns
    the kept rows cut to n columns; their count is the rank."""
    keep: list[int] = []
    for i in range(len(tab)):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), -1)
            if col < 0:
                continue
            _pivot(tab, rhs, cost_row, basis, i, col)
        keep.append(i)
    return (
        [tab[i][:n] for i in keep],
        [rhs[i] for i in keep],
        [basis[i] for i in keep],
    )


def _phase2(
    tab: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
) -> tuple[Fraction, list[Fraction]]:
    """min sum(x) from a feasible basis of real columns; (value, x)."""
    n = len(tab[0])
    zero = Fraction(0)
    cost_row = [Fraction(1)] * n + [zero]
    for i, row in enumerate(tab):
        for j in range(n):
            cost_row[j] -= row[j]
        cost_row[-1] -= rhs[i]
    _bland_iterate(tab, rhs, cost_row, basis)

    x = [zero] * n
    for i in range(len(tab)):
        x[basis[i]] = rhs[i]
    return -cost_row[-1], x


def _system_matrix(
    cs: ConstraintSystem,
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The 0/1 row matrix over the atoms, and the row values."""
    a_rows = []
    for event, _ in cs.rows:
        row = [Fraction(0)] * cs.space.atom_count
        for atom in event.atoms:
            row[atom] = Fraction(1)
        a_rows.append(row)
    return a_rows, [value for _, value in cs.rows]


def _require_normalization(cs: ConstraintSystem) -> None:
    if not cs.includes_normalization:
        raise MissingNormalization(
            "constraint system lacks the total-mass row; "
            "assemble() adds it automatically"
        )


def feasible_proper(cs: ConstraintSystem) -> SignedMeasure | None:
    """A nonnegative solution of all rows, or None when none exists.

    Absence of a proper solution is an ordinary answer, not an error; the
    rows may still admit signed solutions.
    """
    _require_normalization(cs)
    n = cs.space.atom_count
    tab, rhs, cost_row, basis = _phase1(*_system_matrix(cs))
    if cost_row[-1] != 0:
        return None
    # Artificials left in the basis sit at 0, so the real basic columns
    # already spell the witness.
    x = {col: rhs[i] for i, col in enumerate(basis) if col < n}
    return SignedMeasure.from_sparse(cs.space, x)


def minimize_l1(cs: ConstraintSystem) -> SolveResult:
    """Minimum L1 norm over all signed solutions, with witness.

    With the normalization row present the optimum is at least 1, and it
    equals 1 exactly when a proper solution exists; in that case the
    returned witness is itself proper.  Rank and nullity are read off the
    rows that phase 1 of the simplex keeps.
    """
    _require_normalization(cs)
    n = cs.space.atom_count
    a_rows, b = _system_matrix(cs)
    split = [row + [-x for x in row] for row in a_rows]
    tab, rhs, cost_row, basis = _phase1(split, b)
    feasible = cost_row[-1] == 0
    tab, rhs, basis = _drop_redundant(tab, rhs, cost_row, basis, 2 * n)
    rank = len(tab)
    if not feasible:
        return SolveResult(SolveStatus.INFEASIBLE, None, None, rank, n - rank)
    value, x = _phase2(tab, rhs, basis)
    mass = tuple(x[j] - x[n + j] for j in range(n))
    witness = SignedMeasure(cs.space, mass)
    status = (
        SolveStatus.PROPER_FEASIBLE
        if value == 1
        else SolveStatus.SIGNED_FEASIBLE_ONLY
    )
    return SolveResult(status, value, witness, rank, n - rank)


def verify_member(
    cs: ConstraintSystem, m: SignedMeasure, claimed_mstar: object
) -> bool:
    """True iff m satisfies every row exactly and has the claimed norm."""
    if m.space != cs.space:
        raise SpaceMismatch("measure lives in a different space")
    claimed = as_fraction(claimed_mstar)
    for event, value in cs.rows:
        if event_mass(m, event) != value:
            return False
    return l1_norm(m) == claimed
