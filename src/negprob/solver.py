"""Exact rational linear algebra and L1-minimizing linear programming.

A constraint system is a list of equality rows "mass of event E equals v"
over one sample space, plus the total-mass row.  Three questions are
answered, all over exact rationals with no tolerances anywhere:

* rank/nullity of the row matrix (dimension of the solution set);
* does a proper (nonnegative) solution exist, and if so produce one;
* what is the minimum of the L1 norm over all signed solutions, with a
  witness measure attaining it.

The optimizer is a two-phase revised primal simplex.  Its one state is
the integer matrix det B^-1 [I | b scale_b]: the basis inverse of the m
rows over one denominator det (Edmonds; Bareiss's integer-preserving
elimination), then the basic values.  It stores no column of A: an atom's
column is read off the rows whose event contains it.  Columns, reduced
costs and the ratio test are exact integer arithmetic.  A pivot that
keeps det touches only the pivot row's nonzeros.  The prices c_B B^-1,
then the phase's optimum c_B x_B, are carried from pivot to pivot by the
same step.  Bland's rule (lowest eligible index enters, ties on the
leaving row go to the lowest basis index) guarantees termination and a
deterministic witness.
Every row is read as disjoint cylinder pieces (mask, want): the one
measure.cylinder built it from, else one full-mask piece per atom.
Pricing finds the lowest atom whose price passes a test.  Small systems
scan all atoms for it.  When a scan would cost far more than a DP over
the variables, the same atom is found by bucket elimination over the
pieces (Dechter, "Bucket elimination", 1999) without enumerating the
atoms.  The search for a redundant row's first nonzero entry tries only
the atoms whose bits lie inside some piece's mask, which is exact.
Each decision reads only entries of B^-1 A and the reduced costs, which
the basis alone fixes, so from the same start basis and column order
this solver visits exactly the bases a dense tableau would, and returns
the same witness.  The L1 objective is handled by the standard variable
split x = xp - xn with xp, xn >= 0 and cost 1 on both halves; at any
optimal basis the two halves of one atom are never both basic (their
columns are negatives of each other), so the objective value equals the
L1 norm of the reconstructed solution exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import add, itemgetter
from typing import Iterable, Mapping

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
    _Record,
    _subsets,
    as_fraction,
    cylinder,
    event_mass,
    l1_norm,
)

ASSEMBLE_VALUE_BOUND = 10**9
# Pricing eliminates variables instead of scanning atoms when the scan's
# (atom, row) count exceeds this many times the elimination's table count.
# Timed with CPython 3.11 on one x86-64 core over 34 cylinder systems of
# 6 to 12 variables, 32 and 40 gave the least total solve time; 16 and 64
# were slower.
SCAN_PER_TABLE = 32


class SolveStatus(Enum):
    PROPER_FEASIBLE = "ProperFeasible"
    SIGNED_FEASIBLE_ONLY = "SignedFeasibleOnly"
    INFEASIBLE = "Infeasible"


class ConstraintSystem(_Record):
    """Equality rows (event, value) over one space."""

    space: SampleSpace
    rows: tuple[tuple[Event, Fraction], ...]

    def __init__(self, space, rows) -> None:
        rows = tuple([(e, as_fraction(v)) for e, v in rows])
        for event, _ in rows:
            if event.space != space:
                raise SpaceMismatch(
                    "constraint event lives in a different space"
                )
        self._set(space, rows)

    @property
    def includes_normalization(self) -> bool:
        """True when some row pins the full space to total mass 1."""
        full = self.space.atom_count  # no len of a cylinder: it can overflow
        return any(
            value == 1
            and (e.cylinder == (0, 0) if e.cylinder else len(e) == full)
            for e, value in self.rows
        )


class SolveResult(_Record):
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

    def __init__(self, status, mstar, witness, rank, nullity) -> None:
        self._set(status, mstar, witness, rank, nullity)


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
    context family).  The normalization row (full space equals 1) is the
    last input, so a caller's own full-space row meets the same rule.
    """
    rows: list[tuple[Event, Fraction]] = []
    seen: dict[object, int] = {}  # key -> index of its row in rows
    for partial, raw in chain(constraints, [({}, 1)]):
        value = as_fraction(raw)
        num, den = value.numerator, value.denominator
        if abs(num) > ASSEMBLE_VALUE_BOUND * den:
            raise ValueOutOfBounds(
                f"constraint value {value} outside sanity bound"
            )
        event = cylinder(space, partial)
        key = (event.cylinder, (num, den) if keep_contradictions else None)
        i = seen.setdefault(key, len(rows))
        if i == len(rows):
            rows.append((event, value))
        elif rows[i][1] != value:
            raise ContradictoryRows(event, rows[i][1], value)
    return ConstraintSystem(space, tuple(rows))


def rank_nullity(cs: ConstraintSystem) -> tuple[int, int]:
    """Rank of the 0/1 row matrix and nullity = atom_count - rank.

    Every row starts on an artificial basis, so the simplex's drop step
    is plain row reduction here.
    """
    lp = _RevisedLP(cs, split=False)
    _drop_redundant(lp)
    return len(lp.basis), cs.space.atom_count - len(lp.basis)


# --- simplex internals ---------------------------------------------------


class _Elimination:
    """Exact search for the lowest atom a whose price
    w(a) = sum_r y_r [a in E_r] exceeds a cost, by bucket elimination over
    the pieces (r, mask, want) of the rows (Dechter, "Bucket elimination",
    1999).  A row's pieces are disjoint, so w(a) is the sum of y_r over the
    pieces with a & mask == want.

    Each piece sits in the bucket of its lowest bit.  Eliminating the
    variables in index order leaves, after variable k, a table of the max
    over the variables up to k of the pieces in buckets up to k, keyed on
    the assignments of U_k: the later variables that those pieces also
    hold.  The search then fixes bits from the highest down.  With the
    bits above j fixed, the best price with bit j at b is the pieces in
    buckets above j, which those bits decide, plus the sum the forward
    pass kept for that span before its max over bit j; bit j stays 0
    while that still exceeds the cost.  So it returns the atom a scan in
    index order returns.  w < -cost is w > cost on -y.
    """

    def __init__(
        self, pieces: list[tuple[int, int, int]], nvars: int
    ) -> None:
        self.bucket: list[list[tuple]] = [[] for _ in range(nvars)]
        for piece in pieces:
            # a mask-0 piece lands in bucket -1: the last, met by every atom
            self.bucket[(piece[1] & -piece[1]).bit_length() - 1].append(piece)
        held, self.later = 0, [0]  # later[k + 1] is U_k
        for k, bucket in enumerate(self.bucket):
            for _, mask, _ in bucket:
                held |= mask
            held &= -2 << k
            self.later.append(held)
        # the tables' entries: the assignments of U_k and bit k, per k
        self.table_count = sum(2 << u.bit_count() for u in self.later[1:])
        self.plan: list[tuple] = []

    def _build_plan(self) -> list[tuple]:
        """Per variable k: for each assignment s of U_k and bit k, paired on
        bit k, the index of s & U_(k-1) in the table before k; the rows of
        the pieces of bucket k that each s meets, as layers of row indices
        padded with -1, which reads the 0 that lowest appends to y; and the
        index of each assignment of U_k in the table after k."""
        plan, index = [], {0: 0}
        for k, bucket in enumerate(self.bucket):
            keys = sorted(_subsets(self.later[k + 1]))
            spans = [key | bit for key in keys for bit in (0, 1 << k)]
            met = [[r for r, m, w in bucket if s & m == w] for s in spans]
            layers = [
                [hit[i] if i < len(hit) else -1 for hit in met]
                for i in range(max(map(len, met)))
            ]
            prev = [index[s & self.later[k]] for s in spans]
            index = {key: i for i, key in enumerate(keys)}
            plan.append((prev, layers, index))
        self.plan = plan
        return plan

    def lowest(self, y: list[int], cost: int) -> int:
        """Lowest atom a with w(a) > cost, or -1; y has one entry per row."""
        plan = self.plan or self._build_plan()
        get = (y + [0]).__getitem__
        # tables[k]: the table before variable k; sums[k]: its entries
        # plus bucket k's pieces, per span, before the max over bit k
        tables, sums, top = [], [], [0]
        for prev, layers, _ in plan:
            it = map(top.__getitem__, prev)
            for layer in layers:
                it = map(add, it, map(get, layer))
            tables.append(top)
            sums.append(list(it))
            it = iter(sums[-1])  # one iterator twice: max pairs the halves
            top = list(map(max, it, it))
        if top[0] <= cost:
            return -1
        atom = base = 0  # base: the pieces in the buckets above j
        for j in range(len(self.bucket) - 1, -1, -1):
            prev, _, index = plan[j]
            i = 2 * index[atom & self.later[j + 1]]
            if base + sums[j][i] <= cost:
                atom |= 1 << j
                i += 1
            base += sums[j][i] - tables[j][prev[i]]
        return atom


def _pieces(event: Event) -> list[tuple[int, int]]:
    """Disjoint cylinders (mask, want) whose union is the event: the one it
    was built from, else one full-mask piece per atom, ascending."""
    if event.cylinder is not None:
        return [event.cylinder]
    full = event.space.atom_count - 1
    return [(full, atom) for atom in sorted(event.atoms)]


class _Columns:
    """What every LP on one system reads off its rows alone.  pieces lists
    each row r's disjoint cylinders (r, mask, want), read by _pieces.
    Pricing scans gathers, one itemgetter of its rows per atom, or searches
    elim, an _Elimination over the pieces, when the scan's (atom, row)
    count exceeds SCAN_PER_TABLE times its table count; gathers then
    caches column's atoms.  probes pairs first_real's atoms with theirs.
    A part built on first use is stored whole, never grown in place."""

    def __init__(self, cs: ConstraintSystem) -> None:
        self.n = cs.space.atom_count
        nvars = len(cs.space.variables)
        self.pieces = [
            (r, *piece)
            for r, (event, _) in enumerate(cs.rows)
            for piece in _pieces(event)
        ]
        # the pieces are disjoint, so this is the rows' total atom count
        scan = sum([1 << (nvars - m.bit_count()) for _, m, _ in self.pieces])
        self.elim: _Elimination | None = None
        # the table count is at least 2 per variable; below that bound,
        # building an _Elimination only to discard it would slow small
        # solves measurably
        if scan > SCAN_PER_TABLE * 2 * nvars:
            elim = _Elimination(self.pieces, nvars)
            if scan > SCAN_PER_TABLE * elim.table_count:
                self.elim = elim
        self.probes: list[tuple[int, itemgetter]] | None = None
        self.gathers: dict[int, itemgetter] = {}
        if self.elim is None:
            rows_of: list[list[int]] = [[] for _ in range(self.n)]
            for r, mask, want in self.pieces:
                for atom in _subsets((self.n - 1) ^ mask, want):
                    rows_of[atom].append(r)
            self.gathers = dict(enumerate(map(_gather, rows_of)))

    def gather_at(self, atoms: list[int]) -> list[itemgetter]:
        """The _gather of the rows whose event holds each atom.  Those not
        yet built (on elim's path, where gathers starts empty) are built
        in one pass and stored in one new dict."""
        gathers, pieces = self.gathers, self.pieces
        built = {
            a: _gather([r for r, m, w in pieces if a & m == w])
            for a in atoms
            if a not in gathers
        }
        if built:
            gathers = self.gathers = {**gathers, **built}
        return [gathers[a] for a in atoms]


class _RevisedLP:
    """Integer rows adj = det B^-1 [I | b scale_b], det > 0, and basis for
    A x = b, x >= 0; scale_b is the lcm of the row values' denominators.
    Row i is basis[i]'s adjugate row, then x_i det scale_b.  Real column j
    is atom j mod N, negated for j >= N (the split's minus half), with a 1
    on each row whose event holds the atom.  The artificial of row r is
    column ncols + r, flip_r * e_r with flip_r = -1 on a negative value:
    flipping the row instead gives the same tableau B^-1 A.
    """

    probes = property(lambda self: self.cols.probes)

    def __init__(self, cs: ConstraintSystem, split: bool) -> None:
        built = getattr(cs, "_columns", {})  # not vars: see _Record._set
        if SCAN_PER_TABLE not in built:
            built = {**built, SCAN_PER_TABLE: _Columns(cs)}  # a new dict
            object.__setattr__(cs, "_columns", built)
        self.cols = built[SCAN_PER_TABLE]
        self.n = self.cols.n
        self.elim = self.cols.elim
        self.ncols = 2 * self.n if split else self.n
        self.flip = [-1 if value < 0 else 1 for _, value in cs.rows]
        # a list, not a generator: see SignedMeasure.__init__
        self.scale_b = lcm(*[value.denominator for _, value in cs.rows])
        self.det = 1
        m = len(self.flip)
        self.adj = [
            [0] * m + [abs(b.numerator) * (self.scale_b // b.denominator)]
            for _, b in cs.rows
        ]
        for r, f in enumerate(self.flip):
            self.adj[r][r] = f
        self.basis = [self.ncols + r for r in range(m)]

    def column(self, j: int) -> list[int]:
        """Tableau column j times det: adj times column j of [A | flips]."""
        if j >= self.ncols:
            r = j - self.ncols
            return [self.flip[r] * row[r] for row in self.adj]
        atom = j % self.n
        get = self.cols.gathers.get(atom) or self.cols.gather_at([atom])[0]
        col = list(map(sum, map(get, self.adj)))
        return col if j < self.n else [-x for x in col]

    def entering(self, phase1: bool, big_y: list[int]) -> int:
        """First column in Bland order with negative reduced cost, or -1.

        Phase 1 costs the artificials 1 and the real columns 0; phase 2
        costs the real columns 1 and prices no artificial.  Atom a's price
        w(a) is the sum over its rows of big_y = det * c_B B^-1, the column
        sums of the costed adj rows, against the cost times det: the plus
        half enters on w > cost, the minus half on w < -cost.  big_y is 0
        only when no row is costed, and then nothing enters.
        """
        if not any(big_y):
            return -1
        cost = 0 if phase1 else self.det
        if self.elim is not None:
            atom = self.elim.lowest(big_y, cost)
            if atom >= 0:
                return atom
            if self.ncols > self.n:
                atom = self.elim.lowest([-y for y in big_y], cost)
                if atom >= 0:
                    return self.n + atom
        else:
            first_minus = -1
            for atom, get in self.cols.gathers.items():
                w = sum(get(big_y))
                if w > cost:
                    return atom
                if w < -cost and first_minus < 0:
                    first_minus = atom
            if self.ncols > self.n and first_minus >= 0:
                return self.n + first_minus
        if phase1:
            for r, (f, yr) in enumerate(zip(self.flip, big_y)):
                if f * yr > self.det:
                    return self.ncols + r
        return -1

    def first_real(self, i: int) -> int:
        """First real column with a nonzero in tableau row i, or -1.

        Only the probe atoms are tried: those whose set bits lie inside
        some piece's mask.  That is exact.  A piece's indicator, as a
        polynomial in the bits, has monomials only on subsets of its mask,
        so the row's entries have a nonzero monomial coefficient only at
        probes.  At the lowest atom a with a nonzero entry, every atom on a
        proper subset of a's bits is lower, so its entry is 0, and Möbius
        inversion makes a's coefficient equal its entry: a is a probe.  A
        row that is not a cylinder has full-mask pieces, which make every
        atom a probe.
        """
        if self.cols.probes is None:
            masks = {mask for _, mask, _ in self.cols.pieces}
            atoms = sorted({a for m in masks for a in _subsets(m)})
            self.cols.probes = list(zip(atoms, self.cols.gather_at(atoms)))
        row = self.adj[i]
        for atom, get in self.cols.probes:
            if sum(get(row)):
                return atom
        return -1

    def pivot(self, row: int, j: int, col: list[int]) -> None:
        """Bareiss step on p = col[row]; det becomes q = |p|.  By _bareiss,
        row i, value too, turns into (q * adj_i - col_i * prow) / det, prow
        being row `row` times the sign of p, unless col_i = 0 and q == det."""
        p, det = col[row], self.det
        if p < 0:
            self.adj[row] = [-x for x in self.adj[row]]
        prow, q = self.adj[row], abs(p)
        moved = [i for i, c in enumerate(col) if i != row and (c or q != det)]
        _bareiss([(self.adj[i], col[i]) for i in moved], prow, q, det)
        self.det = q
        self.basis[row] = j


def _gather(rows: list[int]) -> itemgetter:
    """One itemgetter for the entries at rows, giving a sequence to sum:
    with one index it would give the bare entry, so fewer rows slice."""
    if len(rows) > 1:
        return itemgetter(*rows)
    return itemgetter(slice(rows[0], rows[0] + 1) if rows else slice(0))


def _bareiss(targets: list[tuple], prow: list[int], q: int, det: int) -> None:
    """Each (row, c) of targets becomes (q * row - c * prow) / det, in
    place.  Every entry divides exactly (Sylvester's identity), so when q
    equals det only the nonzeros of prow move, each by c * prow_k / det."""
    if q == det:
        nonzero = [(k, y) for k, y in enumerate(prow) if y]
        for row, c in targets:
            for k, y in nonzero:
                row[k] -= c * y // det
    else:
        for row, c in targets:
            row[:] = [(q * x - c * y) // det for x, y in zip(row, prow)]


def _bland_iterate(lp: _RevisedLP, phase1: bool) -> int:
    """Primal simplex to optimality; Bland's rule, so it always halts.

    The prices big_y = c_B adj, the column sums of the costed rows, are
    summed once, then carried through each pivot (the product form of
    Dantzig and Orchard-Hays, 1954).  Its last entry is c_B x_B det
    scale_b, returned at the optimum.  As a row with coefficient t, the
    entering column's sum over the costed rows, big_y turns into the sum
    of the costed rows other than the leaving row a, which cancels.  The
    ratio test makes p > 0, so a stays the same; adding it when the
    entering column is costed (e = 1, else 0) gives big_y' =
    (p * big_y - (t - e * det) * a) / det: one more row for _bareiss.
    """
    costed = [col >= lp.ncols or not phase1 for col in lp.basis]
    big_y = [sum(ys) for ys in zip(*compress(lp.adj, costed))]
    while True:
        enter = lp.entering(phase1, big_y)
        if enter < 0:
            return big_y[-1]
        col = lp.column(enter)
        leave = -1
        for i, coef in enumerate(col):
            if coef > 0 and (
                leave < 0
                or (lp.adj[i][-1] * col[leave], lp.basis[i])
                < (lp.adj[leave][-1] * coef, lp.basis[leave])
            ):
                leave = i
        if leave < 0:
            # cannot happen for the L1 and feasibility programs solved
            # here (both objectives are bounded below), kept defensive
            raise ArithmeticError("linear program unbounded below")
        a, det, p = lp.adj[leave], lp.det, col[leave]
        t = sum(compress(col, costed))
        e = costed[leave] = enter >= lp.ncols or not phase1
        lp.pivot(leave, enter, col)
        _bareiss([(big_y, t - e * det)], a, p, det)


def _phase1(cs: ConstraintSystem, split: bool) -> tuple[_RevisedLP, bool]:
    """Phase 1 from the all-artificial basis; (state, its optimum is 0)."""
    lp = _RevisedLP(cs, split)
    return lp, _bland_iterate(lp, phase1=True) == 0


def _drop_redundant(lp: _RevisedLP) -> None:
    """Pivot artificials out onto their row's first nonzero real column,
    found by first_real's sweep over the probe atoms, dropping rows with
    no such column as redundant.  The kept rows' count is the rank."""
    keep: list[int] = []
    for i in range(len(lp.basis)):
        if lp.basis[i] >= lp.ncols:
            col = lp.first_real(i)
            if col < 0:
                continue
            lp.pivot(i, col, lp.column(col))
        keep.append(i)
    lp.adj = [lp.adj[i] for i in keep]
    lp.basis = [lp.basis[i] for i in keep]


def _phase2(lp: _RevisedLP) -> Fraction:
    """min sum(x) from a feasible basis of real columns: the optimum."""
    return Fraction(_bland_iterate(lp, phase1=False), lp.det * lp.scale_b)


def _witness(lp: _RevisedLP, space: SampleSpace) -> SignedMeasure:
    """Atom masses xp - xn; artificials left in the basis sit at 0."""
    den = lp.det * lp.scale_b
    masses = {
        col % lp.n: Fraction(row[-1] if col < lp.n else -row[-1], den)
        for col, row in zip(lp.basis, lp.adj)
        if col < lp.ncols
    }
    return SignedMeasure.from_sparse(space, masses)


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
    lp, feasible = _phase1(cs, split=False)
    if not feasible:
        return None
    return _witness(lp, cs.space)


def minimize_l1(cs: ConstraintSystem) -> SolveResult:
    """Minimum L1 norm over all signed solutions, with witness.

    With the normalization row present the optimum is at least 1, and it
    equals 1 exactly when a proper solution exists; in that case the
    returned witness is itself proper.  Rank and nullity are read off the
    rows that phase 1 of the simplex keeps.
    """
    _require_normalization(cs)
    n = cs.space.atom_count
    lp, feasible = _phase1(cs, split=True)
    _drop_redundant(lp)
    rank = len(lp.basis)
    if not feasible:
        return SolveResult(SolveStatus.INFEASIBLE, None, None, rank, n - rank)
    value = _phase2(lp)
    status = (
        SolveStatus.PROPER_FEASIBLE
        if value == 1
        else SolveStatus.SIGNED_FEASIBLE_ONLY
    )
    return SolveResult(status, value, _witness(lp, cs.space), rank, n - rank)


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
