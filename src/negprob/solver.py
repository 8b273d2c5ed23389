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
scan all atoms for it, each atom's price carried from pivot to pivot as
the sum of its rows' exact steps (Maros, "Computational Techniques of the
Simplex Method", 2003).  When a scan would cost far more than a DP over
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
from heapq import heappop, heappush
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
    _cylinder_event,
    _mask_want,
    _subsets,
    as_fraction,
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
        return self._normalization() >= 0

    def _normalization(self) -> int:
        """Index of the first row pinning the full space to 1, else -1."""
        full = self.space.atom_count  # no len of a cylinder: it can overflow
        for r, (e, value) in enumerate(self.rows):
            piece = e.cylinder  # tested before value == 1, a Fraction call
            if (piece == (0, 0) if piece else len(e) == full) and value == 1:
                return r
        return -1


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
    pairs = chain(constraints, [({}, 1)])
    return _row_system(space, pairs, keep_contradictions, _mask_want)


def _row_system(
    space: SampleSpace, pairs: Iterable, keep: bool, read=None
) -> ConstraintSystem:
    """The one row builder, behind assemble and family_system: assemble's
    rules on (item, value) pairs, normalization the last.  read(space,
    item) is an item's (mask, want), else the item is one; it is read
    after the value is checked.  Rows built here skip the public check."""
    rows: list[tuple[Event, Fraction]] = []
    seen: dict[object, int] = {}  # key -> index of its row in rows
    for item, raw in pairs:
        value = as_fraction(raw)
        num, den = value.as_integer_ratio()
        if abs(num) > ASSEMBLE_VALUE_BOUND * den:
            raise ValueOutOfBounds(
                f"constraint value {value} outside sanity bound"
            )
        mask_want = item if read is None else read(space, item)
        key = mask_want, (num, den) if keep else None
        i = seen.setdefault(key, len(rows))
        if i == len(rows):
            rows.append((_cylinder_event(space, mask_want), value))
        elif rows[i][1] != value:
            raise ContradictoryRows(rows[i][0], rows[i][1], value)
    cs = object.__new__(ConstraintSystem)
    cs._set(space, tuple(rows))
    return cs


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

    def build_plan(self) -> None:
        """The plan that lowest reads, built once elimination is chosen.
        Per variable k: for each assignment s of U_k and bit k, paired on
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

    def lowest(self, y: list[int], cost: int) -> int:
        """Lowest atom a with w(a) > cost, or -1; y has one entry per row."""
        plan = self.plan
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


class _RevisedLP:
    """Integer rows adj = det B^-1 [I | b scale_b], det > 0, and basis for
    A x = b, x >= 0; scale_b is the lcm of the row values' denominators.
    Row i is basis[i]'s adjugate row, then x_i det scale_b.  Real column j
    is atom j mod N, negated for j >= N (the split's minus half), with a 1
    on each row whose event holds the atom.  The artificial of row r is
    column ncols + r, flip_r * e_r with flip_r = -1 on a negative value:
    flipping the row instead gives the same tableau B^-1 A.

    Each LP reads its system's rows once, into pieces: each row r's
    disjoint cylinders (r, mask, want), read by _pieces.  Pricing scans
    prices, which _bland_iterate sums with gathers (one itemgetter of its
    rows per atom) and moves along atoms_of (each row's atoms, ascending);
    or it searches elim, a planned _Elimination over the pieces, when the
    scan's (atom, row) count exceeds SCAN_PER_TABLE times its table count.
    gathers then caches column's atoms.  probes pairs first_real's atoms
    with theirs.  Nothing is written onto the system.
    """

    def __init__(self, cs: ConstraintSystem, split: bool) -> None:
        self.n = n = cs.space.atom_count
        nvars = len(cs.space.variables)
        self.pieces = [
            (r, *piece)
            for r, (event, _) in enumerate(cs.rows)
            for piece in _pieces(event)
        ]
        # the pieces are disjoint, so this is the rows' total atom count
        scan = sum([1 << (nvars - m.bit_count()) for _, m, _ in self.pieces])
        elim = _Elimination(self.pieces, nvars)
        self.elim = elim if scan > SCAN_PER_TABLE * elim.table_count else None
        self.probes: list[tuple[int, itemgetter]] | None = None
        self.gathers: dict[int, itemgetter] = {}
        if self.elim is not None:
            elim.build_plan()
        else:
            rows_of: list[list[int]] = [[] for _ in range(n)]
            self.atoms_of: list[list[int]] = [[] for _ in cs.rows]
            self.prices: list[int] = []  # set by _bland_iterate
            for r, mask, want in self.pieces:
                atoms = _subsets((n - 1) ^ mask, want)
                self.atoms_of[r] += atoms
                for atom in atoms:
                    rows_of[atom].append(r)
            self.gathers = dict(enumerate(map(_gather, rows_of)))
        self.ncols = 2 * n if split else n
        ratios = [value.as_integer_ratio() for _, value in cs.rows]
        self.flip = [-1 if num < 0 else 1 for num, _ in ratios]
        # a list, not a generator: see SignedMeasure.__init__
        self.scale_b = lcm(*[den for _, den in ratios])
        self.det, m = 1, len(ratios)
        self.adj = [
            [0] * m + [abs(num) * (self.scale_b // den)]
            for num, den in ratios
        ]
        for r, f in enumerate(self.flip):
            self.adj[r][r] = f
        self.basis = [self.ncols + r for r in range(m)]

    def gather(self, atom: int) -> itemgetter:
        """The _gather of the rows whose event holds the atom, built on
        first use (on elim's path, where gathers starts empty)."""
        get = self.gathers.get(atom)
        if get is None:
            rows = [r for r, m, w in self.pieces if atom & m == w]
            get = self.gathers[atom] = _gather(rows)
        return get

    def column(self, j: int) -> list[int]:
        """Tableau column j times det: adj times column j of [A | flips]."""
        if j >= self.ncols:
            r = j - self.ncols
            return [self.flip[r] * row[r] for row in self.adj]
        get = self.gather(j % self.n)
        col = list(map(sum, map(get, self.adj)))
        return col if j < self.n else [-x for x in col]

    def entering(self, phase1: bool, big_y: list[int]) -> int:
        """First column in Bland order with negative reduced cost, or -1.

        Phase 1 costs the artificials 1 and the real columns 0; phase 2
        costs the real columns 1 and prices no artificial.  Atom a's price
        w(a) is the sum over its rows of big_y = det * c_B B^-1, the column
        sums of the costed adj rows, against the cost times det: the plus
        half enters on w > cost, the minus half on w < -cost.  The scan
        reads the prices that _bland_iterate carries.
        """
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
            for atom, w in enumerate(self.prices):
                if w > cost:
                    return atom
            if self.ncols > self.n:
                for atom, w in enumerate(self.prices):
                    if w < -cost:
                        return self.n + atom
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
        if self.probes is None:
            masks = {mask for _, mask, _ in self.pieces}
            atoms = sorted({a for m in masks for a in _subsets(m)})
            self.probes = [(a, self.gather(a)) for a in atoms]
        row = self.adj[i]
        for atom, get in self.probes:
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

    On the scan, lp.prices holds each w(a) = sum_{r in a} big_y_r, summed
    when the phase starts and after a pivot with p != det.  With k = t -
    e * det, a pivot with p == det moves big_y_r by the exact integer
    k * a_r / det where a_r != 0, so w(a) moves by its rows' steps.

    A correct Bland run never raises the objective big_y[-1] / det, nor
    revisits a basis while it stays level, so a pricing or ratio-test
    fault raises ArithmeticError instead of pivoting forever.  A basis is
    kept in row order, which fixes adj and big_y, so an endless level run
    repeats one exactly.
    """
    costed = [col >= lp.ncols or not phase1 for col in lp.basis]
    big_y = [sum(ys) for ys in zip(*compress(lp.adj, costed))]
    level: set[tuple[int, ...]] = set()  # bases met at the level objective
    scan, fresh = lp.elim is None, True
    while True:
        if scan and fresh:
            lp.prices = [sum(get(big_y)) for get in lp.gathers.values()]
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
        k = t - e * det
        old = big_y[-1] * p  # objectives over det, then p: cross-multiplied
        lp.pivot(leave, enter, col)
        _bareiss([(big_y, k)], a, p, det)
        fresh = p != det
        if scan and not fresh and k:
            prices = lp.prices
            for ar, atoms in compress(zip(a, lp.atoms_of), a):
                step = k * ar // det
                for atom in atoms:
                    prices[atom] -= step
        new = big_y[-1] * det
        if new > old:
            raise ArithmeticError("simplex pivot raised the objective")
        if new < old:
            level.clear()
            continue
        basis = tuple(lp.basis)
        if basis in level:
            raise ArithmeticError("simplex pivot revisited a basis")
        level.add(basis)


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


def _require_normalization(cs: ConstraintSystem) -> int:
    norm = cs._normalization()
    if norm < 0:
        raise MissingNormalization(
            "constraint system lacks the total-mass row; "
            "assemble() adds it automatically"
        )
    return norm


def _proper_refutation(cs: ConstraintSystem, norm: int) -> dict | None:
    """A Farkas vector y read off the rows, or None: row -> integer, with
    sum_r y_r [a in E_r] <= 0 at every atom a and sum_r y_r b_r > 0.  The
    first row valued below 0 gives one, or above 1 with the normalization
    row norm; each value's integers are read once.  A pair is two
    variables whose four cylinder rows are present and sum to 1;
    traversing it with sign s costs 1 - s E >= 0, E = v(++) + v(--) -
    v(+-) - v(-+).  On a closed walk of L traversals, an odd number with
    s = -1, the s x_u x_v multiply to -1 at each atom and so sum to at most
    L - 2: y is s on the ++ and -- rows of each traversal, -s on its +- and
    -+ rows and 2 - L on normalization, a broken n-cycle inequality (Araujo
    et al., PRA 88, 022118, 2013) when b^T y = 2 - cost > 0.  Dijkstra over
    (vertex, parity), bounded at cost 2, finds the cheapest odd walk through
    a start vertex of the pair graph's 2-core, else deletes the start."""
    pairs: dict[int, dict[int, tuple]] = {}  # mask -> {want: (row, n, d)}
    for r, (event, value) in enumerate(cs.rows):
        n, d = value.as_integer_ratio()
        if n < 0:
            return {r: -1}
        if n > d:
            return {r: 1, norm: -1}
        piece = event.cylinder
        if piece is not None and piece[0].bit_count() == 2:
            pairs.setdefault(piece[0], {}).setdefault(piece[1], (r, n, d))
    full = [(mask, rows) for mask, rows in pairs.items() if len(rows) == 4]
    if len(full) < 3:
        return None
    den = lcm(*[d for _, rows in full for _, _, d in rows.values()])
    graph: dict[int, dict[int, tuple[int, int]]] = {}  # u -> {v: (E, mask)}
    for mask, got in full:
        e = total = 0
        for want, (_, n, d) in got.items():
            num = den // d * n
            e, total = e + (num if want in (0, mask) else -num), total + num
        if total == den:
            u = mask & -mask
            graph.setdefault(u, {})[mask ^ u] = e, mask
            graph.setdefault(mask ^ u, {})[u] = e, mask
    loose = [x for x, near in graph.items() if len(near) < 2]
    while True:
        while loose:  # prune to the 2-core
            x = loose.pop()
            for z in graph.pop(x, ()):
                del graph[z][x]
                if len(graph[z]) == 1:
                    loose.append(z)
        if not graph:
            return None
        start = next(iter(graph))
        best, back, heap = {(start, 0): 0}, {}, [(0, start, 0)]
        while heap:
            cost, x, odd = heappop(heap)
            if x == start and odd:
                y, key = {norm: 2}, (start, 1)
                while key != (start, 0):
                    x, odd, mask, s = back[key]
                    key, y[norm] = (x, odd), y[norm] - 1
                    for want, (r, _, _) in pairs[mask].items():
                        y[r] = y.get(r, 0) + (s if want in (0, mask) else -s)
                return y
            if cost > best[x, odd]:
                continue
            for z, (e, mask) in graph[x].items():
                for far, s in ((cost + den - e, 1), (cost + den + e, -1)):
                    key = z, odd ^ (s < 0)
                    if far < best.get(key, 2 * den):
                        best[key], back[key] = far, (x, odd, mask, s)
                        heappush(heap, (far, *key))
        loose.append(start)


def feasible_proper(cs: ConstraintSystem) -> SignedMeasure | None:
    """A nonnegative solution of all rows, or None when none exists.

    Absence of a proper solution is an ordinary answer, not an error; the
    rows may still admit signed solutions.  A Farkas vector read off the
    rows by _proper_refutation answers None without the simplex.
    """
    if _proper_refutation(cs, _require_normalization(cs)) is not None:
        return None
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
