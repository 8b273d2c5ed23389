"""Finite sample spaces of named ±1 variables, events, and signed measures.

Conventions
-----------
* A space over variables ``(v_0, ..., v_{n-1})`` has ``2**n`` atoms, one per
  full assignment of +1/-1 to the variables.
* Atom index encoding: bit ``i`` of the index is set exactly when variable
  ``i`` takes the value +1.  The first variable is the least significant bit.
* A *partial assignment* is a mapping ``{variable name: +1 or -1}``; the
  signs are ints, and bools and floats are refused.  Its *cylinder* is the
  event of all atoms agreeing with it on every listed variable; the empty
  assignment yields the full space.
* All masses are exact ``fractions.Fraction`` values.  Floats are rejected
  at the boundary rather than silently converted, because every downstream
  result (feasibility verdicts, minimum norms, conditionals) is meant to be
  exact.  Masses may be negative; a signed measure is additive by
  construction since the mass of an event is defined as the sum of its atom
  masses.

All types are immutable after construction and all operations are pure
functions, so concurrent use on shared inputs is safe.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateName,
    ImproperDistribution,
    InvalidAssignment,
    InvalidName,
    ScenarioFormatError,
    SpaceMismatch,
    TooManyVariables,
    UndefinedConditional,
    UnknownVariable,
)

MAX_VARIABLES = 24
_LITERAL = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)
# Longer literals are refused before any digit is read; the goldens, the
# built-ins and the benchmark's generated files use at most 9 characters.
RATIONAL_MAX_CHARS = 100
_SIGNS, _BITS = str.maketrans("10", "+-"), str.maketrans("+-", "10")


def as_fraction(value: object) -> Fraction:
    """Coerce an int, Fraction, or rational literal to Fraction.

    A literal is a string [+-]digits[/digits] of ASCII digits, with no
    leading 0 in its denominator, of at most RATIONAL_MAX_CHARS characters
    once stripped: the library and a scenario file read this one grammar,
    and refuse any other string as ScenarioFormatError.  Floats are
    refused: silently rationalizing them would smuggle rounding error into
    computations that are meant to be exact.
    """
    if isinstance(value, Fraction):
        return value  # immutable, so no copy is needed
    if isinstance(value, str):
        literal = value.strip()
        if len(literal) > RATIONAL_MAX_CHARS:
            raise ScenarioFormatError(
                f"rational literal of {len(literal)} characters is longer "
                f"than the limit of {RATIONAL_MAX_CHARS}"
            )
        match = _LITERAL.fullmatch(literal)
        if match is None:
            raise _not_a_literal(value)
        num, den = match.groups()
        return Fraction(int(num), int(den or 1))
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {value!r}")


def _not_a_literal(value: object) -> ScenarioFormatError:
    text = f"expected a rational string like \"1/2\" or \"-3\", got {value!r}"
    return ScenarioFormatError(text)


class _Record:
    """Frozen record in place of @dataclass(frozen=True), whose import
    costs each fresh process more than the records do.  The fields are the
    class's annotations, in order; _set stores them and keeps them as _key,
    which equality (within one class only), hash and repr read.  No
    __slots__: cached_property uses __dict__."""

    def __init_subclass__(cls) -> None:
        if "__annotations__" in vars(cls):  # else it keeps its base's
            cls._fields = tuple(cls.__annotations__)

    def _set(self, *values: object) -> None:
        # object.__setattr__ keeps the values inline, where a read of the
        # __dict__ would build it and slow every later attribute read
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = zip(self._fields, self._key)
        fields = ", ".join(f"{name}={value!r}" for name, value in shown)
        return f"{type(self).__qualname__}({fields})"


class SampleSpace(_Record):
    """Ordered collection of named ±1 variables with canonical atom order."""

    variables: tuple[str, ...]

    def __init__(self, variables) -> None:
        self._set(tuple(variables))
        if not self.variables:
            raise InvalidName("a sample space needs at least one variable")
        if len(self.variables) > MAX_VARIABLES:  # before the quadratic scan
            raise TooManyVariables(
                f"{len(self.variables)} variables exceed the "
                f"{MAX_VARIABLES}-variable enumeration limit"
            )
        for name in self.variables:
            if not isinstance(name, str) or not name:
                raise InvalidName(f"bad variable name {name!r}")
        for i, name in enumerate(self.variables):
            if name in self.variables[:i]:
                raise DuplicateName(f"variable {name!r} listed twice")

    @property
    def atom_count(self) -> int:
        return 1 << len(self.variables)

    def position(self, name: str) -> int:
        """Bit position of a variable, raising UnknownVariable if absent."""
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(
                f"variable {name!r} not in space over {self.variables}"
            ) from None

    def atom_sign(self, atom: int, name: str) -> int:
        """Value (+1 or -1) the given atom assigns to the variable."""
        return +1 if atom >> self.position(name) & 1 else -1

    def atom_label(self, atom: int) -> str:
        """Atom as a +/- string: its low bits in binary, reversed, 1 as +."""
        k = len(self.variables)
        return format(atom & ((1 << k) - 1), f"0{k}b")[::-1].translate(_SIGNS)

    def atom_from_label(self, label: str) -> int:
        """Inverse of :meth:`atom_label`: a +/- string read in binary."""
        if (
            not isinstance(label, str)
            or len(label) != len(self.variables)
            or label.strip("+-")
        ):
            raise InvalidAssignment(
                f"label {label!r} must spell one +/- per variable "
                f"in order {self.variables}"
            )
        return int(label[::-1].translate(_BITS), 2)

    def atoms(self) -> range:
        return range(self.atom_count)


def build_space(names: Sequence[str] | SampleSpace) -> SampleSpace:
    """Create a sample space in canonical atom order; a space passes as is."""
    return names if type(names) is SampleSpace else SampleSpace(names)


class Event:
    """A set of atoms of one sample space.

    ``cylinder`` is the ``(mask, want)`` that :func:`cylinder` built it
    from (its atoms are those with ``atom & mask == want``), else None.  A
    cylinder builds ``atoms`` only on first access.  Equality is set
    equality: two cylinders compare by ``(mask, want)``.  The hash reads
    the space, the size and the lowest and highest atom, never ``len``,
    which overflows on a cylinder with 63 or more free variables.
    """

    space: SampleSpace
    cylinder: tuple[int, int] | None = None
    __setattr__ = __delattr__ = _Record.__setattr__

    def __init__(self, space: SampleSpace, atoms: Iterable[int]) -> None:
        atoms = frozenset(atoms)
        _check_atoms(space, atoms)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "atoms", atoms)  # shadows the property

    @cached_property
    def atoms(self) -> frozenset[int]:
        mask, want = self.cylinder
        return frozenset(_subsets((self.space.atom_count - 1) ^ mask, want))

    @classmethod
    def of(cls, space: SampleSpace, atoms: Iterable[int]) -> "Event":
        return cls(space, atoms)

    @staticmethod
    def full(space: SampleSpace) -> "Event":
        return cylinder(space, {})

    @classmethod
    def empty(cls, space: SampleSpace) -> "Event":
        return cls(space, frozenset())

    def _check_same_space(self, other: "Event") -> None:
        if self.space != other.space:
            raise SpaceMismatch("events live in different sample spaces")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        same = self.space == other.space
        if self.cylinder and other.cylinder:
            return same and self.cylinder == other.cylinder
        return same and self.atoms == other.atoms

    def __hash__(self) -> int:
        if self.cylinder:
            mask, want = self.cylinder
            size = self.space.atom_count >> mask.bit_count()
            ends = want, want | (self.space.atom_count - 1) ^ mask
        else:
            size = len(self.atoms)
            ends = (min(self.atoms), max(self.atoms)) if self.atoms else ()
        return hash((self.space, size, *ends))

    def __and__(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.atoms & other.atoms)

    def __or__(self, other: "Event") -> "Event":
        self._check_same_space(other)
        return Event(self.space, self.atoms | other.atoms)

    def __invert__(self) -> "Event":
        return Event(self.space, frozenset(self.space.atoms()) - self.atoms)

    def __contains__(self, atom: int) -> bool:
        if self.cylinder and type(atom) is int:
            mask, want = self.cylinder
            return 0 <= atom < self.space.atom_count and atom & mask == want
        return atom in self.atoms

    def __len__(self) -> int:
        if self.cylinder:
            return self.space.atom_count >> self.cylinder[0].bit_count()
        return len(self.atoms)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.atoms))

    def __repr__(self) -> str:
        if self.cylinder:  # its 8 lowest atoms, not all 2^free of them
            mask, want = self.cylinder
            free = low = (self.space.atom_count - 1) ^ mask
            for _ in range(3):
                free &= free - 1  # drop the lowest free bit
            atoms = _subsets(low ^ free, want)
        else:
            atoms = sorted(self.atoms)
        labels = [self.space.atom_label(a) for a in atoms]
        if len(labels) > 6:
            labels = labels[:6] + ["..."]
        return f"Event({{{', '.join(labels)}}})"


def _mask_want(
    space: SampleSpace, partial: Mapping[str, int]
) -> tuple[int, int]:
    """Bits a partial assignment fixes, and which of them it sets to +1.

    The one sign check: a sign is the int +1 or -1; bools and floats are
    refused like any other value.
    """
    mask = want = 0
    for name, sign in partial.items():
        bit = 1 << space.position(name)
        if type(sign) is not int or sign not in (+1, -1):
            raise InvalidAssignment(
                f"assignment for {name!r} must be 1 or -1, got {sign!r}"
            )
        mask |= bit
        if sign == +1:
            want |= bit
    return mask, want


def cylinder(space: SampleSpace, partial: Mapping[str, int]) -> Event:
    """Event of all atoms agreeing with a partial assignment.

    The empty assignment gives the full space; a full assignment gives a
    singleton.
    """
    return _cylinder_event(space, _mask_want(space, partial))


def _cylinder_event(space: SampleSpace, mask_want: tuple[int, int]) -> Event:
    """The cylinder of a (mask, want) of space; its atoms need no check."""
    event = object.__new__(Event)
    object.__setattr__(event, "space", space)
    object.__setattr__(event, "cylinder", mask_want)
    return event


def _subsets(mask: int, base: int = 0) -> list[int]:
    """base | s for each subset s of mask, ascending if base & mask == 0."""
    out = [base]
    while mask:
        bit = mask & -mask
        mask ^= bit
        out += [s | bit for s in out]
    return out


def _check_atoms(space: SampleSpace, atoms: Iterable[object]) -> None:
    """The one atom index check: an int below atom_count.  Int subclasses
    other than bool pass; a plain int is settled by its type alone."""
    count = space.atom_count
    for atom in atoms:
        if type(atom) is not int and (
            isinstance(atom, bool) or not isinstance(atom, int)
        ) or not 0 <= atom < count:
            raise ValueError(
                f"atom index {atom!r} outside space of {count} atoms"
            )


class SignedMeasure(_Record):
    """Exact rational mass per atom; masses may be negative.

    ``support`` holds the nonzero masses as (atom, mass) pairs, ascending
    by atom; ``mass``, all ``2**n`` masses, is built on first access.
    Additivity over disjoint events holds by construction because
    :func:`event_mass` sums atom masses.
    """

    space: SampleSpace
    support: tuple[tuple[int, Fraction], ...]

    def __init__(self, space: SampleSpace, mass: Iterable[object]) -> None:
        dense = [as_fraction(m) for m in mass]
        if len(dense) != space.atom_count:
            raise ValueError(
                f"expected {space.atom_count} masses, got {len(dense)}"
            )
        # A list, not a generator: CPython grows a tuple from a generator
        # by resizing it, and each such tuple, once freed, stays on a
        # free list that only a full garbage collection empties.
        self._set(space, tuple([(a, m) for a, m in enumerate(dense) if m]))

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        dense = [Fraction(0)] * self.space.atom_count
        for atom, value in self.support:
            dense[atom] = value
        return tuple(dense)

    @classmethod
    def from_sparse(
        cls, space: SampleSpace, entries: Mapping[int, object]
    ) -> "SignedMeasure":
        _check_atoms(space, entries)
        support = [(a, as_fraction(entries[a])) for a in sorted(entries)]
        m = object.__new__(cls)
        m._set(space, tuple([p for p in support if p[1]]))
        return m

    def total(self) -> Fraction:
        return sum((value for _, value in self.support), Fraction(0))


class Context(_Record):
    """A proper probability distribution over a subset of the variables.

    ``distribution`` is dense over the ``2**k`` assignments of
    ``variables``, in the atom order of ``space``, the sample space over
    ``variables`` (bit i set means variable i equals +1).  ``space`` and
    ``_units``, the masses as (lcm, numerators over it), are not fields.
    """

    variables: tuple[str, ...]
    distribution: tuple[Fraction, ...]

    def __init__(self, variables, distribution) -> None:
        space = build_space(variables)
        distribution = tuple(distribution)
        if len(distribution) != space.atom_count:
            raise ImproperDistribution(
                f"expected {space.atom_count} masses, got {len(distribution)}"
            )
        dense = tuple([m if type(m) is Fraction else as_fraction(m)
                       for m in distribution])  # a Fraction needs no coercion
        violations, units = _kolmogorov(space, list(enumerate(dense)))
        if violations:
            raise ImproperDistribution(
                "; ".join(v.detail for v in violations)
            )
        self._set(space.variables, dense)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_units", units)

    def partial_mass(self, partial: Mapping[str, int]) -> Fraction:
        """Probability the context assigns to a partial assignment."""
        mask, want = _mask_want(self.space, partial)
        return sum(
            (p for a, p in enumerate(self.distribution) if a & mask == want),
            Fraction(0),
        )


class Violation(_Record):
    """One failed axiom check, identified by axiom tag and offending atoms."""

    axiom: str
    detail: str
    atoms: tuple[int, ...]

    def __init__(self, axiom, detail, atoms=()) -> None:
        self._set(axiom, detail, atoms)


def event_mass(m: SignedMeasure, e: Event) -> Fraction:
    """Exact sum of atom masses over the event."""
    if e.space != m.space:
        raise SpaceMismatch("event and measure live in different spaces")
    return sum((v for a, v in m.support if a in e), Fraction(0))


def l1_norm(m: SignedMeasure) -> Fraction:
    """Sum of absolute atom masses."""
    return sum((abs(v) for _, v in m.support), Fraction(0))


def jordan_decompose(m: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Split into nonnegative parts with disjoint supports, m = pos - neg.

    The two totals add up to the L1 norm, which is minimal among all
    decompositions of m into a difference of nonnegative measures.
    """
    pos = {a: v for a, v in m.support if v > 0}
    neg = {a: -v for a, v in m.support if v < 0}
    return (
        SignedMeasure.from_sparse(m.space, pos),
        SignedMeasure.from_sparse(m.space, neg),
    )


def marginalize(m: SignedMeasure, variables: Iterable[str]) -> SignedMeasure:
    """Project onto a nonempty subset of the variables.

    The sub-space keeps the parent's variable order regardless of the
    order in which names are passed.  Each sub-atom's mass is the sum of
    the masses of its extensions, so the total mass is preserved.
    """
    requested = set(variables)
    for name in requested:
        m.space.position(name)  # raises UnknownVariable for strangers
    kept = tuple(v for v in m.space.variables if v in requested)
    if not kept:
        raise InvalidName("marginalize needs at least one variable")
    positions = [m.space.position(v) for v in kept]
    mass: dict[int, Fraction] = {}
    for atom, value in m.support:  # gather the kept bits, in order
        sub_atom = sum((atom >> p & 1) << j for j, p in enumerate(positions))
        mass[sub_atom] = mass.get(sub_atom, 0) + value
    return SignedMeasure.from_sparse(build_space(kept), mass)


def signed_conditional(m: SignedMeasure, a: Event, b: Event) -> Fraction:
    """Ratio event_mass(a∩b) / event_mass(b) for a signed measure.

    The value may lie outside [0, 1]; callers that care should check.
    Raises UndefinedConditional when the conditioning event has mass zero,
    which genuinely happens for signed measures even on nonempty events.
    """
    if a.space != m.space or b.space != m.space:
        raise SpaceMismatch("events and measure live in different spaces")
    denominator = event_mass(m, b)
    if denominator == 0:
        raise UndefinedConditional(
            "conditioning event has mass zero; the conditional has no value"
        )
    both = (v for x, v in m.support if x in a and x in b)
    return sum(both, Fraction(0)) / denominator


def validate_kolmogorov(m: SignedMeasure) -> list[Violation]:
    """Check the proper-probability axioms; empty list means all hold.

    K1: every atom mass in [0, 1].  K2: total mass 1.  Additivity holds by
    construction and is not re-checked.
    """
    return _kolmogorov(m.space, m.support)[0]


def _kolmogorov(space: SampleSpace, masses: Sequence) -> tuple:
    """validate_kolmogorov on (atom, mass) pairs, ascending by atom, and
    (lcm, the masses' numerators over it), which detect_bias reads; the
    sums are on ints, as a Fraction sum renormalizes at every step."""
    violations: list[Violation] = []
    ratios = [value.as_integer_ratio() for _, value in masses]
    for (atom, value), (n, d) in zip(masses, ratios):
        # 0 <= value <= 1 on ints: a Fraction's denominator is positive
        if not 0 <= n <= d:
            violations.append(
                Violation(
                    "K1",
                    f"atom {space.atom_label(atom)} has mass {value}",
                    (atom,),
                )
            )
    den = lcm(*[d for _, d in ratios])
    units = [n * (den // d) for n, d in ratios]
    num = sum(units)
    if num != den:
        total = Fraction(num, den)
        violations.append(Violation("K2", f"total mass is {total}, not 1"))
    return violations, (den, units)


def validate_upper(
    masses: Mapping[int, object],
    pair_values: Mapping[frozenset[int] | tuple[int, ...], object],
) -> list[Violation]:
    """Check the upper-probability axioms on elementary events and pairs.

    U1: every atom value in [0, 1].
    U2: the value assigned to the full atom set equals 1.  The caller
        supplies it as the ``pair_values`` entry keyed by the set of all
        atoms; if no such entry is present, U2 is not checked.
    U3: the value of each two-atom set is at most the sum of the two atom
        values (subadditivity in place of additivity).

    Keys of other sizes are ignored: the axioms constrain nothing else.
    """
    atom_masses = {atom: as_fraction(v) for atom, v in masses.items()}
    violations: list[Violation] = []
    for atom in sorted(atom_masses):
        value = atom_masses[atom]
        if not 0 <= value <= 1:
            violations.append(
                Violation("U1", f"atom {atom} has value {value}", (atom,))
            )
    omega = frozenset(atom_masses)
    normalized: list[tuple[tuple[int, ...], Fraction]] = []
    for key, value in pair_values.items():
        atoms = frozenset(key)
        if not atoms <= omega:
            raise SpaceMismatch(
                f"event {sorted(atoms)} uses atoms outside the given space"
            )
        normalized.append((tuple(sorted(atoms)), as_fraction(value)))
    normalized.sort()
    for atoms, value in normalized:
        if frozenset(atoms) == omega and value != 1:
            violations.append(
                Violation("U2", f"full space has value {value}, not 1", atoms)
            )
        if len(atoms) == 2:
            i, j = atoms
            bound = atom_masses[i] + atom_masses[j]
            if value > bound:
                violations.append(
                    Violation(
                        "U3",
                        f"pair {{{i},{j}}} has value {value} above "
                        f"{atom_masses[i]} + {atom_masses[j]}",
                        atoms,
                    )
                )
    return violations


def nonmonotonicity_witness(
    m: SignedMeasure,
) -> tuple[Event, Event] | None:
    """Nested events s1 ⊆ s2 with mass(s1) > mass(s2), if any exist.

    Construction: take the lowest-index atom with negative mass, let s1 be
    the event of all atoms with positive mass, and let s2 add the negative
    atom to s1.  Returns None exactly when the measure is nonnegative, in
    which case it is monotone and no witness exists.
    """
    negative = [a for a, v in m.support if v < 0]
    if not negative:
        return None
    omega = negative[0]
    s1_atoms = frozenset(a for a, v in m.support if v > 0)
    s1 = Event(m.space, s1_atoms)
    s2 = Event(m.space, s1_atoms | {omega})
    return s1, s2
