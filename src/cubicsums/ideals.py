"""Exact ideal arithmetic in the factored representation.

An integral ideal is stored as its factorization over labeled prime ideals;
that is all the Ramanujan-sum machinery ever needs: norms are multiplicative
over the factorization, divisibility / gcd / lcm are componentwise on
exponents, and the ideal Moebius function is

    mu(I) = 0          if some P^2 | I,
    mu(I) = (-1)^r     if I is a product of r distinct prime ideals.

The field Ramanujan sum is

    c_J(I) = sum_{M | I, M | J} N(M) mu(J/M)

and its sum over all I of norm <= Y collapses through the divisor structure:

    sum_{N(I)<=Y} c_J(I) = sum_{M | J} N(M) mu(J/M) A_K(Y / N(M)),

which ties the ideal level to the sieved prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import ArithTables, partial_A
from .fieldspec import FieldSpec, primes_upto, splitting_type

__all__ = [
    "PrimeIdealLabel",
    "FactoredIdeal",
    "IdealError",
    "labels_above",
    "enumerate_ideals",
    "ideal_gcd",
    "ideal_mul",
    "ideal_divide",
    "ideal_mobius",
    "ramanujan_ideal",
    "sum_cJ_over_I",
    "random_factored_ideal",
]

_NORM_LIMIT = 2**63 - 1


class IdealError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class PrimeIdealLabel:
    """One prime ideal above p, identified positionally.

    index is 0-based among the primes above p, ordered by residue degree f,
    then ramification exponent e (a fixed arbitrary tie-break), so labels are
    stable across runs.
    """

    p: int
    index: int
    f: int
    e: int

    @property
    def norm(self) -> int:
        return self.p**self.f

    def __str__(self):
        return f"P({self.p},{self.index};f={self.f},e={self.e})"


@lru_cache(maxsize=None)
def labels_above(field: FieldSpec, p: int) -> tuple:
    # components are sorted by (f, e), which fixes the index assignment
    comps = splitting_type(field, p).components
    return tuple(PrimeIdealLabel(p=p, index=i, f=f, e=e) for i, (f, e) in enumerate(comps))


@lru_cache(maxsize=None)
def _labels_upto(field: FieldSpec, B: int) -> tuple:
    """Labels of all prime ideals of norm <= B, from the scalar splitting
    path, so the enumeration histogram checks the sieves' bulk codes."""
    return tuple(lab for p in primes_upto(B).tolist() for lab in labels_above(field, p) if lab.norm <= B)


@dataclass(frozen=True)
class FactoredIdeal:
    """Integral ideal as a sorted tuple of (PrimeIdealLabel, exponent >= 1)."""

    factors: tuple = ()

    def __post_init__(self):
        facs = tuple(sorted((lab, int(e)) for lab, e in self.factors))
        labs = [lab for lab, _ in facs]
        if len(set(labs)) != len(labs):
            raise IdealError("repeated prime ideal label in factorization")
        if any(e < 1 for _, e in facs):
            raise IdealError("exponents must be >= 1")
        object.__setattr__(self, "factors", facs)
        n = 1
        for lab, e in facs:
            n *= lab.norm**e
            if n > _NORM_LIMIT:
                raise IdealError("ideal norm exceeds 64 bits")
        object.__setattr__(self, "_norm", n)

    @classmethod
    def _trusted(cls, factors: tuple, norm: int) -> FactoredIdeal:
        """The ideal with these factors and norm, unchecked, for
        enumerate_ideals alone: it builds its factors sorted by label, with
        distinct labels and exponents >= 1, and knows their norm."""
        I = object.__new__(cls)
        object.__setattr__(I, "factors", factors)
        object.__setattr__(I, "_norm", norm)
        return I

    @property
    def norm(self) -> int:
        return self._norm

    def __str__(self):
        """Deterministic factorization string "p^e(f)*..."."""
        if not self.factors:
            return "(1)"
        parts = []
        for lab, e in self.factors:
            tick = "'" * lab.index
            parts.append(f"{lab.p}{tick}^{e}(f{lab.f})")
        return "*".join(parts)


UNIT_IDEAL = FactoredIdeal()


def ideal_gcd(I: FactoredIdeal, J: FactoredIdeal) -> FactoredIdeal:
    ej = dict(J.factors)
    return FactoredIdeal(tuple((lab, min(e, ej[lab])) for lab, e in I.factors if lab in ej))


def ideal_mul(I: FactoredIdeal, J: FactoredIdeal) -> FactoredIdeal:
    acc = dict(I.factors)
    for lab, e in J.factors:
        acc[lab] = acc.get(lab, 0) + e
    return FactoredIdeal(tuple(acc.items()))


def ideal_divide(J: FactoredIdeal, M: FactoredIdeal) -> FactoredIdeal:
    """J / M for M | J (componentwise); raises if M does not divide J."""
    acc = dict(J.factors)
    for lab, e in M.factors:
        have = acc.get(lab, 0)
        if have < e:
            raise IdealError(f"{M} does not divide {J} at {lab}")
        acc[lab] = have - e
    return FactoredIdeal(tuple((lab, e) for lab, e in acc.items() if e))


def ideal_mobius(I: FactoredIdeal) -> int:
    if any(e >= 2 for _, e in I.factors):
        return 0
    return -1 if len(I.factors) % 2 else 1


def _mobius_support(J: FactoredIdeal, I: FactoredIdeal | None = None) -> list:
    """(N(M), mu(J/M)) over the divisors M of J with mu(J/M) != 0, and M | I
    when I is given.  At each P^a || J such an M has exponent a (local Moebius
    factor 1) or a - 1 (factor -1), and M | I keeps those <= v_P(I)."""
    vI = None if I is None else dict(I.factors)
    terms = [(1, 1)]
    for lab, a in J.factors:
        v = a if vI is None else vI.get(lab, 0)
        if v < a - 1:
            return []
        low = lab.norm ** (a - 1)
        local = ((low, -1), (low * lab.norm, 1)) if v >= a else ((low, -1),)
        terms = [(n * m, s * t) for n, s in terms for m, t in local]
    return terms


def ramanujan_ideal(field: FieldSpec, J: FactoredIdeal, I: FactoredIdeal) -> int:
    """c_J(I) = sum over M | gcd(I, J) of N(M) mu(J/M), exact, over the M with mu(J/M) != 0."""
    _check_field(field, J)
    _check_field(field, I)
    return sum(n * s for n, s in _mobius_support(J, I))


def sum_cJ_over_I(tables: ArithTables, J: FactoredIdeal, Y) -> int:
    """sum_{N(I) <= Y} c_J(I) via the divisor collapse to A_K, over the
    M | J with mu(J/M) != 0; the tables must reach A_K(Y)."""
    _check_field(tables.field, J)
    if Y < 1:
        return 0
    top = int(Y // 1)
    if top > tables.N:
        raise IdealError(f"tables too short: need A_K({top}) but N={tables.N}")
    return sum(n * s * partial_A(tables, int(Y // n)) for n, s in _mobius_support(J))


def _check_field(field: FieldSpec, I: FactoredIdeal) -> None:
    for lab, _ in I.factors:
        if lab not in labels_above(field, lab.p):
            raise IdealError(f"label {lab} does not belong to field {field.name}")


# ----------------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------------

ENUM_BUDGET = 10**6


def enumerate_ideals(field: FieldSpec, B: int):
    """All integral ideals of norm <= B, each exactly once, sorted by norm;
    the sort is stable, so ideals of equal norm keep the depth-first label
    order of `extend`.  The histogram by norm must reproduce the sieved a_K
    table entrywise; that equivalence is the module's master test."""
    if not 1 <= B <= ENUM_BUDGET:
        raise IdealError(f"B={B} outside 1..{ENUM_BUDGET}")
    all_labels = _labels_upto(field, B)
    out = []

    # labels ascend, so each `current` is sorted with distinct labels
    def extend(i, current, norm):
        out.append(FactoredIdeal._trusted(tuple(current), norm))
        for j in range(i, len(all_labels)):
            lab = all_labels[j]
            if lab.p * norm > B:
                break  # labels ascend in p, so nothing later fits either
            q = lab.norm
            if norm * q > B:
                continue  # a degree-2 label may fail while later p^1 labels fit
            e = 1
            n2 = norm * q
            while n2 <= B:
                current.append((lab, e))
                extend(j + 1, current, n2)
                current.pop()
                e += 1
                n2 *= q
    extend(0, [], 1)
    out.sort(key=lambda I: I.norm)
    return out


def random_factored_ideal(field: FieldSpec, rng, norm_bound: int) -> FactoredIdeal:
    """Seeded random ideal with norm <= norm_bound (for property checks)."""
    if norm_bound < 1:
        raise IdealError("norm_bound must be >= 1")
    pool = _labels_upto(field, norm_bound)
    if not pool:  # no prime ideal has norm <= norm_bound
        return UNIT_IDEAL
    current = {}
    norm = 1
    for _ in range(rng.randrange(0, 6)):
        lab = pool[rng.randrange(len(pool))]
        if norm * lab.norm > norm_bound:
            continue
        norm *= lab.norm
        current[lab] = current.get(lab, 0) + 1
    return FactoredIdeal(tuple(current.items()))
