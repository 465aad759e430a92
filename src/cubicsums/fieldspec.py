"""Cubic number fields and the splitting of rational primes.

A field K is described by a monic integer cubic

    f(x) = x^3 + c2 x^2 + c1 x + c0.

For a prime p that does not divide the index [O_K : Z[theta]] the shape of
p O_K = prod P_i^{e_i} is read off the factorization of f mod p: each
irreducible factor of degree f_i with multiplicity e_i gives one prime ideal
P_i of norm p^{f_i}, and sum e_i f_i = 3.  Everything downstream (ideal
counts, zeta coefficients) only needs these shapes.

We restrict to the monogenic case.  Primes that do divide the index cannot
be factored through f mod p (Dedekind), so they must be declared explicitly
via ``index_divisor_overrides``; the constructor runs Dedekind's p-maximality
criterion at every candidate prime and refuses to build a field whose index
divisors are not covered, that overrides a p-maximal prime, whose disc
puts a p-maximal prime in the index or leaves an overridden prime out of it,
or whose override contradicts disc.  A shape is its int code: SHAPES[code]
lists its (f, e) components.

The degenerate ``rationals`` field (degree 1, one prime of norm p above
every p) is included as a test hook: on it every ideal-level operation must
collapse to its classical integer counterpart.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "FieldSpec",
    "SHAPES",
    "FieldConfigError",
    "discriminant_monic_cubic",
    "factorize",
    "squarefree_decompose",
    "parse_field_spec",
    "format_field_spec",
    "get_preset",
    "load_field",
    "preset_names",
    "splitting_type",
    "splitting_codes",
    "local_ideal_counts",
    "dedekind_p_maximal",
    "primes_upto",
    "T_SPLIT",
    "T_PARTIAL",
    "T_INERT",
    "T_RAM_112",
    "T_RAM_13",
    "T_RATIONAL",
]


class FieldConfigError(ValueError):
    """Raised for invalid field configurations (reducible poly, zero disc,
    missing index-divisor override, malformed config text)."""


# ----------------------------------------------------------------------------
# splitting-shape codes shared with the sieves
# ----------------------------------------------------------------------------

T_SPLIT = 0      # p = P1 P1' P1''
T_PARTIAL = 1    # p = P1 P2
T_INERT = 2      # p = P3
T_RAM_112 = 3    # p = P1^2 P1'
T_RAM_13 = 4     # p = P1^3
T_RATIONAL = 5   # degree-1 hook: p = (p)


# the sorted (residue degree f, ramification exponent e) components of each
# code's shape, indexed by the code
SHAPES = (
    ((1, 1), (1, 1), (1, 1)),   # T_SPLIT
    ((1, 1), (2, 1)),           # T_PARTIAL
    ((3, 1),),                  # T_INERT
    ((1, 1), (1, 2)),           # T_RAM_112
    ((1, 3),),                  # T_RAM_13
    ((1, 1),),                  # T_RATIONAL
)


def _shape_text(code: int) -> str:
    """A code's shape as a field document writes it, e.g. 1:1+2:1."""
    return "+".join(f"{f}:{e}" for f, e in SHAPES[code])


# ----------------------------------------------------------------------------
# exact integer polynomial helpers
# ----------------------------------------------------------------------------

def discriminant_monic_cubic(c0: int, c1: int, c2: int) -> int:
    """disc(x^3 + c2 x^2 + c1 x + c0), in closed form."""
    return c2 * c2 * c1 * c1 - 4 * c1**3 - 4 * c2**3 * c0 - 27 * c0 * c0 + 18 * c2 * c1 * c0


# trial division runs to this bound; every n <= _TRIAL_LIMIT^2 is factored by it alone
_TRIAL_LIMIT = 1000
# Pollard-rho steps one factor may take (about 2 s): a prime factor p needs
# about sqrt(p) steps, so factors of up to 12 digits are found
_RHO_STEPS = 1 << 20


def factorize(n: int) -> dict:
    """Prime factorization {p: e} with p ascending: trial division by p up to
    _TRIAL_LIMIT, then a cofactor left over is split by Miller-Rabin and
    Pollard's rho, so coefficients far beyond desk scale still factor."""
    if n < 1:
        raise FieldConfigError("factorize needs n >= 1")
    out = {}
    m = n
    p = 2
    while p * p <= m and p <= _TRIAL_LIMIT:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1 and p * p > m:  # m is prime
        out[m] = out.get(m, 0) + 1
    elif m > 1:  # no prime factor of m is up to _TRIAL_LIMIT
        for q in sorted(_large_prime_factors(m)):
            out[q] = out.get(q, 0) + 1
    return out


def _large_prime_factors(m: int) -> list:
    """The prime factors of m, with multiplicity, when m has none up to
    _TRIAL_LIMIT (so m is odd).  A square goes through its root: a poly disc
    is index^2 times the field disc, and rho needs about p^(1/2) steps to
    find the p of a p^2."""
    if _is_prime(m):
        return [m]
    r = math.isqrt(m)
    if r * r == m:
        return 2 * _large_prime_factors(r)
    d = _pollard_rho(m)
    return _large_prime_factors(d) + _large_prime_factors(m // d)


def _pollard_rho(n: int) -> int:
    """A proper factor of the odd composite n by Pollard's rho (Floyd's cycle
    finding), trying x^2 + c for c = 1, 2, ... until one gives a factor, in
    at most _RHO_STEPS steps over all c."""
    x = y = 2
    c = 1
    for _ in range(_RHO_STEPS):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        g = math.gcd(x - y, n)
        if g == n:  # x^2 + c cycled with no factor: restart with the next c
            x = y = 2
            c += 1
        elif g != 1:
            return g
    raise FieldConfigError(f"cannot factor {n}: no factor found in {_RHO_STEPS} Pollard-rho steps")


def squarefree_decompose(D: int) -> tuple:
    """Write D = d * f^2 with d squarefree; returns (d, f), f > 0."""
    if D == 0:
        raise FieldConfigError("zero has no squarefree decomposition")
    d, f = (1 if D > 0 else -1), 1
    for p, k in factorize(abs(D)).items():
        f *= p ** (k // 2)
        if k % 2:
            d *= p
    return d, f


def _integer_roots(c0: int, c1: int, c2: int):
    """Integer roots of the monic cubic (enough to decide irreducibility):
    the divisors of c0 and their negatives that are roots."""
    if c0 == 0:
        return [0]
    divisors = [1]
    for p, e in factorize(abs(c0)).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return sorted(r for d in divisors for r in (d, -d) if ((r + c2) * r + c1) * r + c0 == 0)


# ----------------------------------------------------------------------------
# roots of the cubic mod p: root counts for one prime, Cardano's cube test in bulk
# ----------------------------------------------------------------------------

def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array: numpy Eratosthenes over the odd
    numbers alone (entry i stands for 2i + 1).  Entry 0 stands for 1 and is
    kept, so that the one array the primes need turns 1 into 2 in place."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False  # the odd multiples p^2, p^2 + 2p, ...
    ps = np.flatnonzero(odd).astype(np.int64, copy=False)
    ps *= 2
    ps += 1
    ps[0] = 2
    return ps


def roots_mod_p(c0: int, c1: int, c2: int, p: int):
    """All roots of the cubic mod p by exhaustive scan, O(p): Dedekind's test
    at p <= 3, and otherwise a test oracle."""
    xs = np.arange(p, dtype=np.int64)
    vals = (xs * xs % p * xs + c2 % p * (xs * xs % p) + c1 % p * xs + c0 % p) % p
    return [int(r) for r in np.nonzero(vals == 0)[0]]


def _count_roots_py(c0: int, c1: int, c2: int, p: int) -> int:
    """Distinct roots of the cubic mod p via deg gcd(x^p - x, f), python ints."""
    r2, r1, r0 = (-c2) % p, (-c1) % p, (-c0) % p
    t2, t1, t0 = (r2 * r2 + r1) % p, (r2 * r1 + r0) % p, (r2 * r0) % p
    a, b, c = 0, 1, 0  # state = x
    for bit in bin(p)[3:]:
        s4, s3 = a * a % p, 2 * a * b % p
        s2, s1, s0 = (2 * a * c + b * b) % p, 2 * b * c % p, c * c % p
        a = (s2 + s3 * r2 + s4 * t2) % p
        b = (s1 + s3 * r1 + s4 * t1) % p
        c = (s0 + s3 * r0 + s4 * t0) % p
        if bit == "1":
            a, b, c = (b + a * r2) % p, (c + a * r1) % p, a * r0 % p
    b = (b - 1) % p  # x^p - x reduced mod f
    return _euclid_root_count(a, b, c, c0, c1, c2, p)


def _euclid_root_count(a, b, c, c0, c1, c2, p):
    # deg gcd(f, g) for g = a x^2 + b x + c, all arithmetic mod p.
    if a == 0 and b == 0:
        return 3 if c == 0 else 0
    if a == 0:
        # linear g: one shared root iff b^3 f(-c/b) = 0
        cc = (-c) % p
        e = (cc * cc % p * cc + c2 * cc % p * cc % p * b + c1 * cc % p * b % p * b + c0 * b % p * b % p * b) % p
        return 1 if e == 0 else 0
    # quadratic g: pseudo-remainder of f, then one more step
    d2 = (a * c2 - b) % p
    d1 = (a * c1 - c) % p
    d0 = a * c0 % p
    r1_ = (a * d1 - d2 * b) % p
    r0_ = (a * d0 - d2 * c) % p
    if r1_ == 0 and r0_ == 0:
        return 2
    if r1_ == 0:
        return 0
    q = (a * r0_ % p * r0_ - b * r0_ % p * r1_ + c * r1_ % p * r1_) % p
    return 1 if q == 0 else 0


_LADDER_P_BOUND = 1 << 30  # _power_vector sums residue products exactly only below this
_LADDER_BLOCK = 1 << 14  # primes per splitting_codes block: its temporaries stay in a core's L2 cache


def _residues(x: int, ps: np.ndarray) -> np.ndarray:
    """x mod p for every p in ps (int64, < 2^32), exact for any Python int x.

    Horner over the 30-bit limbs of |x|: each step forms r 2^30 + limb with
    r < p, below 2^62, so no int64 conversion of x can overflow.
    """
    mag = abs(x)
    r = np.zeros_like(ps)
    for shift in range(30 * ((mag.bit_length() - 1) // 30), -1, -30):
        r = ((r << 30) + ((mag >> shift) & (2**30 - 1))) % ps
    return r if x >= 0 else -r % ps


def _check_ladder_domain(ps: np.ndarray) -> None:
    if int(ps.max(initial=0)) >= _LADDER_P_BOUND:
        raise FieldConfigError(f"prime {int(ps.max())} is outside the power ladder's range p < 2^30")


def _power_mod(z, e, ps) -> np.ndarray:
    """z^e mod p in [0, p) for every prime p in ps (int64, p < 2^30).

    z is a residue mod p (a scalar or an array aligned with ps) and e an
    array of exponents >= 0.  The one-component form of _power_vector's
    ladder, for the questions whose answer lives in F_p: each bit from the
    top of max(e) squares W and multiplies it by z where its bit is 1 (a
    0/1 blend, no branch).
    """
    _check_ladder_domain(ps)
    w = np.ones_like(ps)
    for i in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        w = w * w % ps
        w += ((e >> i) & 1) * (w * z % ps - w)
    return w


def _power_vector(z0, z1, d, e, ps) -> tuple:
    """(z0 + z1 R)^e in F_p[R]/(R^2 - d) for every prime p in ps (int64,
    p < 2^30), as the pair (w0, w1) of its coefficients in [0, p).

    z0, z1 and d are residues mod p (scalars or arrays aligned with ps) and
    e is an array of exponents >= 0.  Square-and-multiply from the top bit
    of max(e), starting at W = 1: the leading zero bits of a shorter
    exponent leave W unchanged.  Each bit squares W = w0 + w1 R into
    (w0^2 + d w1^2, 2 w0 w1) and multiplies by z where its bit is 1 (a 0/1
    blend, no branch).  Each product of residues is below 2^60 and each sum
    of two below 2^61, so larger primes are refused.  It serves only the
    Cardano values with an R-part (_cardano_splits); a power in F_p goes
    through the cheaper _power_mod.
    """
    _check_ladder_domain(ps)
    dz1 = d * z1 % ps
    w0, w1 = np.ones_like(ps), np.zeros_like(ps)
    for i in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
        s0 = (w0 * w0 + d * (w1 * w1 % ps)) % ps
        s1 = 2 * w0 * w1 % ps
        k = (e >> i) & 1
        w0 = s0 + k * ((s0 * z0 + s1 * dz1) % ps - s0)
        w1 = s1 + k * ((s0 * z1 + s1 * z0) % ps - s1)
    return w0, w1


def _cardano_invariants(c0: int, c1: int, c2: int) -> tuple:
    """(P3, Q27, D') of the cubic: x = y - c2/3 turns it into y^3 + P y + Q
    with 3P = P3 and 27Q = Q27, and D' = Q27^2 + 4 P3^3 = -27 disc."""
    P3 = 3 * c1 - c2 * c2
    Q27 = 2 * c2**3 - 9 * c1 * c2 + 27 * c0
    return P3, Q27, Q27 * Q27 + 4 * P3**3


def _cardano_splits(c0: int, c1: int, c2: int, ps: np.ndarray) -> np.ndarray:
    """Whether the cubic has three roots mod p, for every prime p in ps with
    p > 3, p not dividing disc and (disc/p) = +1 (int64, p < 2^30).

    Cardano's cube test in A = F_p[R]/(R^2 - D') (_cardano_invariants):
    the roots are u - P/(3u) for the cube roots u of Cardano's value
    z = (-Q27 + R)/54, and Z = 6^3 z = -4 Q27 + 4 R is a cube exactly when
    z is (Z = -Q27 where p | P3: then f = y^3 + Q and the other value is 0).
    With e = (p + 1) // 3 (so (p - 1)/3 when p = 1 mod 3) and W = Z^e, p
    splits exactly when W has R-part 0 and (p = 2 mod 3 or W = 1):

    - p = 1 mod 3: (D'/p) = (-3/p)(disc/p) = 1, so A = F_p x F_p and
      Z = (z1, z2) with z1 z2 = -64 P3^3 a nonzero cube.  So z1 and z2 are
      cubes together; if z1 = u^3 in F_p all three roots are in F_p (the
      cube roots of unity are), else Frobenius moves u, and every root,
      by a cube root of unity.  W has R-part 0 when z1^e = z2^e, so
      z1^(2e) = 1 and z1^e = 1: W = 1 says exactly that z1 is a cube.
    - p = 2 mod 3: A = F_p^2, and z is a cube there iff W^(p-1) = 1, i.e.
      W in F_p.  Then the roots lie in F_p^2, so Frobenius has order <= 2;
      it is even ((disc/p) = 1), so it is trivial.  If z is no cube, the
      resolvent u is not in F_p^2 and the roots cannot all be in F_p.

    Each prime's W is taken in the smallest ring that holds it.  Where
    p | P3, Z = -Q27 lies in F_p, so W has R-part 0: p = 2 mod 3 splits
    with no ladder, and p = 1 mod 3 asks W = 1 of _power_mod.  (On the
    domain above such a p is 1 mod 3: disc = -Q27^2/27 mod p, so
    (-3/p) = (disc/p) = 1.)  Only the other primes go to _power_vector,
    and it is not called when none are left (on a pure cubic x^3 - m,
    P3 = 0, so none ever are).
    """
    _check_ladder_domain(ps)
    P3, Q27, Dp = _cardano_invariants(c0, c1, c2)
    q, flat, e = _residues(-Q27, ps), _residues(P3, ps) == 0, (ps + 1) // 3
    one_mod_3 = ps % 3 == 1
    splits = flat & ~one_mod_3
    sel = flat & one_mod_3
    splits[sel] = _power_mod(q[sel], e[sel], ps[sel]) == 1
    sel = ~flat
    if sel.any():
        r = ps[sel]
        w0, w1 = _power_vector(4 * q[sel] % r, 4, _residues(Dp, r), e[sel], r)
        splits[sel] = (w1 == 0) & (~one_mod_3[sel] | (w0 == 1))
    return splits


# ----------------------------------------------------------------------------
# Dedekind's p-maximality criterion (monic cubic, any p)
# ----------------------------------------------------------------------------

def dedekind_p_maximal(c0: int, c1: int, c2: int, p: int) -> bool:
    """True iff p does not divide the index of Z[theta] in the maximal order.

    Dedekind's criterion for a monic cubic f: a repeated factor of f mod p
    is linear (its square has degree <= 3), and the order is p-maximal iff
    p^2 does not divide f(r) for the repeated root r of f mod p.  Any lift
    of r gives the same verdict, since f(r + p s) = f(r) mod p^2 when
    p | f'(r).  For p > 3 the root needs no search: x = y + s with
    s = -c2/3 turns f into y^3 + P y + Q, P = f'(s), Q = f(s), whose only
    candidate for a repeated root is y = 0 if p | P and y = -3Q/(2P)
    otherwise.  A candidate that is no root fails p^2 | f(r), so p not
    dividing disc f gives True.  For p <= 3 the residues are scanned.
    """
    if p <= 3:
        candidates = roots_mod_p(c0, c1, c2, p)
    else:
        s = -c2 * pow(3, -1, p) % p
        P = (3 * s * s + 2 * c2 * s + c1) % p
        Q = ((s + c2) * s + c1) * s + c0
        candidates = [s if P == 0 else (s - 3 * Q * pow(2 * P, -1, p)) % p]
    for r in candidates:
        if (3 * r * r + 2 * c2 * r + c1) % p == 0 and (((r + c2) * r + c1) * r + c0) % (p * p) == 0:
            return False
    return True


# ----------------------------------------------------------------------------
# FieldSpec
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of a cubic field (or the degree-1 test hook).

    Only what defines the field is stored; its degree and discriminant data
    are derived from poly and disc, so two equal specs cannot disagree on them."""

    name: str
    poly: tuple | None          # (c0, c1, c2) of x^3 + c2 x^2 + c1 x + c0; None for "rationals"
    disc: int                   # discriminant used for d, f, normality
    index_divisor_overrides: dict = dataclass_field(default_factory=dict)  # {p: shape code}

    def __post_init__(self):
        ov = {}
        for p, code in dict(self.index_divisor_overrides).items():
            if not _is_prime(int(p)):
                raise FieldConfigError(f"override at p={p}: {p} is not prime")
            if code not in range(T_RATIONAL):
                raise FieldConfigError(f"override at p={p}: {code!r} is no cubic shape code, want 0..{T_RATIONAL - 1}")
            ov[int(p)] = int(code)
        object.__setattr__(self, "index_divisor_overrides", ov)
        if self.poly is None:
            if self.disc != 1 or ov:
                raise FieldConfigError("the rationals hook has disc 1 and no index-divisor overrides")
        else:
            _check_cubic(*self.poly, self.disc, ov)
        # the field's mathematical identity; the name labels it and is not part of it
        object.__setattr__(self, "_key", (self.poly, self.disc, self.degree, tuple(sorted(ov.items()))))

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key == other._key

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else 3

    @cached_property
    def poly_disc(self) -> int:
        """Discriminant of the defining polynomial (1 for the rationals hook)."""
        return 1 if self.poly is None else discriminant_monic_cubic(*self.poly)

    @cached_property
    def disc_sqfree_part(self) -> int:
        """d with disc = d * conductor_f^2, d squarefree."""
        return squarefree_decompose(self.disc)[0]

    @property
    def conductor_f(self) -> int:
        return math.isqrt(self.disc // self.disc_sqfree_part)

    @property
    def normal(self) -> bool:
        """A cubic field is normal iff its discriminant is a square."""
        return self.disc_sqfree_part == 1

    @property
    def complex_places(self) -> int:
        """r2 in the signature (r1, r2); a cubic has one complex place iff
        its discriminant is negative (the rationals hook has disc 1)."""
        return int(self.disc < 0)


def _check_cubic(c0, c1, c2, disc, ov):
    """Refuse a cubic field that poly, disc and the overrides ov cannot define."""
    roots = _integer_roots(c0, c1, c2)
    if roots:
        raise FieldConfigError(f"polynomial x^3+{c2}x^2+{c1}x+{c0} is reducible (root {roots[0]})")
    pdisc = discriminant_monic_cubic(c0, c1, c2)
    if pdisc == 0:
        raise FieldConfigError("polynomial has zero discriminant")
    if disc == 0 or pdisc % disc != 0:
        raise FieldConfigError(f"supplied disc {disc} does not divide the polynomial discriminant {pdisc}")
    q = pdisc // disc
    index = math.isqrt(abs(q))
    if q < 0 or index * index != q:
        raise FieldConfigError(
            f"poly disc / field disc = {q} is not a square; disc {disc} cannot be the field discriminant"
        )
    # poly disc = index^2 * disc, so an index divisor p has p^2 | poly disc.  At each
    # such p and each override prime, "p has an override", "the order is not
    # p-maximal" and "p divides the index" hold together or fail together
    for p in sorted(set(ov) | {p for p, k in factorize(abs(pdisc)).items() if k >= 2}):
        maximal = dedekind_p_maximal(c0, c1, c2, p)
        if (p in ov) == maximal:
            raise FieldConfigError(
                f"override at p={p}: the generated order is {p}-maximal, so {p} is no index divisor" if maximal
                else f"prime {p} divides the index of the generated order; "
                f"an index_divisor_override for p={p} is required")
        if (index % p == 0) == maximal:
            raise FieldConfigError(
                f"disc {disc} makes {p} divide the index {index} of the generated order, but the order is {p}-maximal"
                if maximal else f"override at p={p}: disc {disc} leaves {p} out of the index {index} of the generated "
                f"order, which is not {p}-maximal; state the field's disc")
    # an override must agree with disc: p ramifies iff p | disc (Dedekind), and
    # an odd unramified p is P1 P2 iff (disc/p) = -1 (Stickelberger)
    for p, code in sorted(ov.items()):
        ramified = disc % p == 0
        if ramified != (code in (T_RAM_112, T_RAM_13)):
            raise FieldConfigError(f"override at p={p}: {p} {'divides' if ramified else 'does not divide'} disc "
                                   f"{disc}, so {_shape_text(code)} cannot be its shape")
        minus = pow(disc, p // 2, p) == p - 1  # (disc/p) = -1, by Euler's criterion at odd p
        if p > 2 and not ramified and minus != (code == T_PARTIAL):
            raise FieldConfigError(f"override at p={p}: ({disc}/{p}) = {-1 if minus else 1}, "
                                   f"so {_shape_text(code)} cannot be its shape (Stickelberger)")
        # an odd ramified p is P1^2 P2 iff p divides disc once: tame e = 2 puts
        # p^1 in disc, and P1^3 puts p^2 (p > 3, tame) or p^3 to p^5 (p = 3)
        once = disc // p % p != 0
        if p > 2 and ramified and once != (code == T_RAM_112):
            raise FieldConfigError(f"override at p={p}: {p} divides disc {disc} {'once' if once else 'more than once'}"
                                   f", so {_shape_text(code)} cannot be its shape")


# the preset fields by name, each given by its field document; the first is
# the command line's default field
_PRESETS = {
    "cubic-nonnormal-2": "poly = -2, 0, 0",  # x^3 - 2, disc -108
    "cubic-cyclic-7": "poly = -1, -2, 1",  # x^3 + x^2 - 2x - 1, disc 49
    "rationals": "",
}


@lru_cache(maxsize=None)
def get_preset(name: str) -> FieldSpec:
    if name not in _PRESETS:
        raise FieldConfigError(f"unknown preset {name!r}; known: {', '.join(_PRESETS)}")
    return parse_field_spec(f"name = {name}\n{_PRESETS[name]}")


def preset_names():
    return tuple(_PRESETS)


_OVERRIDE_RE = re.compile(r"^override\.(\d+)$")


def _config_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FieldConfigError(f"{what} must be an integer, got {text!r}") from None


def parse_field_spec(text: str) -> FieldSpec:
    """Parse a plain key=value field document.

    Keys: name, poly (three ints c0,c1,c2), disc (the poly disc when left
    out, so a document with overrides, whose primes divide the index, must
    state it), optional override.P entries with components written 'f:e'
    joined by '+' in any order (e.g. ``override.2 = 1:1+1:1+1:1`` for a
    totally split prime), each one of the five cubic shapes of SHAPES.  A key
    stated twice, or two overrides of one prime, is refused.
    """
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FieldConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        k, v = (t.strip() for t in line.split("=", 1))
        m = _OVERRIDE_RE.match(k)
        k = f"override.{int(m.group(1))}" if m else k  # override.03 is override.3
        if k in kv:
            raise FieldConfigError(f"line {lineno}: {k} is stated twice")
        kv[k] = v
    name = kv.pop("name", "unnamed-field")
    if name == "rationals" and not kv:  # the hook's document is its name alone
        return FieldSpec(name, None, 1)
    if "poly" not in kv:
        raise FieldConfigError("missing poly = c0, c1, c2")
    coeffs = [_config_int(t, "poly coefficient") for t in re.split(r"[,\s]+", kv.pop("poly")) if t]
    if len(coeffs) != 3:
        raise FieldConfigError("poly needs exactly three integers c0, c1, c2")
    disc = _config_int(kv.pop("disc"), "disc") if "disc" in kv else discriminant_monic_cubic(*coeffs)
    overrides = {}
    for k in list(kv):
        m = _OVERRIDE_RE.match(k)
        if not m:
            raise FieldConfigError(f"unknown key {k!r}")
        p, value, comps = int(m.group(1)), kv.pop(k), []
        for tok in value.split("+"):
            fe = tok.strip().split(":")
            if len(fe) != 2:
                raise FieldConfigError(f"override component {tok!r} is not f:e")
            comps.append(tuple(_config_int(x, f"override.{p} component") for x in fe))
        shape = tuple(sorted(comps))
        if shape not in SHAPES[:T_RATIONAL]:
            raise FieldConfigError(f"override.{p} = {value} is no cubic splitting shape; "
                                   f"want one of {', '.join(map(_shape_text, range(T_RATIONAL)))}")
        overrides[p] = SHAPES.index(shape)
    return FieldSpec(name, tuple(coeffs), disc, overrides)


def format_field_spec(field: FieldSpec) -> str:
    """The parse_field_spec document of a field: parsing it gives back an
    equal FieldSpec with the same name."""
    if field.degree == 1:
        return "name = rationals\n"
    lines = [f"name = {field.name}", "poly = " + ", ".join(map(str, field.poly)), f"disc = {field.disc}"]
    for p, code in sorted(field.index_divisor_overrides.items()):
        lines.append(f"override.{p} = {_shape_text(code)}")
    return "\n".join(lines) + "\n"


def load_field(spec: str) -> FieldSpec:
    """Resolve a preset name, a config file path, or inline config text."""
    if spec in preset_names():
        return get_preset(spec)
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return parse_field_spec(fh.read())
        except UnicodeDecodeError as exc:
            raise FieldConfigError(f"--field file {spec!r} is not UTF-8 text: {exc}") from None
    if "=" in spec:
        return parse_field_spec(spec)
    raise FieldConfigError(f"--field {spec!r} is neither a preset, a file, nor config text")


# ----------------------------------------------------------------------------
# splitting queries
# ----------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic for n < 3.3e24
_MR_FOUR_BASES_BOUND = 3_215_031_751  # the least strong pseudoprime to bases 2, 3, 5 and 7


def _is_prime(n: int) -> bool:
    """Miller-Rabin after trial division by its bases: bases 2, 3, 5, 7
    below _MR_FOUR_BASES_BOUND, where they are deterministic, and all
    twelve of _MR_BASES above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:4] if n < _MR_FOUR_BASES_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the code of a prime not dividing (False) or dividing (True) the poly disc,
# from the number of distinct roots of f mod p: an unramified cubic has 0, 1
# or 3 roots, a ramified one 2 (a double and a simple root) or 1 (a triple)
_CODE_BY_ROOTS = {(3, False): T_SPLIT, (1, False): T_PARTIAL, (0, False): T_INERT,
                  (2, True): T_RAM_112, (1, True): T_RAM_13}


def splitting_type(field: FieldSpec, p: int) -> int:
    """The code of the decomposition shape of the prime p in the field (exact,
    single prime); SHAPES[code] is the shape."""
    if not _is_prime(p):
        raise FieldConfigError(f"{p} is not prime")
    if field.degree == 1:
        return T_RATIONAL
    if p in field.index_divisor_overrides:
        return field.index_divisor_overrides[p]
    return _CODE_BY_ROOTS[_count_roots_py(*field.poly, p), field.poly_disc % p == 0]


def _per_class(values, ps: np.ndarray, m: int) -> np.ndarray:
    """values(rep) taken at one prime rep of each class of p mod m in ps,
    and spread back to every p in ps."""
    classes, cls = np.unique(ps % m, return_inverse=True)
    rep = np.empty(len(classes), dtype=np.int64)
    rep[cls] = ps
    return values(rep)[cls]


def splitting_codes(field: FieldSpec, N: int):
    """Splitting-shape codes for every prime p <= N.

    Returns (primes, codes) as aligned int64/int8 arrays.  This is the bulk
    path the sieves use; for a single prime use splitting_type.

    Stickelberger's theorem leaves one question per prime: for odd p not
    dividing the polynomial discriminant D, (D/p) = (-1)^(3 - r) with r the
    number of irreducible factors of f mod p.  So (D/p) = -1 means one root
    (P1 P2), and (D/p) = +1 means split or inert, split exactly when
    Cardano's value is a cube (_cardano_splits).  (D/p) is Euler's
    criterion D^((p-1)/2) mod p by _power_mod, taken once per residue
    class of p mod 4|D| (mod N + 1 when that is smaller: then every prime is
    a class of its own).  On a normal field of conductor f an unramified
    prime's code depends only on p mod f (the field is abelian, so class
    field theory makes Frobenius a function of p mod f), and the cube test
    runs once per class of p mod f (again mod N + 1 when smaller); on
    other fields it runs on every prime with (D/p) = +1.  The few primes
    left, p <= 3 (Cardano divides by 3), p | D and the override primes, go
    to splitting_type.

    Both steps run over blocks of _LADDER_BLOCK primes, each block with
    its own residue classes, so that apart from the primes and their codes
    no pi(N)-length array is ever held.
    """
    ps = primes_upto(N)
    codes = np.full(len(ps), T_RATIONAL if field.degree == 1 else T_PARTIAL, dtype=np.int8)
    if field.degree == 1:
        return ps, codes
    D, M = field.poly_disc, min(4 * abs(field.poly_disc), N + 1)
    F = min(field.conductor_f, N + 1) if field.normal else None
    overrides = list(field.index_divisor_overrides)

    def euler(rep):
        return _power_mod(_residues(D, rep), rep >> 1, rep)

    def cube_test(rep):
        return _cardano_splits(*field.poly, rep)

    for lo in range(0, len(ps), _LADDER_BLOCK):
        blk, out = ps[lo : lo + _LADDER_BLOCK], codes[lo : lo + _LADDER_BLOCK]
        scalar = (_residues(D, blk) == 0) | (blk <= 3) | np.isin(blk, overrides)
        # for odd p not dividing D, (D/p) depends only on p mod 4|D| (quadratic
        # reciprocity): one Euler test per residue class, at one of its primes
        plus = ~scalar & (_per_class(euler, blk, M) == 1)
        pp = blk[plus]
        out[plus] = np.where(cube_test(pp) if F is None else _per_class(cube_test, pp, F), T_SPLIT, T_INERT)
        for i in np.flatnonzero(scalar):
            out[i] = splitting_type(field, int(blk[i]))
    return ps, codes


# ----------------------------------------------------------------------------
# local ideal counts
# ----------------------------------------------------------------------------

def local_ideal_counts(f_shape, kmax: int):
    """Number of ideals of norm p^k above p, k = 0..kmax: the number of
    nonnegative solutions of sum f_i x_i = k for the residue degrees f_i."""
    out = [0] * (kmax + 1)
    out[0] = 1
    for f in f_shape:
        for k in range(f, kmax + 1):
            out[k] += out[k - f]
    return out
