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
divisors are not covered, or whose disc puts a p-maximal prime in the index.

The degenerate ``rationals`` field (degree 1, one prime of norm p above
every p) is included as a test hook: on it every ideal-level operation must
collapse to its classical integer counterpart.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "FieldSpec",
    "SplittingType",
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
    "local_aK",
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


@dataclass(frozen=True)
class SplittingType:
    """Multiset of (residue degree f, ramification exponent e) above a prime."""

    components: tuple  # tuple of (f, e), sorted

    def __post_init__(self):
        comps = tuple(sorted(tuple(c) for c in self.components))
        object.__setattr__(self, "components", comps)
        if not (1 <= len(comps) <= 3):
            raise FieldConfigError("splitting type needs 1..3 components")
        for f, e in comps:
            if f < 1 or e < 1:
                raise FieldConfigError("residue degrees and ramification exponents are >= 1")

    @property
    def degree(self) -> int:
        return sum(f * e for f, e in self.components)

    @property
    def f_shape(self) -> tuple:
        return tuple(sorted(f for f, _ in self.components))

    def n_degree_one(self) -> int:
        """Number of components with residue degree 1 (= distinct roots mod p)."""
        return sum(1 for f, _ in self.components if f == 1)

    @property
    def pattern(self) -> str:
        parts = []
        seen = {}
        for f, e in self.components:
            ticks = "'" * seen.get(f, 0)
            seen[f] = seen.get(f, 0) + 1
            parts.append(f"P{f}{ticks}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts)

    def __str__(self):
        return self.pattern


# the (f, e) components of each code's shape, indexed by the code
SHAPES = tuple(SplittingType(c) for c in (
    ((1, 1), (1, 1), (1, 1)),   # T_SPLIT
    ((1, 1), (2, 1)),           # T_PARTIAL
    ((3, 1),),                  # T_INERT
    ((1, 1), (1, 2)),           # T_RAM_112
    ((1, 3),),                  # T_RAM_13
    ((1, 1),),                  # T_RATIONAL
))


# ----------------------------------------------------------------------------
# exact integer polynomial helpers
# ----------------------------------------------------------------------------

def discriminant_monic_cubic(c0: int, c1: int, c2: int) -> int:
    """disc(x^3 + c2 x^2 + c1 x + c0), in closed form."""
    return c2 * c2 * c1 * c1 - 4 * c1**3 - 4 * c2**3 * c0 - 27 * c0 * c0 + 18 * c2 * c1 * c0


def factorize(n: int) -> dict:
    """Prime factorization {p: e} by trial division; fine for the desk-scale
    inputs (discriminants, conductors, Ramanujan-sum arguments)."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def squarefree_decompose(D: int) -> tuple:
    """Write D = d * f^2 with d squarefree; returns (d, f), f > 0."""
    if D == 0:
        raise ValueError("zero has no squarefree decomposition")
    d, f = (1 if D > 0 else -1), 1
    for p, k in factorize(abs(D)).items():
        f *= p ** (k // 2)
        if k % 2:
            d *= p
    return d, f


def _integer_roots(c0: int, c1: int, c2: int):
    """Integer roots of the monic cubic (enough to decide irreducibility)."""
    if c0 == 0:
        return [0]
    roots = []
    a = abs(c0)
    for r in range(1, math.isqrt(a) + 1):
        if a % r:
            continue
        for cand in {r, -r, a // r, -(a // r)}:
            if ((cand + c2) * cand + c1) * cand + c0 == 0:
                roots.append(cand)
    return sorted(set(roots))


# ----------------------------------------------------------------------------
# roots of the cubic mod p: root counts for one prime, Cardano's cube test in bulk
# ----------------------------------------------------------------------------

def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (simple numpy Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def roots_mod_p(c0: int, c1: int, c2: int, p: int):
    """All roots of the cubic mod p by exhaustive scan, O(p): Dedekind's test
    at p <= 3, and otherwise a test oracle."""
    xs = np.arange(p, dtype=np.int64)
    vals = (xs * xs % p * xs + c2 % p * (xs * xs % p) + c1 % p * xs + c0) % p
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


_LADDER_P_BOUND = 1 << 30  # _cardano_splits sums residue products exactly only below this


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

    Square-and-multiply over the bits of e, vectorized over primes whose e
    has equal bit length.  Each bit squares W = w0 + w1 R into
    (w0^2 + D' w1^2, 2 w0 w1) and multiplies by Z where its bit is 1 (a 0/1
    blend, no branch).  Each product of residues is below 2^60 and each sum
    of two below 2^61, so each bit costs 5 reductions; larger primes are
    refused.
    """
    ps = np.asarray(ps, dtype=np.int64)
    if len(ps) and int(ps.max()) >= _LADDER_P_BOUND:
        raise FieldConfigError(
            f"prime {int(ps.max())} is outside the cube test's range p < 2^30"
        )
    P3, Q27, Dp = _cardano_invariants(c0, c1, c2)
    e = (ps + 1) // 3
    splits = np.zeros(ps.shape, dtype=bool)
    for nbits in range(1, _LADDER_P_BOUND.bit_length()):
        grp = (e >> (nbits - 1)) == 1
        if not grp.any():
            continue
        p, eg = ps[grp], e[grp]
        d, q = _residues(Dp, p), _residues(-Q27, p)
        flat = _residues(P3, p) == 0
        z0 = np.where(flat, q, 4 * q % p)
        z1 = np.where(flat, 0, 4)
        dz1 = d * z1 % p
        w0, w1 = z0, z1
        for i in range(nbits - 2, -1, -1):
            s0 = (w0 * w0 + d * (w1 * w1 % p)) % p
            s1 = 2 * w0 * w1 % p
            k = (eg >> i) & 1
            w0 = s0 + k * ((s0 * z0 + s1 * dz1) % p - s0)
            w1 = s1 + k * ((s0 * z1 + s1 * z0) % p - s1)
        splits[grp] = (w1 == 0) & ((p % 3 == 2) | (w0 == 1))
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
    index_divisor_overrides: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        ov = {}
        for p, st in dict(self.index_divisor_overrides).items():
            if not _is_prime(int(p)):
                raise FieldConfigError(f"override at p={p}: {p} is not prime")
            st = st if isinstance(st, SplittingType) else SplittingType(tuple(st))
            if st.degree != 3:
                raise FieldConfigError(f"override at p={p} has total degree {st.degree}, want 3")
            ov[int(p)] = st
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
    def is_rational_hook(self) -> bool:
        return self.degree == 1

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
    # poly disc = index^2 * disc, so any index divisor p has p^2 | poly disc;
    # an override stands for Dedekind's verdict at its prime
    for p, k in factorize(abs(pdisc)).items():
        if k < 2 or p in ov:
            continue
        if not dedekind_p_maximal(c0, c1, c2, p):
            raise FieldConfigError(
                f"prime {p} divides the index of the generated order; "
                f"an index_divisor_override for p={p} is required"
            )
        if index % p == 0:
            raise FieldConfigError(
                f"disc {disc} makes {p} divide the index {index} of the generated order, "
                f"but the order is {p}-maximal"
            )


def _build_cubic(name, c0, c1, c2, disc=None, overrides=None) -> FieldSpec:
    """The field of x^3 + c2 x^2 + c1 x + c0; disc defaults to the poly disc."""
    return FieldSpec(name, (c0, c1, c2), discriminant_monic_cubic(c0, c1, c2) if disc is None else disc,
                     overrides or {})


@lru_cache(maxsize=None)
def get_preset(name: str) -> FieldSpec:
    if name == "cubic-nonnormal-2":
        return _build_cubic("cubic-nonnormal-2", -2, 0, 0)
    if name == "cubic-cyclic-7":
        return _build_cubic("cubic-cyclic-7", -1, -2, 1)
    if name == "rationals":
        return FieldSpec("rationals", None, 1)
    raise FieldConfigError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")


def preset_names():
    return ("cubic-nonnormal-2", "cubic-cyclic-7", "rationals")


_OVERRIDE_RE = re.compile(r"^override\.(\d+)$")


def _config_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FieldConfigError(f"{what} must be an integer, got {text!r}") from None


def parse_field_spec(text: str) -> FieldSpec:
    """Parse a plain key=value field document.

    Keys: name, poly (three ints c0,c1,c2), optional disc, optional
    override.P entries with components written 'f:e' joined by '+'
    (e.g. ``override.2 = 1:1+1:1+1:1`` for a totally split prime).
    """
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FieldConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    name = kv.pop("name", "unnamed-field")
    if name == "rationals" and "poly" not in kv:
        return FieldSpec("rationals", None, 1)
    if "poly" not in kv:
        raise FieldConfigError("missing poly = c0, c1, c2")
    coeffs = [_config_int(t, "poly coefficient") for t in re.split(r"[,\s]+", kv.pop("poly")) if t]
    if len(coeffs) != 3:
        raise FieldConfigError("poly needs exactly three integers c0, c1, c2")
    disc = None
    if "disc" in kv:
        disc = _config_int(kv.pop("disc"), "disc")
    overrides = {}
    for k in list(kv):
        m = _OVERRIDE_RE.match(k)
        if not m:
            raise FieldConfigError(f"unknown key {k!r}")
        p = int(m.group(1))
        comps = []
        for tok in kv.pop(k).split("+"):
            fe = tok.strip().split(":")
            if len(fe) != 2:
                raise FieldConfigError(f"override component {tok!r} is not f:e")
            comps.append(tuple(_config_int(x, f"override.{p} component") for x in fe))
        overrides[p] = SplittingType(tuple(comps))
    return _build_cubic(name, coeffs[0], coeffs[1], coeffs[2], disc=disc, overrides=overrides)


def format_field_spec(field: FieldSpec) -> str:
    """The parse_field_spec document of a field: parsing it gives back an
    equal FieldSpec with the same name."""
    if field.is_rational_hook:
        return "name = rationals\n"
    lines = [f"name = {field.name}", "poly = " + ", ".join(map(str, field.poly)), f"disc = {field.disc}"]
    for p, st in sorted(field.index_divisor_overrides.items()):
        lines.append(f"override.{p} = " + "+".join(f"{f}:{e}" for f, e in st.components))
    return "\n".join(lines) + "\n"


def load_field(spec: str) -> FieldSpec:
    """Resolve a preset name, a config file path, or inline config text."""
    if spec in preset_names():
        return get_preset(spec)
    import os

    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_field_spec(fh.read())
    if "=" in spec:
        return parse_field_spec(spec)
    raise FieldConfigError(f"--field {spec!r} is neither a preset, a file, nor config text")


# ----------------------------------------------------------------------------
# splitting queries
# ----------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):  # deterministic for n < 3.3e24
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


def splitting_type(field: FieldSpec, p: int) -> SplittingType:
    """Decomposition shape of the prime p in the field (exact, single prime)."""
    if not _is_prime(p):
        raise FieldConfigError(f"{p} is not prime")
    if field.is_rational_hook:
        return SHAPES[T_RATIONAL]
    if p in field.index_divisor_overrides:
        return field.index_divisor_overrides[p]
    return SHAPES[_CODE_BY_ROOTS[_count_roots_py(*field.poly, p), field.poly_disc % p == 0]]


def _euler_criterion_vector(dmod: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """d^((p-1)/2) mod p for every prime p in ps (int64, < 2^31), given
    dmod = d mod p.

    Square-and-multiply over the bits of (p-1)/2, vectorized over all primes
    at once: the leading zero bits of a shorter exponent leave the result 1.
    Each bit multiplies by 1 + k (d - 1), d or 1 for its bit k, not a branch.
    """
    e = ps >> 1
    r = np.ones_like(ps)
    nbits = int(e.max()).bit_length() if len(ps) else 0
    for i in range(nbits - 1, -1, -1):
        r = r * r % ps * (1 + ((e >> i) & 1) * (dmod - 1)) % ps
    return r


def splitting_codes(field: FieldSpec, N: int):
    """Splitting-shape codes for every prime p <= N.

    Returns (primes, codes) as aligned int64/int8 arrays.  This is the bulk
    path the sieves use; for a single prime use splitting_type.

    Stickelberger's theorem leaves one question per prime: for odd p not
    dividing the polynomial discriminant D, (D/p) = (-1)^(3 - r) with r the
    number of irreducible factors of f mod p.  So (D/p) = -1 means one root
    (P1 P2), and (D/p) = +1 means split or inert, split exactly when
    Cardano's value is a cube (_cardano_splits).  For a square D every such
    p has (D/p) = +1; else (D/p) is computed once per residue class of p
    mod 4|D| (mod N + 1 when that is smaller: then every prime is a class
    of its own).  The few primes left, p <= 3 (Cardano divides by 3),
    p | D and the override primes, go to splitting_type.
    """
    ps = primes_upto(N)
    if field.is_rational_hook:
        return ps, np.full(len(ps), T_RATIONAL, dtype=np.int8)
    D = field.poly_disc
    scalar = (_residues(D, ps) == 0) | (ps <= 3) | np.isin(ps, list(field.index_divisor_overrides))
    if D > 0 and math.isqrt(D) ** 2 == D:
        plus = ~scalar
    else:
        # for odd p not dividing D, (D/p) depends only on p mod 4|D| (quadratic
        # reciprocity): one Euler test per residue class, at one of its primes
        classes, cls = np.unique(ps % min(4 * abs(D), N + 1), return_inverse=True)
        rep = np.empty(len(classes), dtype=np.int64)
        rep[cls] = ps
        plus = ~scalar & (_euler_criterion_vector(_residues(D, rep), rep)[cls] == 1)
    codes = np.full(len(ps), T_PARTIAL, dtype=np.int8)
    codes[plus] = np.where(_cardano_splits(*field.poly, ps[plus]), T_SPLIT, T_INERT)
    for i in np.flatnonzero(scalar):
        codes[i] = SHAPES.index(splitting_type(field, int(ps[i])))
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


def local_aK(field: FieldSpec, p: int, kmax: int):
    """a_K(p^k) for k = 0..kmax, from the splitting of p."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    st = splitting_type(field, p)
    return local_ideal_counts(st.f_shape, kmax)
