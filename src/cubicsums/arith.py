"""Sieved arithmetic functions attached to a cubic field.

For a field K the tables hold, for 1 <= n <= N,

    a_K(n)   number of integral ideals of O_K of norm n
             (Dirichlet coefficients of the Dedekind zeta function),
    mu_K(n)  coefficients of 1/zeta_K  (Dirichlet inverse of a_K),
    b(n)     coefficients of zeta_K/zeta, so a_K = 1 * b  (Dirichlet product),

together with prefix sums A_K(x) = sum_{n<=x} a_K(n) and
M_K(x) = sum_{n<=x} mu_K(n), built on first use.  All three functions are
multiplicative and their values at prime powers depend only on the
splitting shape of p:

    a_K(p^k) = #{x_i >= 0 : sum f_i x_i = k},
    mu_K(p^k) = [t^k] prod_i (1 - t^{f_i}),
    b(p^k)   = a_K(p^k) - a_K(p^{k-1}).

The sieve fills all tables in two passes over the whole array.  A prime
p > sqrt(N) divides n <= N at most once, and then n = m p with m < sqrt(N),
so the large-prime pass loops over the cofactor m and stores the splitting
code of p at all m p in one indexed assignment into an int8 array; each
table is then one lookup of its values by code.  The small-prime pass
multiplies the value at p^k into every n = p^k j with p not dividing j, for
each prime power p^k <= N with p <= sqrt(N).

The identities a_K * mu_K = e and 1 * b = a_K, and b = chi * conj(chi) on
a cyclic field, are checked with one Dirichlet convolution split at the
hyperbola point r = isqrt(n_max): a pair d e = n has d <= r, or else
e <= n_max / (r + 1).  The first kind takes one strided add per d <= r, the
second one per e <= n_max / (r + 1), so about 2 sqrt(n_max) vectorized
steps do the work of one step per d <= n_max.

A_K(x) = rho_K x + P_K(x) with rho_K the residue of zeta_K at s = 1; the
residue is estimated numerically two independent ways (Cesaro-averaged
partial sums of sum b(m)/m, and a regression of A_K on x) which must agree
within 3 combined standard errors.

Everything here is exact integer arithmetic except the rho estimates;
overflow of the 64-bit prefix sums is detected up front and aborts.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fieldspec import (
    F_SHAPES,
    FieldSpec,
    factorize,
    local_ideal_counts,
    primes_upto,
    splitting_codes,
)

__all__ = [
    "ArithTables",
    "RhoEstimate",
    "ArithError",
    "RhoDisagreement",
    "build_tables",
    "partial_A",
    "partial_M",
    "error_P",
    "estimate_rho",
    "classical_ramanujan",
    "mobius",
    "factorize",
    "mobius_sieve",
    "tau_power_sum",
    "tau_table",
    "tau4_cuberoot_pair_sum",
    "write_tables",
    "read_tables",
    "export_csv",
    "dirichlet_convolution",
    "convolution_identity_failure",
    "b_sum_identity_failure",
    "b_growth_statistic",
    "cubic_character",
    "b_from_cubic_character",
    "L1_cubic_character",
]

N_BUDGET = 10**8  # ~2.4 GB for the three value tables alone; the prefix sums add 1.6 GB
N_MIN = 10**3  # smallest rho window estimate_rho accepts, and the smallest table the CLI builds


class ArithError(RuntimeError):
    pass


class RhoDisagreement(ArithError):
    """The two rho_K estimators moved apart by more than 3 combined stderr."""


# ----------------------------------------------------------------------------
# multiplicative sieve engine
# ----------------------------------------------------------------------------

def _local_tables(codes_present, kmax):
    """Per splitting shape: a_K, mu_K and b at p^0..p^kmax."""
    out = {}
    for code in codes_present:
        shape = F_SHAPES[code]
        a = local_ideal_counts(shape, kmax)
        mu = [0] * (kmax + 1)
        mu[0] = 1
        for f in shape:
            for k in range(kmax, f - 1, -1):
                mu[k] -= mu[k - f]
        b = [1] + [a[k] - a[k - 1] for k in range(1, kmax + 1)]
        out[code] = (a, mu, b)
    return out


def _sieve_multiplicative(N, ps, codes, locals_by_code, n_funcs):
    """Fill n_funcs multiplicative tables of length N+1 (index 0 zeroed).

    locals_by_code[code][j][k] is the value of function j at p^k for every
    prime p of splitting code `code`.
    """
    split_at = int(np.searchsorted(ps, math.isqrt(N), side="right"))
    # large primes p > sqrt(N) divide each n <= N at most once, and n = m p
    # has cofactor m < sqrt(N): scatter the splitting code of p to every m p
    # once, then read each function's value at p (or 1, in the slot for "no
    # prime above sqrt(N)") through a lookup table
    big, big_codes = ps[split_at:], codes[split_at:]
    none = len(F_SHAPES)
    code_at = np.full(N + 1, none, dtype=np.int8)
    for m in range(1, math.isqrt(N) + 1):
        cnt = int(np.searchsorted(big, N // m, side="right"))
        code_at[m * big[:cnt]] = big_codes[:cnt]
    lut = np.ones((n_funcs, none + 1), dtype=np.int64)
    for c, loc in locals_by_code.items():
        lut[:, c] = [vals[1] for vals in loc]
    arrays = [row.take(code_at) for row in lut]
    del code_at
    # small primes: multiply the local value at p^k into n = p^k j, p not
    # dividing j, through the strided view of the multiples of p^k laid out
    # as rows of p (the last column holds the j divisible by p)
    for p, c in zip(ps[:split_at].tolist(), codes[:split_at].tolist()):
        loc = locals_by_code[c]
        pk, k = p, 1
        while pk <= N:
            for arr, vals in zip(arrays, loc):
                v = vals[k]
                if v == 1:
                    continue
                view = arr[pk::pk]
                rows = len(view) // p
                view[: rows * p].reshape(rows, p)[:, : p - 1] *= v
                view[rows * p :] *= v
            pk *= p
            k += 1
    for arr in arrays:
        arr[0] = 0
    return arrays


# ----------------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ArithTables:
    """Frozen value tables for one field; arrays are read-only views.

    The prefix sums are built on first use, so a run that reads neither
    never holds them."""

    field_name: str
    N: int
    aK: np.ndarray
    muK: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for arr in (self.aK, self.muK, self.b):
            _freeze(arr)
        _guard_prefix_overflow(self.aK, self.muK)

    @cached_property
    def A_prefix(self) -> np.ndarray:
        """A_K(x) for 0 <= x <= N."""
        return _freeze(np.cumsum(self.aK))

    @cached_property
    def M_prefix(self) -> np.ndarray:
        """M_K(x) for 0 <= x <= N."""
        return _freeze(np.cumsum(self.muK))


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _guard_prefix_overflow(aK, muK):
    # detect before wrapping: |prefix| <= N max|value|, which is never below
    # the sum of |value| and needs no temporary array
    n = len(aK) - 1
    a_bound, m_bound = (n * max(int(arr.max()), -int(arr.min())) for arr in (aK, muK))
    if a_bound > 2**62 or m_bound > 2**62:
        raise ArithError(
            f"prefix sums would overflow int64 (bounds N*max|value| = {a_bound:.3g}, {m_bound:.3g}); "
            "aborting instead of wrapping"
        )


def build_tables(field: FieldSpec, N: int) -> ArithTables:
    """Sieve a_K, mu_K, b up to N."""
    if not 1 <= N <= N_BUDGET:
        raise ArithError(f"N={N} outside the supported range 1..{N_BUDGET}")
    ps, codes = splitting_codes(field, N)
    kmax = max(1, N.bit_length())
    locs = _local_tables(set(codes.tolist()), kmax)
    aK, muK, b = _sieve_multiplicative(N, ps, codes, locs, 3)
    return ArithTables(field.name, N, aK, muK, b)


def partial_A(tables: ArithTables, x) -> int:
    """A_K(x) = sum_{n <= x} a_K(n)."""
    if x < 0 or x > tables.N:
        raise ArithError(f"x={x} outside table range 0..{tables.N}")
    return int(tables.A_prefix[int(x)])


def partial_M(tables: ArithTables, x) -> int:
    """M_K(x) = sum_{n <= x} mu_K(n)."""
    if x < 0 or x > tables.N:
        raise ArithError(f"x={x} outside table range 0..{tables.N}")
    return int(tables.M_prefix[int(x)])


def error_P(tables: ArithTables, rho: "RhoEstimate", x) -> float:
    """P_K(x) = A_K(x) - rho_K x, the ideal-count error term."""
    return partial_A(tables, x) - rho.value * x


# ----------------------------------------------------------------------------
# rho_K estimation
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoEstimate:
    value: float
    stderr: float
    method: str
    B: int

    def __post_init__(self):
        if self.value <= 0:
            raise ArithError(f"rho estimate {self.value} is not positive")
        if self.stderr < 0:
            raise ArithError("stderr must be >= 0")


def _rho_series(tables: ArithTables, B: int) -> RhoEstimate:
    # partial sums of sum b(m)/m tend to the residue; average over [B/2, B]
    m = np.arange(1, B + 1, dtype=np.float64)
    s = np.cumsum(tables.b[1 : B + 1] / m)
    window = s[B // 2 - 1 :]
    value = float(np.mean(window))
    stderr = float(np.std(window, ddof=1)) if len(window) > 1 else 0.0
    return RhoEstimate(value=value, stderr=stderr, method="series_b_over_m", B=B)


def _rho_regression(tables: ArithTables, B: int) -> RhoEstimate:
    xs = np.unique(np.geomspace(max(8, B // 8), B, 33).astype(np.int64))
    a = tables.A_prefix[xs].astype(np.float64)
    x = xs.astype(np.float64)
    sxx = float(np.dot(x, x))
    value = float(np.dot(x, a) / sxx)
    resid = a - value * x
    dof = max(1, len(xs) - 1)
    stderr = float(math.sqrt(np.dot(resid, resid) / dof / sxx))
    return RhoEstimate(value=value, stderr=stderr, method="regression_on_A", B=B)


def estimate_rho(field: FieldSpec, tables: ArithTables, B: int, method: str = "series_b_over_m") -> RhoEstimate:
    """Estimate rho_K from the tables; both methods are run and cross-checked.

    Raises RhoDisagreement when the series and regression values differ by
    more than 3 combined standard errors (never silently averaged).
    """
    if B < N_MIN:
        raise ArithError(f"B={B} too small; need B >= {N_MIN}")
    if B > tables.N:
        raise ArithError(f"B={B} exceeds table length {tables.N}")
    ser = _rho_series(tables, B)
    reg = _rho_regression(tables, B)
    tol = 3.0 * math.hypot(ser.stderr, reg.stderr)
    if abs(ser.value - reg.value) > max(tol, 1e-12):
        raise RhoDisagreement(
            f"rho estimators disagree: series {ser.value:.8f} (+-{ser.stderr:.2g}) vs "
            f"regression {reg.value:.8f} (+-{reg.stderr:.2g}), tolerance {tol:.2g}"
        )
    if method == "series_b_over_m":
        return ser
    if method == "regression_on_A":
        return reg
    raise ArithError(f"unknown rho method {method!r}")


# ----------------------------------------------------------------------------
# classical (rational) arithmetic helpers
# ----------------------------------------------------------------------------

def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def divisors(n: int):
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def classical_ramanujan(m: int, n: int) -> int:
    """c_m(n) = sum_{d | gcd(m,n)} d mu(m/d), exact."""
    if m < 1 or n < 1:
        raise ValueError("classical_ramanujan needs m, n >= 1")
    g = math.gcd(m, n)
    return sum(d * mobius(m // d) for d in divisors(g))


def mobius_sieve(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    for p in primes_upto(n).tolist():
        mu[p::p] *= -1
        pp = p * p
        if pp <= n:
            mu[pp::pp] = 0
    mu[0] = 0
    return mu


# ----------------------------------------------------------------------------
# divisor-power sums
# ----------------------------------------------------------------------------

TAU_BUDGET = 10**8


@lru_cache(maxsize=8)
def tau_table(l: int, n: int) -> np.ndarray:
    """tau_l(1..n) as an int64 array (tau_l = number of ordered l-factorizations)."""
    if l < 2:
        raise ValueError("tau_l needs l >= 2")
    if not 1 <= n <= TAU_BUDGET:
        raise ArithError(f"tau table length {n} outside 1..{TAU_BUDGET}")
    ps = primes_upto(n)
    codes = np.zeros(len(ps), dtype=np.int8)
    kmax = max(1, n.bit_length())
    loc = {0: (local_ideal_counts((1,) * l, kmax),)}
    (t,) = _sieve_multiplicative(n, ps, codes, loc, 1)
    return _freeze(t)


def tau_power_sum(l: int, q: int, x: int) -> int:
    """Exact sum_{n <= x} tau_l(n)^q."""
    if l < 2 or q < 1:
        raise ValueError("need l >= 2 and q >= 1")
    t = tau_table(l, int(x))
    vals = t[1 : int(x) + 1]
    mx = int(vals.max()) if len(vals) else 0
    if mx**q * len(vals) < 2**63 - 1:
        return int(np.sum(vals**q, dtype=np.int64))
    return sum(int(v) ** q for v in vals.tolist())  # exact fallback, rare


def tau4_cuberoot_pair_sum(T: int) -> float:
    """sum over m != n <= T of tau_4(m)^2 tau_4(n)^2 / ((mn)^{2/3} |m^{1/3} - n^{1/3}|).

    The off-diagonal pair sum that controls interference between cube-root
    oscillation frequencies.  Full O(T^2) pair enumeration; the values feed a
    growth-exponent fit (expected well below T^{1/3+eps} slopes).
    """
    if not 2 <= T <= 10**5:
        raise ArithError(f"T={T} outside the supported range 2..1e5")
    t4 = tau_table(4, T)[: T + 1].astype(np.float64)
    k = np.arange(T + 1, dtype=np.float64)
    c = np.cbrt(k)
    g = np.zeros(T + 1, dtype=np.float64)
    g[1:] = t4[1:] ** 2 / k[1:] ** (2.0 / 3.0)
    out = np.zeros(T + 1, dtype=np.float64)
    for n in range(2, T + 1):
        out[n] = g[n] * float(np.dot(g[1:n], 1.0 / (c[n] - c[1:n])))
    return 2.0 * math.fsum(out.tolist())


# ----------------------------------------------------------------------------
# identity checks (shared by the verify suite and the tests)
# ----------------------------------------------------------------------------

def dirichlet_convolution(f, g, nmax: int) -> np.ndarray:
    """(f * g)(n) = sum_{de = n} f(d) g(e) for n <= nmax, exact in int64.

    f and g are indexed from 1 and need at least nmax + 1 entries.  Split at
    the hyperbola point r = isqrt(nmax), as the module docstring describes.
    """
    out = np.zeros(nmax + 1, dtype=np.int64)
    r = math.isqrt(nmax)
    for d in (np.flatnonzero(f[1 : r + 1]) + 1).tolist():
        out[d::d] += f[d] * g[1 : nmax // d + 1]
    for j in (np.flatnonzero(g[1 : nmax // (r + 1) + 1]) + 1).tolist():
        out[j * (r + 1) :: j] += g[j] * f[r + 1 : nmax // j + 1]  # n = j d, r < d <= nmax // j
    return out


def convolution_identity_failure(tables: ArithTables, nmax: int):
    """First n <= nmax with (a_K * mu_K)(n) != [n == 1], or None."""
    nmax = min(nmax, tables.N)
    conv = dirichlet_convolution(tables.aK, tables.muK, nmax)
    if conv[1] != 1:
        return 1
    bad = np.nonzero(conv[2:])[0]
    return int(bad[0]) + 2 if len(bad) else None


def b_sum_identity_failure(tables: ArithTables, nmax: int):
    """First n <= nmax with sum_{m|n} b(m) != a_K(n), or None."""
    nmax = min(nmax, tables.N)
    acc = dirichlet_convolution(tables.b, np.broadcast_to(np.int64(1), (nmax + 1,)), nmax)
    bad = np.nonzero(acc[1:] != tables.aK[1 : nmax + 1])[0]
    return int(bad[0]) + 1 if len(bad) else None


def b_growth_statistic(tables: ArithTables) -> float:
    """max |b(m)| / m^0.1 over the table (reported, not asserted)."""
    m = np.arange(1, tables.N + 1, dtype=np.float64)
    return float(np.max(np.abs(tables.b[1:]) / m**0.1))


# ----------------------------------------------------------------------------
# cubic Dirichlet character (prime conductor), exact in Z[omega]
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4)
def cubic_character(f: int):
    """The cubic residue character mod a prime conductor f = 1 (mod 3).

    Returns a tuple of f Eisenstein pairs (u, v) meaning chi(r) = u + v*omega,
    omega = e^{2 pi i/3}; chi(r) = omega^{ind_g(r) mod 3} for a generator g.
    Conjugating the character (the other choice of omega) gives the same
    two-character product b = chi * conj(chi).
    """
    if f < 3 or f % 3 != 1 or factorize(f) != {f: 1}:
        raise ArithError(f"conductor {f} is not a prime = 1 mod 3")
    # find a generator of (Z/f)*
    order_facs = factorize(f - 1)
    g = None
    for cand in range(2, f):
        if all(pow(cand, (f - 1) // q, f) != 1 for q in order_facs):
            g = cand
            break
    assert g is not None
    omega_pow = [(1, 0), (0, 1), (-1, -1)]
    vals = [(0, 0)] * f
    acc = 1
    for j in range(f - 1):
        vals[acc] = omega_pow[j % 3]
        acc = acc * g % f
    return tuple(vals)


def b_from_cubic_character(f: int, nmax: int) -> np.ndarray:
    """b(n) = sum_{xy = n} chi(x) conj(chi)(y), exact as integers.

    With chi = u + v omega and conj(chi) = (u - v) - v omega (omega^2 =
    -1 - omega), the product is

        u*(u - v) + v*v  +  (u*(-v) + v*(u - v) + v*v) omega,

    and the omega part is v*u - u*v = 0 because Dirichlet convolution
    commutes.  So b is real for any table of Eisenstein pairs, and two
    integer convolutions give it."""
    u, v = np.array(cubic_character(f), dtype=np.int64)[np.arange(nmax + 1) % f].T
    return dirichlet_convolution(u, u - v, nmax) + dirichlet_convolution(v, v, nmax)


def L1_cubic_character(f: int, terms: int = 10**6) -> complex:
    """L(1, chi) by direct series over a whole number of periods."""
    chi = cubic_character(f)
    omega = complex(-0.5, math.sqrt(3) / 2)
    cvals = np.array([u + v * omega for (u, v) in chi], dtype=np.complex128)
    terms -= terms % f  # complete periods keep the tail O(f/terms)
    n = np.arange(1, terms + 1)
    return complex(np.sum(cvals[n % f] / n))


# ----------------------------------------------------------------------------
# table file I/O
# ----------------------------------------------------------------------------

_MAGIC = b"CBSM"
_VERSION = 1


def write_tables(tables: ArithTables, path) -> None:
    """Flat binary dump: header (magic, version, field name, N) then the
    little-endian int64 arrays a_K, mu_K, b for n = 1..N."""
    name = tables.field_name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(name)))
        fh.write(name)
        fh.write(struct.pack("<Q", tables.N))
        for arr in (tables.aK, tables.muK, tables.b):
            fh.write(arr[1:].astype("<i8", copy=False))  # no copy on a little-endian host


def read_tables(path) -> ArithTables:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ArithError(f"{path}: not a table file (bad magic)")
        version, namelen = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ArithError(f"{path}: unsupported table version {version}")
        name = fh.read(namelen).decode("utf-8")
        (N,) = struct.unpack("<Q", fh.read(8))
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        want = 3 * 8 * N
        if have != want:
            raise ArithError(f"{path}: truncated table file ({have} != {want} bytes)")
        # the file bytes go straight into the tables, with no intermediate copy
        aK, muK, b = (np.zeros(N + 1, dtype="<i8") for _ in range(3))
        for arr in (aK, muK, b):
            fh.readinto(arr[1:])
    return ArithTables(name, int(N), aK, muK, b)


def export_csv(tables: ArithTables, path, nmax: int = 10**4) -> None:
    nmax = min(nmax, tables.N)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,aK,muK,b,A,M\n")
        for n in range(1, nmax + 1):
            fh.write(
                f"{n},{tables.aK[n]},{tables.muK[n]},{tables.b[n]},"
                f"{tables.A_prefix[n]},{tables.M_prefix[n]}\n"
            )
