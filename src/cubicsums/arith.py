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

Everything here is exact integer arithmetic except the rho estimates.  The
value tables are int32: |a_K(n)|, |mu_K(n)| and |b(n)| are at most
tau_3(n) <= _max_tau(3, N_BUDGET) = 58320.  The prefix sums are int64, and
since ArithTables refuses N > N_BUDGET, |prefix| <= 10^8 2^31 < 2^58 cannot
overflow.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fieldspec import (
    SHAPES,
    FieldConfigError,
    FieldSpec,
    _is_prime,
    factorize,
    format_field_spec,
    local_ideal_counts,
    parse_field_spec,
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
    "max_abs_ratio",
    "cubic_character",
    "b_from_cubic_character",
    "L1_cubic_character",
]

N_BUDGET = 10**8  # 1.2 GB for the three int32 value tables; each int64 prefix sum adds 0.8 GB
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
        shape = SHAPES[code].f_shape
        a = local_ideal_counts(shape, kmax)
        mu = [0] * (kmax + 1)
        mu[0] = 1
        for f in shape:
            for k in range(kmax, f - 1, -1):
                mu[k] -= mu[k - f]
        b = [1] + [a[k] - a[k - 1] for k in range(1, kmax + 1)]
        out[code] = (a, mu, b)
    return out


_TAKE_CHUNK = 1 << 16  # entries per step of the chunked passes, not all N + 1 at once


def _sieve_multiplicative(N, ps, codes, locals_by_code, n_funcs, dtype):
    """Fill n_funcs multiplicative tables of length N+1 (index 0 zeroed).

    locals_by_code[code][j][k] is the value of function j at p^k for every
    prime p of splitting code `code`.  The tables have the given dtype, which
    must hold every value: each local value is 0 or at least 1 in absolute
    value, so no partial product in the small-prime pass exceeds the final
    value.
    """
    split_at = int(np.searchsorted(ps, math.isqrt(N), side="right"))
    # large primes p > sqrt(N) divide each n <= N at most once, and n = m p
    # has cofactor m < sqrt(N): scatter the splitting code of p to every m p
    # once, then read each function's value at p (or 1, in the slot for "no
    # prime above sqrt(N)") through a lookup table
    big, big_codes = ps[split_at:], codes[split_at:]
    none = len(SHAPES)
    code_at = np.full(N + 1, none, dtype=np.int8)
    for m in range(1, math.isqrt(N) + 1):
        cnt = int(np.searchsorted(big, N // m, side="right"))
        code_at[m * big[:cnt]] = big_codes[:cnt]
    lut = np.ones((n_funcs, none + 1), dtype=dtype)
    for c, loc in locals_by_code.items():
        lut[:, c] = [vals[1] for vals in loc]
    arrays = [np.empty(N + 1, dtype=dtype) for _ in range(n_funcs)]
    for lo in range(0, N + 1, _TAKE_CHUNK):
        idx = code_at[lo : lo + _TAKE_CHUNK].astype(np.intp)
        for row, arr in zip(lut, arrays):
            row.take(idx, out=arr[lo : lo + _TAKE_CHUNK])
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

    The value tables must be int32 and N at most N_BUDGET, so the int64
    prefix sums cannot overflow (see the module docstring).  The prefix sums
    are built on first use, so a run that reads neither never holds them."""

    field: FieldSpec
    N: int
    aK: np.ndarray
    muK: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.N > N_BUDGET:
            raise ArithError(f"N={self.N} exceeds N_BUDGET = {N_BUDGET}")
        for arr in (self.aK, self.muK, self.b):
            if arr.dtype != np.int32:
                raise ArithError(f"value tables must be int32, got {arr.dtype}")
            _freeze(arr)

    @cached_property
    def A_prefix(self) -> np.ndarray:
        """A_K(x) for 0 <= x <= N."""
        return _freeze(_prefix_sum(self.aK))

    @cached_property
    def M_prefix(self) -> np.ndarray:
        """M_K(x) for 0 <= x <= N."""
        return _freeze(_prefix_sum(self.muK))


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _prefix_sum(arr):
    # widen once, then sum in place: np.cumsum(arr, dtype=np.int64) is
    # about 2.5 times slower
    x = arr.astype(np.int64)
    return np.cumsum(x, out=x)


def build_tables(field: FieldSpec, N: int) -> ArithTables:
    """Sieve a_K, mu_K, b up to N."""
    if not 1 <= N <= N_BUDGET:
        raise ArithError(f"N={N} outside the supported range 1..{N_BUDGET}")
    ps, codes = splitting_codes(field, N)
    kmax = max(1, N.bit_length())
    locs = _local_tables(set(codes.tolist()), kmax)
    aK, muK, b = _sieve_multiplicative(N, ps, codes, locs, 3, np.int32)
    return ArithTables(field, N, aK, muK, b)


def partial_A(tables: ArithTables, x) -> int:
    """A_K(x) = sum_{n <= x} a_K(n)."""
    if x < 0 or x > tables.N:
        raise ArithError(f"x={x} outside table range 0..{tables.N}")
    return int(tables.A_prefix[int(x)])


def _floor_div(Y, m: int) -> int:
    # floor(Y / m), exact for integral Y (int or np.integer); for half-integer
    # Y the quotient is never integral, so float floor cannot straddle a boundary
    if isinstance(Y, (int, np.integer)):
        return int(Y) // m
    return math.floor(Y / m)


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
    # partial sums of sum b(m)/m tend to the residue; average over [B/2, B].
    # One B-length array: m, then b(m)/m, then the running sum, in place
    s = np.arange(1, B + 1, dtype=np.float64)
    np.divide(tables.b[1 : B + 1], s, out=s)
    np.cumsum(s, out=s)
    window = s[B // 2 - 1 :]
    value = float(np.mean(window))
    stderr = float(np.std(window, ddof=1))  # estimate_rho's B >= N_MIN leaves > 500 partial sums
    return RhoEstimate(value=value, stderr=stderr, method="series_b_over_m", B=B)


def _rho_regression(tables: ArithTables, B: int) -> RhoEstimate:
    xs = np.unique(np.geomspace(max(8, B // 8), B, 33).astype(np.int64))
    # A_K at the 33 points by summing the blocks between them, with no prefix
    # sum over the whole table
    starts = np.concatenate(([0], xs[:-1] + 1))
    a = np.cumsum(np.add.reduceat(tables.aK[: xs[-1] + 1], starts, dtype=np.int64)).astype(np.float64)
    x = xs.astype(np.float64)
    sxx = float(np.dot(x, x))
    value = float(np.dot(x, a) / sxx)
    resid = a - value * x
    dof = max(1, len(xs) - 1)
    stderr = float(math.sqrt(np.dot(resid, resid) / dof / sxx))
    return RhoEstimate(value=value, stderr=stderr, method="regression_on_A", B=B)


def estimate_rho(tables: ArithTables, B: int) -> tuple[RhoEstimate, RhoEstimate]:
    """The (series, regression) estimates of rho_K from the tables.

    Raises RhoDisagreement when the two values differ by more than 3
    combined standard errors (never silently averaged).
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
    return ser, reg


# ----------------------------------------------------------------------------
# classical (rational) arithmetic helpers
# ----------------------------------------------------------------------------

def classical_ramanujan(m: int, n: int) -> int:
    """c_m(n) = sum_{d | gcd(m,n)} d mu(m/d), exact, by Hoelder's local
    factors: c is multiplicative in m, and over p^a || m the factor is
    p^a - p^(a-1) when p^a | n, -p^(a-1) when p^(a-1) || n, and 0 otherwise."""
    if m < 1 or n < 1:
        raise ValueError("classical_ramanujan needs m, n >= 1")
    c = 1
    for p, a in factorize(m).items():
        low = p ** (a - 1)
        if n % (low * p) == 0:
            c *= low * p - low
        elif n % low == 0:
            c *= -low
        else:
            return 0
    return c


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
    top = _max_tau(l, n)
    if top >= 2**63:
        raise ArithError(f"max tau_{l}(m) over m <= {n} is {top:.3g}, beyond int64")
    ps = primes_upto(n)
    codes = np.zeros(len(ps), dtype=np.int8)
    kmax = max(1, n.bit_length())
    loc = {0: (local_ideal_counts((1,) * l, kmax),)}
    (t,) = _sieve_multiplicative(n, ps, codes, loc, 1, np.int64)
    return _freeze(t)


def _max_tau(l: int, n: int) -> int:
    """max_{m <= n} tau_l(m), exact.  tau_l(p^k) = C(k + l - 1, l - 1) grows
    with k alone, so moving the exponents of m onto 2, 3, 5, ... in
    non-increasing order keeps tau_l and does not raise m: the maximum sits
    at a product of primorials, about 800 candidates for n <= 10^8."""
    ps = primes_upto(100).tolist()  # their product is far beyond TAU_BUDGET

    def best(i, m, kmax):
        out = 1
        k, mk = 1, m * ps[i]
        while k <= kmax and mk <= n:
            out = max(out, math.comb(k + l - 1, l - 1) * best(i + 1, mk, k))
            k, mk = k + 1, mk * ps[i]
        return out

    return best(0, 1, n.bit_length())


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
    oscillation frequencies; the values feed a growth-exponent fit (expected
    well below T^{1/3+eps} slopes).  With t = tau_4^2, c_n = n^{1/3} and
    1/(c_n - c_m) = (c_n^2 + c_n c_m + c_m^2)/(n - m), a pair m < n adds
    t_m t_n (1/c_m^2 + 1/(c_m c_n) + 1/c_n^2)/(n - m).  So the sum is
    2 sum_n t_n [(A2 * K)(n) + (A1 * K)(n)/c_n + (A0 * K)(n)/c_n^2] with
    A2 = t/c^2, A1 = t/c, A0 = t and the kernel K(d) = 1/d for d >= 1: three
    convolutions, done by one real FFT of length 2^ceil(log2 2T) each.  The
    integer gap n - m has none of the cancellation of c_n - c_m.
    """
    if not 2 <= T <= 10**5:
        raise ArithError(f"T={T} outside the supported range 2..1e5")
    n = np.arange(1, T + 1, dtype=np.float64)
    t = tau_table(4, T)[1 : T + 1].astype(np.float64) ** 2
    c = np.cbrt(n)
    size = 1 << (2 * T - 1).bit_length()  # >= 2T - 1 terms of the linear convolution: no wrap-around
    kernel = np.fft.rfft(np.concatenate(([0.0], 1.0 / n[:-1])), size)  # K(0) = 0, K(d) = 1/d

    def conv(a):
        return np.fft.irfft(np.fft.rfft(a, size) * kernel, size)[:T]

    return 2.0 * math.fsum((t * (conv(t / c**2) + conv(t / c) / c + conv(t) / c**2)).tolist())


# ----------------------------------------------------------------------------
# identity checks (shared by the verify suite and the tests)
# ----------------------------------------------------------------------------

def dirichlet_convolution(f, g, nmax: int) -> np.ndarray:
    """(f * g)(n) = sum_{de = n} f(d) g(e) for n <= nmax, exact in int64.

    f and g are indexed from 1 and need at least nmax + 1 entries.  Split at
    the hyperbola point r = isqrt(nmax), as the module docstring describes.
    Each product is taken in int64, so int32 inputs do not wrap.
    """
    out = np.zeros(nmax + 1, dtype=np.int64)
    r = math.isqrt(nmax)
    for d in (np.flatnonzero(f[1 : r + 1]) + 1).tolist():
        out[d::d] += np.multiply(f[d], g[1 : nmax // d + 1], dtype=np.int64)
    for j in (np.flatnonzero(g[1 : nmax // (r + 1) + 1]) + 1).tolist():
        # n = j d, r < d <= nmax // j
        out[j * (r + 1) :: j] += np.multiply(g[j], f[r + 1 : nmax // j + 1], dtype=np.int64)
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


def max_abs_ratio(values: np.ndarray, s: float) -> float:
    """max |values[m]| / m^s over 1 <= m < len(values), 2^16 entries at a
    time: the same quotients as one N-length pass, so the same max."""
    best = 0.0
    for lo in range(1, len(values), _TAKE_CHUNK):
        v = values[lo : lo + _TAKE_CHUNK]
        m = np.arange(lo, lo + len(v), dtype=np.float64)
        best = max(best, float(np.max(np.abs(v) / m**s)))
    return best


def b_growth_statistic(tables: ArithTables) -> float:
    """max |b(m)| / m^0.1 over the table (reported, not asserted)."""
    return max_abs_ratio(tables.b, 0.1)


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
    if f % 3 != 1 or not _is_prime(f):
        raise ArithError(f"conductor {f} is not a prime = 1 mod 3")
    # a generator of (Z/f)*
    order_facs = factorize(f - 1)
    g = next(g for g in range(2, f) if all(pow(g, (f - 1) // q, f) != 1 for q in order_facs))
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


def L1_cubic_character(f: int) -> complex:
    """L(1, chi) by the finite formula for an even primitive character,

        L(1, chi) = -(tau(chi)/f) sum_{0<a<f} conj(chi)(a) log|1 - e^{2 pi i a/f}|,

    tau(chi) the Gauss sum; chi(-1) = 1 since chi(-1)^2 = chi(-1)^3 = 1."""
    omega = complex(-0.5, math.sqrt(3) / 2)
    chi = np.array([u + v * omega for (u, v) in cubic_character(f)], dtype=np.complex128)
    a = np.arange(f)
    tau = np.sum(chi * np.exp(2j * math.pi * a / f))
    logs = np.log(2.0 * np.sin(math.pi * a[1:] / f))  # |1 - e^{i t}| = 2 sin(t/2)
    return complex(-tau / f * np.dot(np.conj(chi[1:]), logs))


# ----------------------------------------------------------------------------
# table file I/O
# ----------------------------------------------------------------------------

_MAGIC = b"CBSM"
_VERSION = 3


def write_tables(tables: ArithTables, path) -> None:
    """Flat binary dump: header (magic, version, length of the field
    document, the field's format_field_spec document as UTF-8, N) then the
    little-endian int32 arrays a_K, mu_K, b for n = 1..N, 12 bytes per n.
    The version fixes the width; files of versions 1 and 2 (int64 payload)
    are refused.  read_tables parses the document back, so the tables carry
    their field."""
    doc = format_field_spec(tables.field).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(doc)))
        fh.write(doc)
        fh.write(struct.pack("<Q", tables.N))
        for arr in (tables.aK, tables.muK, tables.b):
            fh.write(arr[1:].astype("<i4", copy=False))  # no copy on a little-endian host


def _read_header(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ArithError(f"{path}: table file ends inside its header")
    return data


def read_tables(path) -> ArithTables:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ArithError(f"{path}: not a table file (bad magic)")
        version, doclen = struct.unpack("<II", _read_header(fh, 8, path))
        if version != _VERSION:
            raise ArithError(f"{path}: unsupported table version {version}")
        try:
            field = parse_field_spec(_read_header(fh, doclen, path).decode("utf-8"))
        except (UnicodeDecodeError, FieldConfigError) as exc:
            raise ArithError(f"{path}: bad field document in the header: {exc}") from None
        (N,) = struct.unpack("<Q", _read_header(fh, 8, path))
        if N > N_BUDGET:  # refused before allocating N + 1 entries
            raise ArithError(f"{path}: N={N} in the header exceeds N_BUDGET = {N_BUDGET}")
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        want = 3 * 4 * N
        if have != want:
            raise ArithError(f"{path}: truncated table file ({have} != {want} bytes)")
        # the file bytes go straight into the tables, with no intermediate copy
        aK, muK, b = (np.zeros(N + 1, dtype="<i4") for _ in range(3))
        for arr in (aK, muK, b):
            fh.readinto(arr[1:])
    return ArithTables(field, int(N), aK, muK, b)


def export_csv(tables: ArithTables, path, nmax: int = 10**4) -> None:
    nmax = min(nmax, tables.N)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,aK,muK,b,A,M\n")
        for n in range(1, nmax + 1):
            fh.write(
                f"{n},{tables.aK[n]},{tables.muK[n]},{tables.b[n]},"
                f"{tables.A_prefix[n]},{tables.M_prefix[n]}\n"
            )
