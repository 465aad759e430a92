"""Sieved arithmetic functions attached to a cubic field.

For a field K the tables hold, for 1 <= n <= N,

    a_K(n)   number of integral ideals of O_K of norm n
             (Dirichlet coefficients of the Dedekind zeta function),
    mu_K(n)  coefficients of 1/zeta_K  (Dirichlet inverse of a_K),
    b(n)     coefficients of zeta_K/zeta, so a_K = 1 * b  (Dirichlet product).

A_at gives A_K(x) = sum_{n<=x} a_K(n) at any points from a_K up to the
largest point only.  All three functions are multiplicative and their
values at prime powers depend only on the splitting shape of p:

    a_K(p^k) = #{x_i >= 0 : sum f_i x_i = k},
    mu_K(p^k) = [t^k] prod_i (1 - t^{f_i}),
    b(p^k)   = a_K(p^k) - a_K(p^{k-1}).

The sieve fills all tables one segment of _SEGMENT entries at a time.  A
prime p > sqrt(N) divides n <= N at most once, and then n = m p with
m < sqrt(N), so the large-prime pass loops over the cofactor m once and
stores the splitting code of p at all m p in one indexed assignment into
an N-length int8 array.  Each segment then takes its values at those
primes by one lookup by code, and the small-prime pass takes each
p <= sqrt(N) while the segment is in cache: over the multiples of p in the
segment a temporary gets f(p), then f(p^k) at the multiples of p^k for
k = 2, 3, ..., so each entry ends at f(p^v) with v = v_p(n), and one multiply
brings it in.  The temporary is int16 for a_K, mu_K and b, since
|a_K(p^k)| <= C(k + 2, 2) <= 406 for the k <= 27 of N <= N_BUDGET.
`sieve_to_file`, the only writer of a table file (its docstring gives the
layout), writes each segment to the file as it is done, so no N-length
value table is ever held; `read_tables` maps the file.

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
value tables take 8 bytes per n (_TABLE_DTYPES), each as narrow as its
values allow for n <= N_BUDGET:

    a_K   int32:  a_K(n) <= tau_3(n) <= _max_tau(3, N_BUDGET) = 58320;
    mu_K  int16:  |mu_K(p^k)| <= 3, the largest coefficient of (1 - t)^3,
                  and the first nine primes multiply to more than N_BUDGET,
                  so omega(n) <= 8 and |mu_K(n)| <= 3^8 = 6561;
    b     int16:  |b(p^k)| <= k + 1, so |b(n)| <= tau(n) <= 768.

No type is unsigned, so a_K(p) - 1 cannot wrap, and every reader widens
before it does arithmetic.  Sums of a table are int64, and since ArithTables
refuses N > N_BUDGET, |sum| <= 10^8 2^31 < 2^58 cannot overflow.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
from dataclasses import dataclass
from functools import cached_property

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
    "A_at",
    "estimate_rho",
    "classical_ramanujan",
    "mobius_sieve",
    "tau_power_sum",
    "tau_table",
    "tau4_cuberoot_pair_sum",
    "sieve_to_file",
    "read_tables",
    "export_csv",
    "dirichlet_convolution",
    "convolution_identity_failure",
    "b_sum_identity_failure",
    "max_abs_ratio",
    "max_abs_M_ratio",
    "cubic_character",
    "b_from_cubic_character",
    "L1_cubic_character",
]

N_BUDGET = 10**8  # 0.8 GB for the three value tables
N_MIN = 10**3  # smallest rho window estimate_rho accepts, and the smallest table the CLI builds


class ArithError(RuntimeError):
    pass


class RhoDisagreement(ArithError):
    """The two rho_K estimators moved apart by more than 3 combined stderr."""


# ----------------------------------------------------------------------------
# multiplicative sieve engine
# ----------------------------------------------------------------------------

def _local_tables(kmax):
    """Per splitting shape: a_K, mu_K and b at p^0..p^kmax, int16 (module docstring)."""
    out = {}
    for code, comps in enumerate(SHAPES):
        shape = [f for f, _ in comps]
        a = local_ideal_counts(shape, kmax)
        mu = [0] * (kmax + 1)
        mu[0] = 1
        for f in shape:
            for k in range(kmax, f - 1, -1):
                mu[k] -= mu[k - f]
        b = [1] + [a[k] - a[k - 1] for k in range(1, kmax + 1)]
        out[code] = tuple(np.array(v, dtype=np.int16) for v in (a, mu, b))
    return out


_TAKE_CHUNK = 1 << 16  # entries per step of the chunked passes; within a segment it bounds the intp index array
_SEGMENT = 1 << 20  # entries per sieve segment: its tables stay in cache while the small primes pass

# the dtypes of the value tables a_K, mu_K, b, in file order (module docstring)
_TABLE_DTYPES = {"aK": np.dtype("<i4"), "muK": np.dtype("<i2"), "b": np.dtype("<i2")}


def _sieve_segments(N, ps, codes, locals_by_code, out):
    """Fill multiplicative tables over 0..N (index 0 zeroed) one segment of
    _SEGMENT entries at a time, and yield (lo, arrays) after each: arrays[j]
    holds function j at n = lo, lo + 1, ...

    locals_by_code[code][j] is an array of the values of function j at p^0,
    p^1, ... for every prime p of splitting code `code`, in a dtype that holds
    them; each code lists the same functions.  out holds one array per
    function, either N + 1 long, which the segments fill in place, or one
    segment long, which each segment fills anew.  Its dtype must hold each of
    the function's values: each local value is 0 or at least 1 in absolute
    value, so no partial product exceeds the final value.
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
    luts = [np.ones(none + 1, dtype=arr.dtype) for arr in out]
    for c, loc in locals_by_code.items():
        for lut, vals in zip(luts, loc):
            lut[c] = vals[1]
    small = [(p, locals_by_code[c]) for p, c in zip(ps[:split_at].tolist(), codes[:split_at].tolist())]
    whole = len(out[0]) == N + 1
    for lo in range(0, N + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, N + 1)
        arrays = [arr[lo:hi] if whole else arr[: hi - lo] for arr in out]
        for at in range(0, hi - lo, _TAKE_CHUNK):
            idx = code_at[lo + at : min(lo + at + _TAKE_CHUNK, hi)].astype(np.intp)
            for lut, arr in zip(luts, arrays):
                lut.take(idx, out=arr[at : at + len(idx)])
        # small primes: f(p^v_p(n)) at each multiple n of p, multiplied in at once
        for p, loc in small:
            j = -(-lo // p)  # the first cofactor in the segment; j = 0 at n = 0
            for arr, vals in zip(arrays, loc):
                view = arr[j * p - lo :: p]
                local = np.full(len(view), vals[1], dtype=vals.dtype)
                q, k = p, 2  # q = p^(k - 1), the stride of the multiples of p^k
                while q * p < hi:
                    local[-j % q :: q] = vals[k]
                    q, k = q * p, k + 1
                view *= local
        if lo == 0:
            for arr in arrays:
                arr[0] = 0
        yield lo, arrays


def _sieve_multiplicative(N, ps, codes, locals_by_code, dtypes):
    """The tables of _sieve_segments as whole arrays of length N + 1, one of
    each dtype in dtypes."""
    out = [np.empty(N + 1, dtype=dt) for dt in dtypes]
    for _ in _sieve_segments(N, ps, codes, locals_by_code, out):
        pass
    return out


# ----------------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ArithTables:
    """Frozen value tables for one field; arrays are read-only views.

    Each value table must have its dtype in _TABLE_DTYPES, the three one
    length N + 1, and N at most N_BUDGET, so no value outgrows its dtype and
    no int64 sum of a table can overflow (see the module docstring).

    A_prefix and M_prefix are whole-table int64 prefix sums, 8 bytes per n,
    built on first use.  No library code reads them: A_at reads A_K, and
    M_K is summed up to the X it is read at, and the tests take their
    reference sums with np.cumsum or A_at.  They stay as what the benchmark's
    tracer counts in its table bytes; they go when that count covers the
    value tables alone."""

    field: FieldSpec
    aK: np.ndarray
    muK: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not len(self.aK) == len(self.muK) == len(self.b):
            raise ArithError(f"value tables of unequal lengths {len(self.aK)}, {len(self.muK)}, {len(self.b)}")
        if self.N > N_BUDGET:
            raise ArithError(f"N={self.N} exceeds N_BUDGET = {N_BUDGET}")
        for name, dtype in _TABLE_DTYPES.items():
            arr = getattr(self, name)
            if arr.dtype != dtype:
                raise ArithError(f"the {name} table must be {dtype.name}, got {arr.dtype}")
            _freeze(arr)

    @property
    def N(self) -> int:
        """The largest n the tables hold."""
        return len(self.aK) - 1

    @cached_property
    def A_prefix(self) -> np.ndarray:
        """A_K(x) for 0 <= x <= N."""
        return _freeze(np.cumsum(self.aK, dtype=np.int64))

    @cached_property
    def M_prefix(self) -> np.ndarray:
        """M_K(x) for 0 <= x <= N."""
        return _freeze(np.cumsum(self.muK, dtype=np.int64))


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _field_locals(field: FieldSpec, N: int):
    """The primes, splitting codes and local tables that sieve a_K, mu_K, b
    up to N, in the order _sieve_segments takes them."""
    if not 1 <= N <= N_BUDGET:
        raise ArithError(f"N={N} outside the supported range 1..{N_BUDGET}")
    ps, codes = splitting_codes(field, N)
    return ps, codes, _local_tables(max(1, N.bit_length()))


def build_tables(field: FieldSpec, N: int) -> ArithTables:
    """Sieve a_K, mu_K, b up to N."""
    return ArithTables(field, *_sieve_multiplicative(N, *_field_locals(field, N), _TABLE_DTYPES.values()))


def A_at(tables: ArithTables, xs) -> np.ndarray:
    """A_K(x) = sum_{n <= x} a_K(n), exact int64, at every integer x of xs:
    any shape, any order, repeats allowed; 0 <= x <= N.

    Reads a_K only up to max(xs): the distinct points cut a_K into blocks
    that end at a point, one np.add.reduceat sums each block and a cumsum
    of the block sums gives A_K at the points.  So no prefix sum over the
    whole table is built; the reduceat widens a_K to int64 up to max(xs)
    only, and only while it sums."""
    xs = np.asarray(xs)
    if not xs.size:
        return np.zeros(xs.shape, dtype=np.int64)
    if not (xs.dtype.kind in "iu" and xs.min() >= 0 and xs.max() <= tables.N):
        raise ArithError(f"A_K is read at integers in 0..{tables.N}, got {xs.dtype} {xs.min()}..{xs.max()}")
    pts, where = np.unique(xs, return_inverse=True)
    starts = np.concatenate(([0], pts[:-1] + 1))
    A = np.cumsum(np.add.reduceat(tables.aK[: pts[-1] + 1], starts, dtype=np.int64))
    return A[where].reshape(xs.shape)


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
    xs = np.geomspace(max(8, B // 8), B, 33).astype(np.int64)
    xs = xs[np.append(True, xs[1:] != xs[:-1])]  # sorted, so a repeat sits next to its value
    a = A_at(tables, xs).astype(np.float64)
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

def classical_ramanujan(m: int, n):
    """c_m(n) = sum_{d | gcd(m,n)} d mu(m/d), exact, at an int n or at every n
    of an int array, by Hoelder's local factors: c is multiplicative in m, and
    over p^a || m the factor is p^a - p^(a-1) when p^a | n, -p^(a-1) when
    p^(a-1) || n, and 0 otherwise.  m and n lie below 2^63, the bound ideals
    puts on a norm, so every factor and |c| <= m fit int64."""
    n = np.asarray(n)
    if not (1 <= m < 2**63 and n.dtype.kind in "iu" and (not n.size or 1 <= n.min() and n.max() < 2**63)):
        raise ArithError(f"classical_ramanujan needs m and n in 1..2^63 - 1, got m={m}, n of {n.dtype}")
    n = n.astype(np.int64)
    c = np.ones(n.shape, dtype=np.int64)
    for p, a in factorize(m).items():
        low = p ** (a - 1)
        c *= np.where(n % (low * p) == 0, low * p - low, -low * (n % low == 0))
    return c[()]


def mobius_sieve(n: int) -> np.ndarray:
    """The classical mu(0..n) as int64 (mu(0) = 0): the multiplicative sieve
    with the local values 1, -1, 0, 0, ... at every prime."""
    ps = primes_upto(n)
    loc = {0: (np.array([1, -1] + [0] * n.bit_length(), dtype=np.int64),)}
    (mu,) = _sieve_multiplicative(n, ps, np.zeros(len(ps), dtype=np.int8), loc, (np.int64,))
    return mu


# ----------------------------------------------------------------------------
# divisor-power sums
# ----------------------------------------------------------------------------

TAU_BUDGET = 10**8


def tau_table(l: int, n: int) -> np.ndarray:
    """tau_l(0..n) as an int64 array, tau_l(0) = 0 (tau_l = number of ordered
    l-factorizations)."""
    if l < 2:
        raise ArithError("tau_l needs l >= 2")
    if not 1 <= n <= TAU_BUDGET:
        raise ArithError(f"tau table length {n} outside 1..{TAU_BUDGET}")
    top = _max_tau(l, n)
    if top >= 2**63:
        raise ArithError(f"max tau_{l}(m) over m <= {n} is {top:.3g}, beyond int64")
    ps = primes_upto(n)
    # the sieve reads tau_l(p^k) only at p^k <= n, where it is at most top
    loc = {0: (np.array(local_ideal_counts((1,) * l, max(1, n.bit_length() - 1)), dtype=np.int64),)}
    (t,) = _sieve_multiplicative(n, ps, np.zeros(len(ps), dtype=np.int8), loc, (np.int64,))
    return t


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
        raise ArithError("need l >= 2 and q >= 1")
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
    Each product is taken in int64, so int16 and int32 inputs do not wrap.
    """
    out = np.zeros(nmax + 1, dtype=np.int64)
    r = math.isqrt(nmax)
    for d in (np.flatnonzero(f[1 : r + 1]) + 1).tolist():
        out[d::d] += np.multiply(f[d], g[1 : nmax // d + 1], dtype=np.int64)
    for j in (np.flatnonzero(g[1 : nmax // (r + 1) + 1]) + 1).tolist():
        # n = j d, r < d <= nmax // j
        out[j * (r + 1) :: j] += np.multiply(g[j], f[r + 1 : nmax // j + 1], dtype=np.int64)
    return out


def _first_mismatch(got, want):
    """The first n with got[n - 1] != want[n - 1] (arrays from n = 1), or None."""
    diff = np.nonzero(got != want)[0]
    return int(diff[0]) + 1 if len(diff) else None


def convolution_identity_failure(tables: ArithTables, nmax: int):
    """First n <= nmax with (a_K * mu_K)(n) != [n == 1], or None."""
    nmax = min(nmax, tables.N)
    conv = dirichlet_convolution(tables.aK, tables.muK, nmax)
    conv[1] -= 1  # e(1) = 1
    return _first_mismatch(conv[1:], 0)


def b_sum_identity_failure(tables: ArithTables, nmax: int):
    """First n <= nmax with sum_{m|n} b(m) != a_K(n), or None."""
    nmax = min(nmax, tables.N)
    acc = dirichlet_convolution(tables.b, np.broadcast_to(np.int64(1), (nmax + 1,)), nmax)
    return _first_mismatch(acc[1:], tables.aK[1 : nmax + 1])


def max_abs_ratio(values: np.ndarray, s: float) -> float:
    """max |values[m]| / m^s over 1 <= m < len(values), 2^16 entries at a
    time: the same quotients as one N-length pass, so the same max."""
    best = 0.0
    for lo in range(1, len(values), _TAKE_CHUNK):
        v = values[lo : lo + _TAKE_CHUNK]
        m = np.arange(lo, lo + len(v), dtype=np.float64)
        best = max(best, float(np.max(np.abs(v) / m**s)))
    return best


def max_abs_M_ratio(tables: ArithTables) -> float:
    """max |M_K(x)| / x over 1 <= x <= N, M_K summed from mu_K 2^16 entries
    at a time with a carry: the same quotients as max_abs_ratio of the
    whole-table prefix sum, with no N-length array."""
    best, carry = 0.0, 0
    for lo in range(1, tables.N + 1, _TAKE_CHUNK):
        M = np.cumsum(tables.muK[lo : lo + _TAKE_CHUNK], dtype=np.int64)
        M += carry
        carry = int(M[-1])
        best = max(best, float(np.max(np.abs(M) / np.arange(lo, lo + len(M), dtype=np.float64))))
    return best


# ----------------------------------------------------------------------------
# cubic Dirichlet character (prime conductor), exact in Z[omega]
# ----------------------------------------------------------------------------

def cubic_character(f: int, n: int) -> np.ndarray:
    """chi(0..n) for the cubic residue character mod a prime conductor
    f = 1 (mod 3): an (n + 1, 2) int64 array of Eisenstein pairs (u, v),
    chi(r) = u + v*omega, omega = e^{2 pi i/3}.  By Euler's cubic criterion
    chi(r) = omega^j when r^((f-1)/3) = g^(j (f-1)/3) (mod f), g the least
    generator of (Z/f)*; it is evaluated at the min(f, n + 1) residues that
    are read and repeated with period f.  Conjugating the character (the
    other omega) gives the same two-character product b = chi * conj(chi).
    """
    if f % 3 != 1 or not _is_prime(f):
        raise ArithError(f"conductor {f} is not a prime = 1 mod 3")
    order_facs = factorize(f - 1)
    g = next(g for g in range(2, f) if all(pow(g, (f - 1) // q, f) != 1 for q in order_facs))
    e = (f - 1) // 3
    zeta = pow(g, e, f)
    pair = {0: (0, 0), 1: (1, 0), zeta: (0, 1), zeta * zeta % f: (-1, -1)}
    chi = np.array([pair[pow(r, e, f)] for r in range(min(f, n + 1))], dtype=np.int64)
    return np.resize(chi, (n + 1, 2))  # np.resize repeats the rows cyclically


def b_from_cubic_character(f: int, nmax: int) -> np.ndarray:
    """b(n) = sum_{xy = n} chi(x) conj(chi)(y), exact as integers.

    With chi = u + v omega and conj(chi) = (u - v) - v omega (omega^2 =
    -1 - omega), the product is

        u*(u - v) + v*v  +  (u*(-v) + v*(u - v) + v*v) omega,

    and the omega part is v*u - u*v = 0 because Dirichlet convolution
    commutes.  So b is real for any table of Eisenstein pairs, and two
    integer convolutions give it."""
    u, v = cubic_character(f, nmax).T
    return dirichlet_convolution(u, u - v, nmax) + dirichlet_convolution(v, v, nmax)


def L1_cubic_character(f: int) -> complex:
    """L(1, chi) by the finite formula for an even primitive character,

        L(1, chi) = -(tau(chi)/f) sum_{0<a<f} conj(chi)(a) log|1 - e^{2 pi i a/f}|,

    tau(chi) the Gauss sum; chi(-1) = 1 since chi(-1)^2 = chi(-1)^3 = 1."""
    omega = complex(-0.5, math.sqrt(3) / 2)
    u, v = cubic_character(f, f - 1).T
    chi = u + v * omega
    a = np.arange(f)
    tau = np.sum(chi * np.exp(2j * math.pi * a / f))
    logs = np.log(2.0 * np.sin(math.pi * a[1:] / f))  # |1 - e^{i t}| = 2 sin(t/2)
    return complex(-tau / f * np.dot(np.conj(chi[1:]), logs))


# ----------------------------------------------------------------------------
# table file I/O
# ----------------------------------------------------------------------------

_MAGIC = b"CBSM"
_VERSION = 5


def _column_offsets(head: int, N: int) -> list:
    """The file offset of each table's entry n = 0, in _TABLE_DTYPES order."""
    sizes = [(N + 1) * dtype.itemsize for dtype in _TABLE_DTYPES.values()]
    return [head + sum(sizes[:j]) for j in range(len(sizes))]


def sieve_to_file(field: FieldSpec, N: int, path) -> None:
    """Sieve a_K, mu_K, b up to N into the table file at path one segment at
    a time, so no N-length value table is held.

    The file, version 5: a header (magic, version, length of the field
    document, the field's format_field_spec document as UTF-8, N, zeros up
    to a multiple of 8 bytes), then the little-endian tables a_K (int32),
    mu_K and b (int16) for n = 0..N, 8 bytes per n, each at a multiple of
    its entry size.  The bytes go to a temporary file in the same directory,
    which then replaces path: a reader that maps the old file keeps it
    whole, and an interrupted write leaves nothing under path."""
    inputs = _field_locals(field, N)
    out = [np.empty(min(_SEGMENT, N + 1), dtype=dt) for dt in _TABLE_DTYPES.values()]
    doc = format_field_spec(field).encode("utf-8")
    head = _MAGIC + struct.pack("<II", _VERSION, len(doc)) + doc + struct.pack("<Q", N)
    head += bytes(-len(head) % 8)
    offsets = _column_offsets(len(head), N)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            for lo, arrays in _sieve_segments(N, *inputs, out):
                for off, arr in zip(offsets, arrays):
                    fh.seek(off + lo * arr.itemsize)
                    fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read_header(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ArithError(f"{path}: table file ends inside its header")
    return data


def read_tables(path) -> ArithTables:
    """The tables and field of a sieve_to_file file, mapped read-only: a
    reader reads from the disk only the pages it touches.  Files of earlier
    versions than 5 are refused."""
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
        if N > N_BUDGET:
            raise ArithError(f"{path}: N={N} in the header exceeds N_BUDGET = {N_BUDGET}")
        head = fh.tell() + -fh.tell() % 8  # the header's zeros end at a multiple of 8
        have = os.fstat(fh.fileno()).st_size - head
        want = (N + 1) * sum(dtype.itemsize for dtype in _TABLE_DTYPES.values())
        if have != want:
            raise ArithError(f"{path}: truncated table file ({have} != {want} bytes)")
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    arrays = [np.frombuffer(buf, dtype=dtype, count=N + 1, offset=off)
              for dtype, off in zip(_TABLE_DTYPES.values(), _column_offsets(head, N))]
    return ArithTables(field, *arrays)


def export_csv(tables: ArithTables, path, nmax: int) -> None:
    """n, a_K, mu_K, b, A_K and M_K for n <= nmax as CSV; A_K and M_K are
    summed over those nmax entries only, not over the whole table."""
    n = np.arange(min(nmax, tables.N) + 1)
    cols = (n, tables.aK[n], tables.muK[n], tables.b[n], A_at(tables, n), np.cumsum(tables.muK[n], dtype=np.int64))
    np.savetxt(path, np.column_stack(cols)[1:], fmt="%d", delimiter=",", header="n,aK,muK,b,A,M",
               comments="", encoding="utf-8")
