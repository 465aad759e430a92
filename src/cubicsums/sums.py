"""Summatory Ramanujan-sum objects and their error-term experiments.

The central object is the double sum over integral ideals

    S_K(X, Y) = sum_{1 <= N(J) <= X} sum_{1 <= N(I) <= Y} c_J(I),

evaluated two independent ways that must agree exactly:

  direct   enumerate every J of norm <= X and collapse the inner sum
           through the divisors of J (ideal arithmetic),
  reduced  S_K(X, Y) = sum_{m l <= X} m a_K(m) mu_K(l) A_K(Y/m)
                     = sum_{m <= X} m a_K(m) M_K(X/m) A_K(Y/m)
           (integer-sequence convolution; grouping J = M L by norms).

Writing A_K(x) = rho_K x + P_K(x) and using sum_{n<=X} (a_K*mu_K)(n) = 1
turns the reduced form into  S_K = rho_K Y + R_K(X, Y)  with

    R_K(X, Y) = sum_{m <= X} m a_K(m) M_K(X/m) P_K(Y/m).

The ideal-count error term P_K has a truncated oscillating-sum
approximation (cube-root frequencies; d = 3 analogue of the Voronoi
expansion of the divisor problem), with D the field discriminant and r2
the number of complex places (voronoi_P1_values):

    P1(Y; y) = |D|^{1/6} Y^{1/3}/(sqrt(3) pi) * sum_{n <= y} a_K(n) n^{-2/3}
               cos(6 pi (n Y/|D|)^{1/3} - r2 pi/2),
    P2(Y; y) = P_K(Y) - P1(Y; y)   (p2_values),

and the mean square of R_K over Y in [T, 2T] has leading term
c(X) * integral of Y^{2/3}, where

    c(X) = 1/(6 pi^2) sum_{m m1 <= X, m m2 <= X, gcd(m1, m2) = 1}
           m^{4/3} a_K(m m1) a_K(m m2) M_K(X/(m m1)) M_K(X/(m m2))
           * sum_{n >= 1} a_K(n m1) a_K(n m2) / n^{4/3}.

The inner n-sum is an Euler product: a_K is multiplicative and
gcd(m1, m2) = 1, so it equals Z h(m1) h(m2) with Z = sum a_K(n)^2 n^{-4/3}
and h multiplicative, both built from the exact local series a_K(p^k).  Z is
zeta(4/3)^c times a product over p <= 10^6 whose factors beyond that average
1, and a Moebius sum over common divisors replaces the coprimality condition,
so c(X) costs O(X log X) slice sums and carries an estimate of the
error of ending the product at 10^6, not a truncation in n.

R_K(X, .) is a step function minus rho Y; every quadrature here samples at
half-integer Y so jump ambiguity never arises, and float accumulations are
combined with math.fsum in a fixed chunk order.  S_K_reduced is the one
evaluator of S_K and, less rho Y in remainder_values, of R_K at arrays of Y;
at X = 1 R_K is P_K, which p2_values reads once per sample grid for every
truncation y.  M_K is summed from mu_K only up to the X it is read at, and
A_K is read through arith.A_at, once per evaluation at all its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import A_at, ArithTables, RhoEstimate, classical_ramanujan, mobius_sieve
from .fieldspec import SHAPES, FieldSpec, local_ideal_counts, splitting_codes
from .ideals import enumerate_ideals, sum_cJ_over_I

__all__ = [
    "SumsError",
    "S_K_direct_grid",
    "S_K_reduced",
    "remainder_values",
    "voronoi_P1_values",
    "p2_values",
    "meansquare_P2",
    "p2_truncation_scan",
    "p2_meansquare_grid",
    "CXResult",
    "compute_cX",
    "MeanSquareReport",
    "meansquare_R",
    "meansquare_trend",
    "quadrature_PK_squared",
    "exact_PK_square_integral",
    "classical_S1",
    "classical_S1_naive",
    "s1_regime_rows",
    "remainder_envelope_scan",
    "fit_loglog_slope",
]

_SQRT3PI = math.sqrt(3.0) * math.pi
_SIXPI = 6.0 * math.pi


class SumsError(RuntimeError):
    pass


# ----------------------------------------------------------------------------
# the two exact evaluation paths for S_K
# ----------------------------------------------------------------------------

def S_K_direct_grid(tables: ArithTables, x_max, ys) -> np.ndarray:
    """Direct-path S_K(X, Y) for every integer X in 1..x_max and Y in ys, as
    an (x_max, len(ys)) int64 array whose row X - 1 holds S_K(X, Y).

    One enumeration to x_max serves every X: each J's collapsed inner sums
    at every Y go into the row of its norm, and a running sum over norms
    gives S_K(X, Y) for each X in turn.
    """
    if x_max > 10**3:
        raise SumsError(f"direct path enumerates J; X={x_max} exceeds 1000")
    x_max, ys = int(x_max), np.asarray(ys)
    rows = np.zeros((max(x_max, 0), len(ys)), dtype=np.int64)
    for J in enumerate_ideals(tables.field, x_max) if x_max >= 1 else ():
        rows[J.norm - 1] += sum_cJ_over_I(tables, J, ys)
    return np.cumsum(rows, axis=0)


def _aM(tables: ArithTables, X) -> np.ndarray:
    """a_K(n) M_K(X/n) for n = 1..floor X, as int64, with M_K summed from
    mu_K only up to X.  The one rule for X: a NaN, an infinity or a floor
    above N is refused, and X < 1 gives the empty sum."""
    if not X < tables.N + 1:  # a NaN fails too
        raise SumsError(f"tables too short for X={X} (N={tables.N})" if X > tables.N else f"X={X} is not a number")
    Xi = int(X) if X >= 1 else 0
    M = np.cumsum(tables.muK[: Xi + 1], dtype=np.int64)
    return tables.aK[1 : Xi + 1] * M[Xi // np.arange(1, Xi + 1)]


def _reduced_weights(tables: ArithTables, X) -> tuple:
    """(ms, ws): every m <= X whose weight m a_K(m) M_K(X/m) is nonzero, and
    that weight, as int64 arrays."""
    aM = _aM(tables, X)
    ms = np.flatnonzero(aM) + 1
    return ms, ms * aM[ms - 1]


def S_K_reduced(tables: ArithTables, X, ys) -> np.ndarray:
    """S_K(X, Y) = sum_{m <= X} w_m A_K(Y/m), exact int64, at every real Y
    of ys (any shape, 0 <= Y <= N; S_K(X, Y) = S_K(X, floor Y)): one A_at
    read at every floor(Y/m), exact in floats for Y < 2^52, and a product
    with w_m = m a_K(m) M_K(X/m).

    No sum wraps: |w_m| <= X a_K(m) while |M_K(x)| <= x, so |S_K| <~
    rho_K X Y sum_{m <= X} a_K(m)/m, about 10^12 at X = 10^3 and Y = 10^8:
    below 2^53, where float(S_K) is exact too."""
    ms, ws = _reduced_weights(tables, X)
    ys = np.asarray(ys)
    if ys.size and not (ys.min() >= 0 and ys.max() <= tables.N):  # a NaN fails too
        raise SumsError(f"Y values outside table range 0..{tables.N}")
    return A_at(tables, np.floor(ys[..., None] / ms).astype(np.int64)) @ ws


def remainder_values(tables: ArithTables, rho: RhoEstimate, X, ys) -> np.ndarray:
    """R_K(X, Y) = S_K(X, Y) - rho_K Y at every Y of ys; X = 1 gives
    P_K(Y) = A_K(Y) - rho_K Y, since a_K(1) = M_K(1) = 1."""
    ys = np.asarray(ys, dtype=np.float64)
    return S_K_reduced(tables, X, ys) - rho.value * ys


# ----------------------------------------------------------------------------
# truncated oscillating expansion of P_K
# ----------------------------------------------------------------------------

def voronoi_P1_values(tables: ArithTables, ys: np.ndarray, y_trunc) -> np.ndarray:
    """P1(Y; y) on an array of Y values (vectorized, deterministic order).

    The kernel carries the field's functional-equation data: frequencies
    6 pi (n Y / |D|)^{1/3}, amplitude |D|^{1/6} Y^{1/3} / (sqrt(3) pi), and a
    phase shift of -pi/2 per complex place.  Dropping the |D| scaling (as in
    the bare cos(6 pi (nY)^{1/3}) form) leaves a residual P2 that does not
    decay with the truncation length; the corrected kernel is validated
    against P_K by direct amplitude/phase correlation in the test suite.
    The series is that of a cubic zeta_K, so a field of another degree is
    refused.
    """
    if tables.field.degree != 3:
        raise SumsError(f"the Voronoi series P1 needs a cubic field; {tables.field.name} has degree "
                        f"{tables.field.degree}")
    if y_trunc > tables.N:
        raise SumsError(f"truncation y={y_trunc} beyond table range {tables.N}")
    ys = np.asarray(ys, dtype=np.float64)
    D = abs(tables.field.disc)
    phase = -0.5 * math.pi * tables.field.complex_places
    ymax = int(y_trunc)
    n = np.arange(1, ymax + 1, dtype=np.float64)
    coeff = tables.aK[1 : ymax + 1].astype(np.float64) / n ** (2.0 / 3.0)
    cbrt_y = np.cbrt(ys)
    out = np.zeros_like(ys)
    block = max(1, (1 << 21) // max(1, len(ys)))
    for lo in range(0, ymax, block):
        hi = min(lo + block, ymax)
        phases = _SIXPI * np.cbrt(n[lo:hi] / D)[:, None] * cbrt_y[None, :] + phase
        out += coeff[lo:hi] @ np.cos(phases)
    return D ** (1.0 / 6.0) * cbrt_y / _SQRT3PI * out


def p2_values(tables: ArithTables, rho: RhoEstimate, ys, y_values) -> list:
    """[P2(Y; y) = P_K(Y) - P1(Y; y) at every Y of ys, for y in y_values],
    with P_K read once for all of them."""
    if min(y_values, default=0) < 1:
        raise SumsError(f"truncations y must be >= 1; got {tuple(y_values)}")
    ys = np.asarray(ys, dtype=np.float64)
    pk = remainder_values(tables, rho, 1, ys)  # refuses Y outside 0..N
    return [pk - voronoi_P1_values(tables, ys=ys, y_trunc=y) for y in y_values]


def _half_integer_grid(tables: ArithTables, T, samples: int):
    """Deterministic half-integer sample points covering [T, 2T), which must
    lie inside the tables, and the step between them."""
    if 2 * T > tables.N:
        raise SumsError(f"need 2T <= N; got T={T}, N={tables.N}")
    T = int(T)
    m = int(min(samples, T))
    if m < 1:
        raise SumsError(f"quadrature over [T, 2T] needs min(samples, T) >= 1; got samples={samples}, T={T}")
    offsets = (np.arange(m, dtype=np.float64) * (T / m)).astype(np.int64)
    ys = T + offsets.astype(np.float64) + 0.5
    return ys, T / m


def meansquare_P2(tables: ArithTables, rho: RhoEstimate, T: int, y_values, samples: int) -> list:
    """Midpoint quadrature of |P2(Y; y)|^2 over [T, 2T], one per y of
    y_values, all on one reading of P_K."""
    for y in y_values:
        if T < 1 or y < 1 or y**3 > T:
            raise SumsError(f"need T >= 1 and 1 <= y <= T^(1/3); got y={y}, T={T}")
    ys, h = _half_integer_grid(tables, T, samples)
    return [h * math.fsum((p2 * p2).tolist()) for p2 in p2_values(tables, rho, ys, y_values)]


def p2_truncation_scan(
    tables: ArithTables,
    rho: RhoEstimate,
    Y_lo: int,
    Y_hi: int,
    n_samples: int,
    y_values,
) -> tuple:
    """(medians, exponent): the median |P2(Y; y)| over sampled Y for each
    truncation y, and the fitted decay exponent of the median in y.  The
    mean square of P2 decays like y^{-1/3} up to log factors, so the median
    |P2| decays like y^{-1/6}."""
    if not 1 <= Y_lo < Y_hi <= tables.N:
        raise SumsError(f"need 1 <= Y_lo < Y_hi <= N; got [{Y_lo}, {Y_hi}], N={tables.N}")
    step = (Y_hi - Y_lo) / n_samples
    ys = np.floor(Y_lo + (np.arange(n_samples) + 0.5) * step) + 0.5
    medians = [float(np.median(np.abs(p2))) for p2 in p2_values(tables, rho, ys, y_values)]
    return medians, fit_loglog_slope(np.array(y_values, dtype=float), np.array(medians))


def p2_meansquare_grid(tables, rho, T_values, y_values, samples: int):
    """Grid of meansquare_P2 values plus fitted T- and y-exponents."""
    rows = [(T, y, v) for T in T_values
            for y, v in zip(y_values, meansquare_P2(tables, rho, T, y_values, samples=samples))]
    by = {(T, y): v for T, y, v in rows}
    tv, yv = sorted(set(T_values)), sorted(set(y_values))
    y_exp = fit_loglog_slope(yv, [np.mean([by[T, y] for T in tv]) for y in yv])
    t_exp = fit_loglog_slope(tv, [np.mean([by[T, y] for y in yv]) for T in tv])
    return rows, t_exp, y_exp


# ----------------------------------------------------------------------------
# the mean-square leading coefficient c(X)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CXResult:
    value: float
    tail_bound: float  # estimated error from ending Z's Euler product at _P


_P = 10**6  # Z's Euler product runs over p <= _P; zeta(4/3)^c carries the rest
_X_MAX = 10**3
_KMAX = 64  # terms of each local series; a_K(p^k) <= (k+1)(k+2)/2, so at p = 2 the rest is below 3e-19


def _zeta(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin from n = 40 on, with four
    Bernoulli corrections (error below 1e-15 at s = 4/3)."""
    n = 40
    total = math.fsum(k**-s for k in range(1, n)) + n ** (1 - s) / (s - 1) + n**-s / 2
    rising = s  # s (s+1) ... (s+2j-2)
    for j, b2j in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30), 1):
        total += b2j / math.factorial(2 * j) * rising * n ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def _local_series(code: int, extra: int = 0) -> np.ndarray:
    """a_K(p^k), k < _KMAX + extra, for a prime of splitting code `code`."""
    return np.array(local_ideal_counts([f for f, _ in SHAPES[code]], _KMAX + extra - 1), dtype=np.float64)


@lru_cache(maxsize=4)
def _euler_Z(field: FieldSpec, P: int = _P):
    """Z = sum_n a_K(n)^2 n^{-4/3} = zeta(4/3)^c prod_{p<=P} (1-t)^c F_p(t),
    t = p^{-4/3}, F_p(t) = sum_k a_K(p^k)^2 t^k, and c = 1, 3 or 2 the mean of
    a_K(p)^2 over primes (rationals hook, normal cubic, non-normal cubic),
    which makes the factors beyond P average 1.

    Returns (Z, window) with window the sum of the log factors over
    P/2 < p <= P, the estimate of log of the factors left out."""
    c = 1 if field.degree == 1 else 3 if field.normal else 2
    ps, codes = splitting_codes(field, P)
    logs = np.empty(len(ps))
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        sel = codes == code
        t = ps[sel] ** (-4.0 / 3.0)
        a2 = _local_series(code) ** 2
        # Horner gives F_p(t) - 1 directly, so log1p keeps the small factors exact
        logs[sel] = c * np.log1p(-t) + np.log1p(np.polyval(np.append(a2[:0:-1], 0.0), t))
    Z = _zeta(4.0 / 3.0) ** c * math.exp(math.fsum(logs.tolist()))
    return Z, math.fsum(logs[ps > P // 2].tolist())


def _h_values(field: FieldSpec, X: int) -> np.ndarray:
    """h(n) for n <= X, multiplicative with
    h(p^k) = sum_j a_K(p^{j+k}) a_K(p^j) p^{-4j/3} / F_p(p^{-4/3}),
    so that sum_n a_K(n m1) a_K(n m2) n^{-4/3} = Z h(m1) h(m2) for coprime m1, m2."""
    h = np.ones(X + 1)
    ps, codes = splitting_codes(field, X)
    for p, code in zip(ps.tolist(), codes.tolist()):
        kmax = 0
        while p ** (kmax + 1) <= X:
            kmax += 1
        a = _local_series(code, kmax)
        w = p ** (-4.0 / 3.0 * np.arange(_KMAX))
        local = np.array([np.dot(a[k : k + _KMAX] * a[:_KMAX], w) for k in range(kmax + 1)])
        v = np.zeros(X + 1, dtype=np.int64)  # v_p(n)
        for k in range(1, kmax + 1):
            v[p**k :: p**k] += 1
        h *= (local / local[0])[v]
    return h


def compute_cX(tables: ArithTables, X: int) -> CXResult:
    """c(X) from the Euler product of its inner n-sum.

    a_K is multiplicative and gcd(m1, m2) = 1, so the n-sum is
    Z h(m1) h(m2) (see _euler_Z, _h_values).  With
    u_m(j) = a_K(m j) M_K(X/(m j)) h(j), the coprimality condition
    [gcd(j1, j2) = 1] = sum_{d | j1, d | j2} mu(d) collapses the pair sum:

        c(X) = Z/(6 pi^2) sum_m m^{4/3} sum_d mu(d) (sum_{d | j} u_m(j))^2.

    tail_bound is |c(X)| times the window estimate of the Euler factors
    beyond _P.
    """
    if not 1 <= X <= _X_MAX:  # a NaN fails too
        raise SumsError(f"c(X) supports 1 <= X <= {_X_MAX}, got {X}")
    aM = _aM(tables, X)
    X = int(X)
    Z, window = _euler_Z(tables.field)
    h = _h_values(tables.field, X)
    mu = mobius_sieve(X)
    terms = []
    for m in range(1, X + 1):
        L = X // m
        u = aM[m - 1 :: m] * h[1 : L + 1]
        s = math.fsum(float(mu[d]) * float(u[d - 1 :: d].sum()) ** 2 for d in range(1, L + 1) if mu[d])
        terms.append(m ** (4.0 / 3.0) * s)
    value = Z / (6.0 * math.pi**2) * math.fsum(terms)
    return CXResult(value=value, tail_bound=abs(value * window))


# ----------------------------------------------------------------------------
# mean square of R_K over [T, 2T]
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanSquareReport:
    X: int
    T: int
    integral_R2: float
    main_term: float
    cX: float
    samples: int
    quadrature_error_est: float

    @property
    def ratio(self) -> float:
        return self.integral_R2 / self.main_term if self.main_term else math.inf


def _quad_R2(tables, rho, X, T, samples):
    ys, h = _half_integer_grid(tables, T, samples)
    chunk = 8192
    parts = []
    for lo in range(0, len(ys), chunk):
        r = remainder_values(tables, rho, X, ys[lo : lo + chunk])
        parts.append(float(np.dot(r, r)))
    return h * math.fsum(parts), len(ys)


def meansquare_R(
    tables: ArithTables,
    rho: RhoEstimate,
    X: int,
    T: int,
    samples: int,
) -> MeanSquareReport:
    """Quadrature of |R_K(X, Y)|^2 over [T, 2T] against the predicted main
    term c(X) * (3/5) ((2T)^{5/3} - T^{5/3})."""
    if T < 10 * X:
        raise SumsError(f"need T >= 10X, got T={T}, X={X}")
    if min(samples, T) < 33:
        raise SumsError(f"need min(samples, T) >= 33 quadrature points; got T={T}, samples={samples}")
    integral, n_used = _quad_R2(tables, rho, X, T, samples)
    coarse, _ = _quad_R2(tables, rho, X, T, max(17, n_used // 2))
    err = 2.0 * abs(integral - coarse) + 1e-9 * abs(integral)
    cx = compute_cX(tables, X=X)
    main = cx.value * 0.6 * ((2.0 * T) ** (5.0 / 3.0) - float(T) ** (5.0 / 3.0))
    return MeanSquareReport(
        X=int(X),
        T=int(T),
        integral_R2=integral,
        main_term=main,
        cX=cx.value,
        samples=n_used,
        quadrature_error_est=err,
    )


def quadrature_PK_squared(tables: ArithTables, rho: RhoEstimate, T: int, samples: int) -> float:
    """Independent midpoint quadrature of |P_K|^2 over [T, 2T], straight from
    A_K (no S_K machinery)."""
    ys, h = _half_integer_grid(tables, T, samples)
    p = A_at(tables, np.floor(ys).astype(np.int64)) - rho.value * ys
    return h * math.fsum((p * p).tolist())


def exact_PK_square_integral(tables: ArithTables, rho: RhoEstimate, T: int) -> float:
    """Closed-form integral of |P_K|^2 over [T, 2T] (piecewise quadratic)."""
    if T < 1:
        raise SumsError(f"need T >= 1; got T={T}")
    if 2 * T > tables.N:
        raise SumsError(f"need 2T <= N; got T={T}, N={tables.N}")
    n = np.arange(int(T), 2 * int(T))
    A = A_at(tables, n).astype(np.float64)
    r = rho.value
    lo = A - r * n
    hi = A - r * (n + 1)
    return float(np.sum((lo**3 - hi**3) / (3.0 * r)))


def meansquare_trend(tables, rho, X, T_values, samples):
    """Ratio integral/main tabulated over a grid of T (monotone-trend report)."""
    rows = [meansquare_R(tables, rho, X, T, samples=samples) for T in T_values]
    ratios = [r.ratio for r in rows]
    if all(b < a for a, b in zip(ratios, ratios[1:])):
        trend = "decreasing"
    elif all(b > a for a, b in zip(ratios, ratios[1:])):
        trend = "increasing"
    else:
        trend = "mixed"
    return rows, ratios, trend


# ----------------------------------------------------------------------------
# classical integer baseline
# ----------------------------------------------------------------------------

def classical_S1(X: int, Y: int) -> int:
    """S1(X, Y) = sum_{m<=X} sum_{n<=Y} c_m(n), via the exact divisor collapse
    sum_{d l <= X} d mu(l) floor(Y/d).

    Since sum_{d<=X} M(X/d) = 1 (M the Mertens function), this is exactly
    S1(X, Y) = Y - sum_{d<=X} (Y mod d) M(X/d).  When Y/X is large the
    residues Y mod d average d/2, so the main term is Y - 3X^2/(2 pi^2);
    it is not when Y is near X (at Y = X the X^2 coefficient is about 0.61
    of that)."""
    X, Y = int(X), int(Y)
    if X > 10**4 or Y > 10**7:
        raise SumsError(f"classical baseline supports X <= 1e4, Y <= 1e7; got {X}, {Y}")
    if X < 1 or Y < 1:
        return 0
    M = np.cumsum(mobius_sieve(X))
    d = np.arange(1, X + 1)
    return int(np.dot(d * M[X // d], Y // d))  # each term is at most X Y <= 1e11, the sum X^2 Y <= 1e15


def classical_S1_naive(X: int, Y: int) -> int:
    """Brute-force double sum over classical Ramanujan sums (oracle), one row of n per m."""
    ns = np.arange(1, int(Y) + 1)
    return sum(int(classical_ramanujan(m, ns).sum()) for m in range(1, int(X) + 1))


def s1_regime_rows():
    """The two asymptotic-regime comparisons: (X, Y, S1, reference, ratio)."""
    rows = []
    X, Y = 200, int(200**2.5)
    s = classical_S1(X, Y)
    rows.append(("Y-dominant", X, Y, s, Y, abs(s - Y) / Y))
    X, Y = 1000, int(1000**1.5)
    s = classical_S1(X, Y)
    main = Y - 3.0 * X * X / (2.0 * math.pi**2)
    rows.append(("X^2-dominant", X, Y, s, main, abs(s / main - 1.0)))
    return rows


# ----------------------------------------------------------------------------
# remainder envelope scan and fit helpers
# ----------------------------------------------------------------------------

def remainder_envelope_scan(tables, rho, X_values):
    """|R_K(X, Y)| against the envelope X^{8/5} Y^{2/5} + X^{11/8} Y^{1/2}
    at Y = 10 X^3 (inside the Y > X^{11/4} window); fitted constant
    reported, nothing thresholded."""
    rows = []
    for X in X_values:
        if X < 1:
            raise SumsError(f"X={X} below the minimum 1")
        Y = int(10 * X**3)
        if Y > tables.N:
            raise SumsError(f"Y={Y} beyond tables (N={tables.N})")
        R = float(remainder_values(tables, rho, X, Y))
        envelope = X ** (8 / 5) * Y ** (2 / 5) + X ** (11 / 8) * Y ** (1 / 2)
        rows.append((X, Y, R, envelope, abs(R) / envelope))
    fitted = max(r[4] for r in rows)
    return rows, fitted


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs; refused for fewer than
    two distinct xs, where no slope is defined, and for an x or y that is
    not finite and positive, whose log is no number."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    distinct = len(set(xs.tolist()))
    if distinct < 2:
        raise SumsError(f"a log-log slope needs two distinct x values, got {distinct}")
    for name, values in (("x", xs), ("y", ys)):
        if not (np.isfinite(values) & (values > 0)).all():
            raise SumsError(f"a log-log slope needs finite positive {name} values, got {values.tolist()}")
    xs, ys = np.log(xs), np.log(ys)
    xbar, ybar = xs.mean(), ys.mean()
    return float(np.dot(xs - xbar, ys - ybar) / np.dot(xs - xbar, xs - xbar))
