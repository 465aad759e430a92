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
expansion of the divisor problem):

    P1(Y; y) = Y^{1/3}/(sqrt(3) pi) * sum_{n <= y} a_K(n) n^{-2/3}
               cos(6 pi (n Y)^{1/3}),
    P2(Y; y) = P_K(Y) - P1(Y; y),

and the mean square of R_K over Y in [T, 2T] has leading term
c(X) * integral of Y^{2/3}, where

    c(X) = 1/(6 pi^2) sum_{m m1 <= X, m m2 <= X, gcd(m1, m2) = 1}
           m^{4/3} a_K(m m1) a_K(m m2) M_K(X/(m m1)) M_K(X/(m m2))
           * sum_{n >= 1} a_K(n m1) a_K(n m2) / n^{4/3}.

R_K(X, .) is a step function minus rho Y; every quadrature here samples at
half-integer Y so jump ambiguity never arises, and float accumulations are
combined with math.fsum in a fixed chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    ArithTables,
    ArithError,
    RhoEstimate,
    mobius_sieve,
    partial_A,
    tau_table,
)
from .fieldspec import FieldSpec, primes_upto
from .ideals import enumerate_ideals, sum_cJ_over_I

__all__ = [
    "SumResult",
    "SumsError",
    "S_K_direct",
    "S_K_reduced",
    "remainder_R",
    "remainder_values",
    "voronoi_P1",
    "voronoi_P1_values",
    "meansquare_P2",
    "P2ScanReport",
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


class CutoffError(SumsError):
    """Raised when a requested relative tail tolerance cannot be certified."""


# ----------------------------------------------------------------------------
# the two exact evaluation paths for S_K
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SumResult:
    X: float
    Y: float
    value: int
    path: str
    rho_used: RhoEstimate | None = None
    main_plus_R: float | None = None  # rho*Y + R from the split form, if rho given


def _floor_div(Y, m: int) -> int:
    # exact for integral Y; for half-integer Y the quotient is never integral,
    # so float floor cannot straddle a boundary
    if isinstance(Y, (int, np.integer)):
        return int(Y) // m
    return math.floor(Y / m)


def S_K_direct(field: FieldSpec, tables: ArithTables, X, Y) -> SumResult:
    """S_K by enumerating every J of norm <= X (exact integers)."""
    if X > 10**3:
        raise SumsError(f"direct path enumerates J; X={X} exceeds 1000")
    if X < 1:
        return SumResult(X=X, Y=Y, value=0, path="direct_ideal")
    total = 0
    for J in enumerate_ideals(field, int(X)):
        total += sum_cJ_over_I(field, tables, J, Y)
    return SumResult(X=X, Y=Y, value=total, path="direct_ideal")


def S_K_reduced(field: FieldSpec, tables: ArithTables, X, Y, rho: RhoEstimate | None = None) -> SumResult:
    """S_K via the norm-collapsed convolution (exact integers).

    With a rho estimate the split form rho*Y + sum m a_K(m) M_K(X/m) P_K(Y/m)
    is also evaluated; it agrees with the exact value by construction up to
    float rounding.
    """
    Xi = int(X)
    if Xi > tables.N or int(Y) > tables.N:
        raise SumsError(f"tables too short for X={X}, Y={Y} (N={tables.N})")
    if Xi < 1 or Y < 1:
        return SumResult(X=X, Y=Y, value=0, path="reduced")
    total = 0
    rsum = 0.0
    for m in range(1, Xi + 1):
        am = int(tables.aK[m])
        if am == 0:
            continue
        Ml = int(tables.M_prefix[Xi // m])
        if Ml == 0:
            continue
        Av = int(tables.A_prefix[_floor_div(Y, m)])
        total += m * am * Ml * Av
        if rho is not None:
            rsum += m * am * Ml * (Av - rho.value * Y / m)
    main_plus_R = (rho.value * Y + rsum) if rho is not None else None
    return SumResult(X=X, Y=Y, value=total, path="reduced", rho_used=rho, main_plus_R=main_plus_R)


def remainder_R(field: FieldSpec, tables: ArithTables, rho: RhoEstimate, X, Y) -> float:
    """R_K(X, Y) = S_K(X, Y) - rho_K Y (reduced path)."""
    return S_K_reduced(field, tables, X, Y).value - rho.value * Y


def remainder_values(field: FieldSpec, tables: ArithTables, rho: RhoEstimate, X, ys: np.ndarray) -> np.ndarray:
    """R_K(X, Y) on an array of Y values (float path for quadrature)."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size and (ys.max() > tables.N or ys.min() < 1):
        raise SumsError("Y values outside table range")
    Xi = int(X)
    acc = np.zeros_like(ys)
    for m in range(1, Xi + 1):
        am = int(tables.aK[m])
        if am == 0:
            continue
        Ml = int(tables.M_prefix[Xi // m])
        if Ml == 0:
            continue
        idx = np.floor(ys / m).astype(np.int64)
        acc += float(m * am * Ml) * tables.A_prefix[idx]
    return acc - rho.value * ys


# ----------------------------------------------------------------------------
# truncated oscillating expansion of P_K
# ----------------------------------------------------------------------------

def voronoi_P1(field: FieldSpec, tables: ArithTables, rho: RhoEstimate, Y, y_trunc):
    """Truncated cube-root expansion P1(Y; y) and the residual P2 = P_K - P1."""
    if not 1 <= y_trunc <= Y:
        raise SumsError(f"need 1 <= y_trunc <= Y, got y_trunc={y_trunc}, Y={Y}")
    if Y > tables.N:
        raise SumsError(f"Y={Y} beyond table range {tables.N}")
    p1 = float(voronoi_P1_values(field, tables, np.array([float(Y)]), y_trunc)[0])
    pk = partial_A(tables, math.floor(Y)) - rho.value * Y
    return p1, pk - p1


def voronoi_P1_values(field: FieldSpec, tables: ArithTables, ys: np.ndarray, y_trunc) -> np.ndarray:
    """P1(Y; y) on an array of Y values (vectorized, deterministic order).

    The kernel carries the field's functional-equation data: frequencies
    6 pi (n Y / |D|)^{1/3}, amplitude |D|^{1/6} Y^{1/3} / (sqrt(3) pi), and a
    phase shift of -pi/2 per complex place.  Dropping the |D| scaling (as in
    the bare cos(6 pi (nY)^{1/3}) form) leaves a residual P2 that does not
    decay with the truncation length; the corrected kernel is validated
    against P_K by direct amplitude/phase correlation in the test suite.
    """
    ys = np.asarray(ys, dtype=np.float64)
    D = abs(field.disc)
    phase = -0.5 * math.pi * field.complex_places
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


def _half_integer_grid(T: int, samples: int):
    """Deterministic half-integer sample points covering [T, 2T)."""
    m = int(min(samples, T))
    offsets = (np.arange(m, dtype=np.float64) * (T / m)).astype(np.int64)
    ys = T + offsets.astype(np.float64) + 0.5
    return ys, T / m


def meansquare_P2(field: FieldSpec, tables: ArithTables, rho: RhoEstimate, T: int, y, samples: int = 4096) -> float:
    """Midpoint quadrature of |P2(Y; y)|^2 over [T, 2T]."""
    if y < 1 or y > T ** (1.0 / 3.0):
        raise SumsError(f"need 1 <= y <= T^(1/3); got y={y}, T={T}")
    if 2 * T > tables.N:
        raise SumsError(f"need 2T <= N; got T={T}, N={tables.N}")
    ys, h = _half_integer_grid(int(T), samples)
    pk = tables.A_prefix[np.floor(ys).astype(np.int64)] - rho.value * ys
    p2 = pk - voronoi_P1_values(field, tables, ys, y)
    return h * math.fsum((p2 * p2).tolist())


@dataclass(frozen=True)
class P2ScanReport:
    y_values: tuple
    medians: tuple
    fitted_exponent: float
    n_samples: int
    Y_window: tuple


def p2_truncation_scan(
    field: FieldSpec,
    tables: ArithTables,
    rho: RhoEstimate,
    Y_lo: int,
    Y_hi: int,
    n_samples: int,
    y_values=(8, 64, 512),
) -> P2ScanReport:
    """Median |P2(Y; y)| over sampled Y for each truncation y, with the
    fitted decay exponent of the median in y.  The mean square of P2 decays
    like y^{-1/3} up to log factors, so the median |P2| decays like
    y^{-1/6}."""
    if Y_hi > tables.N:
        raise SumsError("Y window beyond table range")
    step = (Y_hi - Y_lo) / n_samples
    ys = np.floor(Y_lo + (np.arange(n_samples) + 0.5) * step) + 0.5
    pk = tables.A_prefix[np.floor(ys).astype(np.int64)] - rho.value * ys
    medians = []
    for y in y_values:
        p2 = pk - voronoi_P1_values(field, tables, ys, y)
        medians.append(float(np.median(np.abs(p2))))
    slope = fit_loglog_slope(np.array(y_values, dtype=float), np.array(medians))
    return P2ScanReport(
        y_values=tuple(y_values),
        medians=tuple(medians),
        fitted_exponent=slope,
        n_samples=n_samples,
        Y_window=(Y_lo, Y_hi),
    )


def p2_meansquare_grid(field, tables, rho, T_values, y_values, samples: int = 2048):
    """Grid of meansquare_P2 values plus fitted T- and y-exponents."""
    rows = []
    for T in T_values:
        for y in y_values:
            rows.append((T, y, meansquare_P2(field, tables, rho, T, y, samples=samples)))
    tv = sorted(set(r[0] for r in rows))
    yv = sorted(set(r[1] for r in rows))
    by = {(r[0], r[1]): r[2] for r in rows}
    y_exp = fit_loglog_slope(
        np.array(yv, dtype=float),
        np.array([np.mean([by[(T, y)] for T in tv]) for y in yv]),
    )
    t_exp = fit_loglog_slope(
        np.array(tv, dtype=float),
        np.array([np.mean([by[(T, y)] for y in yv]) for T in tv]),
    )
    return rows, t_exp, y_exp


# ----------------------------------------------------------------------------
# the mean-square leading coefficient c(X)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CXResult:
    X: int
    n_cutoff: int
    value: float
    tail_bound: float
    abs_mass: float  # same triple sum with all factors in absolute value


@lru_cache(maxsize=2)
def _tau4_over_n43_suffix(limit: int = 10**6):
    """Suffix sums of tau(n)^4 / n^{4/3} within the table, plus a finite
    bound for the part beyond the table (Rankin-style, extremely
    conservative at desk scale; reported, never load-bearing)."""
    t = tau_table(2, limit)[1:].astype(np.float64)
    n = np.arange(1, limit + 1, dtype=np.float64)
    w = t**4 / n ** (4.0 / 3.0)
    suffix = np.zeros(limit + 2, dtype=np.float64)
    suffix[1 : limit + 1] = np.cumsum(w[::-1])[::-1]
    # beyond the table: sum_{n>M} tau^4 n^{-4/3} <= M^{-d} * zeta(4/3-d)^16 * H(4/3-d)
    ps = primes_upto(10**4).astype(np.float64)
    best = math.inf
    for d in (1.0 / 24, 1.0 / 12, 1.0 / 8, 1.0 / 6):
        s = 4.0 / 3.0 - d
        zeta = float(np.sum(np.arange(1, 200000, dtype=np.float64) ** (-s))) + (200000.0 ** (1 - s)) / (s - 1)
        logH = 0.0
        for p in ps:
            ratio = p**-s
            local = 0.0
            k = 0
            term = 1.0
            while term > 1e-18:
                local += (k + 1) ** 4 * term
                k += 1
                term = ratio**k
            logH += 16 * math.log1p(-ratio) + math.log(local)
        best = min(best, limit**-d * zeta**16 * math.exp(logH))
    return suffix, best


def _tau4_tail_bound(B: int) -> float:
    suffix, beyond = _tau4_over_n43_suffix()
    B = min(B, len(suffix) - 2)
    return float(suffix[B + 1]) + beyond


def compute_cX(
    field: FieldSpec,
    tables: ArithTables,
    X: int,
    n_cutoff: int,
    rel_tail_tol: float | None = None,
) -> CXResult:
    """c(X) truncated at n <= n_cutoff, with a majorized bound for the tail.

    The tail bound uses a_K(nm) <= tau(n)^2 tau(m)^2 and a tau^4/n^{4/3}
    suffix table; it is a desk-scale majorization, conservative by orders of
    magnitude (the honest truncation error is gauged by doubling n_cutoff).
    When rel_tail_tol is given and tail_bound > rel_tail_tol * |value| a
    CutoffError is raised rather than reporting an uncertified value.
    """
    X = int(X)
    if X < 1 or X > 10**3:
        raise SumsError(f"c(X) enumeration supports 1 <= X <= 1000, got {X}")
    if n_cutoff < 1 or n_cutoff * X > tables.N:
        raise SumsError(
            f"n_cutoff={n_cutoff} needs a_K up to n_cutoff*X = {n_cutoff * X} > N={tables.N}"
        )
    aK = tables.aK
    Mpre = tables.M_prefix
    tau2 = tau_table(2, X)[: X + 1].astype(np.float64) ** 2
    nw = np.arange(1, n_cutoff + 1, dtype=np.float64) ** (-4.0 / 3.0)
    tail_unit = _tau4_tail_bound(n_cutoff)
    terms = []
    mass_terms = []
    tail_terms = []
    for m1 in range(1, X + 1):
        a1 = aK[m1 :: m1][:n_cutoff].astype(np.float64)
        for m2 in range(m1, X + 1):
            if math.gcd(m1, m2) != 1:
                continue
            sym = 1.0 if m1 == m2 else 2.0
            # inner n-sum (exact truncation) and coefficient sum over m
            a2 = aK[m2 :: m2][:n_cutoff].astype(np.float64)
            L = min(len(a1), len(a2))
            S = float(np.dot(a1[:L] * a2[:L], nw[:L]))
            mmax = X // m2  # m2 >= m1
            if mmax == 0:
                continue
            ms = np.arange(1, mmax + 1)
            am1 = aK[ms * m1].astype(np.float64)
            am2 = aK[ms * m2].astype(np.float64)
            M1 = Mpre[X // (ms * m1)].astype(np.float64)
            M2 = Mpre[X // (ms * m2)].astype(np.float64)
            mw = ms.astype(np.float64) ** (4.0 / 3.0)
            W = float(np.dot(mw, am1 * am2 * M1 * M2))
            W_abs = float(np.dot(mw, am1 * am2 * np.abs(M1 * M2)))
            terms.append(sym * W * S)
            mass_terms.append(sym * W_abs * S)
            tail_terms.append(sym * W_abs * tau2[m1] * tau2[m2] * tail_unit)
    norm = 1.0 / (6.0 * math.pi**2)
    value = norm * math.fsum(terms)
    abs_mass = norm * math.fsum(mass_terms)
    tail = norm * math.fsum(tail_terms)
    if rel_tail_tol is not None and tail > rel_tail_tol * abs(value):
        raise CutoffError(
            f"n_cutoff={n_cutoff} too small: tail bound {tail:.3g} exceeds "
            f"{rel_tail_tol:.1e} * |c(X)| = {rel_tail_tol * abs(value):.3g}"
        )
    return CXResult(X=X, n_cutoff=n_cutoff, value=value, tail_bound=tail, abs_mass=abs_mass)


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
    cX_tail_bound: float
    samples: int
    quadrature_error_est: float

    def __post_init__(self):
        if self.samples < 33:
            raise SumsError("mean-square quadrature needs samples >= 33")
        if self.integral_R2 < 0:
            raise SumsError("negative mean-square integral")

    @property
    def ratio(self) -> float:
        return self.integral_R2 / self.main_term if self.main_term else math.inf


def _quad_R2(field, tables, rho, X, T, samples):
    ys, h = _half_integer_grid(int(T), samples)
    chunk = 8192
    parts = []
    for lo in range(0, len(ys), chunk):
        r = remainder_values(field, tables, rho, X, ys[lo : lo + chunk])
        parts.append(float(np.dot(r, r)))
    return h * math.fsum(parts), len(ys)


def meansquare_R(
    field: FieldSpec,
    tables: ArithTables,
    rho: RhoEstimate,
    X: int,
    T: int,
    samples: int = 4096,
    n_cutoff: int | None = None,
) -> MeanSquareReport:
    """Quadrature of |R_K(X, Y)|^2 over [T, 2T] against the predicted main
    term c(X) * (3/5) ((2T)^{5/3} - T^{5/3})."""
    if T < 10 * X:
        raise SumsError(f"need T >= 10X, got T={T}, X={X}")
    if 2 * T > tables.N:
        raise SumsError(f"need 2T <= N, got T={T}, N={tables.N}")
    if samples < 33:
        raise SumsError("samples >= 33 required")
    integral, n_used = _quad_R2(field, tables, rho, X, T, samples)
    coarse, _ = _quad_R2(field, tables, rho, X, T, max(17, n_used // 2))
    err = 2.0 * abs(integral - coarse) + 1e-9 * abs(integral)
    if n_cutoff is None:
        n_cutoff = max(1, min(tables.N // max(1, X), 2 * 10**5))
    cx = compute_cX(field, tables, X, n_cutoff)
    main = cx.value * 0.6 * ((2.0 * T) ** (5.0 / 3.0) - float(T) ** (5.0 / 3.0))
    return MeanSquareReport(
        X=int(X),
        T=int(T),
        integral_R2=integral,
        main_term=main,
        cX=cx.value,
        cX_tail_bound=cx.tail_bound,
        samples=n_used,
        quadrature_error_est=err,
    )


def quadrature_PK_squared(tables: ArithTables, rho: RhoEstimate, T: int, samples: int) -> float:
    """Independent midpoint quadrature of |P_K|^2 over [T, 2T], straight from
    the prefix sums (no S_K machinery)."""
    ys, h = _half_integer_grid(int(T), samples)
    p = tables.A_prefix[np.floor(ys).astype(np.int64)] - rho.value * ys
    return h * math.fsum((p * p).tolist())


def exact_PK_square_integral(tables: ArithTables, rho: RhoEstimate, T: int) -> float:
    """Closed-form integral of |P_K|^2 over [T, 2T] (piecewise quadratic)."""
    n = np.arange(int(T), 2 * int(T))
    A = tables.A_prefix[n].astype(np.float64)
    r = rho.value
    lo = A - r * n
    hi = A - r * (n + 1)
    return float(np.sum((lo**3 - hi**3) / (3.0 * r)))


def meansquare_trend(field, tables, rho, X, T_values, samples=4096, n_cutoff=None):
    """Ratio integral/main tabulated over a grid of T (monotone-trend report)."""
    rows = [meansquare_R(field, tables, rho, X, T, samples=samples, n_cutoff=n_cutoff) for T in T_values]
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
    mu = mobius_sieve(X)
    M = np.cumsum(mu)
    total = 0
    for d in range(1, X + 1):
        total += d * int(M[X // d]) * (Y // d)
    return total


def classical_S1_naive(X: int, Y: int) -> int:
    """Brute-force double sum over classical Ramanujan sums (oracle)."""
    from .arith import classical_ramanujan

    return sum(classical_ramanujan(m, n) for m in range(1, int(X) + 1) for n in range(1, int(Y) + 1))


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

def remainder_envelope_scan(field, tables, rho, X_values=(5, 8, 10), y_mult: float = 10.0):
    """|R_K(X, Y)| against the envelope X^{8/5} Y^{2/5} + X^{11/8} Y^{1/2}
    at Y = y_mult * X^3 (inside the Y > X^{11/4} window); fitted constant
    reported, nothing thresholded."""
    rows = []
    for X in X_values:
        Y = int(y_mult * X**3)
        if Y > tables.N:
            raise SumsError(f"Y={Y} beyond tables (N={tables.N})")
        R = remainder_R(field, tables, rho, X, Y)
        envelope = X ** (8 / 5) * Y ** (2 / 5) + X ** (11 / 8) * Y ** (1 / 2)
        rows.append((X, Y, R, envelope, abs(R) / envelope))
    fitted = max(r[4] for r in rows)
    return rows, fitted


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs."""
    xs = np.log(np.asarray(xs, dtype=np.float64))
    ys = np.log(np.maximum(np.asarray(ys, dtype=np.float64), 1e-300))
    xbar, ybar = xs.mean(), ys.mean()
    return float(np.dot(xs - xbar, ys - ybar) / np.dot(xs - xbar, xs - xbar))
