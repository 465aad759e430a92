"""The exact-identity suite behind `cubicsums verify` and the acceptance tests.

Each ``*_failure`` function runs one check and returns its first
counterexample, or None when the check holds.  `field_suite` and
`classical_suite` run them in a fixed order and return
(field, check, ok, detail) rows; a seeded rng is consumed in that order, so
the seed fixes every sampled ideal and nothing else.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import arith, fieldspec, ideals, sums

__all__ = [
    "character_failure",
    "histogram_failure",
    "cross_path_failure",
    "ideal_sample_failure",
    "collapse_failure",
    "multiplicativity_failure",
    "restriction_failure",
    "remainder_failure",
    "voronoi_split_failure",
    "exponential_sum_failure",
    "field_suite",
    "classical_suite",
]


def _first_mismatch(got, want):
    diff = np.nonzero(got != want)[0]
    return int(diff[0]) + 1 if len(diff) else None


def character_failure(tables, nmax):
    """First n <= nmax with b(n) != (chi * conj(chi))(n), chi the cubic
    character of the tables' field's prime conductor, or None."""
    return _first_mismatch(arith.b_from_cubic_character(tables.field.conductor_f, nmax)[1:], tables.b[1 : nmax + 1])


def histogram_failure(tables, B):
    """First norm n <= B whose number of enumerated ideals is not a_K(n), or None."""
    hist = np.bincount([I.norm for I in ideals.enumerate_ideals(tables.field, B)], minlength=B + 1)
    return _first_mismatch(hist[1:], tables.aK[1 : B + 1])


def cross_path_failure(tables, x_max, ys):
    """First (X, Y, direct, reduced) over X <= x_max, Y in ys where the two
    evaluations of S_K(X, Y) differ, or None."""
    for X, row in enumerate(sums.S_K_direct_grid(tables, x_max, ys), start=1):
        for Y, d in zip(ys, row):
            r = sums.S_K_reduced(tables, X, Y)
            if d != r:
                return (X, Y, d, r)
    return None


def ideal_sample_failure(field, samples):
    """First failure over (J, I, I') samples of c_J(I) = c_J(gcd(I, J)) or
    N(I I') = N(I) N(I'), as (property, ideal, ideal), or None."""
    for J, I, Icop in samples:
        g = ideals.ideal_gcd(I, J)
        if ideals.ramanujan_ideal(field, J, I) != ideals.ramanujan_ideal(field, J, g):
            return ("gcd-dependence", str(J), str(I))
        if ideals.ideal_mul(I, Icop).norm != I.norm * Icop.norm:
            return ("norm multiplicativity", str(I), str(Icop))
    return None


def collapse_failure(tables, Js):
    """First (J, Y, naive, collapsed), Y in {10, 100, 500}, where summing
    c_J(I) over the enumerated I of norm <= Y differs from the divisor
    collapse, or None."""
    field = tables.field
    pool = ideals.enumerate_ideals(field, 500)  # one enumeration serves every Y
    for J in Js:
        for Y in (10, 100, 500):
            naive = sum(ideals.ramanujan_ideal(field, J, I) for I in pool if I.norm <= Y)
            coll = ideals.sum_cJ_over_I(tables, J, Y)
            if naive != coll:
                return (str(J), Y, naive, coll)
    return None


def multiplicativity_failure(tables, lim):
    """First coprime (m, n), 1 < m < n, mn <= lim, with a_K(mn) != a_K(m) a_K(n), or None."""
    aK = tables.aK[: lim + 1].tolist()  # python ints: an int32 product could wrap
    for m in range(2, lim):
        if m * (m + 1) > lim:
            break
        for n in range(m + 1, lim // m + 1):
            if math.gcd(m, n) == 1 and aK[m * n] != aK[m] * aK[n]:
                return (m, n)
    return None


def restriction_failure(tables, n_small):
    """First n <= n_small where a fresh sieve to n_small disagrees with the
    tables in a_K or mu_K (n_small itself when the tables are shorter), or None."""
    if n_small > tables.N:
        return n_small
    small = arith.build_tables(tables.field, n_small)
    bad = [_first_mismatch(getattr(small, k)[1:], getattr(tables, k)[1 : n_small + 1]) for k in ("aK", "muK")]
    return min((n for n in bad if n is not None), default=None)


def remainder_failure(tables, rho, Y):
    """(R_K(1, Y), P_K(Y)) if they differ by 1e-9 or more, else None; P_K(Y)
    sums a_K itself, not the prefix sum that the reduced path reads."""
    lhs = sums.remainder_R(tables, rho, 1, Y)
    rhs = int(np.sum(tables.aK[1 : Y + 1], dtype=np.int64)) - rho.value * Y
    return None if abs(lhs - rhs) < 1e-9 else (lhs, rhs)


def voronoi_split_failure(tables, rho, Y, y):
    """(P1 + P2, P_K(Y)) if the truncated expansion and its residual miss
    P_K(Y) by more than 1e-9 relative, else None.

    sums.voronoi_P1 defines P2 as P_K - P1 with P_K from
    sums.remainder_values at X = 1, so this compares that evaluator with
    arith.partial_A; P1 itself is not checked against an independently
    computed value."""
    p1, p2 = sums.voronoi_P1(tables, rho, Y, y)
    pk = arith.error_P(tables, rho, Y)
    return None if abs((p1 + p2) - pk) <= 1e-9 * max(1.0, abs(pk)) else (p1 + p2, pk)


def exponential_sum_failure(size):
    """First (m, n, c_m(n), z) over m, n <= size where the exponential sum
    z = sum_{j <= m, (j, m) = 1} e(jn/m) has imaginary part >= 1e-9 or
    does not round to classical_ramanujan(m, n), or None."""
    ns = np.arange(1, size + 1)
    for m in range(1, size + 1):
        js = np.array([j for j in range(1, m + 1) if math.gcd(j, m) == 1])
        theta = 2 * math.pi * js[:, None] * ns / m
        zs = (np.cos(theta) + 1j * np.sin(theta)).sum(axis=0)
        for n, z in enumerate(zs.tolist(), start=1):
            c = arith.classical_ramanujan(m, n)
            if abs(z.imag) >= 1e-9 or round(z.real) != c:
                return (m, n, c, z)
    return None


def field_suite(tables, rng, x_max, ys):
    """Every per-field check, as (field name, check, ok, detail) rows.

    A failed convolution identity ends the suite, since every later check
    reads the same tables.  The cross-path check runs every X <= x_max and
    Y in ys, within the direct path's and the tables' limits.  The last two
    rows are reports and always pass.
    """
    field = tables.field
    rows = []

    def add(name, bad, detail):
        rows.append((field.name, name, bad is None, detail))
        return bad is None

    nmax = min(tables.N, 10**6)
    bad = arith.convolution_identity_failure(tables, nmax)
    if not add("convolution aK*muK=e", bad, f"convolution identity failed at n={bad}" if bad else f"n<= {nmax}"):
        return rows
    bad = arith.b_sum_identity_failure(tables, nmax)
    if not add("divisor-sum 1*b=aK", bad, f"b identity failed at n={bad}" if bad else f"n<= {nmax}"):
        return rows
    if field.normal and fieldspec._is_prime(field.conductor_f):  # cubic_character needs a prime conductor
        ncheck = min(nmax, 10**4)
        bad = character_failure(tables, ncheck)
        add("b = chi * conj(chi)", bad, f"character identity failed at n={bad}" if bad else f"n<= {ncheck}")
    B = min(tables.N, 10**4)
    bad = histogram_failure(tables, B)
    add("enumeration histogram = aK", bad, f"histogram mismatch at norm {bad}" if bad else f"B={B}")
    if field.degree == 3:
        ys = list(ys)
        bad = cross_path_failure(tables, x_max, ys)
        add("cross-path S_K direct=reduced", bad, f"S_K mismatch at {bad}" if bad else f"X<={x_max}, Y in {ys}")

    # seeded samples, drawn lazily so a failure stops the draws where it occurs
    draw = ideals.random_factored_ideal
    samples = ((draw(field, rng, 50), draw(field, rng, 500), draw(field, rng, 500)) for _ in range(30))
    first = next(samples)
    bad = ideal_sample_failure(field, itertools.chain([first], samples))
    add("c_J(I) gcd dependence + norms", bad,
        str(bad) if bad else f"30 seeded samples; first={(str(first[0]), str(first[1]))}")
    bad = collapse_failure(tables, (draw(field, rng, 50) for _ in range(5)))
    add("sum_cJ collapse = naive", bad, str(bad) if bad else "5 seeded J, Y in {10,100,500}")

    lim = min(tables.N, 5000)
    bad = multiplicativity_failure(tables, lim)
    add("aK multiplicative", bad, str(bad) if bad else f"exhaustive mn<={lim}")
    n_small = max(arith.N_MIN, tables.N // 10)
    add("restriction bit-exact", restriction_failure(tables, n_small), f"N'={n_small}")

    if field.degree == 3 and tables.N >= arith.N_MIN:
        rho, _ = arith.estimate_rho(tables, min(tables.N, 10**5))
        Y = min(tables.N, 54321)
        add("remainder_R(1,Y) = P_K(Y)", remainder_failure(tables, rho, Y), f"Y={Y}")
        add("P1 + P2 = P_K", voronoi_split_failure(tables, rho, Y, min(64, Y)), f"Y={Y}")

    mbound = arith.max_abs_ratio(tables.M_prefix, 1)
    rows.append((field.name, "report max|M_K(x)|/x", True,
                 f"{mbound:.6f}" + (" (>1: bound violated)" if mbound > 1 else "")))
    rows.append((field.name, "report max|b(m)|/m^0.1", True, f"{arith.max_abs_ratio(tables.b, 0.1):.6f}"))
    return rows


def classical_suite():
    """The field-independent checks on classical Ramanujan sums, as rows."""
    bad = exponential_sum_failure(100)
    naive, coll = sums.classical_S1_naive(60, 80), sums.classical_S1(60, 80)
    return [
        ("classical", "ramanujan sum = exponential sum", bad is None, str(bad or "m,n<=100")),
        ("classical", "S1 naive = collapsed", naive == coll, f"{naive} vs {coll}"),
    ]
