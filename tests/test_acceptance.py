"""Acceptance suite: one test per numbered criterion, asserted at the stated
tolerance, printing one pass/fail line each (run with -s to see them inline).

The two heavyweight inputs, the N = 10^6 tables for both preset fields, are
session fixtures shared with the rest of the suite; criterion runtimes are
measured over the work the criterion itself names.

Criterion 6 is asserted exactly as stated and is expected to fail at desk
scale; its failure message carries the measured values and the analysis
lives in the repository notes.  Everything else must pass.  Criterion 10b
compares S1 with its full main term Y - 3X^2/(2 pi^2), which follows from
the exact identity S1(X, Y) = Y - sum_{d<=X} (Y mod d) M(X/d).
"""

import math
import time

import numpy as np
import pytest

from cubicsums import arith as ar
from cubicsums import checks as ck
from cubicsums import exponents as ex
from cubicsums import fieldspec as fs
from cubicsums import ideals as idl
from cubicsums import sums as sm


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_01_cross_path_identity(field_nn2, tables_nn2_1m, field_c7, tables_c7_1m):
    """S_K computed by ideal enumeration equals the norm-collapsed
    convolution form, exactly, for all X <= 50 and Y in {10, 100, 1000}
    on both presets, within 60 seconds."""
    t0 = time.perf_counter()
    mismatches = []
    for field, tables in ((field_nn2, tables_nn2_1m), (field_c7, tables_c7_1m)):
        bad = ck.cross_path_failure(tables, 50, (10, 100, 1000))
        if bad is not None:
            mismatches.append((field.name, *bad))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60
    _report(1, ok, f"cross-path identity, 300 (X,Y) pairs in {elapsed:.2f}s; mismatches={mismatches[:3]}")
    assert not mismatches, f"cross-path mismatches: {mismatches[:5]}"
    assert elapsed < 60


def test_criterion_02_convolution_identities(field_nn2, tables_nn2_1m, field_c7, tables_c7_1m):
    """(a_K * mu_K)(n) = [n=1] and sum_{m|n} b(m) = a_K(n) for all n <= 1e6
    on both presets; b = chi * conj(chi) for n <= 1e4 on the cyclic preset;
    all exact, within 30 seconds."""
    t0 = time.perf_counter()
    for tables in (tables_nn2_1m, tables_c7_1m):
        bad = ar.convolution_identity_failure(tables, 10**6)
        assert bad is None, f"{tables.field.name}: convolution identity failed at n={bad}"
        bad = ar.b_sum_identity_failure(tables, 10**6)
        assert bad is None, f"{tables.field.name}: divisor-sum identity failed at n={bad}"
    bad = ck.character_failure(7, tables_c7_1m, 10**4)
    assert bad is None, f"character identity failed at n={bad}"
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 30, f"convolution + character identities to 1e6/1e4 in {elapsed:.2f}s")
    assert elapsed < 30


def test_criterion_03_enumeration_sieve_equivalence(field_nn2, tables_nn2_1m, field_c7, tables_c7_1m):
    """Histogram of enumerate_ideals(B=1e4) equals a_K(1..1e4) entrywise on
    both presets."""
    for field, tables in ((field_nn2, tables_nn2_1m), (field_c7, tables_c7_1m)):
        bad = ck.histogram_failure(tables, 10**4)
        assert bad is None, f"{field.name}: enumeration histogram differs from the sieve at norm {bad}"
    _report(3, True, "enumeration histogram = sieve at B=1e4, both presets")


def test_criterion_04_ramanujan_oracles(field_hook):
    """classical_ramanujan equals the rounded exponential sum for all
    m, n <= 100 (imaginary part < 1e-9); on the rationals hook the ideal
    Ramanujan sum equals the classical one for all norms <= 100."""
    bad = ck.exponential_sum_failure(100)
    assert bad is None, f"exponential-sum oracle fails at (m, n, c_m(n), z) = {bad}"
    ids = idl.enumerate_ideals(field_hook, 100)
    for J in ids:
        for I in ids:
            assert idl.ramanujan_ideal(field_hook, J, I) == ar.classical_ramanujan(J.norm, I.norm)
    _report(4, True, "exponential-sum oracle (m,n<=100) and rationals-hook equality (norms<=100)")


def test_criterion_05_landau_exponent_stability(
    field_nn2, tables_nn2_1m, rho_nn2, field_c7, tables_c7_1m, rho_c7
):
    """max |P_K(x)| / x^{1/2} over the windows [1e5, 5e5] and [5e5, 1e6]
    varies by less than 20% on both presets (values reported)."""
    lines = []
    for field, tables, rho in (
        (field_nn2, tables_nn2_1m, rho_nn2),
        (field_c7, tables_c7_1m, rho_c7),
    ):
        x = np.arange(1, tables.N + 1, dtype=np.float64)
        ratio = np.abs(tables.A_prefix[1:] - rho.value * x) / np.sqrt(x)
        r1 = float(ratio[10**5 - 1 : 5 * 10**5].max())
        r2 = float(ratio[5 * 10**5 - 1 :].max())
        rel = abs(r1 - r2) / max(r1, r2)
        lines.append(f"{field.name}: {r1:.4f} vs {r2:.4f} (rel {rel:.3f})")
        assert rel < 0.20, f"{field.name}: window maxima {r1:.4f}/{r2:.4f} vary by {rel:.1%}"
    _report(5, True, "Landau ratio stable; " + "; ".join(lines))


def test_criterion_06_truncation_scaling(
    field_nn2, tables_nn2_1m, rho_nn2, field_c7, tables_c7_1m, rho_c7
):
    """Fitted exponent of median |P2(Y; y)| in y over y in {8, 64, 512},
    100 sampled Y in [1e5, 2e5], must lie in [-0.6, -0.15].

    Expected to fail at desk scale: the faithful exponent is about -0.14 on
    both presets.  The median |P2| scales like the square root of the
    coefficient tail sum_{n>y} a_K(n)^2 n^{-4/3}, so it decays like y^{-1/6}
    asymptotically; -1/3 is the exponent of the mean square.  The local mean
    of a_K(n)^2 is still growing over n <= 512, so the tail decays slower
    than its asymptotic rate.  (With the conductor-less kernel the exponent
    would be ~ +0.02: no decay at all.)"""
    t0 = time.perf_counter()
    measured = {}
    for field, tables, rho in (
        (field_nn2, tables_nn2_1m, rho_nn2),
        (field_c7, tables_c7_1m, rho_c7),
    ):
        rep = sm.p2_truncation_scan(tables, rho, 10**5, 2 * 10**5, 100, (8, 64, 512))
        measured[field.name] = rep.fitted_exponent
    elapsed = time.perf_counter() - t0
    ok = all(-0.6 <= e <= -0.15 for e in measured.values()) and elapsed < 120
    _report(6, ok, f"median-|P2| decay exponents {measured} in {elapsed:.1f}s (window [-0.6, -0.15])")
    assert elapsed < 120
    for name, e in measured.items():
        assert -0.6 <= e <= -0.15, (
            f"{name}: fitted exponent {e:.3f} outside [-0.6, -0.15]; desk-scale "
            f"coefficient growth caps the decay near -0.14 (asymptotic prediction -1/6 for "
            f"the median; -1/3 is the mean-square exponent)"
        )


def test_criterion_07_exponent_calculus_exact():
    """The three bound-balancing scenarios reproduce the reference monomial
    sets with exact rational exponents, within 1 second."""
    t0 = time.perf_counter()
    xt = ex.scenario_mean_square_xt()
    assert xt.simplified.terms == {
        ex.parse_monomial("X^{31/9} T^{14/9}"),
        ex.parse_monomial("X^{26/9} T^{29/18}"),
    }, f"mean-square scenario produced {xt.simplified}"
    xy = ex.scenario_remainder_xy()
    assert xy.simplified.terms == {
        ex.parse_monomial("X^{11/8} Y^{1/2}"),
        ex.parse_monomial("X^{8/5} Y^{2/5}"),
    }, f"remainder scenario produced {xy.simplified}"
    block = ex.scenario_block_bound()
    six = ex.parse_bound_expr(
        "Y^{1/2} M^{13/10} + Y^{1/2} M^{11/8} + Y^{1/2} M^{5/4} + "
        "Y^{1/3} M^{5/3} + Y^{2/5} M^{8/5} + M^2"
    )
    assert block.display_set.terms == six.terms, f"block display set {block.display_set}"
    assert block.simplified.terms <= six.terms, "block output has terms beyond the six"
    merged = ex.simplify(ex.BoundExpr(six.terms | block.simplified.terms), block.cone)
    assert merged.terms == block.simplified.terms, "block output not equivalent to the six"
    elapsed = time.perf_counter() - t0
    _report(7, elapsed < 1, f"scenario monomial sets exact (block/xy/xt) in {elapsed*1000:.0f}ms")
    assert elapsed < 1


def test_criterion_08_numeric_envelopes():
    """numeric_envelope_check ratio <= 10 on the documented grids for all
    three scenarios."""
    ratios = {name: fn().envelope_ratio for name, fn in ex.SCENARIOS.items()}
    _report(8, all(r <= 10 for r in ratios.values()), f"envelope ratios {ratios}")
    for name, r in ratios.items():
        assert r <= 10, f"{name}: envelope ratio {r} exceeds 10"


def test_criterion_09_meansquare_self_consistency(tables_nn2_1m, rho_nn2):
    """At X=1, T=1e4 the harness integral equals an independent direct
    quadrature of |P_K|^2 within 0.1% relative; the main term equals
    c(X) (3/5)((2T)^{5/3} - T^{5/3}) in closed form; the ratio trend across
    T in {1e3, 1e4, 1e5} at X=5 is tabulated with populated trend fields."""
    rep = sm.meansquare_R(tables_nn2_1m, rho_nn2, 1, 10**4, samples=10**4)
    direct = sm.quadrature_PK_squared(tables_nn2_1m, rho_nn2, 10**4, 10**4)
    rel = abs(rep.integral_R2 - direct) / direct
    assert rel < 1e-3, f"harness vs direct |P_K|^2 quadrature differ by {rel:.2e}"
    T = 10**4
    closed = rep.cX * 0.6 * ((2 * T) ** (5 / 3) - T ** (5 / 3))
    assert rep.main_term == closed, "main term is not the closed form"
    rows, ratios, trend = sm.meansquare_trend(
        tables_nn2_1m, rho_nn2, 5, (10**3, 10**4, 10**5), samples=8192
    )
    assert len(rows) == 3 and all(r.integral_R2 > 0 for r in rows)
    assert trend in ("increasing", "decreasing", "mixed")
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    _report(
        9,
        True,
        f"X=1 path agreement rel={rel:.1e}; trend X=5 ratios={[f'{r:.3g}' for r in ratios]} ({trend})",
    )


def test_criterion_10a_classical_baseline_Y_regime():
    """|S1(X,Y) - Y| / Y <= 0.05 at X=200, Y=X^{2.5}; naive and collapsed
    evaluations agree exactly for X, Y <= 200."""
    X, Y = 200, int(200**2.5)
    s = sm.classical_S1(X, Y)
    rel = abs(s - Y) / Y
    assert rel <= 0.05, f"Y-regime gap {rel:.4f} exceeds 0.05"
    for XX in (17, 100, 200):
        for YY in (13, 120, 200):
            assert sm.classical_S1(XX, YY) == sm.classical_S1_naive(XX, YY), (XX, YY)
    _report("10a", True, f"Y-regime gap {rel:.4f} <= 0.05; naive = collapsed for X,Y <= 200")


def test_criterion_10b_classical_baseline_X2_regime():
    """|S1(X,Y) / (Y - 3X^2/(2 pi^2)) - 1| <= 0.1 at X=1e3, Y=X^{1.5}.

    Since sum_{d<=X} M(X/d) = 1, the divisor collapse gives exactly
    S1(X, Y) = Y - sum_{d<=X} (Y mod d) M(X/d); for Y/X large the residues
    Y mod d average d/2, so the main term is Y - 3X^2/(2 pi^2) and the check
    is on the -3/(2 pi^2) coefficient of its dominant X^2 term.  Y is 0.208
    of that term at X=1e3, so a reference without Y cannot meet the 10%
    tolerance."""
    X = 1000
    Y = int(X**1.5)
    s = sm.classical_S1(X, Y)
    main = Y - 3 * X * X / (2 * math.pi**2)
    gap = abs(s / main - 1)
    ok = gap <= 0.1
    _report("10b", ok, f"X^2-regime gap {gap:.4f} against Y - 3X^2/(2 pi^2)")
    assert gap <= 0.1, (
        f"gap {gap:.4f} > 0.1 at X=1e3: S1 = {s} against the main term "
        f"Y - 3X^2/(2 pi^2) = {main:.1f} of S1 = Y - sum_(d<=X) (Y mod d) M(X/d)"
    )
