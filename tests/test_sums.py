import math

import numpy as np
import pytest

from cubicsums import arith as ar
from cubicsums import fieldspec as fs
from cubicsums import sums as sm


@pytest.fixture(scope="module")
def t1000_nn2(field_nn2):
    return ar.build_tables(field_nn2, 1000)


class TestCrossPath:
    def test_small_grid_both_presets(self, field_nn2, field_c7):
        for f in (field_nn2, field_c7):
            t = ar.build_tables(f, 1000)
            for X in range(1, 13):
                for Y in (10, 100, 1000):
                    d = sm.S_K_direct(f, t, X, Y)
                    r = sm.S_K_reduced(f, t, X, Y)
                    assert d.value == r.value, (f.name, X, Y)
                    assert d.path == "direct_ideal" and r.path == "reduced"

    def test_X1_is_A(self, field_nn2, t1000_nn2):
        for Y in (1, 77, 1000):
            assert sm.S_K_reduced(field_nn2, t1000_nn2, 1, Y).value == ar.partial_A(t1000_nn2, Y)

    def test_Y1_is_M(self, field_nn2, t1000_nn2):
        for X in (1, 20, 50):
            assert sm.S_K_direct(field_nn2, t1000_nn2, X, 1).value == ar.partial_M(t1000_nn2, X)

    def test_X2_hand_expansion(self, field_nn2, t1000_nn2):
        # (m,l) in {(1,1),(1,2),(2,1)}: A(Y) - A(Y) + 2 A(Y/2)
        for Y in (10, 100, 1000):
            want = 2 * ar.partial_A(t1000_nn2, Y // 2)
            assert sm.S_K_reduced(field_nn2, t1000_nn2, 2, Y).value == want

    def test_split_form_consistency(self, field_nn2, t1000_nn2, rho_nn2):
        r = sm.S_K_reduced(field_nn2, t1000_nn2, 37, 1000, rho=rho_nn2)
        assert r.main_plus_R == pytest.approx(r.value, rel=1e-12)

    def test_direct_enumeration_cap(self, field_nn2, t1000_nn2):
        with pytest.raises(sm.SumsError):
            sm.S_K_direct(field_nn2, t1000_nn2, 1001, 10)

    def test_tables_too_short(self, field_nn2, t1000_nn2):
        with pytest.raises(sm.SumsError):
            sm.S_K_reduced(field_nn2, t1000_nn2, 10, 10**5)


class TestRemainder:
    def test_X1_is_PK(self, field_nn2, tables_nn2_1m, rho_nn2):
        for Y in (1234, 31337, 999999):
            assert sm.remainder_R(field_nn2, tables_nn2_1m, rho_nn2, 1, Y) == pytest.approx(
                ar.error_P(tables_nn2_1m, rho_nn2, Y), abs=1e-9
            )

    def test_vectorized_matches_scalar(self, field_nn2, tables_nn2_1m, rho_nn2):
        ys = np.array([1000.5, 5000.5, 99999.5])
        vec = sm.remainder_values(field_nn2, tables_nn2_1m, rho_nn2, 7, ys)
        for y, v in zip(ys, vec):
            assert v == pytest.approx(
                sm.remainder_R(field_nn2, tables_nn2_1m, rho_nn2, 7, float(y)), rel=1e-12
            )

    def test_rho_method_insensitive(self, field_nn2, tables_nn2_1m):
        r1 = ar.estimate_rho(field_nn2, tables_nn2_1m, 10**6, "series_b_over_m")
        r2 = ar.estimate_rho(field_nn2, tables_nn2_1m, 10**6, "regression_on_A")
        Y = 10**5
        a = sm.remainder_R(field_nn2, tables_nn2_1m, r1, 10, Y)
        b = sm.remainder_R(field_nn2, tables_nn2_1m, r2, 10, Y)
        assert abs(a - b) <= 3 * (r1.stderr + r2.stderr) * Y

    def test_envelope_scan(self, field_nn2, tables_nn2_1m, rho_nn2):
        rows, fitted = sm.remainder_envelope_scan(field_nn2, tables_nn2_1m, rho_nn2, (5, 8, 10))
        assert len(rows) == 3
        assert 0 < fitted < 1  # loose sanity; reported, not thresholded


class TestVoronoi:
    def test_decomposition_exact(self, field_nn2, tables_nn2_1m, rho_nn2):
        Y = 2 * 10**5
        p1, p2 = sm.voronoi_P1(field_nn2, tables_nn2_1m, rho_nn2, Y, 64)
        pk = ar.error_P(tables_nn2_1m, rho_nn2, Y)
        assert p1 + p2 == pytest.approx(pk, abs=1e-12)

    def test_deterministic(self, field_nn2, tables_nn2_1m, rho_nn2):
        a = sm.voronoi_P1(field_nn2, tables_nn2_1m, rho_nn2, 12345.5, 100)
        b = sm.voronoi_P1(field_nn2, tables_nn2_1m, rho_nn2, 12345.5, 100)
        assert a == b  # bit-identical

    def test_zero_coefficients_give_zero(self, field_nn2):
        t = ar.build_tables(field_nn2, 1000)
        zeroed = ar.ArithTables(
            field_name=t.field_name,
            N=t.N,
            aK=np.zeros_like(t.aK),
            muK=t.muK,
            b=t.b,
            A_prefix=t.A_prefix,
            M_prefix=t.M_prefix,
        )
        vals = sm.voronoi_P1_values(field_nn2, zeroed, np.array([500.5]), 100)
        assert vals[0] == 0.0

    def test_bounds(self, field_nn2, tables_nn2_1m, rho_nn2):
        with pytest.raises(sm.SumsError):
            sm.voronoi_P1(field_nn2, tables_nn2_1m, rho_nn2, 100, 0.5)
        with pytest.raises(sm.SumsError):
            sm.voronoi_P1(field_nn2, tables_nn2_1m, rho_nn2, 100, 200)

    def test_kernel_amplitude_and_phase(self, field_nn2, tables_nn2_1m, rho_nn2,
                                        field_c7, tables_c7_1m, rho_c7):
        """The expansion kernel is validated directly against P_K: correlating
        P_K(Y)/Y^{1/3} with cos/sin of 6 pi (nY/|D|)^{1/3} must recover
        amplitude |D|^{1/6} a_K(n) / (sqrt(3) pi n^{2/3}) and phase
        -pi/2 per complex place."""
        for field, tables, rho in (
            (field_nn2, tables_nn2_1m, rho_nn2),
            (field_c7, tables_c7_1m, rho_c7),
        ):
            D = abs(field.disc)
            ys = np.arange(2 * 10**5, 9 * 10**5).astype(np.float64) + 0.5
            pk = tables.A_prefix[np.floor(ys).astype(np.int64)] - rho.value * ys
            w = pk / np.cbrt(ys)
            want_phase = -0.5 * math.pi * field.complex_places
            for n in (1, 13):
                a = int(tables.aK[n])
                if a == 0:
                    continue
                th = 6 * math.pi * np.cbrt(n * ys / D)
                cc = 2 * float(np.mean(w * np.cos(th)))
                ss = 2 * float(np.mean(w * np.sin(th)))
                amp = math.hypot(cc, ss)
                pred = D ** (1 / 6) * a / (math.sqrt(3) * math.pi * n ** (2 / 3))
                assert amp == pytest.approx(pred, rel=0.06), (field.name, n)
                phase = math.atan2(-ss, cc)
                delta = abs((phase - want_phase + math.pi) % (2 * math.pi) - math.pi)
                assert delta < 0.05 * math.pi, (field.name, n)

    def test_truncation_scan_decays(self, field_nn2, tables_nn2_1m, rho_nn2):
        rep = sm.p2_truncation_scan(field_nn2, tables_nn2_1m, rho_nn2, 10**5, 2 * 10**5, 100)
        assert rep.medians[0] > rep.medians[1] > rep.medians[2]
        assert rep.fitted_exponent < 0


class TestMeanSquareP2:
    def test_y_one_positive(self, field_nn2, tables_nn2_1m, rho_nn2):
        v = sm.meansquare_P2(field_nn2, tables_nn2_1m, rho_nn2, 10**4, 1, samples=512)
        assert v > 0

    def test_nonnegative(self, field_nn2, tables_nn2_1m, rho_nn2):
        assert sm.meansquare_P2(field_nn2, tables_nn2_1m, rho_nn2, 10**5, 16, samples=256) >= 0

    def test_window_guards(self, field_nn2, tables_nn2_1m, rho_nn2):
        with pytest.raises(sm.SumsError):
            sm.meansquare_P2(field_nn2, tables_nn2_1m, rho_nn2, 10**4, 50)  # y > T^(1/3)
        with pytest.raises(sm.SumsError):
            sm.meansquare_P2(field_nn2, tables_nn2_1m, rho_nn2, 6 * 10**5, 4)  # 2T > N

    def test_grid_exponents(self, field_nn2, tables_nn2_1m, rho_nn2):
        rows, t_exp, y_exp = sm.p2_meansquare_grid(
            field_nn2, tables_nn2_1m, rho_nn2, (10**5, 2 * 10**5, 4 * 10**5), (4, 32), samples=1024
        )
        assert len(rows) == 6
        assert 1.0 < t_exp < 2.5  # against the T^{5/3} reference
        assert y_exp < 0  # decay in the truncation length


class TestComputeCX:
    def test_X1_direct_formula(self, field_nn2, tables_nn2_1m):
        cut = 10**5
        r = sm.compute_cX(field_nn2, tables_nn2_1m, 1, cut)
        n = np.arange(1, cut + 1, dtype=np.float64)
        want = float(np.sum(tables_nn2_1m.aK[1 : cut + 1].astype(np.float64) ** 2 / n ** (4 / 3)))
        want /= 6 * math.pi**2
        assert r.value == pytest.approx(want, rel=1e-12)
        assert r.value > 0

    def test_triple_sum_oracle(self, field_nn2, tables_nn2_1m):
        # brute-force the (m, m1, m2) enumeration at tiny size
        X, cut = 6, 50
        t = tables_nn2_1m
        total = 0.0
        for m in range(1, X + 1):
            for m1 in range(1, X // m + 1):
                for m2 in range(1, X // m + 1):
                    if math.gcd(m1, m2) != 1:
                        continue
                    S = sum(
                        float(t.aK[n * m1] * t.aK[n * m2]) / n ** (4 / 3)
                        for n in range(1, cut + 1)
                    )
                    total += (
                        m ** (4 / 3)
                        * float(t.aK[m * m1] * t.aK[m * m2])
                        * float(t.M_prefix[X // (m * m1)] * t.M_prefix[X // (m * m2)])
                        * S
                    )
        want = total / (6 * math.pi**2)
        got = sm.compute_cX(field_nn2, tables_nn2_1m, X, cut)
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_doubling_cutoff_within_tail(self, field_nn2, tables_nn2_1m):
        a = sm.compute_cX(field_nn2, tables_nn2_1m, 5, 10**5)
        b = sm.compute_cX(field_nn2, tables_nn2_1m, 5, 2 * 10**5)
        assert abs(a.value - b.value) < a.tail_bound

    def test_requested_tolerance_raises(self, field_nn2, tables_nn2_1m):
        with pytest.raises(sm.CutoffError):
            sm.compute_cX(field_nn2, tables_nn2_1m, 5, 10**4, rel_tail_tol=1e-3)

    def test_guards(self, field_nn2, tables_nn2_1m):
        with pytest.raises(sm.SumsError):
            sm.compute_cX(field_nn2, tables_nn2_1m, 0, 10)
        with pytest.raises(sm.SumsError):
            sm.compute_cX(field_nn2, tables_nn2_1m, 2000, 10)
        with pytest.raises(sm.SumsError):
            sm.compute_cX(field_nn2, tables_nn2_1m, 100, 10**5)  # cutoff*X > N


class TestMeanSquareR:
    def test_X1_matches_direct_quadrature(self, field_nn2, tables_nn2_1m, rho_nn2):
        rep = sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 1, 10**4, samples=10**4)
        direct = sm.quadrature_PK_squared(tables_nn2_1m, rho_nn2, 10**4, 10**4)
        assert rep.integral_R2 == pytest.approx(direct, rel=1e-12)

    def test_midpoint_rule_against_exact_integral(self, tables_nn2_1m, rho_nn2):
        quad = sm.quadrature_PK_squared(tables_nn2_1m, rho_nn2, 10**4, 10**4)
        exact = sm.exact_PK_square_integral(tables_nn2_1m, rho_nn2, 10**4)
        assert quad == pytest.approx(exact, rel=2e-3)

    def test_main_term_closed_form(self, field_nn2, tables_nn2_1m, rho_nn2):
        rep = sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 5, 10**3, samples=256)
        T = 10**3
        assert rep.main_term == pytest.approx(
            rep.cX * 0.6 * ((2 * T) ** (5 / 3) - T ** (5 / 3)), rel=1e-15
        )

    def test_error_estimate_covers_refinement(self, field_nn2, tables_nn2_1m, rho_nn2):
        r1 = sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 5, 10**4, samples=2048)
        r2 = sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 5, 10**4, samples=4096)
        assert abs(r1.integral_R2 - r2.integral_R2) <= r1.quadrature_error_est

    def test_guards(self, field_nn2, tables_nn2_1m, rho_nn2):
        with pytest.raises(sm.SumsError):
            sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 5, 40)  # T < 10X
        with pytest.raises(sm.SumsError):
            sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 1, 10**6)  # 2T > N
        with pytest.raises(sm.SumsError):
            sm.meansquare_R(field_nn2, tables_nn2_1m, rho_nn2, 1, 10**3, samples=16)

    def test_trend_fields(self, field_nn2, tables_nn2_1m, rho_nn2):
        rows, ratios, trend = sm.meansquare_trend(
            field_nn2, tables_nn2_1m, rho_nn2, 5, (10**3, 10**4), samples=1024
        )
        assert len(rows) == 2 and len(ratios) == 2
        assert trend in ("increasing", "decreasing", "mixed")
        assert all(r > 0 for r in ratios)


class TestClassicalS1:
    def test_X1(self):
        assert sm.classical_S1(1, 999) == 999

    def test_naive_equals_collapsed(self):
        for X in (1, 7, 31, 60):
            for Y in (1, 10, 60):
                assert sm.classical_S1(X, Y) == sm.classical_S1_naive(X, Y)
        assert sm.classical_S1(200, 200) == sm.classical_S1_naive(200, 200)

    def test_bounds(self):
        with pytest.raises(sm.SumsError):
            sm.classical_S1(10**4 + 1, 10)
        with pytest.raises(sm.SumsError):
            sm.classical_S1(10, 10**7 + 1)

    def test_regime_rows_populated(self):
        rows = sm.s1_regime_rows()
        assert rows[0][0] == "Y-dominant" and rows[0][5] < 0.05
        assert rows[1][0] == "X^2-dominant" and rows[1][5] <= 0.1
