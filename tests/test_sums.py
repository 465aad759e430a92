import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from test_fieldspec import RANDOM_COEFFS, _random_field

from cubicsums import arith as ar
from cubicsums import fieldspec as fs
from cubicsums import ideals as idl
from cubicsums import sums as sm


@pytest.fixture(scope="module")
def t1000_nn2(field_nn2):
    return ar.build_tables(field_nn2, 1000)


class TestCrossPath:
    def test_small_grid_both_presets(self, field_nn2, field_c7):
        for f in (field_nn2, field_c7):
            t = ar.build_tables(f, 1000)
            grid = sm.S_K_direct_grid(t, 50, (10, 100, 1000))
            assert len(grid) == 50
            for X, row in enumerate(grid, start=1):
                assert row == [sm.S_K_reduced(t, X, Y) for Y in (10, 100, 1000)], (f.name, X)

    def test_direct_is_classical_on_rationals(self, field_hook):
        # over Q the direct path is S1(X, Y); classical_S1 reads no field tables
        t = ar.build_tables(field_hook, 1000)
        ys = (10, 100, 1000)
        for X, row in enumerate(sm.S_K_direct_grid(t, 40, ys), start=1):
            assert row == [sm.classical_S1(X, Y) for Y in ys], X

    def test_numpy_integer_Y(self, t1000_nn2):
        # both paths take floor(Y / n) as an integer floor division, so
        # np.int64 and int Y give the same values
        field = t1000_nn2.field
        for Y in (1, 10, 100, 999):
            assert sm.S_K_reduced(t1000_nn2, 30, np.int64(Y)) == sm.S_K_reduced(t1000_nn2, 30, Y)
            for J in idl.enumerate_ideals(field, 30):
                assert idl.sum_cJ_over_I(t1000_nn2, J, np.int64(Y)) == idl.sum_cJ_over_I(t1000_nn2, J, Y)

    def test_X1_is_A(self, t1000_nn2):
        for Y in (1, 77, 1000):
            assert sm.S_K_reduced(t1000_nn2, 1, Y) == ar.partial_A(t1000_nn2, Y)

    def test_Y1_is_M(self, t1000_nn2):
        grid = sm.S_K_direct_grid(t1000_nn2, 50, (1,))
        for X in (1, 20, 50):
            assert grid[X - 1] == [t1000_nn2.M_prefix[X]]

    def test_X2_hand_expansion(self, t1000_nn2):
        # (m,l) in {(1,1),(1,2),(2,1)}: A(Y) - A(Y) + 2 A(Y/2)
        for Y in (10, 100, 1000):
            want = 2 * ar.partial_A(t1000_nn2, Y // 2)
            assert sm.S_K_reduced(t1000_nn2, 2, Y) == want

    def test_direct_enumeration_cap(self, t1000_nn2):
        with pytest.raises(sm.SumsError):
            sm.S_K_direct_grid(t1000_nn2, 1001, (10,))

    def test_tables_too_short(self, t1000_nn2):
        with pytest.raises(sm.SumsError):
            sm.S_K_reduced(t1000_nn2, 10, 10**5)


class TestRemainder:
    def test_X1_is_PK(self, tables_nn2_1m, rho_nn2):
        for Y in (1234, 31337, 999999):
            assert sm.remainder_R(tables_nn2_1m, rho_nn2, 1, Y) == pytest.approx(
                ar.error_P(tables_nn2_1m, rho_nn2, Y), abs=1e-9
            )

    def test_vectorized_matches_scalar(self, tables_nn2_1m, rho_nn2):
        ys = np.array([1000.5, 5000.5, 99999.5])
        vec = sm.remainder_values(tables_nn2_1m, rho_nn2, 7, ys)
        for y, v in zip(ys, vec):
            assert v == pytest.approx(
                sm.remainder_R(tables_nn2_1m, rho_nn2, 7, float(y)), rel=1e-12
            )

    def test_rho_method_insensitive(self, tables_nn2_1m):
        r1, r2 = ar.estimate_rho(tables_nn2_1m, 10**6)
        Y = 10**5
        a = sm.remainder_R(tables_nn2_1m, r1, 10, Y)
        b = sm.remainder_R(tables_nn2_1m, r2, 10, Y)
        assert abs(a - b) <= 3 * (r1.stderr + r2.stderr) * Y

    def test_envelope_scan(self, tables_nn2_1m, rho_nn2):
        rows, fitted = sm.remainder_envelope_scan(tables_nn2_1m, rho_nn2, (5, 8, 10))
        assert len(rows) == 3
        assert 0 < fitted < 1  # loose sanity; reported, not thresholded


class TestVoronoi:
    def test_decomposition_exact(self, tables_nn2_1m, rho_nn2):
        Y = 2 * 10**5
        p1, p2 = sm.voronoi_P1(tables_nn2_1m, rho_nn2, Y, 64)
        pk = ar.error_P(tables_nn2_1m, rho_nn2, Y)
        assert p1 + p2 == pytest.approx(pk, abs=1e-12)

    def test_deterministic(self, tables_nn2_1m, rho_nn2):
        a = sm.voronoi_P1(tables_nn2_1m, rho_nn2, 12345.5, 100)
        b = sm.voronoi_P1(tables_nn2_1m, rho_nn2, 12345.5, 100)
        assert a == b  # bit-identical

    def test_zero_coefficients_give_zero(self, field_nn2):
        t = ar.build_tables(field_nn2, 1000)
        zeroed = dataclasses.replace(t, aK=np.zeros_like(t.aK))
        vars(zeroed)["A_prefix"] = t.A_prefix  # the original prefix, as a stale cache
        vals = sm.voronoi_P1_values(zeroed, np.array([500.5]), 100)
        assert vals[0] == 0.0

    def test_bounds(self, tables_nn2_1m, rho_nn2):
        with pytest.raises(sm.SumsError):
            sm.voronoi_P1(tables_nn2_1m, rho_nn2, 100, 0.5)
        with pytest.raises(sm.SumsError):
            sm.voronoi_P1(tables_nn2_1m, rho_nn2, 100, 200)
        with pytest.raises(sm.SumsError, match="outside table range"):
            sm.voronoi_P1(tables_nn2_1m, rho_nn2, tables_nn2_1m.N + 1, 64)

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

    def test_truncation_scan_decays(self, tables_nn2_1m, rho_nn2):
        medians, exponent = sm.p2_truncation_scan(tables_nn2_1m, rho_nn2, 10**5, 2 * 10**5, 100, (8, 64, 512))
        assert medians[0] > medians[1] > medians[2]
        assert exponent < 0

    def test_truncation_scan_window_guards(self, tables_nn2_small, rho_nn2):
        # negative indices would read A_K from the end of the table
        for lo, hi, ys in ((0, 0, (8,)), (-100, -200, (8,)), (5000, 4000, (8,)), (5000, 2 * 10**4, (8,)),
                           (1000, 2000, (0, 8))):
            with pytest.raises(sm.SumsError):
                sm.p2_truncation_scan(tables_nn2_small, rho_nn2, lo, hi, 10, ys)


class TestMeanSquareP2:
    def test_y_one_positive(self, tables_nn2_1m, rho_nn2):
        v = sm.meansquare_P2(tables_nn2_1m, rho_nn2, 10**4, 1, samples=512)
        assert v > 0

    def test_nonnegative(self, tables_nn2_1m, rho_nn2):
        assert sm.meansquare_P2(tables_nn2_1m, rho_nn2, 10**5, 16, samples=256) >= 0

    def test_window_guards(self, tables_nn2_1m, rho_nn2):
        with pytest.raises(sm.SumsError):
            sm.meansquare_P2(tables_nn2_1m, rho_nn2, 10**4, 50, samples=4096)  # y > T^(1/3)
        with pytest.raises(sm.SumsError):
            sm.meansquare_P2(tables_nn2_1m, rho_nn2, 6 * 10**5, 4, samples=4096)  # 2T > N
        with pytest.raises(sm.SumsError, match="T >= 1"):
            sm.meansquare_P2(tables_nn2_1m, rho_nn2, -100, 4, samples=4096)  # no real cube root

    def test_cube_root_bound_is_exact(self, tables_nn2_small, rho_nn2):
        # 1000 ** (1/3) is 9.999999999999998 in floats, yet y = 10 is T^(1/3)
        assert sm.meansquare_P2(tables_nn2_small, rho_nn2, 1000, 10, samples=64) > 0
        with pytest.raises(sm.SumsError, match=r"y <= T\^\(1/3\); got y=11"):
            sm.meansquare_P2(tables_nn2_small, rho_nn2, 1000, 11, samples=64)

    def test_grid_exponents(self, tables_nn2_1m, rho_nn2):
        rows, t_exp, y_exp = sm.p2_meansquare_grid(
            tables_nn2_1m, rho_nn2, (10**5, 2 * 10**5, 4 * 10**5), (4, 32), samples=1024
        )
        assert len(rows) == 6
        assert 1.0 < t_exp < 2.5  # against the T^{5/3} reference
        assert y_exp < 0  # decay in the truncation length


def test_no_sampled_reader_builds_the_whole_mertens_table(field_nn2, rho_nn2):
    # each reads M_K(x) for x <= X only; the whole-table prefix sum is the
    # verify report row's alone
    calls = {
        "S_K_reduced": lambda t: sm.S_K_reduced(t, 30, 5000),
        "remainder_values": lambda t: sm.remainder_values(t, rho_nn2, 30, np.array([100.5, 5000.5])),
        "compute_cX": lambda t: sm.compute_cX(t, 30),
        "meansquare_P2": lambda t: sm.meansquare_P2(t, rho_nn2, 1000, 2, samples=64),
        "p2_truncation_scan": lambda t: sm.p2_truncation_scan(t, rho_nn2, 1000, 2000, 10, (2, 8)),
        "voronoi_P1": lambda t: sm.voronoi_P1(t, rho_nn2, 5000.5, 8),
    }
    for name, call in calls.items():
        tables = ar.build_tables(field_nn2, 10**4)
        call(tables)
        assert "M_prefix" not in vars(tables), name


def _pair_loop_cX(tables, X, inner):
    """c(X) by the explicit loop over m and coprime (m1, m2), with
    inner(m1, m2) standing for sum_n a_K(n m1) a_K(n m2) n^{-4/3}."""
    total = 0.0
    for m in range(1, X + 1):
        for m1 in range(1, X // m + 1):
            for m2 in range(1, X // m + 1):
                if math.gcd(m1, m2) == 1:
                    total += (
                        m ** (4 / 3)
                        * float(tables.aK[m * m1] * tables.aK[m * m2])
                        * float(tables.M_prefix[X // (m * m1)] * tables.M_prefix[X // (m * m2)])
                        * inner(m1, m2)
                    )
    return total / (6 * math.pi**2)


def _truncated_inner(tables, cut):
    """The n-sum cut at n <= cut (the form the Euler product replaced)."""
    nw = np.arange(1, cut + 1, dtype=np.float64) ** (-4 / 3)

    def inner(m1, m2):
        a1 = tables.aK[m1::m1][:cut].astype(np.float64)
        a2 = tables.aK[m2::m2][:cut].astype(np.float64)
        return float(np.dot(a1 * a2, nw))

    return inner


# besides the presets, Shanks' simplest cubic at a = 1 (disc 169, normal) and
# the seeded random field of test_ideals (disc 12577, not normal)
CX_FIELDS = ["cubic-nonnormal-2", "cubic-cyclic-7",
             pytest.param("name = shanks-1\npoly = -1, -4, -1", id="shanks-1"),
             pytest.param("name = random-12577\npoly = -5, -17, -10", id="random-12577")]


class TestComputeCX:
    def test_rationals_hook_is_classical(self, field_hook):
        Z, _ = sm._euler_Z(field_hook)
        assert Z == pytest.approx(3.600937750458863, abs=1e-14)  # zeta(4/3)
        assert np.array_equal(sm._h_values(field_hook, 200), np.ones(201))
        # a_K = 1 and M_K is the classical Mertens function
        t = ar.build_tables(field_hook, 1000)
        assert np.all(t.aK[1:] == 1)
        assert np.array_equal(t.M_prefix, np.cumsum(ar.mobius_sieve(1000)))
        want = _pair_loop_cX(t, 200, lambda m1, m2: 3.600937750458863)
        assert sm.compute_cX(t, 200).value == pytest.approx(want, rel=1e-12)

    def test_X1_direct_formula(self, field_nn2, tables_nn2_1m):
        # c(1) = Z / (6 pi^2), and Z = sum a_K(n)^2 n^{-4/3} bounds every partial sum
        r = sm.compute_cX(tables_nn2_1m, 1)
        Z, _ = sm._euler_Z(field_nn2)
        assert r.value == pytest.approx(Z / (6 * math.pi**2), rel=1e-15)
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        partial = math.fsum((tables_nn2_1m.aK[1:].astype(np.float64) ** 2 / n ** (4 / 3)).tolist())
        assert 0.9 * Z < partial < Z

    def test_triple_sum_oracle(self, field_nn2, field_c7, tables_nn2_1m, tables_c7_1m):
        # the Moebius collapse against the explicit (m, m1, m2) loop
        X = 30
        for field, tables in ((field_nn2, tables_nn2_1m), (field_c7, tables_c7_1m)):
            Z, h = sm._euler_Z(field)[0], sm._h_values(field, X)
            want = _pair_loop_cX(tables, X, lambda m1, m2: Z * h[m1] * h[m2])
            assert sm.compute_cX(tables, X).value == pytest.approx(want, rel=1e-12), field.name

    @settings(max_examples=15, deadline=None)
    @given(coeffs=RANDOM_COEFFS)
    def test_random_cubics_pair_loop_and_multiplicative_h(self, coeffs):
        field = _random_field(coeffs)
        t = ar.build_tables(field, 1000)
        Z, h = sm._euler_Z(field)[0], sm._h_values(field, 30)
        want = _pair_loop_cX(t, 30, lambda m1, m2: Z * h[m1] * h[m2])
        assert sm.compute_cX(t, 30).value == pytest.approx(want, rel=1e-12)
        assert h[1] == 1
        for m1 in range(2, 31):
            for m2 in range(m1 + 1, 30 // m1 + 1):
                if math.gcd(m1, m2) == 1:
                    assert h[m1 * m2] == pytest.approx(h[m1] * h[m2], rel=1e-12), (m1, m2)

    @pytest.mark.parametrize("spec", CX_FIELDS)
    def test_h_against_truncated_sums(self, spec, request):
        # sum_n a_K(n m1) a_K(n m2) n^{-4/3} / sum_n a_K(n)^2 n^{-4/3} -> h(m1) h(m2),
        # with both sums cut at the same n; exactly 0 where an inert prime splits m1, m2
        field = fs.load_field(spec)
        fixture = {"cubic-nonnormal-2": "tables_nn2_1m", "cubic-cyclic-7": "tables_c7_1m"}.get(spec)
        tables = request.getfixturevalue(fixture) if fixture else ar.build_tables(field, 10**6)
        h = sm._h_values(field, 30)
        inner = _truncated_inner(tables, tables.N // 30)
        base = inner(1, 1)
        for m1 in range(1, 31):
            for m2 in range(m1 + 1, 31):
                if math.gcd(m1, m2) == 1:
                    assert inner(m1, m2) / base == pytest.approx(h[m1] * h[m2], rel=0.03, abs=0), (m1, m2)

    def test_truncated_sum_converges_to_euler_product(self, tables_nn2_1m):
        # the gap to the n-sum cut at n <= cut shrinks by a near-constant
        # factor per doubling of cut (about 2^{-1/3} up to logs)
        value = sm.compute_cX(tables_nn2_1m, 5).value
        cuts = (25000, 50000, 10**5, 2 * 10**5)
        gaps = [value - _pair_loop_cX(tables_nn2_1m, 5, _truncated_inner(tables_nn2_1m, cut)) for cut in cuts]
        assert all(g > 0 for g in gaps)
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(0.75 <= r <= 0.9 for r in ratios), ratios

    @pytest.mark.parametrize("spec", CX_FIELDS)
    def test_tail_window_estimates_truncation(self, spec):
        field = fs.load_field(spec)
        Z5, window5 = sm._euler_Z(field, 10**5)
        Z6, _ = sm._euler_Z(field)
        err = abs(Z5 - Z6) / Z6
        assert err / 10 <= abs(window5) <= 10 * err
        # with the wrong mean c of a_K(p)^2, the factors beyond 10^5 would
        # move Z by about sum_{p > 10^5} p^{-4/3}, some 2e-3
        assert err < 1e-4

    def test_guards(self, field_nn2, tables_nn2_1m):
        with pytest.raises(sm.SumsError):
            sm.compute_cX(tables_nn2_1m, 0)
        with pytest.raises(sm.SumsError):
            sm.compute_cX(tables_nn2_1m, 1001)
        with pytest.raises(sm.SumsError):
            sm.compute_cX(ar.build_tables(field_nn2, 500), 600)


class TestQuadratureGrid:
    def test_fewer_than_one_point_refused(self, tables_nn2_small, rho_nn2):
        # min(samples, T) is the number of points; each quadrature refuses 0 and -1
        for samples in (0, -1):
            for call in (lambda: sm.meansquare_P2(tables_nn2_small, rho_nn2, 1000, 2, samples=samples),
                         lambda: sm.quadrature_PK_squared(tables_nn2_small, rho_nn2, 1000, samples),
                         lambda: sm._quad_R2(tables_nn2_small, rho_nn2, 1, 1000, samples)):
                with pytest.raises(sm.SumsError, match=r"min\(samples, T\) >= 1"):
                    call()

    def test_oracles_refuse_a_window_beyond_the_tables(self, t1000_nn2, rho_nn2):
        # [T, 2T] must lie inside the tables, and [0, 0] is no window
        for call in (lambda T: sm.quadrature_PK_squared(t1000_nn2, rho_nn2, T, 64),
                     lambda T: sm.exact_PK_square_integral(t1000_nn2, rho_nn2, T)):
            for T in (501, 750):
                with pytest.raises(sm.SumsError, match="need 2T <= N"):
                    call(T)
            assert call(500) > 0
        for T in (0, -3):
            with pytest.raises(sm.SumsError, match="need T >= 1"):
                sm.exact_PK_square_integral(t1000_nn2, rho_nn2, T)

    def test_meansquare_names_T_when_T_is_short(self, tables_nn2_small, rho_nn2):
        # 4096 samples are not the cause: only 20 points fit in [20, 40)
        with pytest.raises(sm.SumsError, match="T=20"):
            sm.meansquare_R(tables_nn2_small, rho_nn2, 1, 20, samples=4096)
        assert sm.meansquare_R(tables_nn2_small, rho_nn2, 1, 33, samples=4096).samples == 33


class TestMeanSquareR:
    def test_X1_matches_direct_quadrature(self, tables_nn2_1m, rho_nn2):
        rep = sm.meansquare_R(tables_nn2_1m, rho_nn2, 1, 10**4, samples=10**4)
        direct = sm.quadrature_PK_squared(tables_nn2_1m, rho_nn2, 10**4, 10**4)
        assert rep.integral_R2 == pytest.approx(direct, rel=1e-12)

    def test_midpoint_rule_against_exact_integral(self, tables_nn2_1m, rho_nn2):
        quad = sm.quadrature_PK_squared(tables_nn2_1m, rho_nn2, 10**4, 10**4)
        exact = sm.exact_PK_square_integral(tables_nn2_1m, rho_nn2, 10**4)
        assert quad == pytest.approx(exact, rel=2e-3)

    def test_main_term_closed_form(self, tables_nn2_1m, rho_nn2):
        rep = sm.meansquare_R(tables_nn2_1m, rho_nn2, 5, 10**3, samples=256)
        T = 10**3
        assert rep.main_term == pytest.approx(
            rep.cX * 0.6 * ((2 * T) ** (5 / 3) - T ** (5 / 3)), rel=1e-15
        )

    def test_error_estimate_covers_refinement(self, tables_nn2_1m, rho_nn2):
        r1 = sm.meansquare_R(tables_nn2_1m, rho_nn2, 5, 10**4, samples=2048)
        r2 = sm.meansquare_R(tables_nn2_1m, rho_nn2, 5, 10**4, samples=4096)
        assert abs(r1.integral_R2 - r2.integral_R2) <= r1.quadrature_error_est

    def test_guards(self, tables_nn2_1m, rho_nn2):
        with pytest.raises(sm.SumsError):
            sm.meansquare_R(tables_nn2_1m, rho_nn2, 5, 40, samples=4096)  # T < 10X
        with pytest.raises(sm.SumsError):
            sm.meansquare_R(tables_nn2_1m, rho_nn2, 1, 10**6, samples=4096)  # 2T > N
        with pytest.raises(sm.SumsError):
            sm.meansquare_R(tables_nn2_1m, rho_nn2, 1, 10**3, samples=16)

    def test_trend_fields(self, tables_nn2_1m, rho_nn2):
        rows, ratios, trend = sm.meansquare_trend(
            tables_nn2_1m, rho_nn2, 5, (10**3, 10**4), samples=1024
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
