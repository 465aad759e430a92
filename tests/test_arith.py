import cmath
import dataclasses
import itertools
import math
import mmap
import struct
import tracemalloc

import numpy as np
import pytest

from cubicsums import arith as ar
from cubicsums import fieldspec as fs

# a_K(1..10) for x^3 - 2, frozen from the ideal-enumeration oracle
# (2 = P^3 and 3 = P^3, so a(6) = a(2) a(3) = 1 and A_K(10) = 9)
NN2_FIRST10 = [1, 1, 1, 1, 1, 1, 0, 1, 1, 1]


class TestBuildTables:
    def test_first_values_nn2(self, field_nn2):
        t = ar.build_tables(field_nn2, 10)
        assert t.aK[1:].tolist() == NN2_FIRST10
        assert ar.A_at(t, 10) == 9

    def test_mu_at_one(self, tables_nn2_small):
        assert tables_nn2_small.muK[1] == 1
        assert tables_nn2_small.b[1] == 1

    def test_b_at_primes_cyclic(self, field_c7, tables_c7_small):
        for p in (13, 29, 2, 3):
            assert tables_c7_small.b[p] == tables_c7_small.aK[p] - 1

    def test_restriction_bit_exact(self, field_nn2):
        big = ar.build_tables(field_nn2, 10**5)
        small = ar.build_tables(field_nn2, 10**4)
        for name in ("aK", "muK", "b", "A_prefix", "M_prefix"):
            assert np.array_equal(getattr(big, name)[: 10**4 + 1], getattr(small, name))

    def test_mu_dirichlet_inverse_oracle(self, tables_nn2_small, tables_c7_small):
        for t in (tables_nn2_small, tables_c7_small):
            aK = t.aK
            mu = [0, 1]
            for n in range(2, 2001):
                s = 0
                d = 2
                while d * d <= n:
                    if n % d == 0:
                        s += aK[d] * mu[n // d]
                        if d != n // d:
                            s += aK[n // d] * mu[d]
                    d += 1
                s += aK[n] * mu[1]  # d = n term (mu[n] excluded: aK[1] mu[n])
                mu.append(-s)
                assert t.muK[n] == mu[n], n

    def test_b_is_mobius_star_aK(self, tables_nn2_small):
        mu = ar.mobius_sieve(2000)
        t = tables_nn2_small
        for n in range(1, 2001):
            want = sum(mu[d] * t.aK[n // d] for d in range(1, n + 1) if n % d == 0)
            assert t.b[n] == want, n

    def test_multiplicativity_exhaustive(self, tables_nn2_small):
        t = tables_nn2_small
        N = t.N
        for m in range(2, N):
            if m * 2 > N:
                break
            for n in range(m + 1, N // m + 1):
                if math.gcd(m, n) == 1:
                    assert t.aK[m * n] == t.aK[m] * t.aK[n], (m, n)

    def test_budget_guard(self, field_nn2):
        with pytest.raises(ar.ArithError):
            ar.build_tables(field_nn2, 0)
        with pytest.raises(ar.ArithError):
            ar.build_tables(field_nn2, 10**8 + 1)

    @pytest.mark.parametrize("name", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_sieve_boundaries_match_factorization(self, name):
        # N on both sides of 7^2 and 11^2, where a prime moves from the
        # large-prime (cofactor) pass to the small-prime (strided) pass
        field = fs.get_preset(name)
        nmax = 5000
        want = {"aK": [0], "muK": [0], "b": [0]}
        for n in range(1, nmax + 1):
            a = mu = b = 1
            for p, e in fs.factorize(n).items():
                shape = [f for f, _ in fs.SHAPES[fs.splitting_type(field, p)]]
                loc = fs.local_ideal_counts(shape, e)
                a *= loc[e]
                b *= loc[e] - loc[e - 1]
                # mu_K(p^e) = [t^e] prod_i (1 - t^{f_i})
                mu *= sum((-1) ** r for r in range(len(shape) + 1)
                          for sub in itertools.combinations(shape, r) if sum(sub) == e)
            want["aK"].append(a)
            want["muK"].append(mu)
            want["b"].append(b)
        for N in (1, 2, 3, 4, 48, 49, 50, 120, 121, 122, nmax):
            t = ar.build_tables(field, N)
            for key, vals in want.items():
                assert getattr(t, key).tolist() == vals[: N + 1], (name, N, key)

    def test_tau_corollary_bound(self, tables_nn2_1m, tables_c7_1m):
        # a_K(n) <= tau(n)^2 with constant 1 for cubic fields
        tau = ar.tau_table(2, 10**6)
        for t in (tables_nn2_1m, tables_c7_1m):
            ratio = t.aK[1:].astype(np.float64) / tau[1:].astype(np.float64) ** 2
            c = float(ratio.max())
            assert c <= 1.0, f"implied constant {c} exceeds 1"

    def test_int32_values_int64_prefix_sums(self, tables_nn2_small):
        # a_K int32, mu_K and b int16; the prefix sums widen to int64
        t = tables_nn2_small
        assert (t.aK.dtype, t.muK.dtype, t.b.dtype) == (np.int32, np.int16, np.int16)
        assert t.A_prefix.dtype == t.M_prefix.dtype == np.int64

    def test_values_fit_int32_up_to_budget(self):
        # each bound holds for n <= N_BUDGET and fits its table's dtype, and
        # N_BUDGET * 2^31 < 2^58 bounds the prefix sums
        top = {name: np.iinfo(dtype).max for name, dtype in ar._TABLE_DTYPES.items()}
        assert all(np.iinfo(dtype).min < 0 for dtype in ar._TABLE_DTYPES.values())  # a_K(p) - 1 cannot wrap
        # a_K(n) <= tau_3(n)
        assert ar._max_tau(3, ar.N_BUDGET) == 58320 <= top["aK"]
        # |mu_K(p^k)| <= 3 and omega(n) <= 8, since the first nine primes multiply past N_BUDGET
        kmax = ar.N_BUDGET.bit_length()
        local = ar._local_tables(kmax).values()
        assert max(abs(v) for _, mu, _ in local for v in mu) == 3
        assert math.prod(fs.primes_upto(23).tolist()) > ar.N_BUDGET
        assert 3**8 == 6561 <= top["muK"]
        # |b(p^k)| <= k + 1, so |b(n)| <= tau(n)
        assert all(abs(v) <= k + 1 for _, _, b in local for k, v in enumerate(b))
        assert ar._max_tau(2, ar.N_BUDGET) == 768 <= top["b"]
        # the local values the sieve multiplies in are int16: |a_K(p^k)| <= C(k + 2, 2)
        assert all(arr.dtype == np.int16 for loc in local for arr in loc)
        assert kmax == 27 and max(abs(int(v)) for a, _, _ in local for v in a) == math.comb(29, 2) == 406

    def test_peak_memory_per_entry(self, field_nn2):
        # the value tables are 8 bytes per n; the int8 codes and the chunked
        # lookup add little, and no int64 prefix sum is built
        N = 10**6
        tracemalloc.start()
        try:
            t = ar.build_tables(field_nn2, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * N, peak / N
        ar.estimate_rho(t, N)
        assert "A_prefix" not in vars(t)

    def test_rho_series_peak_memory(self, tables_nn2_1m):
        # the series estimate keeps one B-length float64 array (8 bytes per
        # entry); np.std's window temporaries add the rest
        N = tables_nn2_1m.N
        tracemalloc.start()
        try:
            ar.estimate_rho(tables_nn2_1m, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.5 * N, peak / N

    def test_max_abs_ratio_chunked(self, tables_nn2_1m, tables_c7_1m):
        # the same quotients as one N-length pass, so the same max, bit for bit,
        # with no N-length float64 temporary
        for t in (tables_nn2_1m, tables_c7_1m):
            m = np.arange(1, t.N + 1, dtype=np.float64)
            M = np.cumsum(t.muK, dtype=np.int64)
            assert ar.max_abs_ratio(M, 1) == float(np.max(np.abs(M[1:]) / m))
            assert ar.max_abs_ratio(t.b, 0.1) == float(np.max(np.abs(t.b[1:]) / m**0.1))
            # M_K summed block by block with a carry: the same quotients
            assert ar.max_abs_M_ratio(t) == ar.max_abs_ratio(M, 1)
            for call in (lambda: ar.max_abs_ratio(M, 1), lambda: ar.max_abs_M_ratio(t)):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 5 * 8 * 2**16, peak  # a few 2^16-entry temporaries, not 24 bytes per n
        assert ar.max_abs_ratio(np.array([7, -3, 4]), 1) == 3.0  # index 0 is skipped

    def test_trivial_M_bound(self, tables_nn2_1m, tables_c7_1m):
        for t in (tables_nn2_1m, tables_c7_1m):
            x = np.arange(1, t.N + 1, dtype=np.float64)
            assert float(np.max(np.abs(np.cumsum(t.muK, dtype=np.int64)[1:]) / x)) <= 1.0


class TestPartials:
    def test_zero(self, tables_nn2_small):
        assert ar.A_at(tables_nn2_small, 0) == 0
        assert np.cumsum(tables_nn2_small.muK, dtype=np.int64)[0] == 0

    def test_out_of_range(self, tables_nn2_small):
        t = tables_nn2_small
        for bad in (t.N + 1, -1, [5, t.N + 1], np.array([[3], [-1]]), [2.5], [np.nan]):
            with pytest.raises(ar.ArithError, match=f"read at integers in 0..{t.N}"):
                ar.A_at(t, bad)

    def test_P_K(self, tables_nn2_small):
        # P_K(x) = A_K(x) - rho_K x, as checks.voronoi_split_failure takes it
        rho = ar.RhoEstimate(value=0.8, stderr=0.0, method="series_b_over_m", B=1000)
        P = ar.A_at(tables_nn2_small, 100) - rho.value * 100
        assert P == np.cumsum(tables_nn2_small.aK, dtype=np.int64)[100] - 80.0

    def test_A_at_matches_prefix(self, tables_nn2_small, tables_c7_small):
        rng = np.random.default_rng(5)
        for t in (tables_nn2_small, tables_c7_small):
            A = np.cumsum(t.aK, dtype=np.int64)
            xs = np.concatenate(([t.N, 0, 7, 7, t.N], rng.integers(0, t.N + 1, 200)))  # unsorted, repeats
            got = ar.A_at(t, xs)
            assert got.dtype == np.int64 and np.array_equal(got, A[xs])
            grid = xs[:200].reshape(8, 25)
            assert np.array_equal(ar.A_at(t, grid), A[grid])
            scalar = ar.A_at(t, np.int64(4321))
            assert scalar.shape == () and scalar == A[4321]
            for empty in ([], np.zeros((0, 3), dtype=np.int64)):
                out = ar.A_at(t, empty)
                assert out.dtype == np.int64 and out.shape == np.shape(empty)

    def test_A_at_reads_aK_only_to_the_largest_point(self, tables_nn2_small, tables_nn2_1m):
        # a_K beyond max(xs) changes nothing, and no N-length array is built:
        # the block sums widen a_K to int64 up to max(xs) only
        t = tables_nn2_small
        xs = np.array([10, 500, 99, 2000])
        want = ar.A_at(t, xs)
        noisy = t.aK.copy()
        noisy[2001:] = 10**6
        assert np.array_equal(ar.A_at(dataclasses.replace(t, aK=noisy), xs), want)
        tracemalloc.start()
        try:
            ar.A_at(tables_nn2_1m, np.array([3, 10**4]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * tables_nn2_1m.N // 10, peak


class TestRho:
    def test_hook_exact(self, field_hook):
        t = ar.build_tables(field_hook, 10**4)
        for est in ar.estimate_rho(t, 10**4):
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert est.stderr <= 1e-12

    def test_B_too_small(self, tables_nn2_small):
        with pytest.raises(ar.ArithError, match="too small"):
            ar.estimate_rho(tables_nn2_small, 999)

    def test_B_beyond_the_tables(self, tables_nn2_small):
        with pytest.raises(ar.ArithError, match="exceeds table length"):
            ar.estimate_rho(tables_nn2_small, tables_nn2_small.N + 1000)

    def test_disagreement_raised(self, tables_nn2_small, monkeypatch):
        # a regression far from the series, with a tiny stderr, is refused, not averaged
        real = ar._rho_regression
        monkeypatch.setattr(ar, "_rho_regression",
                            lambda t, B: dataclasses.replace(real(t, B), value=10.0, stderr=1e-12))
        with pytest.raises(ar.RhoDisagreement, match="disagree"):
            ar.estimate_rho(tables_nn2_small, 10**4)

    def test_methods_agree_presets(self, field_nn2, tables_nn2_1m, field_c7, tables_c7_1m):
        for f, t in ((field_nn2, tables_nn2_1m), (field_c7, tables_c7_1m)):
            ser, reg = ar.estimate_rho(t, 10**6)
            assert abs(ser.value - reg.value) <= 3 * math.hypot(ser.stderr, reg.stderr)
            assert abs(ser.value - reg.value) / ser.value < 1e-3

    def test_cyclic_rho_equals_L1_squared(self, field_c7, tables_c7_1m, rho_c7):
        L = ar.L1_cubic_character(7)
        target = abs(L) ** 2
        assert rho_c7.value == pytest.approx(target, abs=max(3 * rho_c7.stderr, 1e-4))

    def test_nonnormal_rho_equals_class_number_formula(self, tables_nn2_1m):
        # x^3 - 2: h = 1, one real and one complex place, fundamental unit
        # 1 + 2^(1/3) + 2^(2/3), so rho = 2 pi log(unit) / sqrt(108)
        unit = 1 + 2 ** (1 / 3) + 2 ** (2 / 3)
        target = 2 * math.pi * math.log(unit) / math.sqrt(108)
        assert target == pytest.approx(0.814624059261141, abs=1e-15)
        for est in ar.estimate_rho(tables_nn2_1m, 10**6):
            assert abs(est.value - target) <= 3 * est.stderr, est

    def test_positive_enforced(self):
        with pytest.raises(ar.ArithError):
            ar.RhoEstimate(value=-1.0, stderr=0.0, method="series_b_over_m", B=1000)
        with pytest.raises(ar.ArithError, match="stderr"):
            ar.RhoEstimate(1.0, -1.0, "series_b_over_m", 1000)


def _mobius(n):
    f = fs.factorize(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestClassicalRamanujan:
    def test_trivia(self):
        mu = ar.mobius_sieve(300)
        assert all(ar.classical_ramanujan(1, n) == 1 for n in range(1, 30))
        assert all(ar.classical_ramanujan(m, 1) == mu[m] for m in range(1, 301))
        assert ar.classical_ramanujan(6, 4) == -1
        # 8 || m: p^3 | n gives 8 - 4, p^2 || n gives -4, p^1 || n gives 0
        assert [ar.classical_ramanujan(8, n) for n in (8, 4, 2, 1)] == [4, -4, 0, 0]

    def test_full_divisor_sum(self):
        # the definition summed over every d | gcd(m, n), zero terms included
        # (one row of n per m; the scalar path is test_trivia's and test_array_of_n's)
        mu = [0] + [_mobius(n) for n in range(1, 301)]
        ns = np.arange(1, 301)
        for m in range(1, 301):
            want = [sum(d * mu[m // d] for d in _divisors(math.gcd(m, n))) for n in range(1, 301)]
            assert ar.classical_ramanujan(m, ns).tolist() == want, m

    def test_exponential_sum_oracle(self):
        for m in range(1, 61):
            for n in range(1, 61):
                z = sum(
                    cmath.exp(2j * math.pi * j * n / m)
                    for j in range(1, m + 1)
                    if math.gcd(j, m) == 1
                )
                assert abs(z.imag) < 1e-9
                assert round(z.real) == ar.classical_ramanujan(m, n), (m, n)

    def test_bad_input(self):
        for m, n in ((0, 1), (1, 0), (2**63, 1), (1, 2**63), (6, np.array([4, 0])), (6, np.array([4.0]))):
            with pytest.raises(ar.ArithError):
                ar.classical_ramanujan(m, n)

    def test_array_of_n(self):
        # one call per m gives a row, or any shape, of the scalar values
        ns = np.arange(1, 301)
        for m in (1, 8, 12, 210, 2**10 * 3**5):
            assert ar.classical_ramanujan(m, ns).tolist() == [ar.classical_ramanujan(m, int(n)) for n in ns]
        assert ar.classical_ramanujan(12, ns.reshape(20, 15)).shape == (20, 15)
        assert ar.classical_ramanujan(12, np.array([], dtype=np.int64)).shape == (0,)
        # the top of the domain: c_m(m) = phi(m), with m = 2^63 - 1 = 7^2 73 127 337 92737 649657
        assert ar.classical_ramanujan(2**63 - 1, 2**63 - 1) == 7 * 6 * 72 * 126 * 336 * 92736 * 649656

    def test_mobius_sieve_matches(self):
        mu = ar.mobius_sieve(3000)
        for n in range(1, 3001):
            assert mu[n] == _mobius(n)


class TestTauSums:
    def test_small_example(self):
        assert ar.tau_power_sum(2, 1, 6) == 14
        assert ar.tau_power_sum(2, 1, 1) == 1

    # (4, 9): tau_4(180)^9 = 400^9 alone passes 2^63, so the sum takes the exact fallback
    @pytest.mark.parametrize("l,q", [(2, 1), (3, 2), (4, 2), (4, 9)])
    def test_brute_oracle(self, l, q):
        def tau_l(n):
            # number of ordered factorizations into l parts, recursively
            if l == 2:
                return sum(1 for d in range(1, n + 1) if n % d == 0)
            count = 0
            def rec(m, parts):
                nonlocal count
                if parts == 1:
                    count += 1
                    return
                for d in range(1, m + 1):
                    if m % d == 0:
                        rec(m // d, parts - 1)
            rec(n, l)
            return count

        want = sum(tau_l(n) ** q for n in range(1, 301))
        assert ar.tau_power_sum(l, q, 300) == want

    @pytest.mark.parametrize("l", [2, 4])
    def test_table_brute_divisors(self, l):
        n = 2000
        divs = [[] for _ in range(n + 1)]
        for d in range(1, n + 1):
            for m in range(d, n + 1, d):
                divs[m].append(d)
        tau = [0] + [1] * n  # tau_1
        for _ in range(l - 1):
            tau = [0] + [sum(tau[d] for d in divs[m]) for m in range(1, n + 1)]
        assert ar.tau_table(l, n).tolist() == tau

    def test_max_tau_guards_int64(self):
        # the maximum over products of primorials is the table's maximum
        for l, n in ((2, 5040), (4, 10**4), (20, 10**5)):
            assert ar._max_tau(l, n) == int(ar.tau_table(l, n).max()), (l, n)
        # tau_60 at n = 414720 = 2^10 3^4 5 wraps int64
        with pytest.raises(ar.ArithError, match="beyond int64"):
            ar.tau_table(60, 10**6)

    def test_growth_ratio_bounded(self):
        # ratio sum / (x log^15 x) stays bounded (decreasing) on a dyadic grid
        ratios = [
            ar.tau_power_sum(4, 2, x) / (x * math.log(x) ** 15) for x in (10**4, 10**5)
        ]
        assert ratios[1] < ratios[0]

    def test_bad_args(self):
        with pytest.raises(ar.ArithError):
            ar.tau_power_sum(1, 1, 10)
        with pytest.raises(ar.ArithError):
            ar.tau_power_sum(2, 0, 10)

    def test_tau_table_refusals(self):
        with pytest.raises(ar.ArithError, match="l >= 2"):
            ar.tau_table(1, 10)
        for n in (0, ar.TAU_BUDGET + 1):
            with pytest.raises(ar.ArithError, match="outside"):
                ar.tau_table(4, n)


class TestPairSum:
    @staticmethod
    def brute(T):
        tau4 = []
        for n in range(T + 1):
            if n == 0:
                tau4.append(0)
                continue
            c = 0
            for a in range(1, n + 1):
                if n % a:
                    continue
                for b in range(1, n // a + 1):
                    if (n // a) % b:
                        continue
                    m = n // (a * b)
                    c += sum(1 for d in range(1, m + 1) if m % d == 0)
            tau4.append(c)
        s = 0.0
        for m in range(1, T + 1):
            for n in range(1, T + 1):
                if m == n:
                    continue
                s += (
                    tau4[m] ** 2
                    * tau4[n] ** 2
                    / ((m * n) ** (2 / 3) * abs(m ** (1 / 3) - n ** (1 / 3)))
                )
        return s

    def test_T2_closed_form(self):
        want = 2 * 16 / (2 ** (2 / 3) * (2 ** (1 / 3) - 1))
        assert ar.tau4_cuberoot_pair_sum(2) == pytest.approx(want, rel=1e-12)

    def test_monotone(self):
        assert ar.tau4_cuberoot_pair_sum(3) > ar.tau4_cuberoot_pair_sum(2)

    def test_brute_oracle(self):
        assert ar.tau4_cuberoot_pair_sum(60) == pytest.approx(self.brute(60), rel=1e-9)

    def test_paths_agree(self):
        # the FFT convolutions against the dense T x T matrix of all pair terms
        T = 2500
        k = np.arange(1, T + 1, dtype=np.float64)
        g = ar.tau_table(4, T)[1 : T + 1].astype(np.float64) ** 2 / k ** (2 / 3)
        c = np.cbrt(k)
        gap = np.abs(c[:, None] - c[None, :])
        np.fill_diagonal(gap, np.inf)
        want = float(np.sum(g[:, None] * g[None, :] / gap))
        assert ar.tau4_cuberoot_pair_sum(T) == pytest.approx(want, rel=1e-10)

    def test_exact_sum_in_integer_gap_form(self):
        # every pair term t_m t_n (c_m^2 + c_m c_n + c_n^2) / ((c_m c_n)^2 (n - m)),
        # m < n, correctly rounded by one math.fsum over all of them
        T = 3000
        k = np.arange(1, T + 1, dtype=np.float64)
        t = ar.tau_table(4, T)[1 : T + 1].astype(np.float64) ** 2
        c = np.cbrt(k)

        def row(i):  # the pairs (m, n = i + 1) with m < n
            cm, cn = c[:i], c[i]
            return (t[:i] * t[i] * (cm * cm + cm * cn + cn * cn) / ((cm * cn) ** 2 * (k[i] - k[:i]))).tolist()

        want = 2.0 * math.fsum(itertools.chain.from_iterable(row(i) for i in range(1, T)))
        assert ar.tau4_cuberoot_pair_sum(T) == pytest.approx(want, rel=1e-12)

    def test_top_of_range_finishes(self):
        top = ar.tau4_cuberoot_pair_sum(10**5)
        assert math.isfinite(top) and top > ar.tau4_cuberoot_pair_sum(10**4) > 0

    def test_range_guard(self):
        with pytest.raises(ar.ArithError):
            ar.tau4_cuberoot_pair_sum(1)
        with pytest.raises(ar.ArithError):
            ar.tau4_cuberoot_pair_sum(10**5 + 1)


def _convolve_per_d(f, g, nmax):
    """(f * g)(n) for n <= nmax with one strided add per d: the reference."""
    out = np.zeros(nmax + 1, dtype=np.int64)
    for d in range(1, nmax + 1):
        if f[d]:
            out[d::d] += f[d] * g[1 : nmax // d + 1]
    return out


class TestDirichletConvolution:
    # every nmax up to 130, and r^2 - 1, r^2, r^2 + 1, r(r + 1) for r = isqrt(nmax)
    # near 1000 and 4096, where the split point and the second pass's range turn over
    NMAX = list(range(1, 131)) + [v for r in (31, 32, 64) for v in (r * r - 1, r * r, r * r + 1, r * (r + 1))]

    def test_matches_per_d_loop(self):
        rng = np.random.default_rng(20211)
        for nmax in self.NMAX:
            # sparse, signed, and longer than nmax + 1 as table arrays are
            f, g = rng.integers(-3, 4, (2, nmax + 7)) * (rng.random((2, nmax + 7)) < 0.4)
            got = ar.dirichlet_convolution(f, g, nmax)
            assert np.array_equal(got, _convolve_per_d(f, g, nmax)), nmax
            assert np.array_equal(ar.dirichlet_convolution(g, f, nmax), got), nmax

    def test_int32_products_do_not_wrap(self):
        # values near 60000, as large as a table value gets: each product is
        # about 2^32, beyond int32
        rng = np.random.default_rng(7)
        nmax = 200
        f, g = rng.integers(-60000, 60001, (2, nmax + 1)).astype(np.int32)
        want = [0] * (nmax + 1)
        for d in range(1, nmax + 1):
            for e in range(1, nmax // d + 1):
                want[d * e] += int(f[d]) * int(g[e])
        assert ar.dirichlet_convolution(f, g, nmax).tolist() == want


class TestIdentityChecks:
    def test_detects_corruption(self, field_nn2):
        # N = 3000 splits at r = 54: faults below, at and above r, and at N
        t = ar.build_tables(field_nn2, 3000)
        assert ar.convolution_identity_failure(t, 3000) is None
        assert ar.b_sum_identity_failure(t, 3000) is None
        ones = np.ones(3001, dtype=np.int64)
        e = (np.arange(3001) == 1).astype(np.int64)

        def first_bad(got, want):
            bad = np.flatnonzero(got[1:] != want[1:])
            return int(bad[0]) + 1 if len(bad) else None

        for name in ("aK", "muK", "b"):
            for n in (2, 54, 55, 100, 1500, 3000):
                arr = getattr(t, name).copy()
                arr[n] += 1
                bad = dataclasses.replace(t, **{name: arr})
                conv_ref = first_bad(_convolve_per_d(bad.aK, bad.muK, 3000), e)
                bsum_ref = first_bad(_convolve_per_d(bad.b, ones, 3000), bad.aK)
                assert (conv_ref, bsum_ref) == (n if name != "b" else None, n if name != "muK" else None)
                assert ar.convolution_identity_failure(bad, 3000) == conv_ref, (name, n)
                assert ar.b_sum_identity_failure(bad, 3000) == bsum_ref, (name, n)

    def test_mu_at_one_planted(self, tables_nn2_small):
        # (a_K * mu_K)(1) = a_K(1) mu_K(1) = 2: the failure is n = 1 itself
        muK = tables_nn2_small.muK.copy()
        muK[1] = 2
        assert ar.convolution_identity_failure(dataclasses.replace(tables_nn2_small, muK=muK), 100) == 1


def _least_generator(f):
    """The least g whose powers reach every residue mod the prime f, by walking them."""
    for g in range(2, f):
        acc, order = g, 1
        while acc != 1:
            acc, order = acc * g % f, order + 1
        if order == f - 1:
            return g


class TestCharacter:
    def test_matches_generator_powers(self):
        # the oracle walks the powers of the least generator g: chi(g^k) = omega^(k mod 3)
        omega_pow = [(1, 0), (0, 1), (-1, -1)]
        conductors = [f for f in range(7, 2000, 3) if fs._is_prime(f)]
        assert len(conductors) == 148
        for f in conductors:
            g = _least_generator(f)
            chi = [(0, 0)] * f
            acc = 1
            for k in range(f - 1):
                chi[acc] = omega_pow[k % 3]
                acc = acc * g % f
            for n in (f - 1, 10, 10**4):
                got = ar.cubic_character(f, n)
                assert got.dtype == np.int64 and got.shape == (n + 1, 2)
                assert np.array_equal(got, np.array(chi)[np.arange(n + 1) % f]), (f, n)

    def test_b_peak_memory_follows_nmax(self):
        # the conductor of Shanks' simplest cubic at n = 3005 is 9,039,049, far
        # beyond the 10^4 residues the character row reads
        f = 3005**2 + 3 * 3005 + 9
        assert f == 9039049 and fs._is_prime(f)
        ar.b_from_cubic_character(7, 10)
        tracemalloc.start()
        try:
            ar.b_from_cubic_character(f, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak

    def test_values_exact(self):
        chi = [tuple(p) for p in ar.cubic_character(7, 6).tolist()]
        assert chi[1] == (1, 0) and chi[6] == (1, 0)  # cubes are the kernel
        assert chi[0] == (0, 0)
        omega = {(1, 0), (0, 1), (-1, -1)}
        assert all(chi[r] in omega for r in range(1, 7))

    def test_bad_conductor(self):
        with pytest.raises(ar.ArithError):
            ar.cubic_character(5, 10)  # 5 != 1 mod 3
        with pytest.raises(ar.ArithError):
            ar.cubic_character(25, 10)  # 1 mod 3 but not prime

    def test_b_identity_small(self, tables_c7_small):
        bchar = ar.b_from_cubic_character(7, 10**4)
        assert np.array_equal(bchar[1:], tables_c7_small.b[1:])

    def test_L1_series_stable(self):
        # the closed form against the series over whole periods; chi is even,
        # so the tail after n terms is O((f/n)^2)
        omega = complex(-0.5, math.sqrt(3) / 2)
        chi = np.array([u + v * omega for (u, v) in ar.cubic_character(7, 6).tolist()])
        n = np.arange(1, 2 * 10**5 - 2 * 10**5 % 7 + 1)
        series = complex(np.sum(chi[n % 7] / n))
        assert abs(ar.L1_cubic_character(7) - series) < 1e-9

    def test_L1_squared_constants(self):
        # |L(1, chi)|^2 = rho_K for the cyclic cubic fields of conductor 7 and 13
        assert abs(ar.L1_cubic_character(7)) ** 2 == pytest.approx(0.30025981835575566, abs=1e-12)
        assert abs(ar.L1_cubic_character(13)) ** 2 == pytest.approx(0.42001534387519485, abs=1e-12)


class TestSegments:
    # sieves with short segments, (length, N) in SEGMENTS, against one segment
    # (N + 1 <= _SEGMENT) as the reference.  At 7 and 97 entries a segment can
    # hold no multiple of a small prime p, or start inside a run of multiples
    # of p^2; at 1009, a prime length, prime powers, p^2 > 1009 (p >= 37) and
    # n = 0 straddle segment edges
    SEGMENTS = [(7, 10**4), (97, 2 * 10**4), (1009, 2 * 10**4)]

    @pytest.mark.parametrize("name", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_tables_match_one_segment(self, name, monkeypatch):
        field = fs.get_preset(name)
        whole = {N: ar.build_tables(field, N) for _, N in self.SEGMENTS}
        assert all(N + 1 <= ar._SEGMENT for N in whole)
        for segment, N in self.SEGMENTS:
            monkeypatch.setattr(ar, "_SEGMENT", segment)
            cut = ar.build_tables(field, N)
            monkeypatch.undo()
            for key in ("aK", "muK", "b"):
                assert getattr(cut, key).dtype == getattr(whole[N], key).dtype
                assert np.array_equal(getattr(cut, key), getattr(whole[N], key)), (segment, key)

    def test_mobius_and_tau_match_one_segment(self, monkeypatch):
        whole = {N: (ar.mobius_sieve(N), ar.tau_table(4, N)) for _, N in self.SEGMENTS}
        for segment, N in self.SEGMENTS:
            monkeypatch.setattr(ar, "_SEGMENT", segment)
            assert np.array_equal(ar.mobius_sieve(N), whole[N][0]), segment
            assert np.array_equal(ar.tau_table(4, N), whole[N][1]), segment

    @pytest.mark.parametrize("name", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_streamed_file_matches_build_tables(self, name, tmp_path, monkeypatch):
        field = fs.get_preset(name)
        for segment, N in [(7, 10**4), (97, 2 * 10**4), (1009, 10**5)]:
            want = ar.build_tables(field, N)
            monkeypatch.setattr(ar, "_SEGMENT", segment)
            ar.sieve_to_file(field, N, tmp_path / "t.bin")
            monkeypatch.undo()
            got = ar.read_tables(tmp_path / "t.bin")
            assert got.field == field and got.N == N
            for key in ("aK", "muK", "b"):
                assert np.array_equal(getattr(got, key), getattr(want, key)), (segment, key)


class TestTableIO:
    def test_roundtrip(self, tables_nn2_small, tmp_path):
        p = tmp_path / "t.bin"
        ar.sieve_to_file(tables_nn2_small.field, tables_nn2_small.N, p)
        back = ar.read_tables(p)
        assert back.field == tables_nn2_small.field
        assert back.field.name == tables_nn2_small.field.name
        assert back.N == tables_nn2_small.N
        for name in ("aK", "muK", "b", "A_prefix", "M_prefix"):
            assert np.array_equal(getattr(back, name), getattr(tables_nn2_small, name))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ar.ArithError, match="magic"):
            ar.read_tables(p)

    def test_v1_header_and_bad_field_document(self, tmp_path):
        # a v1 file names its field only, a v2 file holds int64 values, a v3
        # file int32 values, a v4 file n = 1..N with no padding; a v5
        # document must parse to a field
        N = 4
        doc = b"name = rationals\n"
        p = tmp_path / "t.bin"
        p.write_bytes(b"CBSM" + struct.pack("<II", 1, 9) + b"rationals" + struct.pack("<Q", N)
                      + np.ones(3 * N, dtype="<i8").tobytes())
        with pytest.raises(ar.ArithError, match="unsupported table version 1"):
            ar.read_tables(p)
        p.write_bytes(b"CBSM" + struct.pack("<II", 2, len(doc)) + doc + struct.pack("<Q", N)
                      + np.ones(3 * N, dtype="<i8").tobytes())
        with pytest.raises(ar.ArithError, match="unsupported table version 2"):
            ar.read_tables(p)
        p.write_bytes(b"CBSM" + struct.pack("<II", 3, len(doc)) + doc + struct.pack("<Q", N)
                      + np.ones(3 * N, dtype="<i4").tobytes())
        with pytest.raises(ar.ArithError, match="unsupported table version 3"):
            ar.read_tables(p)
        p.write_bytes(b"CBSM" + struct.pack("<II", 4, len(doc)) + doc + struct.pack("<Q", N)
                      + np.ones(N, dtype="<i4").tobytes() + np.ones(2 * N, dtype="<i2").tobytes())
        with pytest.raises(ar.ArithError, match="unsupported table version 4"):
            ar.read_tables(p)
        doc = b"name = w\npoly = 1, 2\n"
        p.write_bytes(b"CBSM" + struct.pack("<II", 5, len(doc)) + doc + struct.pack("<Q", N)
                      + bytes(-(20 + len(doc)) % 8)
                      + np.ones(N + 1, dtype="<i4").tobytes() + np.ones(2 * N + 2, dtype="<i2").tobytes())
        with pytest.raises(ar.ArithError, match="bad field document.*three integers"):
            ar.read_tables(p)

    def test_cut_inside_header(self, field_nn2, tmp_path):
        # the file ends inside version/doclen, the field document or N
        p = tmp_path / "t.bin"
        ar.sieve_to_file(field_nn2, 10**4, p)
        data = p.read_bytes()
        (doclen,) = struct.unpack("<I", data[8:12])
        for cut in (6, 12 + doclen - 3, 12 + doclen + 5):
            p.write_bytes(data[:cut])
            with pytest.raises(ar.ArithError, match="ends inside its header"):
                ar.read_tables(p)

    def test_truncated(self, field_nn2, tmp_path):
        p = tmp_path / "t.bin"
        ar.sieve_to_file(field_nn2, 10**4, p)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ar.ArithError, match="truncated"):
            ar.read_tables(p)

    def test_truncated_by_one_byte_either_way(self, field_nn2, tmp_path):
        p = tmp_path / "t.bin"
        ar.sieve_to_file(field_nn2, 10**4, p)
        data = p.read_bytes()
        for bad, have in ((data[:-1], -1), (data + b"\0", 1)):
            p.write_bytes(bad)
            with pytest.raises(ar.ArithError, match=rf"truncated table file \({8 * 10001 + have} != {8 * 10001} bytes"):
                ar.read_tables(p)

    def test_payload_layout(self, tables_nn2_small, tmp_path):
        # the header is padded with zeros to a multiple of 8 bytes; then
        # a_K(0..N) as little-endian int32, then mu_K(0..N) and b(0..N) as
        # little-endian int16
        t = tables_nn2_small
        p = tmp_path / "t.bin"
        ar.sieve_to_file(t.field, t.N, p)
        doc = b"name = cubic-nonnormal-2\npoly = -2, 0, 0\ndisc = -108\n"
        header = b"CBSM" + struct.pack("<II", 5, len(doc)) + doc + struct.pack("<Q", t.N)
        assert len(header) == 73
        header += bytes(7)
        payload = b"".join(np.array(arr.tolist(), dtype=dtype).tobytes()
                           for arr, dtype in ((t.aK, "<i4"), (t.muK, "<i2"), (t.b, "<i2")))
        assert len(payload) == 8 * (t.N + 1)
        assert p.read_bytes() == header + payload

    def test_mapped_tables_are_read_only(self, field_nn2, tmp_path):
        p = tmp_path / "t.bin"
        ar.sieve_to_file(field_nn2, 10**4, p)
        t = ar.read_tables(p)
        for name in ("aK", "muK", "b"):
            arr = getattr(t, name)
            assert isinstance(arr.base.obj, mmap.mmap) and arr.ctypes.data % arr.itemsize == 0
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 7
            with pytest.raises(ValueError):
                arr.setflags(write=True)
        assert t.aK[1] == 1

    def test_rewrite_keeps_an_old_mapping_whole(self, field_nn2, field_c7, tmp_path):
        # a writer replaces the file instead of truncating it, so a mapping
        # of the old file still reads the old values; neither write leaves a
        # temporary file behind
        p = tmp_path / "t.bin"
        old = ar.build_tables(field_nn2, 3000)
        ar.sieve_to_file(field_nn2, 3000, p)
        mapped = ar.read_tables(p)
        ar.sieve_to_file(field_c7, 2000, p)
        assert mapped.field == field_nn2 and mapped.N == 3000
        for name in ("aK", "muK", "b"):
            assert np.array_equal(getattr(mapped, name), getattr(old, name))
        assert ar.read_tables(p).N == 2000
        assert [q.name for q in tmp_path.iterdir()] == ["t.bin"]

    def test_interrupted_write_leaves_no_file(self, field_nn2, tmp_path, monkeypatch):
        p = tmp_path / "t.bin"
        real = ar._sieve_segments

        def interrupted(*args):
            gen = real(*args)
            yield next(gen)
            raise KeyboardInterrupt

        monkeypatch.setattr(ar, "_SEGMENT", 1009)
        monkeypatch.setattr(ar, "_sieve_segments", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ar.sieve_to_file(field_nn2, 5000, p)
        assert list(tmp_path.iterdir()) == []

    def test_prefix_sums_built_on_first_use(self, field_nn2, tmp_path):
        t = ar.build_tables(field_nn2, 2000)
        ar.sieve_to_file(field_nn2, 2000, tmp_path / "t.bin")
        for tables in (t, ar.read_tables(tmp_path / "t.bin")):
            assert not {"A_prefix", "M_prefix"} & set(vars(tables))
            assert np.array_equal(tables.M_prefix, np.cumsum(tables.muK))
            assert not tables.M_prefix.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                tables.A_prefix = tables.M_prefix

    def test_prefix_overflow_guard(self, tables_nn2_small, tmp_path):
        # the values fit their tables and the prefix sums cannot overflow
        # int64 because each table has its own dtype and N <= N_BUDGET:
        # anything else is refused
        t = tables_nn2_small
        with pytest.raises(ar.ArithError, match="the aK table must be int32, got int64"):
            dataclasses.replace(t, aK=t.aK.astype(np.int64))
        for name in ("muK", "b"):
            with pytest.raises(ar.ArithError, match=f"the {name} table must be int16, got int32"):
                dataclasses.replace(t, **{name: getattr(t, name).astype(np.int32)})
        with pytest.raises(ar.ArithError, match="exceeds N_BUDGET"):
            # calloc'd pages that nothing touches
            ar.ArithTables(t.field, *(np.zeros(ar.N_BUDGET + 2, dtype) for dtype in ar._TABLE_DTYPES.values()))
        # a header claiming more entries is refused before any allocation
        p = tmp_path / "crafted.bin"
        doc = b"name = rationals\n"
        p.write_bytes(b"CBSM" + struct.pack("<II", 5, len(doc)) + doc + struct.pack("<Q", ar.N_BUDGET + 1)
                      + np.ones(24, dtype="<i4").tobytes())
        with pytest.raises(ar.ArithError, match="exceeds N_BUDGET"):
            ar.read_tables(p)

    def test_value_tables_of_one_length(self, tables_nn2_small):
        # N is read off the arrays, so they must agree on it
        t = tables_nn2_small
        for name in ("aK", "muK", "b"):
            with pytest.raises(ar.ArithError, match="unequal lengths"):
                dataclasses.replace(t, **{name: getattr(t, name)[:-1]})

    def test_csv_export(self, field_nn2, tmp_path):
        p = tmp_path / "t.csv"
        t = ar.build_tables(field_nn2, 2000)
        ar.export_csv(t, p, nmax=50)
        # the prefix sums are taken over the 50 rows, not over the whole table
        assert not {"A_prefix", "M_prefix"} & set(vars(t))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "n,aK,muK,b,A,M"
        assert len(lines) == 51
        assert lines[1] == "1,1,1,1,1,1"
        assert lines[50].split(",")[4:] == [str(np.cumsum(t.aK[:51], dtype=np.int64)[50]),
                                            str(np.cumsum(t.muK[:51], dtype=np.int64)[50])]
