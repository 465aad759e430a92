import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fieldspec import RANDOM_COEFFS, _random_field

from cubicsums import arith as ar
from cubicsums import fieldspec as fs
from cubicsums import ideals as idl


def _seeded_random_field(seed):
    """The first cubic with coefficients in [-20, 20] drawn from a seeded rng
    that makes a valid field document."""
    rng = random.Random(seed)
    while True:
        try:
            return fs.parse_field_spec("poly = {}, {}, {}".format(*(rng.randint(-20, 20) for _ in range(3))))
        except fs.FieldConfigError:
            continue


class TestFieldIdentity:
    def test_overrides_are_part_of_field_identity(self):
        # x^3 - 10: 3 divides the index, so its splitting comes from the override
        a = fs.parse_field_spec("poly = -10, 0, 0\noverride.3 = 1:1+1:2")
        b = fs.parse_field_spec("poly = -10, 0, 0\noverride.3 = 1:3")
        assert a != b and hash(a) != hash(b)
        assert len(idl.labels_above(a, 3)) == 2
        assert len(idl.labels_above(b, 3)) == len(fs.splitting_type(b, 3).components) == 1
        # the name labels a field; it is not part of its identity
        assert fs.parse_field_spec("name = other\npoly = -2, 0, 0") == fs.get_preset("cubic-nonnormal-2")


class TestFactoredIdeal:
    def test_unit(self):
        assert idl.UNIT_IDEAL.norm == 1
        assert idl.ideal_mobius(idl.UNIT_IDEAL) == 1
        assert idl.ideal_gcd(idl.UNIT_IDEAL, idl.UNIT_IDEAL).is_unit

    def test_mobius_cases(self, field_nn2):
        P = idl.labels_above(field_nn2, 2)[0]
        Q = idl.labels_above(field_nn2, 5)[0]
        assert idl.ideal_mobius(idl.FactoredIdeal(((P, 2),))) == 0
        assert idl.ideal_mobius(idl.FactoredIdeal(((P, 1), (Q, 1)))) == 1
        assert idl.ideal_mobius(idl.FactoredIdeal(((P, 1),))) == -1

    def test_gcd_divide(self, field_nn2):
        P = idl.labels_above(field_nn2, 2)[0]
        Q = idl.labels_above(field_nn2, 5)[0]
        I = idl.FactoredIdeal(((P, 3), (Q, 1)))
        J = idl.FactoredIdeal(((P, 1),))
        g = idl.ideal_gcd(I, J)
        assert g.factors == ((P, 1),)
        assert idl.ideal_divide(I, J).factors == ((P, 2), (Q, 1))
        with pytest.raises(idl.IdealError):
            idl.ideal_divide(J, I)

    def test_norm_multiplicative_random(self, field_nn2):
        rng = random.Random(7)
        for _ in range(100):
            I = idl.random_factored_ideal(field_nn2, rng, 500)
            J = idl.random_factored_ideal(field_nn2, rng, 500)
            assert idl.ideal_mul(I, J).norm == I.norm * J.norm

    def test_exponent_validation(self, field_nn2):
        P = idl.labels_above(field_nn2, 2)[0]
        with pytest.raises(idl.IdealError):
            idl.FactoredIdeal(((P, 0),))
        with pytest.raises(idl.IdealError):
            idl.FactoredIdeal(((P, 1), (P, 2)))

    def test_norm_overflow_guard(self, field_nn2):
        P = idl.labels_above(field_nn2, 2)[0]
        with pytest.raises(idl.IdealError, match="64 bits"):
            idl.FactoredIdeal(((P, 64),))

    def test_label_ordering(self, field_nn2, field_c7):
        labs = idl.labels_above(field_c7, 13)
        assert [l.index for l in labs] == [0, 1, 2]
        assert all(l.f == 1 and l.e == 1 for l in labs)
        labs = idl.labels_above(field_nn2, 5)
        assert (labs[0].f, labs[1].f) == (1, 2)
        assert labs[0].norm == 5 and labs[1].norm == 25


class TestEnumeration:
    def test_unit_only(self, field_nn2):
        assert [i.norm for i in idl.enumerate_ideals(field_nn2, 1)] == [1]

    def test_nn2_first_ten(self, field_nn2):
        ids = idl.enumerate_ideals(field_nn2, 10)
        assert len(ids) == 9  # = A_K(10)
        assert [i.norm for i in ids] == [1, 2, 3, 4, 5, 6, 8, 9, 10]

    def test_histogram_matches_sieve(self, field_nn2, field_c7, field_hook):
        for f in (field_nn2, field_c7, field_hook):
            t = ar.build_tables(f, 2000)
            h = idl.histogram_by_norm(idl.enumerate_ideals(f, 2000), 2000)
            assert np.array_equal(h[1:], t.aK[1:2001]), f.name

    def test_deterministic(self, field_c7):
        a = idl.enumerate_ideals(field_c7, 300)
        b = idl.enumerate_ideals(field_c7, 300)
        assert [i.label_string() for i in a] == [i.label_string() for i in b]

    @pytest.mark.parametrize("preset", ["cubic-nonnormal-2", "cubic-cyclic-7", "seeded-random"])
    def test_sorted_by_norm_and_repeatable(self, preset):
        field = _seeded_random_field(5) if preset == "seeded-random" else fs.get_preset(preset)
        ids = idl.enumerate_ideals(field, 2000)
        norms = [I.norm for I in ids]
        assert norms == sorted(norms)
        assert ids == idl.enumerate_ideals(field, 2000)

    def test_budget(self, field_nn2):
        with pytest.raises(idl.IdealError):
            idl.enumerate_ideals(field_nn2, 10**6 + 1)

    def test_csv(self, field_nn2, tmp_path):
        p = tmp_path / "ideals.csv"
        idl.ideals_to_csv(idl.enumerate_ideals(field_nn2, 10), p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "norm,factorization"
        assert lines[1] == "1,(1)"
        assert len(lines) == 10


def _all_divisors(I):
    """Every divisor of I, through the checked constructor."""
    divs = [()]
    for lab, e in I.factors:
        divs = [d + ((lab, k),) if k else d for d in divs for k in range(e + 1)]
    return [idl.FactoredIdeal(d) for d in divs]


def _c_full(J, I):
    # the definition over every M | gcd(I, J), zero terms included
    g = idl.ideal_gcd(I, J)
    return sum(M.norm * idl.ideal_mobius(idl.ideal_divide(J, M)) for M in _all_divisors(g))


def _sum_full(tables, J, Y):
    # the divisor collapse over every M | J, zero terms included
    return sum(
        M.norm * idl.ideal_mobius(idl.ideal_divide(J, M)) * ar.partial_A(tables, Y // M.norm)
        for M in _all_divisors(J)
    )


def _support_sums_match_full_sums(field, seed):
    tables = ar.build_tables(field, 2000)
    ids = idl.enumerate_ideals(field, 2000)
    small = [J for J in ids if J.norm <= 200]
    primes = [I.factors[0][0] for I in ids if len(I.factors) == 1 and I.factors[0][1] == 1][:3]
    rng = random.Random(seed)
    for _ in range(60):
        J, I = rng.choice(small), rng.choice(ids)
        assert idl.ramanujan_ideal(field, J, I) == _c_full(J, I), (str(J), str(I))
    # J = P^a and P^a Q against I = P^b and P^b Q: zero exactly when b < a - 1
    zeros = 0
    for P, Q in itertools.permutations(primes, 2):
        for a in range(1, 4):
            for J in (idl.FactoredIdeal(((P, a),)), idl.FactoredIdeal(((P, a), (Q, 1)))):
                for b in range(a + 2):
                    Pb = ((P, b),) if b else ()
                    for I in (idl.FactoredIdeal(Pb), idl.FactoredIdeal(Pb + ((Q, 1),))):
                        c = idl.ramanujan_ideal(field, J, I)
                        assert c == _c_full(J, I), (str(J), str(I))
                        if b < a - 1:
                            assert c == 0, (str(J), str(I))
                            zeros += 1
    assert zeros > 0
    cubes = [idl.FactoredIdeal(((P, 3), (Q, 1))) for P, Q in itertools.permutations(primes, 2)]
    for J in [rng.choice(small) for _ in range(10)] + cubes:
        for Y in (1, 10, 100, 2000):
            assert idl.sum_cJ_over_I(tables, J, Y) == _sum_full(tables, J, Y), (str(J), Y)


class TestRamanujanIdeal:
    def test_unit_J(self, field_nn2):
        for I in idl.enumerate_ideals(field_nn2, 30):
            assert idl.ramanujan_ideal(field_nn2, idl.UNIT_IDEAL, I) == 1

    def test_unit_I_gives_mobius(self, field_nn2):
        for J in idl.enumerate_ideals(field_nn2, 30):
            assert idl.ramanujan_ideal(field_nn2, J, idl.UNIT_IDEAL) == idl.ideal_mobius(J)

    def test_split_prime_two_cases(self, field_c7):
        P = idl.labels_above(field_c7, 13)[0]
        J = idl.FactoredIdeal(((P, 1),))
        I_with = idl.FactoredIdeal(((P, 2),))
        Q = idl.labels_above(field_c7, 29)[0]
        I_without = idl.FactoredIdeal(((Q, 1),))
        assert idl.ramanujan_ideal(field_c7, J, I_with) == 12  # N(P) - 1
        assert idl.ramanujan_ideal(field_c7, J, I_without) == -1

    def test_gcd_dependence(self, field_nn2):
        rng = random.Random(99)
        for _ in range(50):
            J = idl.random_factored_ideal(field_nn2, rng, 100)
            I = idl.random_factored_ideal(field_nn2, rng, 1000)
            g = idl.ideal_gcd(I, J)
            assert idl.ramanujan_ideal(field_nn2, J, I) == idl.ramanujan_ideal(field_nn2, J, g)

    def test_hook_matches_classical(self, field_hook):
        ids = idl.enumerate_ideals(field_hook, 40)
        for J in ids:
            for I in ids:
                assert idl.ramanujan_ideal(field_hook, J, I) == ar.classical_ramanujan(J.norm, I.norm)

    def test_field_mismatch_rejected(self, field_nn2, field_c7):
        P = idl.labels_above(field_c7, 13)[0]
        J = idl.FactoredIdeal(((P, 1),))
        with pytest.raises(idl.IdealError, match="does not belong"):
            idl.ramanujan_ideal(field_nn2, J, idl.UNIT_IDEAL)


class TestSupportAgainstFullSums:
    """ramanujan_ideal and sum_cJ_over_I sum over the Moebius support only;
    the definitions over every divisor must give the same integers."""

    @pytest.mark.parametrize("preset", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_presets(self, preset):
        _support_sums_match_full_sums(fs.get_preset(preset), 3)

    @settings(max_examples=15, deadline=None)
    @given(coeffs=RANDOM_COEFFS, seed=st.integers(0, 2**32 - 1))
    def test_random_fields(self, coeffs, seed):
        _support_sums_match_full_sums(_random_field(coeffs), seed)


class TestSumCJ:
    def test_unit_gives_A(self, tables_nn2_small):
        for Y in (1, 10, 500):
            assert idl.sum_cJ_over_I(tables_nn2_small, idl.UNIT_IDEAL, Y) == ar.partial_A(
                tables_nn2_small, Y
            )

    def test_Y_below_one(self, field_nn2, tables_nn2_small):
        P = idl.labels_above(field_nn2, 2)[0]
        J = idl.FactoredIdeal(((P, 1),))
        assert idl.sum_cJ_over_I(tables_nn2_small, J, 0.5) == 0

    def test_naive_oracle_random(self, field_nn2, tables_nn2_small):
        rng = random.Random(12345)
        ids500 = idl.enumerate_ideals(field_nn2, 500)
        for _ in range(15):
            J = idl.random_factored_ideal(field_nn2, rng, 50)
            for Y in (10, 100, 500):
                naive = sum(
                    idl.ramanujan_ideal(field_nn2, J, I) for I in ids500 if I.norm <= Y
                )
                assert idl.sum_cJ_over_I(tables_nn2_small, J, Y) == naive

    def test_tables_too_short(self, field_nn2):
        t = ar.build_tables(field_nn2, 100)
        with pytest.raises(idl.IdealError, match="too short"):
            idl.sum_cJ_over_I(t, idl.UNIT_IDEAL, 500)


def _same_as_checked(I):
    J = idl.FactoredIdeal(I.factors)
    assert (I.factors, I.norm, hash(I)) == (J.factors, J.norm, hash(J)), str(I)


def _trusted_builds_match_checked(field, seed):
    ids = idl.enumerate_ideals(field, 2000)
    for I in ids:
        _same_as_checked(I)
    # enumerated ideals share small primes, so their gcds are rarely the unit
    rng = random.Random(seed)
    for _ in range(40):
        I, J = rng.choice(ids), rng.choice(ids)
        K = idl.random_factored_ideal(field, rng, 2000)
        for A, B in ((I, J), (J, I), (I, K)):
            _same_as_checked(idl.ideal_gcd(A, B))
        # the divisors of I, taken from the enumeration
        divs = [M for M in ids if all(I.exponent(lab) >= e for lab, e in M.factors)]
        assert len(divs) == math.prod(e + 1 for _, e in I.factors)
        for M in divs:
            _same_as_checked(idl.ideal_divide(I, M))


class TestTrustedConstruction:
    """Enumeration, gcd and quotients build their ideals without
    the public constructor's checks; each must equal its checked rebuild."""

    @pytest.mark.parametrize("preset", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_presets(self, preset):
        _trusted_builds_match_checked(fs.get_preset(preset), 11)

    @settings(max_examples=15, deadline=None)
    @given(coeffs=RANDOM_COEFFS, seed=st.integers(0, 2**32 - 1))
    def test_random_fields(self, coeffs, seed):
        _trusted_builds_match_checked(_random_field(coeffs), seed)
