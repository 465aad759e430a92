"""Each shared check must report a planted fault, and hold on sound input.

The verify command and acceptance criteria 1-4 both rest on these
functions, so a check that stopped looking would pass everywhere at once.
"""

import dataclasses
import random


from cubicsums import arith, checks, fieldspec, ideals, sums


def _with(tables, name, index, delta):
    """A copy of the tables with one array changed at index (int or slice);
    every other array, the prefix sums included, is the original's."""
    arr = getattr(tables, name).copy()
    arr[index] += delta
    bad = dataclasses.replace(tables)
    # the prefix sums are cached properties: set them as a cache that was filled before
    vars(bad).update(A_prefix=tables.A_prefix, M_prefix=tables.M_prefix)
    vars(bad)[name] = arr
    return bad


def test_character(tables_c7_small):
    assert checks.character_failure(tables_c7_small, 10**4) is None
    assert checks.character_failure(_with(tables_c7_small, "b", 4321, 1), 10**4) == 4321


def test_histogram(tables_nn2_small):
    assert checks.histogram_failure(tables_nn2_small, 2000) is None
    assert checks.histogram_failure(_with(tables_nn2_small, "aK", 1234, -1), 2000) == 1234


def test_histogram_compares_scalar_and_bulk_splitting(field_nn2, monkeypatch):
    # the tables come from the bulk splitting_codes, the enumerated ideals
    # from the scalar splitting_type: flip the bulk code of p = 31 (split
    # for x^3 - 2) wherever it is bound, and the histogram must see it
    real = fieldspec.splitting_codes

    def flipped(field, N):
        ps, codes = real(field, N)
        codes[ps == 31] = fieldspec.T_INERT
        return ps, codes

    for mod in (fieldspec, arith, ideals, sums):
        if hasattr(mod, "splitting_codes"):
            monkeypatch.setattr(mod, "splitting_codes", flipped)
    assert fieldspec.splitting_type(field_nn2, 31) == fieldspec.SHAPES[fieldspec.T_SPLIT]
    tables = arith.build_tables(field_nn2, 10**4)
    assert checks.histogram_failure(tables, 10**4) == 31


def test_cross_path(tables_nn2_small):
    assert checks.cross_path_failure(tables_nn2_small, 10, (10, 100)) is None
    # a_K(7) = 0 for x^3 - 2; only the reduced path reads a_K
    bad = checks.cross_path_failure(_with(tables_nn2_small, "aK", 7, 1), 10, (10, 100))
    assert bad[:2] == (7, 10) and bad[3] == bad[2] + 7


def test_cross_path_sees_a_dropped_J(tables_nn2_small, monkeypatch):
    # the direct path enumerates J once for every X: a J it loses must show
    # at X = N(J), the first X whose sum includes it
    real = sums.enumerate_ideals
    dropped = next(J for J in real(tables_nn2_small.field, 10) if J.norm == 5)
    lost = ideals.sum_cJ_over_I(tables_nn2_small, dropped, 10)
    assert lost != 0
    monkeypatch.setattr(sums, "enumerate_ideals", lambda field, B: [J for J in real(field, B) if J != dropped])
    bad = checks.cross_path_failure(tables_nn2_small, 10, (10, 100))
    assert bad[:2] == (5, 10) and bad[3] == bad[2] + lost


def test_cross_path_sees_a_dropped_support_term(tables_nn2_small, monkeypatch):
    # the direct path sums N(M) mu(J/M) over the Moebius support of each J:
    # with its last pair lost, the unit J, whose support is M = (1) alone,
    # adds nothing, and X = 1 shows the whole of A_K(Y)
    real = ideals._mobius_support
    monkeypatch.setattr(ideals, "_mobius_support", lambda J, I=None: real(J, I)[:-1])
    bad = checks.cross_path_failure(tables_nn2_small, 10, (10, 100))
    assert bad == (1, 10, 0, arith.partial_A(tables_nn2_small, 10))


def _prime_ideal(field, p):
    return ideals.FactoredIdeal(((ideals.labels_above(field, p)[0], 1),))


def test_ideal_samples(field_nn2, monkeypatch):
    P, Q = _prime_ideal(field_nn2, 5), _prime_ideal(field_nn2, 11)
    samples = [(P, P, Q), (ideals.UNIT_IDEAL, P, Q)]
    assert checks.ideal_sample_failure(field_nn2, samples) is None
    real = ideals.ramanujan_ideal
    monkeypatch.setattr(ideals, "ramanujan_ideal", lambda f, J, I: real(f, J, I) + I.norm)
    assert checks.ideal_sample_failure(field_nn2, samples) == ("gcd-dependence", str(ideals.UNIT_IDEAL), str(P))
    monkeypatch.undo()
    monkeypatch.setattr(ideals, "ideal_mul", lambda I, J: I)
    assert checks.ideal_sample_failure(field_nn2, samples) == ("norm multiplicativity", str(P), str(Q))


def test_collapse(field_nn2, tables_nn2_small):
    Js = [ideals.UNIT_IDEAL, _prime_ideal(field_nn2, 5)]
    assert checks.collapse_failure(tables_nn2_small, Js) is None
    bad = checks.collapse_failure(_with(tables_nn2_small, "A_prefix", slice(50, None), 1), Js)
    assert bad[:2] == (str(ideals.UNIT_IDEAL), 100) and bad[3] == bad[2] + 1


def test_multiplicativity(tables_nn2_small):
    assert checks.multiplicativity_failure(tables_nn2_small, 2000) is None
    assert checks.multiplicativity_failure(_with(tables_nn2_small, "aK", 6, 1), 2000) == (2, 3)
    # a_K(2) = a_K(3) = 2^16 and a_K(6) = 0: the int32 product 2^32 wraps to 0
    wrapped = _with(_with(tables_nn2_small, "aK", [2, 3], 2**16 - 1), "aK", 6, -1)
    assert checks.multiplicativity_failure(wrapped, 2000) == (2, 3)


def test_restriction(tables_nn2_small):
    assert checks.restriction_failure(tables_nn2_small, 1000) is None
    assert checks.restriction_failure(_with(tables_nn2_small, "muK", 777, 1), 1000) == 777
    assert checks.restriction_failure(tables_nn2_small, 2 * 10**4) == 2 * 10**4


def test_remainder(tables_nn2_small):
    rho, _ = arith.estimate_rho(tables_nn2_small, 10**4)
    assert checks.remainder_failure(tables_nn2_small, rho, 5432) is None
    # M_K(1) = 2 doubles the reduced S_K(1, Y)
    assert checks.remainder_failure(_with(tables_nn2_small, "muK", 1, 1), rho, 5432) is not None
    # P_K(Y) is summed from a_K, so a prefix sum wrong above 5000 shows
    assert checks.remainder_failure(_with(tables_nn2_small, "A_prefix", slice(5000, None), 1), rho, 5432) is not None


def test_voronoi_split(tables_nn2_small, monkeypatch):
    rho, _ = arith.estimate_rho(tables_nn2_small, 10**4)
    assert checks.voronoi_split_failure(tables_nn2_small, rho, 5432, 64) is None
    real = sums.voronoi_P1
    monkeypatch.setattr(sums, "voronoi_P1", lambda *a: (real(*a)[0], real(*a)[1] + 0.5))
    assert checks.voronoi_split_failure(tables_nn2_small, rho, 5432, 64) is not None
    monkeypatch.undo()
    # P_K comes from the sampled evaluator, which the row compares with partial_A
    real_values = sums.remainder_values
    monkeypatch.setattr(sums, "remainder_values", lambda *a: real_values(*a) + 0.5)
    assert checks.voronoi_split_failure(tables_nn2_small, rho, 5432, 64) is not None


def test_exponential_sum(monkeypatch):
    assert checks.exponential_sum_failure(20) is None
    real = arith.classical_ramanujan
    monkeypatch.setattr(arith, "classical_ramanujan", lambda m, n: real(m, n) + ((m, n) == (12, 8)))
    assert checks.exponential_sum_failure(20)[:3] == (12, 8, real(12, 8) + 1)


def test_field_suite_stops_at_broken_convolution(field_nn2, tables_nn2_small):
    rows = checks.field_suite(tables_nn2_small, random.Random(1), 5, (10,))
    assert all(ok for _, _, ok, _ in rows) and len(rows) == 12
    rows = checks.field_suite(_with(tables_nn2_small, "aK", 500, 1), random.Random(1), 5, (10,))
    assert rows == [(field_nn2.name, "convolution aK*muK=e", False, "convolution identity failed at n=500")]


def test_classical_suite(monkeypatch):
    assert [ok for *_, ok, _ in checks.classical_suite()] == [True, True]
    monkeypatch.setattr(sums, "classical_S1", lambda X, Y: 0)
    assert [ok for *_, ok, _ in checks.classical_suite()] == [True, False]
