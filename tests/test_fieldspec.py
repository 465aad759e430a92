import dataclasses
import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicsums import arith, checks
from cubicsums import fieldspec as fs

# monic cubics x^3 + c2 x^2 + c1 x + c0 with |c_i| <= 20
RANDOM_COEFFS = st.tuples(*[st.integers(-20, 20)] * 3)


SMALL_PRIMES = fs.primes_upto(10**5).tolist()


def _top_ladder_primes(count):
    """The `count` largest primes below 2^30, the power ladder's bound, and
    the first prime above it."""
    top, n = [], 2**30 - 1
    while len(top) < count:
        if fs._is_prime(n):
            top.append(n)
        n -= 2
    above = 2**30 + 1
    while not fs._is_prime(above):
        above += 2
    return top, above


TOP_LADDER_PRIMES, FIRST_PRIME_ABOVE_LADDER = _top_ladder_primes(200)


def _f_shape(code):
    """The residue degrees of a code's shape."""
    return [f for f, _ in fs.SHAPES[code]]


def _degree(code):
    """sum e f over a code's shape: the field's degree."""
    return sum(f * e for f, e in fs.SHAPES[code])


def _random_field(coeffs):
    try:
        return fs.parse_field_spec("poly = {}, {}, {}".format(*coeffs))
    except fs.FieldConfigError:
        assume(False)  # reducible, or an index divisor that needs an override


class TestDiscriminant:
    @pytest.mark.parametrize(
        "coeffs",
        [(-2, 0, 0), (-1, -2, 1), (8, -2, 1), (2, -1, 3), (-7, 5, -4), (1, 1, 1)],
    )
    def test_matches_closed_form(self, coeffs):
        # independent oracle: disc f = prod_{i<j} (r_i - r_j)^2 over the complex roots
        c0, c1, c2 = coeffs
        r = np.roots([1, c2, c1, c0])
        disc = ((r[0] - r[1]) * (r[0] - r[2]) * (r[1] - r[2])) ** 2
        assert abs(disc.imag) < 1e-6
        assert fs.discriminant_monic_cubic(c0, c1, c2) == round(disc.real)

    def test_preset_values(self, field_nn2, field_c7):
        assert (field_nn2.disc, field_nn2.disc_sqfree_part, field_nn2.conductor_f) == (-108, -3, 6)
        assert not field_nn2.normal
        assert field_nn2.complex_places == 1
        assert (field_c7.disc, field_c7.disc_sqfree_part, field_c7.conductor_f) == (49, 1, 7)
        assert field_c7.normal
        assert field_c7.complex_places == 0

    def test_squarefree_decompose(self):
        assert fs.squarefree_decompose(-108) == (-3, 6)
        assert fs.squarefree_decompose(49) == (1, 7)
        assert fs.squarefree_decompose(1) == (1, 1)
        assert fs.squarefree_decompose(-8) == (-2, 2)
        assert fs.squarefree_decompose(-140) == (-35, 2)  # primes to the first power
        with pytest.raises(fs.FieldConfigError, match="zero"):
            fs.squarefree_decompose(0)

    def test_stores_only_what_defines_the_field(self, field_nn2):
        fields = [f.name for f in dataclasses.fields(fs.FieldSpec)]
        assert fields == ["name", "poly", "disc", "index_divisor_overrides"]
        # a spec that equals x^3 - 2 can no longer claim other invariants
        with pytest.raises(TypeError):
            fs.FieldSpec(name="x", poly=(-2, 0, 0), disc=-108, disc_sqfree_part=1, conductor_f=6, normal=True)
        same = fs.FieldSpec("x", (-2, 0, 0), -108)
        assert same == field_nn2 and hash(same) == hash(field_nn2)
        assert (same.disc_sqfree_part, same.conductor_f, same.normal) == (-3, 6, False)

    @settings(max_examples=100, deadline=None)
    @given(coeffs=RANDOM_COEFFS)
    def test_random_cubics_derived_invariants(self, coeffs):
        f = _random_field(coeffs)
        d = f.disc_sqfree_part
        assert d * f.conductor_f**2 == f.disc
        assert all(k == 1 for k in fs.factorize(abs(d)).values())
        assert f.normal == (f.disc > 0 and math.isqrt(f.disc) ** 2 == f.disc)
        assert f.poly_disc == fs.discriminant_monic_cubic(*f.poly)


# one document per cubic shape code, each override at a prime where it is the
# true shape: Dedekind's field at 2, then 5, 7, 3 and 5 in pure cubic fields
SHAPE_DOCS = {
    fs.T_SPLIT: "name = dedekind\npoly = 8, -2, 1\ndisc = -503\noverride.2 = 1:1+1:1+1:1\n",
    fs.T_PARTIAL: "name = pure-250\npoly = -250, 0, 0\ndisc = -108\noverride.5 = 1:1+2:1\n",
    fs.T_INERT: "name = pure-686\npoly = -686, 0, 0\ndisc = -108\noverride.7 = 3:1\n",
    fs.T_RAM_112: "name = pure-10\npoly = -10, 0, 0\ndisc = -300\noverride.3 = 1:1+1:2\n",
    fs.T_RAM_13: "name = pure-50\npoly = -50, 0, 0\ndisc = -2700\noverride.5 = 1:3\n",
}

# valid documents beside the presets: x^3 - 10 and x^3 - 50, whose index
# divisors 3 and 5 are P1^2 P2 and P1^3, and x^3 - 500015, whose discriminant
# holds the square of the prime 100003
FIELD_DOCS = (
    "name = w\npoly = -10, 0, 0\ndisc = -300\noverride.3 = 1:1+1:2\n",
    SHAPE_DOCS[fs.T_RAM_13],
    "name = pure-500015\npoly = -500015, 0, 0\n",
)


class TestParsing:
    def test_reducible_rejected(self):
        with pytest.raises(fs.FieldConfigError, match="reducible"):
            fs.parse_field_spec("name=x\npoly=-1, 0, 0")  # x^3 - 1

    def test_zero_constant_reducible(self):
        with pytest.raises(fs.FieldConfigError, match="reducible"):
            fs.parse_field_spec("poly = 0, 1, 0")

    def test_zero_discriminant_refused_as_reducible(self):
        # a monic integer cubic with disc 0 has a rational, hence an integer,
        # root: the reducibility check answers before the zero-disc check
        for coeffs, root in (((2, -3, 0), -2), ((-8, 12, -6), 2)):  # (x-1)^2 (x+2), (x-2)^3
            assert fs.discriminant_monic_cubic(*coeffs) == 0
            with pytest.raises(fs.FieldConfigError, match=rf"reducible \(root {root}\)"):
                fs.parse_field_spec("poly = {}, {}, {}".format(*coeffs))

    def test_basic_document(self):
        f = fs.parse_field_spec("name = pure-5\npoly = -5, 0, 0  # x^3 - 5\n")
        assert f.poly == (-5, 0, 0)
        assert f.disc == -675

    def test_disc_must_divide_square(self):
        with pytest.raises(fs.FieldConfigError, match="square"):
            fs.parse_field_spec("poly=-2,0,0\ndisc=-54")

    def test_unknown_key(self):
        with pytest.raises(fs.FieldConfigError, match="unknown key"):
            fs.parse_field_spec("poly=-2,0,0\nfoo=1")
        # the rationals hook is its name alone: a disc, override or other key is not ignored
        for key in ("disc = 5", "override.2 = 1:3", "foo = 1"):
            with pytest.raises(fs.FieldConfigError, match="missing poly"):
                fs.parse_field_spec(f"name = rationals\n{key}")

    def test_index_divisor_needs_override(self):
        # x^3 + x^2 - 2x + 8: the prime 2 always divides the index
        with pytest.raises(fs.FieldConfigError, match="override for p=2"):
            fs.parse_field_spec("poly = 8, -2, 1")

    def test_override_accepted_and_used(self):
        # Dedekind's field: poly disc -2012 = 2^2 * -503
        f = fs.parse_field_spec("poly = 8, -2, 1\ndisc = -503\noverride.2 = 1:1+1:1+1:1")
        code = fs.splitting_type(f, 2)
        assert fs.SHAPES[code] == ((1, 1), (1, 1), (1, 1))
        assert fs.local_ideal_counts(_f_shape(code), 2) == [1, 3, 6]

    def test_override_needs_its_disc(self):
        # an override prime divides the index, so the poly disc, the default
        # disc, is not the field's: x^3 - 10 with poly disc -2700 has disc -300
        for doc in ("poly = -10, 0, 0\noverride.3 = 1:1+1:2", "poly = -10, 0, 0\ndisc = -2700\noverride.3 = 1:3",
                    "poly = 8, -2, 1\noverride.2 = 1:1+1:1+1:1"):
            with pytest.raises(fs.FieldConfigError, match="override at p=[23]: disc -(2700|2012) leaves [23] out"):
                fs.parse_field_spec(doc)

    def test_repeated_key_refused(self):
        # the last value used to win: a second poly turned x^3 - 2 into the
        # cyclic field, and override.03 made 3 totally ramified in x^3 - 10
        for doc, line, key in (("poly = -2, 0, 0\npoly = -1, -2, 1", 2, "poly"),
                               ("poly = -10, 0, 0\ndisc = -300\noverride.3 = 1:1+1:2\noverride.03 = 1:3", 4,
                                "override.3")):
            with pytest.raises(fs.FieldConfigError, match=f"line {line}: {key} is stated twice"):
                fs.parse_field_spec(doc)

    def test_override_key_must_be_prime(self):
        # a composite key names no prime ideal, so no prime's shape may be taken from it
        with pytest.raises(fs.FieldConfigError, match="override at p=4: 4 is not prime"):
            fs.parse_field_spec("poly = -2, 0, 0\noverride.4 = 1:1+1:1+1:1")

    def test_override_only_at_an_index_divisor(self):
        # x^3 - 2 is 5-maximal (5 = P1 P2 from f mod 5), and 1000003 does not
        # divide its disc, so neither prime may take an override
        for p in (5, 1000003):
            with pytest.raises(fs.FieldConfigError, match=f"override at p={p}: the generated order is {p}-maximal"):
                fs.parse_field_spec(f"poly = -2, 0, 0\noverride.{p} = 3:1")

    def test_monogenic_square_disc_prime_no_override(self):
        # x^3 - x - 2 has disc -104 = -26*4 but stays 2-maximal
        f = fs.parse_field_spec("poly = -2, -1, 0")
        assert f.poly_disc == -104
        assert 2 not in f.index_divisor_overrides

    def test_presets_by_name(self):
        assert fs.load_field("cubic-cyclic-7").name == "cubic-cyclic-7"
        with pytest.raises(fs.FieldConfigError):
            fs.load_field("no-such-preset")
        with pytest.raises(fs.FieldConfigError, match="unknown preset 'bogus'"):
            fs.get_preset("bogus")

    def test_load_inline_text(self):
        f = fs.load_field("poly=-2,0,0")
        assert f.disc == -108

    def test_non_integer_values_are_config_errors(self):
        for doc in ("poly = -2, 0, 0\ndisc = abc", "poly = -2, 0, 0\noverride.2 = x:1", "poly = -2, z, 0"):
            with pytest.raises(fs.FieldConfigError, match="must be an integer"):
                fs.parse_field_spec(doc)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_documents_fail_typed(self, data):
        # one token of a valid document replaced, integers kept to |c| <= 10^4 so
        # factorization stays fast: the parser returns a field or raises
        # FieldConfigError, nothing else (x^3 - 500015 exceeds the bound)
        doc = data.draw(st.sampled_from(FIELD_DOCS[:2]) | st.builds(
            lambda c: f"name = r\npoly = {c[0]}, {c[1]}, {c[2]}\n", st.tuples(*[st.integers(-20, 20)] * 3)))
        tokens = re.findall(r"\d+|[A-Za-z_]+|\s+|.", doc)
        i = data.draw(st.integers(0, len(tokens) - 1))
        tokens[i] = data.draw(st.integers(-10**4, 10**4).map(str) | st.text("ab.:+=,#-0123456789 \n", max_size=4))
        mutated = "".join(tokens)
        assume(all(int(d) <= 10**4 for d in re.findall(r"\d+", mutated)))
        try:
            assert isinstance(fs.parse_field_spec(mutated), fs.FieldSpec)
        except fs.FieldConfigError:
            pass


class TestSelfValidation:
    def test_constructor_refuses_bad_fields(self):
        split = fs.T_SPLIT
        bad = (
            (("y", (0, 0, 0), 5), "reducible"),  # x^3, zero discriminant
            (("x", (-2, 0, 0), 7), "does not divide"),
            (("x", (-2, 0, 0), -54), "not a square"),
            (("x", (-2, 0, 0), -108, {4: split}), "4 is not prime"),
            (("x", (-2, 0, 0), -108, {2: fs.T_RATIONAL}), "5 is no cubic shape code"),
            (("x", (-2, 0, 0), -108, {2: ((1, 1), (1, 1))}), r"\(\(1, 1\), \(1, 1\)\) is no cubic shape code"),
            (("x", (8, -2, 1), fs.discriminant_monic_cubic(8, -2, 1)), "override for p=2"),
            (("r", None, 5), "rationals hook"),
            (("r", None, 1, {2: split}), "rationals hook"),
        )
        for args, match in bad:
            with pytest.raises(fs.FieldConfigError, match=match):
                fs.FieldSpec(*args)
        assert fs.FieldSpec("rationals", None, 1) == fs.get_preset("rationals")

    def test_malformed_override_refusals(self):
        # no components is no f:e; four, a residue degree 0 and total degree 2
        # are each refused by name, with the five shapes an override may be
        shapes = "want one of 1:1+1:1+1:1, 1:1+2:1, 3:1, 1:1+1:2, 1:3"
        for value, want in (("", "override component '' is not f:e"),
                            *((v, f"override.2 = {v} is no cubic splitting shape; {shapes}")
                              for v in ("1:1+1:1+1:1+1:1", "0:1+1:1", "1:1+1:1"))):
            with pytest.raises(fs.FieldConfigError) as err:
                fs.parse_field_spec(f"poly = -2, 0, 0\noverride.2 = {value}")
            assert str(err.value) == want, value

    def test_override_must_agree_with_disc(self):
        # 3 | -300, so 3 ramifies in Q(10^(1/3)) (Dedekind), and 3 divides -300
        # once, so 3 is P1^2 P2: of the five shapes at 3 only that one is accepted
        shapes = ("1:1+1:1+1:1", "1:1+2:1", "3:1", "1:1+1:2", "1:3")
        accepted = []
        for shape in shapes:
            try:
                fs.parse_field_spec(f"poly = -10, 0, 0\ndisc = -300\noverride.3 = {shape}")
                accepted.append(shape)
            except fs.FieldConfigError as err:
                once = " once" if shape == "1:3" else ""
                assert str(err) == f"override at p=3: 3 divides disc -300{once}, so {shape} cannot be its shape"
        assert accepted == ["1:1+1:2"]
        # 5^2 | -2700, so 5 is P1^3 in Q(50^(1/3)), not P1^2 P2
        with pytest.raises(fs.FieldConfigError, match=r"5 divides disc -2700 more than once, so 1:1\+1:2 cannot"):
            fs.parse_field_spec("poly = -50, 0, 0\ndisc = -2700\noverride.5 = 1:1+1:2")
        # 5 does not divide -108 and (-108/5) = -1, so 5 = P1 P2 in Q(250^(1/3)) (Stickelberger)
        for shape in shapes[:1] + shapes[2:]:
            with pytest.raises(fs.FieldConfigError, match="override at p=5: "):
                fs.parse_field_spec(f"poly = -250, 0, 0\ndisc = -108\noverride.5 = {shape}")
        with pytest.raises(fs.FieldConfigError, match=r"\(-108/5\) = -1, so 3:1 cannot be its shape"):
            fs.parse_field_spec("poly = -250, 0, 0\ndisc = -108\noverride.5 = 3:1")
        with pytest.raises(fs.FieldConfigError, match=r"\(-108/7\) = 1, so 1:1\+2:1 cannot be its shape"):
            fs.parse_field_spec("poly = -686, 0, 0\ndisc = -108\noverride.7 = 1:1+2:1")

    def test_disc_with_a_maximal_index_prime_refused(self):
        # Z[2^(1/3)] is 2- and 3-maximal, so x^3 - 2 defines a field of disc -108 only
        with pytest.raises(fs.FieldConfigError, match="2-maximal"):
            fs.parse_field_spec("poly = -2, 0, 0\ndisc = -3")
        with pytest.raises(fs.FieldConfigError, match="3-maximal"):
            fs.parse_field_spec("poly = -2, 0, 0\ndisc = -12")
        # 3 divides the index of Z[10^(1/3)]: the field disc is -2700 / 3^2
        f = fs.parse_field_spec("poly = -10, 0, 0\ndisc = -300\noverride.3 = 1:1+1:2")
        assert (f.disc, f.poly_disc) == (-300, -2700)

    @settings(max_examples=60, deadline=None)
    @given(coeffs=RANDOM_COEFFS)
    def test_random_cubics_refuse_every_smaller_disc(self, coeffs):
        # built without overrides, Z[theta] is maximal at every prime, so the
        # poly disc is the field disc and poly disc / p^2 is refused
        f = _random_field(coeffs)
        for p, k in fs.factorize(abs(f.poly_disc)).items():
            if k >= 2:
                with pytest.raises(fs.FieldConfigError, match=f" {p}-maximal"):
                    fs.FieldSpec("c", f.poly, f.poly_disc // p**2)


class TestFormat:
    def test_round_trip(self):
        fields = [fs.get_preset(n) for n in fs.preset_names()] + [fs.parse_field_spec(d) for d in FIELD_DOCS]
        assert len(set(fields)) == len(fields)
        for f in fields:
            back = fs.parse_field_spec(fs.format_field_spec(f))
            assert back == f and back.name == f.name

    def test_round_trip_every_override_shape(self):
        # each document's text is its format, byte for byte, and parses back to its code
        for code, doc in SHAPE_DOCS.items():
            f = fs.parse_field_spec(doc)
            assert list(f.index_divisor_overrides.values()) == [code]
            assert fs.format_field_spec(f) == doc
            assert fs.parse_field_spec(fs.format_field_spec(f)) == f

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.tuples(*[st.integers(-20, 20)] * 3))
    def test_round_trip_random_cubics(self, coeffs):
        try:
            f = fs.parse_field_spec("name = c\npoly = {}, {}, {}".format(*coeffs))
        except fs.FieldConfigError:
            assume(False)  # reducible, or an index divisor that needs an override
        back = fs.parse_field_spec(fs.format_field_spec(f))
        assert back == f and back.name == f.name


def _p_divides_index(c0, c1, c2, p):
    """Brute-force oracle: p divides [O_K : Z[theta]] iff some
    (a + b theta + c theta^2)/p with (a, b, c) != 0 mod p is integral, that is
    its characteristic polynomial x^3 - tr/p x^2 + e2/p^2 x - det/p^3 has
    integer coefficients (tr, e2, det of the integer matrix of a + b theta + c theta^2)."""
    C = np.array([[0, 0, -c0], [1, 0, -c1], [0, 1, -c2]], dtype=object)
    basis = (np.eye(3, dtype=object), C, C.dot(C))
    for abc in itertools.product(range(p), repeat=3):
        if not any(abc):
            continue
        A = sum(x * B for x, B in zip(abc, basis))
        minors = [A[i, i] * A[j, j] - A[i, j] * A[j, i] for i, j in ((0, 1), (0, 2), (1, 2))]
        det = (A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
               - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
               + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0]))
        if A.trace() % p == 0 and sum(minors) % p**2 == 0 and det % p**3 == 0:
            return True
    return False


class TestDedekind:
    def test_pure_cubics(self):
        # x^3 - m with m = a b^2 cube-free (a, b squarefree, coprime): Z[m^(1/3)]
        # is p-maximal iff p does not divide b and, at p = 3, m^2 != 1 mod 9
        cases = 0
        for m in range(2, 400):
            fac = fs.factorize(m)
            if any(e > 2 for e in fac.values()):
                continue
            b = math.prod(p for p, e in fac.items() if e == 2)
            disc = fs.discriminant_monic_cubic(-m, 0, 0)
            for p, k in fs.factorize(abs(disc)).items():
                if k >= 2:
                    want = b % p != 0 and (p != 3 or m * m % 9 != 1)
                    assert fs.dedekind_p_maximal(-m, 0, 0, p) == want, (m, p)
                    cases += 1
        assert cases > 800

    def test_against_integrality_oracle(self):
        # unlike pure cubics, these include primes where f mod p has a simple
        # root beside the double one, so the f'(r) = 0 condition matters
        cases = 0
        for c0, c1, c2 in itertools.product(range(-5, 6), repeat=3):
            if c0 == 0 or fs._integer_roots(c0, c1, c2):
                continue
            disc = fs.discriminant_monic_cubic(c0, c1, c2)
            for p, k in fs.factorize(abs(disc)).items():
                if k >= 2 and p <= 7:
                    assert fs.dedekind_p_maximal(c0, c1, c2, p) == (not _p_divides_index(c0, c1, c2, p)), (c0, c1, c2, p)
                    cases += 1
        assert cases > 500

    def test_against_root_scan(self):
        # the closed-form repeated root against a scan of all residues:
        # p divides the index iff some root r has f'(r) = 0 mod p and p^2 | f(r)
        cases = 0
        for c0, c1, c2 in itertools.product(range(-10, 11), repeat=3):
            disc = fs.discriminant_monic_cubic(c0, c1, c2)
            if disc == 0:
                continue
            f = lambda r: ((r + c2) * r + c1) * r + c0
            for p, k in fs.factorize(abs(disc)).items():
                if k < 2:
                    continue
                want = not any((3 * r * r + 2 * c2 * r + c1) % p == 0 and f(r) % (p * p) == 0
                               for r in fs.roots_mod_p(c0, c1, c2, p))
                assert fs.dedekind_p_maximal(c0, c1, c2, p) == want, (c0, c1, c2, p)
                cases += 1
        assert cases > 7000

    @pytest.mark.parametrize("c0", [2**63 - 1, 99999999999999999999])
    def test_root_scan_reduces_c0(self, c0):
        # c0 is reduced mod p like c1 and c2, so 2^63 - 1 keeps its root 2 mod 3
        # and |c0| >= 2^63 does not overflow the int64 scan
        for c1, c2 in ((0, 0), (-4, 7)):
            for p in (2, 3, 5, 7, 101):
                want = [r for r in range(p) if (r**3 + c2 * r * r + c1 * r + c0) % p == 0]
                assert fs.roots_mod_p(c0, c1, c2, p) == want, (c0, c1, c2, p)

    def test_large_prime(self):
        # 500015 = 5 * 100003: x^3 - 500015 is 100003-maximal; x^3 - 2 * 100003^2 is not
        f = fs.parse_field_spec("poly = -500015, 0, 0")
        assert f.poly_disc == -27 * 500015**2
        with pytest.raises(fs.FieldConfigError, match="override for p=100003"):
            fs.parse_field_spec("poly = -20001200018, 0, 0")
        f = fs.parse_field_spec(f"poly = -20001200018, 0, 0\ndisc = {-108 * 100003**2}\noverride.100003 = 1:3")
        assert fs.splitting_type(f, 100003) == fs.T_RAM_13

    def test_large_coefficients_finish(self):
        # c0 = 10000000019 is a prime = 2 mod 9, so x^3 - c0 is a valid pure cubic;
        # the reducible cubic has the root 10^18 + 3
        start = time.perf_counter()
        f = fs.parse_field_spec("poly = -10000000019, 0, 0")
        assert f.disc == -27 * 10000000019**2
        assert time.perf_counter() - start < 2
        start = time.perf_counter()
        with pytest.raises(fs.FieldConfigError, match="reducible \\(root 1000000000000000003\\)"):
            fs.parse_field_spec("poly = -1000000000000000003, -1000000000000000002, -1000000000000000002")
        assert time.perf_counter() - start < 2


def _trial_division(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_matches_trial_division(self):
        for n in range(1, 10**5 + 1):
            assert list(fs.factorize(n).items()) == list(_trial_division(n).items()), n

    def test_zero_refused(self):
        with pytest.raises(fs.FieldConfigError, match="n >= 1"):
            fs.factorize(0)

    def test_products_of_primes_near_1e9(self):
        # beyond the trial-division bound the cofactor goes to Pollard's rho
        ps = [p for p in range(10**9 - 100, 10**9 + 100) if fs._is_prime(p)]
        assert len(ps) >= 6
        for p in ps[:3]:
            for q in ps[-3:]:
                assert list(fs.factorize(p * q).items()) == [(p, 1), (q, 1)]
            assert fs.factorize(12 * p * p) == {2: 2, 3: 1, p: 2}

    def test_rho_budget_refuses(self, monkeypatch):
        # the cofactor p q has no factor up to the trial bound, so rho runs
        # and gives up after the step budget instead of looping on
        p, q = 10**9 + 7, 10**9 + 9
        monkeypatch.setattr(fs, "_RHO_STEPS", 100)
        with pytest.raises(fs.FieldConfigError, match=f"^cannot factor {p * q}: no factor found in 100 Pollard-rho steps$"):
            fs.factorize(6 * p * q)
        monkeypatch.undo()
        assert fs.factorize(6 * p * q) == {2: 1, 3: 1, p: 1, q: 1}


class TestPrimesUpto:
    def test_matches_is_prime_at_edges(self):
        # the sieve holds the odd numbers alone and prepends 2: n below,
        # at and just past 2, 3, 4 and 9 = 3^2, even and odd n, a prime n
        for n in (0, 1, 2, 3, 4, 5, 9, 10, 11, 100, 1000, 99991):
            ps = fs.primes_upto(n)
            assert ps.dtype == np.int64
            assert ps.tolist() == [m for m in range(n + 1) if fs._is_prime(m)], n
        ps = fs.primes_upto(10**7)
        assert len(ps) == 664579 and ps[-1] == 9999991  # pi(10^7) and the largest prime below 10^7


class TestIsPrime:
    def test_matches_sieve(self):
        assert [n for n in range(10**6 + 1) if fs._is_prime(n)] == fs.primes_upto(10**6).tolist()

    def test_strong_pseudoprimes_refused(self):
        # 3215031751 is the least strong pseudoprime to bases 2, 3, 5 and 7,
        # and 3474749660383 one to every prime base up to 13: from the first
        # on, all twelve bases run
        assert fs._MR_FOUR_BASES_BOUND == 3215031751 == 151 * 751 * 28351
        assert 3474749660383 == 1303 * 16927 * 157543
        for n in (3215031751, 3474749660383):
            assert not fs._is_prime(n), n

    def test_either_side_of_the_four_base_bound(self):
        def trial(n):
            return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))

        for n in range(fs._MR_FOUR_BASES_BOUND - 200, fs._MR_FOUR_BASES_BOUND + 200):
            if n % 2 and n % 3 and n % 5:
                assert fs._is_prime(n) == trial(n), n


class TestSplitting:
    def test_nn2_examples(self, field_nn2):
        assert fs.splitting_type(field_nn2, 2) == fs.T_RAM_13
        assert fs.splitting_type(field_nn2, 5) == fs.T_PARTIAL
        assert fs.splitting_type(field_nn2, 7) == fs.T_INERT
        assert type(fs.splitting_type(field_nn2, 7)) is int  # a shape is its code

    def test_c7_split_at_13(self, field_c7):
        code = fs.splitting_type(field_c7, 13)
        assert code == fs.T_SPLIT
        assert _degree(code) == 3

    def test_not_prime_rejected(self, field_nn2):
        with pytest.raises(fs.FieldConfigError, match="not prime"):
            fs.splitting_type(field_nn2, 10)

    def test_components_sum_to_degree(self, field_nn2, field_c7, field_hook):
        for f in (field_nn2, field_c7):
            for p in (2, 3, 5, 7, 11, 13, 101):
                assert _degree(fs.splitting_type(f, p)) == 3
        assert _degree(fs.splitting_type(field_hook, 11)) == 1

    def test_degree_one_components_match_roots(self, field_nn2, field_c7):
        # exhaustive check p <= 1e4, p not dividing the discriminant
        for f in (field_nn2, field_c7):
            c0, c1, c2 = f.poly
            for p in fs.primes_upto(10**4).tolist():
                if f.poly_disc % p == 0:
                    continue
                code = fs.splitting_type(f, p)
                assert _f_shape(code).count(1) == len(fs.roots_mod_p(c0, c1, c2, p)), (f.name, p)

    def test_bulk_matches_scalar(self, field_nn2, field_c7, field_hook):
        # the bulk path settles unramified p > 3 by Stickelberger's sign and
        # Cardano's cube test and asks splitting_type about p <= 3 and p | D;
        # the scalar path counts roots at every prime.  Besides the presets:
        # a negative D with 2 and 5 ramified, a square D (every odd unramified
        # prime has (D/p) = +1), a positive D with 2 inert and 3 unramified,
        # and an odd D = 5 mod 8 with 2 = P1 P2 (Euler's criterion means
        # nothing at p = 2).
        cubics = [fs.parse_field_spec(f"name = {name}\npoly = {poly}")
                  for name, poly in (("neg-disc", "2, 2, 0"), ("square-disc", "1, -3, 0"),
                                     ("disc-473", "1, -5, 0"), ("disc-83", "2, 1, 1"))]
        assert [f.poly_disc for f in cubics] == [-140, 81, 473, -83]
        assert fs.splitting_type(cubics[-1], 2) == fs.T_PARTIAL
        for f in (field_nn2, field_c7, field_hook, *cubics):
            ps, codes = fs.splitting_codes(f, 2 * 10**4)
            for p, c in zip(ps.tolist(), codes.tolist()):
                assert fs.splitting_type(f, int(p)) == c, (f.name, p)
                if f.poly is not None and p < 2000:
                    assert not f.index_divisor_overrides
                    roots = fs.roots_mod_p(*f.poly, p)
                    assert _f_shape(c).count(1) == len(roots), (f.name, p)

    def test_bulk_matches_scalar_across_ladder_blocks(self, field_nn2, field_c7, monkeypatch):
        # blocks of 5 primes put block boundaries all through the Euler and
        # cube-test steps; on x^3 + 50x + 1, |D| = 500027 makes every prime
        # p <= N a residue class of its own, so the Euler call runs on every
        # prime; on x^3 - 2x^2 - 29x - 9 the cube-tested primes 7 and 13
        # divide P3 = -91, so their blocks mix the F_p and F_p[R] ladders
        monkeypatch.setattr(fs, "_LADDER_BLOCK", 5, raising=True)
        big = fs.parse_field_spec("name = big-disc\npoly = 1, 50, 0")
        mixed = fs.parse_field_spec("name = mixed-P3\npoly = -9, -29, -2")
        assert (big.poly_disc, mixed.poly_disc) == (-500027, 89049)
        for f in (field_nn2, field_c7, big, mixed):
            ps, codes = fs.splitting_codes(f, 2 * 10**4)
            assert codes.tolist() == [fs.splitting_type(f, p) for p in ps.tolist()], f.name

    @settings(max_examples=60, deadline=None)
    @given(coeffs=RANDOM_COEFFS)
    def test_random_cubics_bulk_matches_scalar(self, coeffs):
        c0, c1, c2 = coeffs
        f = _random_field(coeffs)
        ps, codes = fs.splitting_codes(f, 3000)
        for p, c in zip(ps.tolist(), codes.tolist()):
            code = fs.splitting_type(f, p)
            assert code == c, (coeffs, p)
            assert _f_shape(code).count(1) == len(fs.roots_mod_p(c0, c1, c2, p)), (coeffs, p)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=RANDOM_COEFFS)
    def test_random_cubics_legendre_per_prime(self, coeffs):
        # the bulk path takes (D/p) once per residue class of p mod 4|D|; an odd
        # unramified prime must get P1 P2 exactly when Euler's criterion at p
        # itself says (D/p) = -1
        f = _random_field(coeffs)
        ps, codes = fs.splitting_codes(f, 10**5)
        D = f.poly_disc
        odd = [i for i, p in enumerate(ps.tolist()) if p != 2 and D % p]
        minus = [pow(D, (p - 1) // 2, p) == p - 1 for p in ps[odd].tolist()]
        assert (codes[odd] == fs.T_PARTIAL).tolist() == minus, coeffs

    @settings(max_examples=40, deadline=None)
    @given(coeffs=RANDOM_COEFFS)
    def test_random_cubics_sieve_matches_enumeration(self, coeffs):
        # the sieve reads the bulk splitting codes and the enumeration the
        # scalar splitting types: each norm's ideal count must be a_K
        tables = arith.build_tables(_random_field(coeffs), 2000)
        assert checks.histogram_failure(tables, 2000) is None

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.tuples(*[st.one_of(st.integers(-20, 20), st.integers(-(2**40), 2**40),
                                        st.integers(2**40 - 1000, 2**40),
                                        st.integers(-(2**40), 1000 - 2**40))] * 3))
    def test_cardano_invariants(self, coeffs):
        # x = y - c2/3 gives y^3 + P y + Q with 3P = P3 and 27Q = Q27, and
        # D' = Q27^2 + 4 P3^3 is -27 times the discriminant
        c0, c1, c2 = coeffs
        P3, Q27, Dp = fs._cardano_invariants(c0, c1, c2)
        for y in map(Fraction, range(4)):  # a cubic identity holds if it holds at 4 points
            x = y - Fraction(c2, 3)
            assert 27 * (((x + c2) * x + c1) * x + c0) == 27 * y**3 + 9 * P3 * y + Q27
        assert Dp == -27 * fs.discriminant_monic_cubic(c0, c1, c2)

    @staticmethod
    def _cube_test_agrees(poly, ps):
        # on the primes it is asked about (p > 3, p not dividing D, (D/p) = +1)
        # Cardano's cube test says split exactly when f has three roots mod p
        D = fs.discriminant_monic_cubic(*poly)
        dom = [p for p in ps if p > 3 and D % p and pow(D, (p - 1) // 2, p) == 1]
        assert dom
        splits = fs._cardano_splits(*poly, np.array(dom, dtype=np.int64))
        assert splits.tolist() == [fs._count_roots_py(*poly, p) == 3 for p in dom], poly
        return splits

    # the presets, the four cubics of test_bulk_matches_scalar, (x + 1)^3 - 2,
    # where P3 = 0 but c2 != 0, and x^3 - 2x^2 - 29x - 9, where P3 = -91, so
    # that the cube-tested p = 7 (inert) and p = 13 (split) divide P3
    CUBE_TEST_POLYS = [(-2, 0, 0), (-1, -2, 1), (2, 2, 0), (1, -3, 0), (1, -5, 0), (2, 1, 1), (-1, 3, 3),
                       (-9, -29, -2)]

    def test_cube_test_matches_root_count(self):
        assert fs._cardano_invariants(-1, 3, 3)[0] == 0
        assert fs._cardano_invariants(-9, -29, -2)[0] == -91
        assert fs._cardano_splits(-9, -29, -2, np.array([7, 13], dtype=np.int64)).tolist() == [False, True]
        ps = fs.primes_upto(3 * 10**4).tolist()
        for poly in self.CUBE_TEST_POLYS:
            splits = self._cube_test_agrees(poly, ps)
            assert splits.any() and not splits.all(), poly

    def test_vector_paths_at_top_of_domain(self):
        # the power ladder's sums of residue products are exact only for
        # p < 2^30; check the cube test and Euler's criterion on the largest
        # primes below that bound
        ps = np.array(TOP_LADDER_PRIMES, dtype=np.int64)
        for poly in self.CUBE_TEST_POLYS:
            self._cube_test_agrees(poly, TOP_LADDER_PRIMES)
            D = fs.discriminant_monic_cubic(*poly)
            euler = fs._power_mod(fs._residues(D, ps), ps >> 1, ps)
            assert euler.tolist() == [pow(D, (p - 1) // 2, p) for p in TOP_LADDER_PRIMES], D
        with pytest.raises(fs.FieldConfigError, match="2\\^30"):
            fs._cardano_splits(-2, 0, 0, np.array([5, FIRST_PRIME_ABOVE_LADDER], dtype=np.int64))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_power_vector_matches_square_and_multiply(self, data):
        # (z0 + z1 R)^e in F_p[R]/(R^2 - d) against plain Python ints, on
        # small primes and on primes at the top of the ladder's domain
        pool = data.draw(st.sampled_from([SMALL_PRIMES, TOP_LADDER_PRIMES]))
        ps = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        z0, z1, d = ([data.draw(st.integers(0, p - 1)) for p in ps] for _ in range(3))
        e = data.draw(st.lists(st.integers(0, 2**31 - 1), min_size=len(ps), max_size=len(ps)))

        def power(z0, z1, d, e, p):
            w0, w1 = 1, 0
            for bit in bin(e)[2:]:
                w0, w1 = (w0 * w0 + d * w1 * w1) % p, 2 * w0 * w1 % p
                if bit == "1":
                    w0, w1 = (w0 * z0 + d * w1 * z1) % p, (w0 * z1 + w1 * z0) % p
            return w0, w1

        arr = [np.array(v, dtype=np.int64) for v in (z0, z1, d, e, ps)]
        w0, w1 = fs._power_vector(*arr)
        assert list(zip(w0.tolist(), w1.tolist())) == [power(*args) for args in zip(z0, z1, d, e, ps)]

    def test_power_vector_refuses_primes_from_2_30(self):
        for p in (FIRST_PRIME_ABOVE_LADDER, 2**31 - 1):
            ps = np.array([5, p], dtype=np.int64)
            with pytest.raises(fs.FieldConfigError, match="2\\^30"):
                fs._power_vector(np.array([2, 2]), 0, 0, ps >> 1, ps)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_power_mod_matches_pow(self, data):
        # z^e mod p against Python's pow, on small primes and on primes at the
        # top of the ladder's domain, with z an array or one scalar residue
        pool = data.draw(st.sampled_from([SMALL_PRIMES, TOP_LADDER_PRIMES]))
        ps = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        e = data.draw(st.lists(st.integers(0, 2**31 - 1), min_size=len(ps), max_size=len(ps)))
        if data.draw(st.booleans()):
            z = [data.draw(st.integers(0, p - 1)) for p in ps]
            arg = np.array(z, dtype=np.int64)
        else:
            arg = data.draw(st.integers(0, min(ps) - 1))
            z = [arg] * len(ps)
        w = fs._power_mod(arg, np.array(e, dtype=np.int64), np.array(ps, dtype=np.int64))
        assert w.tolist() == [pow(*args) for args in zip(z, e, ps)]

    def test_power_mod_refuses_primes_from_2_30(self):
        for p in (FIRST_PRIME_ABOVE_LADDER, 2**31 - 1):
            ps = np.array([5, p], dtype=np.int64)
            with pytest.raises(fs.FieldConfigError, match="2\\^30"):
                fs._power_mod(2, ps >> 1, ps)

    @pytest.mark.parametrize("name", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_legendre_once_per_residue_class(self, name, monkeypatch):
        # Euler's criterion runs in F_p by _power_mod, once per class of p mod
        # 4|D| in each block (at most N + 1 classes), for a square D too.  On
        # x^3 - 2, P3 = 0 puts every Cardano value in F_p, so the F_p[R]
        # ladder is never called; on the normal cyclic-7 the cube test runs
        # once per class of p mod 7, on at most phi(7) = 6 primes per block
        field = fs.get_preset(name)
        D = field.poly_disc
        euler, cube, vector, in_cube_test = [], [], [], []
        real_mod, real_vector, real_cardano = fs._power_mod, fs._power_vector, fs._cardano_splits

        def power_mod(z, e, ps):
            if not in_cube_test:
                euler.append(len(ps))
            return real_mod(z, e, ps)

        def cardano_splits(c0, c1, c2, ps):
            cube.append(len(ps))
            in_cube_test.append(True)
            try:
                return real_cardano(c0, c1, c2, ps)
            finally:
                in_cube_test.pop()

        def power_vector(z0, z1, d, e, ps):
            vector.append(len(ps))
            return real_vector(z0, z1, d, e, ps)

        monkeypatch.setattr(fs, "_power_mod", power_mod)
        monkeypatch.setattr(fs, "_cardano_splits", cardano_splits)
        monkeypatch.setattr(fs, "_power_vector", power_vector)
        monkeypatch.setattr(fs, "_LADDER_BLOCK", 1000)
        for N in (100, 10**5):
            for calls in (euler, cube, vector):
                calls.clear()
            ps, codes = fs.splitting_codes(field, N)
            blocks = -(-len(ps) // 1000)
            assert len(euler) == len(cube) == blocks, (N, euler, cube)
            assert max(euler) <= min(4 * abs(D), N + 1), (N, euler)
            cube_tested = (ps > 3) & (D % ps != 0) & ((codes == fs.T_SPLIT) | (codes == fs.T_INERT))
            if field.normal:
                assert max(cube) <= 6, (N, cube)
            else:
                assert sum(cube) == np.count_nonzero(cube_tested), N
                assert vector == [], N

    @pytest.mark.parametrize("name", ["cubic-nonnormal-2", "cubic-cyclic-7"])
    def test_vector_path_covers_other_primes(self, name, monkeypatch):
        # splitting_codes asks splitting_type about p <= 3 (Cardano divides by
        # 3; on cyclic-7, 3 is unramified) and otherwise only about p | D and
        # override primes; every other prime stays on the vector path
        field = fs.get_preset(name)
        asked = []
        real = fs.splitting_type

        def recording(f, p):
            asked.append(p)
            return real(f, p)

        monkeypatch.setattr(fs, "splitting_type", recording)
        fs.splitting_codes(field, 10**5)
        assert {2, 3} <= set(asked)
        assert all(p <= 3 or field.poly_disc % p == 0 or p in field.index_divisor_overrides for p in asked)

    def test_codes_beyond_int64_discriminant(self):
        # |poly disc| = 27 * 20001200018^2 is about 2^73: D and the residue
        # classes must be reduced mod p without an int64 conversion
        f = fs.parse_field_spec(f"poly = -20001200018, 0, 0\ndisc = {-108 * 100003**2}\noverride.100003 = 1:3")
        assert abs(f.poly_disc) >= 2**63
        ps, codes = fs.splitting_codes(f, 10**4)
        assert codes.tolist() == [fs.splitting_type(f, p) for p in ps.tolist()]

    def test_residues_exact_for_any_int(self):
        ps = fs.primes_upto(10**4)
        for x in (0, 1, -1, 2**30 - 1, 2**30, -(2**60) - 7, 2**63, -27 * 20001200018**2, 3**100):
            assert fs._residues(x, ps).tolist() == [x % p for p in ps.tolist()], x

    def test_shanks_simplest_cubics(self):
        # x^3 - a x^2 - (a + 3) x - 1 is cyclic with poly disc (a^2 + 3a + 9)^2
        # (Shanks, Math. Comp. 28, 1974): bulk codes match splitting_type, and
        # the code of an unramified p > 3 depends only on p mod a^2 + 3a + 9
        refused = []
        for a in range(-1, 40):
            try:
                f = fs.parse_field_spec(f"poly = -1, {-(a + 3)}, {-a}")
            except fs.FieldConfigError:
                refused.append(a)
                continue
            m = a * a + 3 * a + 9
            assert f.poly_disc == m * m
            ps, codes = fs.splitting_codes(f, 3000)
            for p, c in zip(ps.tolist(), codes.tolist()):
                assert fs.splitting_type(f, p) == c, (a, p)
            code_of_class = {}
            ps, codes = fs.splitting_codes(f, 10**5)
            for p, c in zip(ps.tolist(), codes.tolist()):
                if p > 3 and m % p:
                    assert code_of_class.setdefault(p % m, c) == c, (a, p)
        assert refused == [3, 5, 12, 21, 30, 39]

    def test_large_prime_smoke(self, field_nn2):
        code = fs.splitting_type(field_nn2, 2**31 + 11)  # prime above the vector range
        assert _degree(code) == 3

    def test_normal_preset_prime_counts(self, field_c7, tables_c7_small):
        # in a normal cubic field an unramified prime is split or inert,
        # so a_K(p) is 3 exactly when the cubic has 3 roots mod p, else 0
        c0, c1, c2 = field_c7.poly
        for p in fs.primes_upto(500).tolist():
            if field_c7.poly_disc % p == 0:
                continue
            nroots = len(fs.roots_mod_p(c0, c1, c2, p))
            aKp = fs.local_ideal_counts(_f_shape(fs.splitting_type(field_c7, p)), 1)[1]
            assert aKp in (0, 3)
            assert (aKp == 3) == (nroots == 3)


class TestLocalCounts:
    @staticmethod
    def brute_counts(f_shape, kmax):
        # enumerate exponent tuples directly
        out = [0] * (kmax + 1)
        ranges = [range(kmax // f + 1) for f in f_shape]
        for xs in itertools.product(*ranges):
            k = sum(f * x for f, x in zip(f_shape, xs))
            if k <= kmax:
                out[k] += 1
        return out

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2), (3,), (1, 1), (1,)])
    def test_against_enumeration(self, shape):
        assert fs.local_ideal_counts(shape, 9) == self.brute_counts(shape, 9)

    def test_spec_values(self):
        assert fs.local_ideal_counts((1, 1, 1), 1)[1] == 3
        assert fs.local_ideal_counts((1, 2), 2)[2] == 2
        assert fs.local_ideal_counts((1,), 2)[2] == 1

    def test_generating_function(self):
        # coefficients of prod (1 - t^f)^{-1} via series multiplication
        shape = (1, 2)
        kmax = 12
        series = [1] + [0] * kmax
        for f in shape:
            geo = [1 if k % f == 0 else 0 for k in range(kmax + 1)]
            series = [
                sum(series[i] * geo[k - i] for i in range(k + 1)) for k in range(kmax + 1)
            ]
        assert fs.local_ideal_counts(shape, kmax) == series
