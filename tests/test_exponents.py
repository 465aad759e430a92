from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicsums import exponents as ex


def M(text):
    return ex.parse_monomial(text)


def E(text):
    return ex.parse_bound_expr(text)


class TestParsing:
    def test_monomial_forms(self):
        m = M("X^{11/3} T^{4/3} y^{-1/3}")
        assert m.exponent("X") == Fraction(11, 3)
        assert m.exponent("T") == Fraction(4, 3)
        assert m.exponent("y") == Fraction(-1, 3)
        assert M("X^2") == M("X^{2}") == M("X X")
        assert M("1") == ex.ONE

    def test_expr_roundtrip(self):
        e = E("X^{11/3} T^{4/3} y^{1/3} + X^{10/3} T^{5/3} y^{-1/3}")
        assert len(e) == 2
        assert ex.parse_bound_expr(e.format()) == e

    def test_bad_input(self):
        with pytest.raises(ex.ExponentError):
            M("3X")
        with pytest.raises(ex.ExponentError):
            E("")

    def test_constructors_refuse_bad_parts(self):
        with pytest.raises(ex.ExponentError, match="repeated variable"):
            ex.Monomial([("X", 1), ("X", 2)])
        with pytest.raises(ex.ExponentError, match="must be Monomials"):
            ex.BoundExpr(["X"])

    def test_zero_denominator_refused(self):
        # Fraction("1/0") raises ZeroDivisionError, which names no module
        for text in ("X^{1/0}", "X^1/0 y", "y X^{-3/0}"):
            with pytest.raises(ex.ExponentError, match="zero denominator"):
                M(text)

    def test_format_order(self):
        m = M("T^{14/9} X^{31/9}")
        assert m.format(("X", "T")) == "X^{31/9} T^{14/9}"


class TestMonomialAlgebra:
    def test_mul_div_pow_exact(self):
        a = M("X^{1/3} Y^{2}")
        b = M("X^{2/3} Y^{-2} Z")
        assert a.mul(b) == M("X Z")
        assert a.div(a) == ex.ONE
        assert a.pow(Fraction(3, 2)) == M("X^{1/2} Y^3")

    def test_evaluate(self):
        assert M("X^2 Y^{-1}").evaluate({"X": 3.0, "Y": 2.0}) == pytest.approx(4.5)
        with pytest.raises(ex.ExponentError):
            M("X").evaluate({"Y": 1.0})


class TestCone:
    def test_from_text(self):
        cone = ex.ConstraintCone.from_text("Y >= X >= 1")
        assert cone.chains == (("X", "Y"),)
        cone2 = ex.ConstraintCone.from_text("Y >= X >= 1; Z >= 1")
        assert cone2.chains == (("X", "Y"), ("Z",))

    def test_bad_chains(self):
        for chains, match in (([()], "empty chain"), ([("X",), ("X", "Y")], "two chains")):
            with pytest.raises(ex.ExponentError, match=match):
                ex.ConstraintCone(chains)
        with pytest.raises(ex.ExponentError, match="bad cone chunk"):
            ex.ConstraintCone.from_text("X >= 2")

    def test_generator_exponents(self):
        cone = ex.ConstraintCone.from_text("T >= X >= 1")
        # ratio X^a T^b -> suffix sums (a+b, b)
        gens = cone.generator_exponents(M("X^{-1/18} T^{1/18}"))
        assert gens == (Fraction(0), Fraction(1, 18))

    def test_unknown_variable(self):
        cone = ex.ConstraintCone.from_text("X >= 1")
        with pytest.raises(ex.ExponentError, match="not constrained"):
            ex.dominates(M("X"), M("Q"), cone)

    def test_point_membership(self):
        cone = ex.ConstraintCone.from_text("Y >= X >= 1")
        assert cone.contains_point({"X": 2, "Y": 3})
        assert not cone.contains_point({"X": 3, "Y": 2})
        assert not cone.contains_point({"X": 0.5, "Y": 2})


class TestDominates:
    def test_spec_cases(self):
        cone = ex.ConstraintCone.from_text("T >= X >= 1")
        assert ex.dominates(M("X^{7/2} T^{3/2}"), M("X^{31/9} T^{14/9}"), cone)
        a = M("X^{7/2} T^{3/2}")
        assert ex.dominates(a, a, cone)
        coneY = ex.ConstraintCone.from_text("Y >= X >= 1")
        assert not ex.dominates(M("X^2"), M("Y"), coneY)
        assert ex.dominates(M("X^2"), M("X^{8/5} Y^{2/5}"), coneY)  # tight at Y = X


FRACS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def monomials(vars=("X", "Y", "Z")):
    return st.builds(
        lambda es: ex.Monomial(dict(zip(vars, es))),
        st.tuples(*[FRACS for _ in vars]),
    )


CONES = st.sampled_from(
    [
        ex.ConstraintCone.from_text("Z >= Y >= X >= 1"),
        ex.ConstraintCone.from_text("Y >= X >= 1; Z >= 1"),
        ex.ConstraintCone.from_text("X >= 1; Y >= 1; Z >= 1"),
    ]
)


class TestPartialOrder:
    @given(a=monomials(), cone=CONES)
    def test_reflexive(self, a, cone):
        assert ex.dominates(a, a, cone)

    @given(a=monomials(), b=monomials(), cone=CONES)
    def test_antisymmetric(self, a, b, cone):
        if ex.dominates(a, b, cone) and ex.dominates(b, a, cone):
            assert a == b

    @settings(max_examples=300)
    @given(a=monomials(), b=monomials(), c=monomials(), cone=CONES)
    def test_transitive(self, a, b, c, cone):
        if ex.dominates(a, b, cone) and ex.dominates(b, c, cone):
            assert ex.dominates(a, c, cone)


class TestSimplify:
    def test_duplicates_collapse(self):
        cone = ex.ConstraintCone.from_text("X >= 1")
        e = ex.BoundExpr([M("X^2"), M("X^2")])
        assert len(e) == 1
        assert ex.simplify(e, cone).terms == {M("X^2")}

    def test_singleton_unchanged(self):
        cone = ex.ConstraintCone.from_text("X >= 1")
        e = E("X^{3/7}")
        assert ex.simplify(e, cone) == e

    def test_final_remainder_simplification(self):
        e = E(
            "X^{13/10} Y^{1/2} + X^{11/8} Y^{1/2} + X^{5/4} Y^{1/2} + "
            "X^{5/3} Y^{1/3} + X^{8/5} Y^{2/5} + X^2 + X Y^{43/96}"
        )
        cone = ex.ConstraintCone.from_text("Y >= X >= 1")
        got = ex.simplify(e, cone)
        assert got.terms == {M("X^{11/8} Y^{1/2}"), M("X^{8/5} Y^{2/5}")}

    @given(
        terms=st.lists(monomials(), min_size=1, max_size=6),
        cone=CONES,
    )
    def test_idempotent_and_order_free(self, terms, cone):
        e = ex.BoundExpr(terms)
        s1 = ex.simplify(e, cone)
        assert ex.simplify(s1, cone) == s1
        e2 = ex.BoundExpr(list(reversed(terms)))
        assert ex.simplify(e2, cone) == s1


class TestBalance:
    def test_symmetric_example(self):
        out = ex.balance(E("X h + X^3 h^{-1}"), "h", ex.ONE, M("X"))
        assert out.terms == {M("X^2")}

    def test_passthrough_of_h_free_terms(self):
        out = ex.balance(E("X h + X^3 h^{-1} + Q^5"), "h", ex.ONE, M("X"))
        assert M("Q^5") in out

    def test_needs_h(self):
        with pytest.raises(ex.ExponentError, match="no term"):
            ex.balance(E("X + Y"), "h", ex.ONE, M("X"))

    def test_range_must_be_h_free(self):
        with pytest.raises(ex.ExponentError):
            ex.balance(E("X h"), "h", M("h"), M("X"))

    def test_components_split(self):
        cross, endpoints, passthrough = ex.balance_components(
            E("A h^2 + B h^{-1} + C"), "h", ex.ONE, M("W")
        )
        assert cross == [M("A^{1/3} B^{2/3}")]
        assert set(endpoints) == {M("A"), M("B W^{-1}")}
        assert passthrough == [M("C")]


class TestScenarios:
    def test_mean_square_xt_exact_pair(self):
        rep = ex.scenario_mean_square_xt()
        assert rep.simplified.terms == {M("X^{31/9} T^{14/9}"), M("X^{26/9} T^{29/18}")}
        assert rep.envelope_ratio <= 10

    def test_remainder_xy_exact_pair(self):
        rep = ex.scenario_remainder_xy()
        assert rep.simplified.terms == {M("X^{11/8} Y^{1/2}"), M("X^{8/5} Y^{2/5}")}
        assert rep.envelope_ratio <= 10

    def test_block_display_is_the_six(self):
        rep = ex.scenario_block_bound()
        six = E(
            "Y^{1/2} M^{13/10} + Y^{1/2} M^{11/8} + Y^{1/2} M^{5/4} + "
            "Y^{1/3} M^{5/3} + Y^{2/5} M^{8/5} + M^2"
        )
        assert rep.display_set.terms == six.terms
        assert rep.simplified.terms <= six.terms
        merged = ex.simplify(ex.BoundExpr(six.terms | rep.simplified.terms), rep.cone)
        assert merged.terms == rep.simplified.terms

    def test_x_squared_absorption_needs_tight_relation(self):
        # the X^2 -> X^{8/5} Y^{2/5} absorption is tight on the first
        # generator (exponent 0), i.e. it genuinely uses Y >= X
        rep = ex.scenario_remainder_xy()
        row = next(r for r in rep.absorptions if r[0] == "X^2")
        assert row[1] == "X^{8/5} Y^{2/5}"
        assert row[2][0] == "0"

    def test_reports_have_ratios(self):
        for fn in ex.SCENARIOS.values():
            rep = fn()
            assert rep.envelope_ratio is not None and rep.envelope_ratio > 0


class TestNumericEnvelope:
    def test_single_term_exact_one(self):
        L = E("X h^{1/2}")
        H = M("X^2")
        bal = ex.balance(L, "h", H, H)
        cone = ex.ConstraintCone.from_text("X >= 1")
        r = ex.numeric_envelope_check(L, bal, "h", H, H, cone, [{"X": 10.0}, {"X": 100.0}])
        assert r == 1.0

    def test_symmetric_grid(self):
        L = E("X h + X^3 h^{-1}")
        bal = ex.balance(L, "h", ex.ONE, M("X"))
        cone = ex.ConstraintCone.from_text("X >= 1")
        r = ex.numeric_envelope_check(L, bal, "h", ex.ONE, M("X"), cone, [{"X": 10.0}, {"X": 100.0}])
        assert 0 < r <= 3

    def test_empty_grid_rejected(self):
        L = E("X h")
        with pytest.raises(ex.ExponentError, match="empty"):
            ex.numeric_envelope_check(L, L, "h", ex.ONE, M("X"),
                                      ex.ConstraintCone.from_text("X >= 1"), [])

    def test_point_outside_cone_rejected(self):
        L = E("X h + X^3 h^{-1}")
        bal = ex.balance(L, "h", ex.ONE, M("X"))
        cone = ex.ConstraintCone.from_text("X >= 1")
        with pytest.raises(ex.ExponentError, match="outside"):
            ex.numeric_envelope_check(L, bal, "h", ex.ONE, M("X"), cone, [{"X": 0.5}])

    def test_reversed_range_rejected(self):
        L = E("X h + X^3 h^{-1}")
        bal = ex.balance(L, "h", ex.ONE, M("X"))
        cone = ex.ConstraintCone.from_text("X >= 1")
        with pytest.raises(ex.ExponentError, match="H1 > H2"):
            ex.numeric_envelope_check(L, bal, "h", M("X^2"), M("X"), cone, [{"X": 4.0}])

    def test_ratio_within_term_count_bound(self):
        # m = 1 increasing, n = 2 decreasing -> bound m*n + m + n = 5
        L = E("X^{11/3} T^{4/3} y^{1/3} + X^{10/3} T^{5/3} y^{-1/3} + X^{17/6} T^{5/3} y^{-1/6}")
        bal = ex.balance(L, "y", ex.ONE, M("T^{1/3} X^{-1/3}"))
        cone = ex.ConstraintCone.from_text("T >= X >= 1")
        r = ex.numeric_envelope_check(
            L, ex.simplify(bal, cone), "y", ex.ONE, M("T^{1/3} X^{-1/3}"), cone,
            [{"X": 3.0, "T": 1000.0}, {"X": 10.0, "T": 100000.0}],
        )
        assert r <= 5
