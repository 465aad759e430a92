"""Exact-rational calculus for asymptotic bound expressions.

A bound expression is a finite sum of monomials X1^{e1} X2^{e2} ... with
exact rational exponents and implicit positive constants; it stands for an
upper bound "<< sum of terms" up to epsilon factors, which are dropped
throughout (every comparison is up-to-epsilon).

Three operations reproduce the bookkeeping used when optimizing such bounds:

balance      eliminate a free parameter H ranging over [H1, H2] from
             L(H) = sum A_i H^{a_i} + sum B_j H^{-b_j}  (a_i, b_j > 0):
             there is an H in range with
             L(H) << sum_{i,j} (A_i^{b_j} B_j^{a_i})^{1/(a_i+b_j)}
                     + sum_i A_i H1^{a_i} + sum_j B_j H2^{-b_j}.
             Terms free of H pass through unchanged.

dominates    a << b throughout a constraint cone.  A cone is a set of
             chains v1 <= v2 <= ... (all >= 1), encoded triangularly:
             v_k = s_1 s_2 ... s_k with independent parameters s_i >= 1, so
             a << b iff every suffix sum of exponent differences of b/a
             (taken in chain order) is >= 0.

simplify     drop every term dominated by another; idempotent, canonical.

Everything is Fraction-exact; floats appear only in the numeric envelope
check, which evaluates min_H L(H) / (balanced sum) on a grid and confirms
the balanced expression really is an upper envelope with a small constant.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Monomial",
    "BoundExpr",
    "ConstraintCone",
    "ExponentError",
    "parse_monomial",
    "parse_bound_expr",
    "balance",
    "dominates",
    "simplify",
    "numeric_envelope_check",
    "ScenarioReport",
    "scenario_block_bound",
    "scenario_remainder_xy",
    "scenario_mean_square_xt",
    "SCENARIOS",
]


class ExponentError(ValueError):
    pass


# ----------------------------------------------------------------------------
# monomials and expressions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """prod var^exponent with exact rational exponents (no stored constant)."""

    exps: tuple  # sorted tuple of (var, Fraction), zero exponents dropped

    def __init__(self, exps):
        if isinstance(exps, dict):
            items = exps.items()
        else:
            items = exps
        clean = tuple(sorted((v, Fraction(e)) for v, e in items if Fraction(e) != 0))
        names = [v for v, _ in clean]
        if len(set(names)) != len(names):
            raise ExponentError(f"repeated variable in monomial: {names}")
        object.__setattr__(self, "exps", clean)

    def exponent(self, var: str) -> Fraction:
        for v, e in self.exps:
            if v == var:
                return e
        return Fraction(0)

    @property
    def variables(self):
        return tuple(v for v, _ in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        acc = dict(self.exps)
        for v, e in other.exps:
            acc[v] = acc.get(v, Fraction(0)) + e
        return Monomial(acc)

    def div(self, other: "Monomial") -> "Monomial":
        return self.mul(other.pow(-1))

    def pow(self, k) -> "Monomial":
        k = Fraction(k)
        return Monomial({v: e * k for v, e in self.exps})

    def drop(self, var: str) -> "Monomial":
        return Monomial({v: e for v, e in self.exps if v != var})

    def evaluate(self, point: dict) -> float:
        out = 1.0
        for v, e in self.exps:
            if v not in point:
                raise ExponentError(f"no value for variable {v!r}")
            out *= float(point[v]) ** float(e)
        return out

    def format(self, var_order=None) -> str:
        if not self.exps:
            return "1"
        items = dict(self.exps)
        order = [v for v in (var_order or []) if v in items]
        order += [v for v in sorted(items) if v not in order]
        parts = []
        for v in order:
            e = items[v]
            if e == 1:
                parts.append(v)
            elif e.denominator == 1:
                parts.append(f"{v}^{e.numerator}")
            else:
                parts.append(f"{v}^{{{e.numerator}/{e.denominator}}}")
        return " ".join(parts)

    def __str__(self):
        return self.format()


ONE = Monomial({})


@dataclass(frozen=True)
class BoundExpr:
    """An up-to-constants sum of monomials (a set; duplicates collapse)."""

    terms: frozenset

    def __init__(self, terms):
        ts = frozenset(terms)
        if not all(isinstance(t, Monomial) for t in ts):
            raise ExponentError("BoundExpr terms must be Monomials")
        object.__setattr__(self, "terms", ts)

    def sorted_terms(self, var_order=None):
        return sorted(self.terms, key=lambda m: m.format(var_order))

    @property
    def variables(self):
        out = set()
        for t in self.terms:
            out.update(t.variables)
        return out

    def evaluate(self, point: dict) -> float:
        # fsum is correctly rounded, so the frozenset's hash-dependent order cannot change the result
        return math.fsum(t.evaluate(point) for t in self.terms)

    def format(self, var_order=None) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.format(var_order) for t in self.sorted_terms(var_order))

    def __str__(self):
        return self.format()

    def __len__(self):
        return len(self.terms)

    def __contains__(self, m):
        return m in self.terms


_FACTOR_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_]*)(?:\s*\^\s*(\{\s*-?\d+(?:\s*/\s*\d+)?\s*\}|-?\d+(?:/\d+)?))?"
)


def parse_monomial(text: str) -> Monomial:
    """Parse "X^{11/3} T^{4/3} y^{-1/3}" (braces optional, '*' allowed)."""
    text = text.strip()
    if text in ("1", ""):
        return Monomial({})
    pos = 0
    exps = {}
    cleaned = text.replace("*", " ")
    while pos < len(cleaned):
        if cleaned[pos].isspace():
            pos += 1
            continue
        m = _FACTOR_RE.match(cleaned, pos)
        if not m:
            raise ExponentError(f"cannot parse monomial at ...{cleaned[pos:]!r}")
        var, exp = m.group(1), m.group(2)
        try:
            frac = Fraction(1) if exp is None else Fraction(exp.strip("{} ").replace(" ", ""))
        except ZeroDivisionError:
            raise ExponentError(f"zero denominator in the exponent of {var}: {exp}") from None
        exps[var] = exps.get(var, Fraction(0)) + frac
        pos = m.end()
    return Monomial(exps)


def parse_bound_expr(text: str) -> BoundExpr:
    """Parse "X^{11/3} T^{4/3} y^{1/3} + X^{10/3} T^{5/3} y^{-1/3}"."""
    parts = [p for p in text.split("+") if p.strip()]
    if not parts:
        raise ExponentError("empty bound expression")
    return BoundExpr(parse_monomial(p) for p in parts)


# ----------------------------------------------------------------------------
# constraint cones
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintCone:
    """Chains of variables v1 <= v2 <= ... with every variable >= 1.

    Triangular generator encoding: along a chain, v_k = s_1 ... s_k with
    independent parameters s_i >= 1.  A variable in no chain is not allowed
    in monomials compared under this cone.
    """

    chains: tuple  # tuple of tuples of variable names, ascending

    def __init__(self, chains):
        ch = tuple(tuple(c) for c in chains)
        seen = set()
        for c in ch:
            if not c:
                raise ExponentError("empty chain")
            for v in c:
                if v in seen:
                    raise ExponentError(f"variable {v} appears in two chains")
                seen.add(v)
        object.__setattr__(self, "chains", ch)

    @classmethod
    def from_text(cls, text: str) -> "ConstraintCone":
        """Parse "Y >= X >= 1; T >= 1" into chains (the ">= 1" is implied)."""
        chains = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            names = [t.strip() for t in chunk.split(">=")]
            if names and names[-1] == "1":
                names.pop()
            if not names or any(not n.isidentifier() for n in names):
                raise ExponentError(f"bad cone chunk {chunk!r}")
            chains.append(tuple(reversed(names)))  # store ascending
        return cls(chains)

    @property
    def variables(self):
        return tuple(v for c in self.chains for v in c)

    def generator_exponents(self, m: Monomial):
        """Exponents of m in the independent s-parameters (suffix sums along
        each chain).  Raises on variables outside the cone."""
        known = set(self.variables)
        for v in m.variables:
            if v not in known:
                raise ExponentError(f"variable {v} not constrained by the cone")
        out = []
        for chain in self.chains:
            exps = [m.exponent(v) for v in chain]
            for i in range(len(chain)):
                out.append(sum(exps[i:], Fraction(0)))
        return tuple(out)

    def contains_point(self, point: dict) -> bool:
        for chain in self.chains:
            prev = 1.0
            for v in chain:
                val = float(point[v])
                if val < prev - 1e-12:
                    return False
                prev = val
        return True

    def format(self) -> str:
        return "; ".join(" >= ".join(list(reversed(c)) + ["1"]) for c in self.chains)

    def __str__(self):
        return self.format()


def _ambient_cone_for(*exprs) -> ConstraintCone:
    vs = set()
    for e in exprs:
        vs |= set(e.variables)
    return ConstraintCone(tuple((v,) for v in sorted(vs)))


def dominates(a: Monomial, b: Monomial, cone: ConstraintCone) -> bool:
    """True iff a << b throughout the cone, i.e. b/a has all generator
    exponents >= 0.  For the chain T >= X >= 1 and ratio X^al T^be this is
    exactly (be >= 0 and al + be >= 0)."""
    ratio = b.div(a)
    return all(e >= 0 for e in cone.generator_exponents(ratio))


def simplify(expr: BoundExpr, cone: ConstraintCone) -> BoundExpr:
    """Remove every term dominated by another; idempotent and order-free.

    Distinct monomials never dominate each other mutually (all generator
    exponents of the ratio being zero forces equality), so a plain filter
    suffices.
    """
    terms = expr.terms
    return BoundExpr(
        t for t in terms if not any(u != t and dominates(t, u, cone) for u in terms)
    )


# ----------------------------------------------------------------------------
# balancing
# ----------------------------------------------------------------------------

def balance_components(L: BoundExpr, h: str, H1: Monomial, H2: Monomial):
    """The three ingredient sets of the H-elimination bound, unpruned:
    (cross terms, endpoint terms, h-free passthrough terms)."""
    if H1.exponent(h) != 0 or H2.exponent(h) != 0:
        raise ExponentError(f"range monomials must not involve {h}")
    pos = []  # (A_i, a_i)
    neg = []  # (B_j, b_j)
    passthrough = []
    for t in L.terms:
        e = t.exponent(h)
        base = t.drop(h)
        if e > 0:
            pos.append((base, e))
        elif e < 0:
            neg.append((base, -e))
        else:
            passthrough.append(base)
    if not pos and not neg:
        raise ExponentError(f"no term of L involves {h}")
    cross = []
    for (A, a), (B, b) in itertools.product(pos, neg):
        cross.append(A.pow(b).mul(B.pow(a)).pow(Fraction(1, 1) / (a + b)))
    endpoints = [A.mul(H1.pow(a)) for A, a in pos]
    endpoints += [B.mul(H2.pow(-b)) for B, b in neg]
    return cross, endpoints, passthrough


def balance(L: BoundExpr, h: str, H1: Monomial, H2: Monomial) -> BoundExpr:
    """Eliminate the parameter h in [H1, H2] from L.

    Output: cross terms (A_i^{b_j} B_j^{a_i})^{1/(a_i+b_j)} for every
    (increasing, decreasing) pair, endpoint terms A_i H1^{a_i} and
    B_j H2^{-b_j}, and h-free terms passed through; finally pruned under the
    ambient cone (every variable >= 1 independently).
    """
    cross, endpoints, passthrough = balance_components(L, h, H1, H2)
    expr = BoundExpr(cross + endpoints + passthrough)
    return simplify(expr, _ambient_cone_for(expr))


def numeric_envelope_check(
    L: BoundExpr,
    balanced: BoundExpr,
    h: str,
    H1: Monomial,
    H2: Monomial,
    cone: ConstraintCone,
    grid,
) -> float:
    """max over grid points of  min_{H in [H1,H2]} L(H) / balanced,
    with the min taken over 64 log-spaced H values.

    The result must stay below m*n + m + n (m increasing, n decreasing
    terms), the constant with which the balanced expression envelopes L.
    """
    grid = list(grid)
    if not grid:
        raise ExponentError("empty evaluation grid")
    worst = 0.0
    for point in grid:
        if not cone.contains_point(point):
            raise ExponentError(f"grid point {point} outside cone {cone}")
        lo = H1.evaluate(point)
        hi = H2.evaluate(point)
        if lo > hi:
            raise ExponentError(f"H1 > H2 at {point}")
        hs = (
            [lo]
            if hi == lo
            else [lo * (hi / lo) ** (k / 63) for k in range(64)]
        )
        best = math.inf
        for hval in hs:
            p = dict(point)
            p[h] = hval
            best = min(best, L.evaluate(p))
        denom = balanced.evaluate(point)
        worst = max(worst, best / denom)
    return worst


# ----------------------------------------------------------------------------
# scenarios: three canned bound optimizations, reproduced mechanically
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioReport:
    simplified: BoundExpr
    cone: ConstraintCone
    var_order: tuple
    absorptions: tuple  # (term, dominating term, generator exponent vector)
    envelope_ratio: float
    display_set: BoundExpr | None = None  # crosses + h-free terms, endpoint
    # terms absorbed under the cone: the form a balanced bound is usually
    # displayed in before the final domination pass

    def format_result(self) -> str:
        return self.simplified.format(self.var_order) + "  (+eps exponents)"


def _absorption_rows(expr: BoundExpr, kept: BoundExpr, cone: ConstraintCone, var_order):
    rows = []
    for t in sorted(expr.terms - kept.terms, key=lambda m: m.format(var_order)):
        for u in kept.sorted_terms(var_order):
            if dominates(t, u, cone):
                gens = cone.generator_exponents(u.div(t))
                rows.append((t.format(var_order), u.format(var_order), tuple(str(g) for g in gens)))
                break
    return tuple(rows)


def _scenario(bound, cone, y_max, var_order, grid, envelope_of=None) -> ScenarioReport:
    """Balance the truncation parameter y over [1, y_max] when the bound
    contains it, simplify under the cone, and check numerically that the
    result envelopes min_y of `envelope_of` (default: the bound itself)."""
    L = parse_bound_expr(bound)
    cone = ConstraintCone.from_text(cone)
    H2 = parse_monomial(y_max)
    full = balance(L, "y", ONE, H2) if "y" in L.variables else L
    simp = simplify(full, cone)
    env = L if envelope_of is None else parse_bound_expr(envelope_of)
    return ScenarioReport(
        simplified=simp,
        cone=cone,
        var_order=var_order,
        absorptions=_absorption_rows(full, simp, cone, var_order),
        envelope_ratio=numeric_envelope_check(env, simp, "y", ONE, H2, cone, grid),
    )


_BLOCK_BOUND = (
    "Y^{7/18} y^{2/9} M^{23/18} + Y^{1/3} y^{1/3} M^{17/12} + "
    "Y^{5/12} y^{1/6} M^{29/24} + Y^{1/6} y^{1/6} M^{11/6} + "
    "Y^{1/3} y^{1/12} M^{5/3} + Y^{2/3} y^{-1/3} M^{4/3} + M^2"
)


def scenario_block_bound() -> ScenarioReport:
    """Balance the seven-term dyadic-block bound in (Y, M, y) over the
    truncation range y in (1, Y/M), then simplify under Y >= M >= 1.

    M stands for the block product M1*M2; the simplified set is equivalent
    (under the cone) to the six-monomial display it is usually quoted as.
    """
    rep = _scenario(_BLOCK_BOUND, "Y >= M >= 1", "Y M^-1", ("Y", "M", "y"),
                    [{"M": m, "Y": y} for m in (2, 8) for y in (10**3, 10**6)])
    # the display form keeps every cross term, provided the endpoint terms
    # are genuinely absorbed by it inside the cone
    cross, endpoints, passthrough = balance_components(
        parse_bound_expr(_BLOCK_BOUND), "y", ONE, parse_monomial("Y M^-1"))
    display = BoundExpr(cross + passthrough)
    for t in endpoints:
        if t not in display and not any(dominates(t, u, rep.cone) for u in display.terms):
            raise ExponentError(f"endpoint term {t} not absorbed by the display set")
    return dataclasses.replace(rep, display_set=display)


def scenario_remainder_xy() -> ScenarioReport:
    """Final simplification of the first-moment remainder bound in (X, Y):
    the six block-bound monomials with M -> X, plus the known-exponent
    comparison term X Y^{43/96}, under Y >= X >= 1.  The envelope check runs
    against the y-balanced block form with M renamed X."""
    return _scenario(
        "X^{13/10} Y^{1/2} + X^{11/8} Y^{1/2} + X^{5/4} Y^{1/2} + "
        "X^{5/3} Y^{1/3} + X^{8/5} Y^{2/5} + X^2 + X Y^{43/96}",
        "Y >= X >= 1", "Y X^-1", ("X", "Y"),
        [{"X": x, "Y": y} for x, y in ((4, 256), (4, 4096), (16, 4096), (16, 65536))],
        envelope_of=_BLOCK_BOUND.replace("M", "X"),
    )


def scenario_mean_square_xt() -> ScenarioReport:
    """Balance the mean-square error bound in (X, T) over the truncation
    range y in (1, (T/X)^{1/3}), then simplify under T >= X >= 1; the
    surviving pair is {X^{31/9} T^{14/9}, X^{26/9} T^{29/18}}."""
    return _scenario(
        "X^{11/3} T^{4/3} y^{1/3} + X^{10/3} T^{5/3} y^{-1/3} + "
        "X^{17/6} T^{5/3} y^{-1/6} + X^{7/2} T^{3/2}",
        "T >= X >= 1", "T^{1/3} X^{-1/3}", ("X", "T", "y"),
        [{"X": x, "T": t} for x in (3, 10) for t in (10**3, 10**5)],
    )


SCENARIOS = {
    "block": scenario_block_bound,
    "xy": scenario_remainder_xy,
    "xt": scenario_mean_square_xt,
}
