"""Ramanujan sums over cubic number fields.

Exact ideal-level sums and their reduction identities, sieved Dedekind zeta
coefficients, truncated oscillating-sum approximations to the ideal-count
error term, mean-square experiments, and an exact-rational calculus for
balancing asymptotic bound expressions.
"""

__version__ = "0.1.0"
