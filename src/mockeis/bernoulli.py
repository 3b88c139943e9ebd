"""Bernoulli numbers and Bernoulli polynomials, exact.

Conventions: B_1 = -1/2, B_j = 0 for odd j >= 3.  The polynomial values
come from B_j(x) = sum_n binom(j, n) B_{j-n} x^n, the x = 0 base case of
the addition formula B_j(x + y) = sum_n binom(j, n) B_{j-n}(x) y^n.

The package imports this module at start-up, so ``fractions`` (and with it
``decimal``) is imported inside the functions, on their first call: a
command that never asks for a Bernoulli number does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def bernoulli(j: int) -> Fraction:
    """The j-th Bernoulli number."""
    from fractions import Fraction

    if j < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if j == 0:
        return Fraction(1)
    if j == 1:
        return Fraction(-1, 2)
    if j % 2:
        return Fraction(0)
    # sum_{i=0}^{j} binom(j+1, i) B_i = 0
    acc = sum((comb(j + 1, i) * bernoulli(i) for i in range(j)), Fraction(0))
    return -acc / (j + 1)


def bernoulli_poly(j: int, x) -> Fraction:
    """Value of the j-th Bernoulli polynomial at the exact rational x."""
    from fractions import Fraction

    if j < 0:
        raise ValueError("Bernoulli index must be non-negative")
    x = Fraction(x)
    acc = Fraction(0)
    power = Fraction(1)
    for n in range(j + 1):
        acc += comb(j, n) * bernoulli(j - n) * power
        power *= x
    return acc
