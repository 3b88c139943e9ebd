"""The divisor sums that the mock Eisenstein family is built from: Eisenstein
series and the divisor-like lattice sums g_{a,b,ell} (bound in functions too)."""

from __future__ import annotations

from math import isqrt

from .bernoulli import bernoulli
from .qseries import QSeries, check_order, order_cache


def _eisenstein_args(weight: int, order: int):
    if weight < 1:
        raise ValueError("Eisenstein weight must be >= 1")
    check_order(order)
    return weight, order


@order_cache(_eisenstein_args)
def eisenstein(weight: int, order: int) -> QSeries:
    """G_weight = -B_weight/(2*weight) + sum_n sigma_{weight-1}(n) q^n.

    Odd weights give the zero series, so trace code can iterate uniformly.
    The divisor sums sigma_{weight-1}(n) come from one sieve: each d adds
    d^(weight-1) at every multiple of d.
    """
    if weight % 2:
        return QSeries.zero(order)
    sigmas = [0] * (order + 1)
    for d in range(1, order + 1):
        power = d ** (weight - 1)
        for n in range(d, order + 1, d):
            sigmas[n] += power
    return QSeries._of(sigmas) - bernoulli(weight) / (2 * weight)


def _divisor_like_sum_args(a: int, b: int, ell: int, order: int):
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if a < 1 or b < 1:
        raise ValueError("divisor-like sums need positive a and b")
    check_order(order)
    return (a, b, ell), order


@order_cache(_divisor_like_sum_args)
def divisor_like_sum(a: int, b: int, ell: int, order: int) -> QSeries:
    """The two-parameter divisor-like lattice sum g_{a,b,ell}.

    g_{a,b,0} = 1 and g_{a,b,ell} = 0 for odd ell.  For even ell:

        (1 - 2^{ell-1}) B_ell/(2 ell)
          + sum_{a n - 1 >= b m >= b} (a n - b m)^{ell-1} q^{m n}
          - sum_{m - 1 >= a b n >= a b} (m - a b n)^{ell-1} q^{m n},

    truncated by m n <= order, for positive integers a and b.
    """
    if ell == 0:
        return QSeries.one(order)
    if ell % 2:
        return QSeries.zero(order)
    coeffs = [0] * (order + 1)
    # First set: m >= 1 and n >= (b m + 1)/a, so b m^2 < a m n <= a order.
    for m in range(1, isqrt(a * order // b) + 1):
        for n in range((b * m + a) // a, order // m + 1):
            coeffs[m * n] += (a * n - b * m) ** (ell - 1)
    # Second set: n >= 1 and m >= a b n + 1, so a b n^2 < m n <= order.
    for n in range(1, isqrt(order // (a * b)) + 1):
        for m in range(a * b * n + 1, order // n + 1):
            coeffs[m * n] -= (m - a * b * n) ** (ell - 1)
    return QSeries._of(coeffs) + (1 - 2 ** (ell - 1)) * bernoulli(ell) / (2 * ell)
