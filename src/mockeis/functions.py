"""The named one-variable q-series: Eisenstein series, theta series,
divisor-like lattice sums, k-rank count series, and rank/crank moments.

Everything returns a :class:`~mockeis.qseries.QSeries` truncated at an
explicit order, with exact rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Callable, List

from . import partitions as pt
# Defined in divisor, so that `f` need not compile this module; bound here too.
from .divisor import divisor_like_sum, eisenstein
from .errors import FractionalExponentError, MissingMemberError, WindowTooLargeError
from .flags import RANK_METHODS
from .qseries import QSeries, check_order, partition_series
from .wjets import WJet, member_exp, rational_jet, two_sinh_half_over_w


def _theta_terms(a: int, b: int, order: int):
    """Yield (n, half_exponent) for all lattice points with exponent <= order.

    Exponents (b n^2 + a n)/2 occurring within the window must be
    non-negative integers; points beyond the truncation order are
    ignored, not validated.
    """
    if b < 1:
        raise ValueError("theta index b must be a positive integer")
    reach = (abs(a) + isqrt(a * a + 8 * b * max(order, 0))) // (2 * b) + 2
    for n in range(-reach, reach + 1):
        e = b * n * n + a * n
        if abs(e) > 2 * order:
            continue
        if e % 2:
            raise FractionalExponentError(
                f"theta_{{{a},{b}}} summand at n={n} has fractional exponent {e}/2"
            )
        if e < 0:
            raise FractionalExponentError(
                f"theta_{{{a},{b}}} summand at n={n} has negative exponent {e // 2}"
            )
        yield n, e // 2


def theta_series(a: int, b: int, order: int) -> QSeries:
    """theta_{a,b} = sum_{n in Z} (-1)^n q^{(b n^2 + a n)/2}, truncated."""
    return theta_deriv(a, b, 0, order)


def theta_deriv(a: int, b: int, m: int, order: int) -> QSeries:
    """m-th theta derivative: the n-summand picks up (b n^2 + a n)^m.

    Equals (2 qD)^m applied to theta_{a,b}.
    """
    if m < 0:
        raise ValueError("derivative order must be non-negative")
    check_order(order)
    coeffs = [0] * (order + 1)
    for n, h in _theta_terms(a, b, order):
        coeffs[h] += (-1) ** (n & 1) * (2 * h) ** m
    return QSeries._of(coeffs)


def _krank_numerator(k: int, weights: dict, order: int) -> QSeries:
    """sum_m weights[m] sum_{n>=1} (-1)^{n-1} q^{n((2k-1)n-1)/2 + m n} (1 - q^n)."""
    d = 2 * k - 1
    coeffs = [0] * (order + 1)
    for m, weight in weights.items():
        n = 1
        while (e := n * (d * n - 1) // 2 + m * n) <= order:
            sign = weight if n % 2 else -weight
            coeffs[e] += sign
            if e + n <= order:
                coeffs[e + n] -= sign
            n += 1
    return QSeries._of(coeffs)


def krank_count_series(k: int, m: int, order: int) -> QSeries:
    """Generating function of N_k(m, .): the coefficient of q^n is N_k(m, n).

    (1/(q)_inf) sum_{n>=1} (-1)^{n-1} q^{n((2k-1)n-1)/2 + |m| n} (1 - q^n).
    """
    if k < 2:
        raise ValueError("count series require k >= 2")
    return _krank_numerator(k, {abs(m): 1}, order) * partition_series(order)


def _rank_moment_direct(k: int, j: int, order: int) -> QSeries:
    if j == 0:
        return (QSeries.one(order) - theta_series(1, 2 * k - 1, order)) * partition_series(order)
    if j % 2:
        return QSeries.zero(order)
    weights = {m: 2 * m**j for m in range(1, order + 1)}
    return _krank_numerator(k, weights, order) * partition_series(order)


def _rank_moment_divisor_sum(k: int, j: int, order: int) -> QSeries:
    if j == 0:
        return _rank_moment_direct(k, 0, order)
    acc = QSeries.zero(order)
    for ell in range(2 + j % 2, j + 1, 2):
        g = divisor_like_sum(2, 2 * k - 1, ell, order)
        acc = acc + (g - g.coeff(0)) * comb(j, ell - 1)
    return acc * Fraction(4, 2**j) * partition_series(order)


def _combinatorial_moment(k: int, j: int, order: int) -> QSeries:
    """sum_m m^j N_k(m, n) at each q^n, from the cached statistic histograms."""
    if order > pt.PARTITION_CEILING:
        what = "crank moment" if k == 1 else "k-rank moment"
        raise WindowTooLargeError(
            f"{what} enumeration to order {order} exceeds the ceiling "
            f"{pt.PARTITION_CEILING}"
        )
    return QSeries._of(
        sum(count * m**j for m, count in pt.statistic_histogram(k, n))
        for n in range(order + 1)
    )


def rank_moment(k: int, j: int, order: int, method: str = "direct") -> QSeries:
    """The k-rank moment R_{k,j} = sum_{n,m} m^j N_k(m,n) q^n for k >= 3.

    methods: "direct" (theta-type double sum), "divisor-sum" (binomial
    combination of divisor-like sums), "combinatorial" (brute-force
    partition enumeration; bounded by the enumeration ceiling).
    """
    if k < 3:
        raise ValueError("rank moments require k >= 3")
    if j < 0:
        raise ValueError("moment order must be non-negative")
    check_order(order)
    if method == "direct":
        return _rank_moment_direct(k, j, order)
    if method == "divisor-sum":
        return _rank_moment_divisor_sum(k, j, order)
    if method == "combinatorial":
        return _combinatorial_moment(k, j, order)
    raise ValueError(f"unknown rank moment method {method!r}; choose one of {RANK_METHODS}")


def eisenstein_members(order: int) -> Callable[[int], QSeries]:
    """Member accessor for the Eisenstein family (odd weights are zero)."""

    def member(j: int) -> QSeries:
        if j < 1:
            raise MissingMemberError("Eisenstein members start at weight 1")
        return eisenstein(j, order)

    return member


def eisenstein_exponential(scale: int, max_deg: int, q_order: int) -> WJet:
    """exp(scale * sum_{k>=2} G_k w^k/k!) on [0, max_deg]."""
    return member_exp(eisenstein_members(q_order), scale, max_deg, q_order)


def crank_moments(max_j: int, order: int) -> List[QSeries]:
    """C_0, ..., C_max_j by the Eisenstein route, read off one jet.

    C(zeta, q) = sin(pi z)/(pi z (q)_inf) * exp(2 sum_k G_k w^k/k!), in
    w = 2*pi*i*z coordinates, has C_j/j! as its coefficient of w^j.
    """
    if max_j < 0:
        raise ValueError("moment order must be non-negative")
    check_order(order)
    top = max(2, max_j)
    expo = eisenstein_exponential(2, top, order)
    sinc = rational_jet(two_sinh_half_over_w(top), order)
    total = (sinc * expo).scale(partition_series(order))
    return [total.coeff(j) * factorial(j) for j in range(max_j + 1)]


def crank_moment(j: int, order: int, method: str = "combinatorial") -> QSeries:
    """The crank moment C_j = sum_{n,m} m^j N_1(m,n) q^n.

    methods: "combinatorial" (enumeration with the n = 1 convention) and
    "eisenstein" (coefficient extraction from the crank generating
    function rewritten through Eisenstein series).
    """
    if j < 0:
        raise ValueError("moment order must be non-negative")
    check_order(order)
    if method == "combinatorial":
        return _combinatorial_moment(1, j, order)
    if method == "eisenstein":
        return crank_moments(j, order)[-1]
    raise ValueError(f"unknown crank moment method {method!r}")


# -- the multisum oracle ------------------------------------------------
#
# FG_k(zeta, q) = sum_{n_{k-1} >= ... >= n_1 >= 1}
#     q^{n_1^2 + ... + n_{k-1}^2}
#     / ((q)_{n_{k-1}-n_{k-2}} ... (q)_{n_2-n_1} (zeta q)_{n_1} (zeta^{-1} q)_{n_1})
#
# has N_k(m, n) as its coefficient of zeta^m q^n.  Each factor of a summand's
# denominator is some 1 - zeta^s q^i: s = 0 for the gaps, s = +-1 for n_1.


def _ascending_tuples(count: int, minimum: int, budget: int):
    if count == 0:
        yield ()
        return
    v = minimum
    while count * v * v <= budget:
        for rest in _ascending_tuples(count - 1, v, budget - v * v):
            yield (v,) + rest
        v += 1


def multisum_count_table(k: int, max_abs_m: int, order: int) -> pt.CountTable:
    """Second independent oracle for N_k(m, n): integer rows, no series kernel."""
    if k < 3:
        raise ValueError("the multisum oracle requires k >= 3")
    if max_abs_m < 0 or order < 0:
        raise ValueError("window bounds must be non-negative")
    entries = {}
    for tup in _ascending_tuples(k - 1, 1, order):
        base = sum(v * v for v in tup)
        rem = order - base
        # rows[rem + m][e] is the coefficient of zeta^m q^e, and |m| <= e <= rem.
        rows = [[0] * (rem + 1) for _ in range(2 * rem + 1)]
        rows[rem][0] = 1
        gaps = [(0, i) for lo, hi in zip(tup, tup[1:]) for i in range(1, hi - lo + 1)]
        for s, i in gaps + [(s, i) for s in (1, -1) for i in range(1, tup[0] + 1)]:
            # Fold in 1/(1 - zeta^s q^i): row m gains q^i times row m - s.  Rows
            # run in the direction of s and e ascends, so each source is already
            # folded and the whole geometric series goes in.
            ordered = rows if s >= 0 else rows[::-1]
            for row, src in zip(ordered[abs(s):], ordered):
                for e in range(i, rem + 1):
                    row[e] += src[e - i]
        # No row has a negative entry, so no stored count cancels to 0.
        for m in range(-min(max_abs_m, rem), min(max_abs_m, rem) + 1):
            for n, c in enumerate(rows[rem + m], base):
                if c:
                    entries[m, n] = entries.get((m, n), 0) + c
    return pt.CountTable(k=k, max_abs_m=max_abs_m, max_n=order, entries=entries)
