"""The named one-variable q-series: Eisenstein series, theta series,
divisor-like lattice sums, k-rank count series, and rank/crank moments.

Everything returns a :class:`~mockeis.qseries.QSeries` truncated at an
explicit order, with exact rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt

from . import partitions as pt
from .bernoulli import bernoulli
from .errors import FractionalExponentError, WindowTooLargeError
from .qseries import QSeries, partition_series, q_pochhammer
from .wjets import build_jet, jet_exp, rational_jet, two_sinh_half_over_w

RANK_METHODS = ("direct", "divisor-sum", "combinatorial")
CRANK_METHODS = ("combinatorial", "eisenstein")


def sigma_power(n: int, e: int) -> int:
    """Divisor power sum sigma_e(n) = sum_{d | n} d^e."""
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**e
            other = n // d
            if other != d:
                total += other**e
    return total


@lru_cache(maxsize=None)
def eisenstein(weight: int, order: int) -> QSeries:
    """G_weight = -B_weight/(2*weight) + sum_n sigma_{weight-1}(n) q^n.

    Odd weights give the zero series, so trace code can iterate uniformly.
    """
    if weight < 1:
        raise ValueError("Eisenstein weight must be >= 1")
    if weight % 2:
        return QSeries.zero(order)
    sigmas = QSeries._of([0] + [sigma_power(n, weight - 1) for n in range(1, order + 1)])
    return sigmas - bernoulli(weight) / (2 * weight)


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
    coeffs = [0] * (order + 1)
    for n, h in _theta_terms(a, b, order):
        coeffs[h] += (-1) ** (n & 1)
    return QSeries._of(coeffs)


def theta_deriv(a: int, b: int, m: int, order: int) -> QSeries:
    """m-th theta derivative: the n-summand picks up (b n^2 + a n)^m.

    Equals (2 qD)^m applied to theta_{a,b}.
    """
    if m < 0:
        raise ValueError("derivative order must be non-negative")
    coeffs = [0] * (order + 1)
    for n, h in _theta_terms(a, b, order):
        coeffs[h] += (-1) ** (n & 1) * (2 * h) ** m
    return QSeries._of(coeffs)


@lru_cache(maxsize=None)
def divisor_like_sum(a: int, b: int, ell: int, order: int) -> QSeries:
    """The two-parameter divisor-like lattice sum g_{a,b,ell}.

    g_{a,b,0} = 1 and g_{a,b,ell} = 0 for odd ell.  For even ell:

        (1 - 2^{ell-1}) B_ell/(2 ell)
          + sum_{a n - 1 >= b m >= b} (a n - b m)^{ell-1} q^{m n}
          - sum_{m - 1 >= a b n >= a b} (m - a b n)^{ell-1} q^{m n},

    truncated by m n <= order.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if ell == 0:
        return QSeries.one(order)
    if ell % 2:
        return QSeries.zero(order)
    coeffs = [0] * (order + 1)
    for m in range(1, order + 1):
        for n in range(1, order // m + 1):
            if a * n - 1 >= b * m >= b:
                coeffs[m * n] += (a * n - b * m) ** (ell - 1)
            if m - 1 >= a * b * n >= a * b:
                coeffs[m * n] -= (m - a * b * n) ** (ell - 1)
    return QSeries._of(coeffs) + (1 - 2 ** (ell - 1)) * bernoulli(ell) / (2 * ell)


@lru_cache(maxsize=None)
def krank_count_series(k: int, m: int, order: int) -> QSeries:
    """Generating function of N_k(m, .): the coefficient of q^n is N_k(m, n).

    (1/(q)_inf) sum_{n>=1} (-1)^{n-1} q^{n((2k-1)n-1)/2 + |m| n} (1 - q^n).
    """
    if k < 2:
        raise ValueError("count series require k >= 2")
    d = 2 * k - 1
    numer = [0] * (order + 1)
    n = 1
    while True:
        e = n * (d * n - 1) // 2 + abs(m) * n
        if e > order:
            break
        sign = 1 if n % 2 else -1
        numer[e] += sign
        if e + n <= order:
            numer[e + n] -= sign
        n += 1
    return QSeries._of(numer) * partition_series(order)


@dataclass(frozen=True)
class MomentSeries:
    """A rank or crank moment with the construction route recorded."""

    k: int
    j: int
    series: QSeries
    method: str


def _rank_moment_direct(k: int, j: int, order: int) -> QSeries:
    d = 2 * k - 1
    if j == 0:
        return (QSeries.one(order) - theta_series(1, d, order)) * partition_series(order)
    if j % 2:
        return QSeries.zero(order)
    coeffs = [0] * (order + 1)
    n = 1
    while True:
        base = n * (d * n - 1) // 2
        if base > order:
            break
        sign = 2 if n % 2 else -2
        m = 1
        while base + m * n <= order:
            e = base + m * n
            coeffs[e] += sign * m**j
            if e + n <= order:
                coeffs[e + n] -= sign * m**j
            m += 1
        n += 1
    return QSeries._of(coeffs) * partition_series(order)


def _rank_moment_divisor_sum(k: int, j: int, order: int) -> QSeries:
    if j == 0:
        return _rank_moment_direct(k, 0, order)
    acc = QSeries.zero(order)
    for ell in range(2, j + 1):
        if (j - ell) % 2:
            continue
        shifted = divisor_like_sum(2, 2 * k - 1, ell, order) + (
            (2 ** (ell - 1) - 1) * bernoulli(ell) / (2 * ell)
        )
        acc = acc + shifted * comb(j, ell - 1)
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


def rank_moment(k: int, j: int, order: int, method: str = "direct") -> MomentSeries:
    """The k-rank moment R_{k,j} = sum_{n,m} m^j N_k(m,n) q^n for k >= 3.

    methods: "direct" (theta-type double sum), "divisor-sum" (binomial
    combination of divisor-like sums), "combinatorial" (brute-force
    partition enumeration; bounded by the enumeration ceiling).
    """
    if k < 3:
        raise ValueError("rank moments require k >= 3")
    if j < 0:
        raise ValueError("moment order must be non-negative")
    if method == "direct":
        series = _rank_moment_direct(k, j, order)
    elif method == "divisor-sum":
        series = _rank_moment_divisor_sum(k, j, order)
    elif method == "combinatorial":
        series = _combinatorial_moment(k, j, order)
    else:
        raise ValueError(f"unknown rank moment method {method!r}")
    return MomentSeries(k=k, j=j, series=series, method=method)


def _crank_moment_eisenstein(j: int, order: int) -> QSeries:
    # C(zeta, q) = sin(pi z)/(pi z (q)_inf) * exp(2 sum_k G_k w^k/k!) read
    # off at w^j, all in w = 2*pi*i*z coordinates.
    top = max(2, j)
    entries = {
        k: eisenstein(k, order) * Fraction(2, factorial(k))
        for k in range(2, top + 1, 2)
    }
    expo = jet_exp(build_jet(entries, 2, top, order))
    sinc = rational_jet(two_sinh_half_over_w(top), order)
    total = (sinc * expo).scale(partition_series(order))
    return total.coeff(j) * factorial(j)


def crank_moment(j: int, order: int, method: str = "combinatorial") -> MomentSeries:
    """The crank moment C_j = sum_{n,m} m^j N_1(m,n) q^n.

    methods: "combinatorial" (enumeration with the n = 1 convention) and
    "eisenstein" (coefficient extraction from the crank generating
    function rewritten through Eisenstein series).
    """
    if j < 0:
        raise ValueError("moment order must be non-negative")
    if method == "combinatorial":
        series = _combinatorial_moment(1, j, order)
    elif method == "eisenstein":
        series = _crank_moment_eisenstein(j, order)
    else:
        raise ValueError(f"unknown crank moment method {method!r}")
    return MomentSeries(k=1, j=j, series=series, method=method)


# -- the multisum oracle ------------------------------------------------
#
# FG_k(zeta, q) = sum_{n_{k-1} >= ... >= n_1 >= 1}
#     q^{n_1^2 + ... + n_{k-1}^2}
#     / ((q)_{n_{k-1}-n_{k-2}} ... (q)_{n_2-n_1} (zeta q)_{n_1} (zeta^{-1} q)_{n_1})
#
# expanded with Laurent-polynomial-in-zeta coefficients per power of q.
# The zeta window is never truncated during the computation (powers of
# zeta are bounded by the q-power, so nothing can escape and re-enter);
# out-of-window powers are dropped only at the final read-out.


def _zseries_mul(a, b, order):
    out = [dict() for _ in range(order + 1)]
    for n1, d1 in enumerate(a):
        if not d1:
            continue
        for n2 in range(order + 1 - n1):
            d2 = b[n2]
            if not d2:
                continue
            tgt = out[n1 + n2]
            for m1, c1 in d1.items():
                for m2, c2 in d2.items():
                    key = m1 + m2
                    val = tgt.get(key, 0) + c1 * c2
                    if val:
                        tgt[key] = val
                    elif key in tgt:
                        del tgt[key]
    return out


def _zseries_inv(a, order):
    # requires a[0] == {0: 1}
    inv = [dict() for _ in range(order + 1)]
    inv[0] = {0: 1}
    for n in range(1, order + 1):
        acc = {}
        for i in range(1, n + 1):
            if not a[i]:
                continue
            for m1, c1 in a[i].items():
                for m2, c2 in inv[n - i].items():
                    acc[m1 + m2] = acc.get(m1 + m2, 0) - c1 * c2
        inv[n] = {m: c for m, c in acc.items() if c}
    return inv


def _zeta_pochhammer(length: int, order: int):
    """(zeta q)_length (zeta^{-1} q)_length as a zeta-Laurent q-polynomial."""
    cur = [dict() for _ in range(order + 1)]
    cur[0] = {0: 1}
    for i in range(1, length + 1):
        for s in (1, -1):
            nxt = [dict(layer) for layer in cur]
            for n in range(order - i + 1):
                for m, c in cur[n].items():
                    key = m + s
                    tgt = nxt[n + i]
                    val = tgt.get(key, 0) - c
                    if val:
                        tgt[key] = val
                    elif key in tgt:
                        del tgt[key]
            cur = nxt
    return cur


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
    """Second independent oracle for N_k(m, n) via the multisum expansion."""
    if k < 3:
        raise ValueError("the multisum oracle requires k >= 3")
    if max_abs_m < 0 or order < 0:
        raise ValueError("window bounds must be non-negative")
    table = [dict() for _ in range(order + 1)]
    for tup in _ascending_tuples(k - 1, 1, order):
        base = sum(v * v for v in tup)
        rem = order - base
        # pure-q part: product of 1/(q)_{gap} over consecutive gaps
        purq = QSeries.one(rem)
        for lo, hi in zip(tup, tup[1:]):
            if hi > lo:
                purq = purq * q_pochhammer(hi - lo, rem).inverse()
        zfac = _zseries_inv(_zeta_pochhammer(tup[0], rem), rem)
        diag = [({0: c} if c else {}) for c in purq.nums]
        prod = _zseries_mul(diag, zfac, rem)
        for n_off, layer in enumerate(prod):
            tgt = table[base + n_off]
            for m, c in layer.items():
                tgt[m] = tgt.get(m, 0) + c
    entries = {
        (m, n): c
        for n, layer in enumerate(table)
        for m, c in layer.items()
        if c and abs(m) <= max_abs_m
    }
    return pt.CountTable(k=k, max_abs_m=max_abs_m, max_n=order, entries=entries)
