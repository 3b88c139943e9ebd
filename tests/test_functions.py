"""Named q-series: Bernoulli data, Eisenstein and theta series,
divisor-like sums, count series, moments, and the multisum oracle."""

from fractions import Fraction as F
from math import isqrt

import pytest

import mockeis.functions
import mockeis.qseries
from mockeis.bernoulli import bernoulli, bernoulli_poly
from mockeis.errors import FractionalExponentError, WindowTooLargeError
from mockeis.functions import (
    crank_moment,
    divisor_like_sum,
    eisenstein,
    krank_count_series,
    multisum_count_table,
    rank_moment,
    theta_deriv,
    theta_series,
)
from mockeis.partitions import count_table
from mockeis.qseries import QSeries, partition_series, q_pochhammer


def trial_division_sigma(n, e):
    """sigma_e(n) = sum_{d | n} d^e by trial division up to sqrt(n)."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**e
            other = n // d
            if other != d:
                total += other**e
    return total


SERIES_BUILDERS = {
    "theta_series": lambda order: theta_series(1, 5, order),
    "theta_deriv": lambda order: theta_deriv(1, 5, 2, order),
    "rank_moment": lambda order: rank_moment(3, 2, order, "combinatorial"),
    "crank_moment": lambda order: crank_moment(2, order, "combinatorial"),
    "eisenstein": lambda order: eisenstein(4, order),
    "q_pochhammer": lambda order: q_pochhammer(3, order),
    "divisor_like_sum": lambda order: divisor_like_sum(2, 5, 2, order),
}


@pytest.mark.parametrize("order", [-5, -1, 0])
@pytest.mark.parametrize("name", SERIES_BUILDERS)
def test_negative_truncation_order_raises(name, order):
    build = SERIES_BUILDERS[name]
    if order < 0:
        with pytest.raises(ValueError, match=f"^negative truncation order {order}$"):
            build(order)
    else:
        assert build(order).order == 0


class TestBernoulli:
    def test_table(self):
        values = [bernoulli(j) for j in range(9)]
        assert values == [
            F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0), F(-1, 30),
        ]

    def test_odd_vanish(self):
        assert all(bernoulli(j) == 0 for j in range(3, 31, 2))

    def test_poly_basics(self):
        assert bernoulli_poly(1, F(1, 2)) == 0
        assert bernoulli_poly(0, F(7, 3)) == 1
        assert bernoulli_poly(2, 0) == F(1, 6)

    def test_poly_at_one_half(self):
        for j in range(21):
            expected = -(1 - F(2) ** (1 - j)) * bernoulli(j)
            assert bernoulli_poly(j, F(1, 2)) == expected

    def test_generating_identity_at_zero(self):
        # z/(e^z - 1) = sum B_k z^k / k!: check via series arithmetic.
        from math import factorial

        order = 12
        expm1_over_z = QSeries([F(1, factorial(n + 1)) for n in range(order + 1)])
        lhs = expm1_over_z.inverse()
        rhs = QSeries([bernoulli(n) / factorial(n) for n in range(order + 1)])
        assert lhs == rhs


class TestEisenstein:
    def test_weight_two(self):
        assert eisenstein(2, 4) == QSeries([F(-1, 24), 1, 3, 4, 7])

    def test_weight_four_constant(self):
        assert eisenstein(4, 3).coeff(0) == F(1, 240)

    def test_odd_weight_is_zero(self):
        assert eisenstein(3, 6).is_zero()

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            eisenstein(0, 5)

    @pytest.mark.parametrize("order", [0, 1, 2, 60, 500])
    def test_sieve_matches_trial_division(self, order):
        for weight in range(1, 15):
            if weight % 2:
                expected = QSeries.zero(order)
            else:
                sigmas = [0] + [trial_division_sigma(n, weight - 1) for n in range(1, order + 1)]
                expected = QSeries(sigmas) - bernoulli(weight) / (2 * weight)
            assert eisenstein.__wrapped__(weight, order) == expected


class TestTheta:
    def test_theta_1_5(self):
        assert theta_series(1, 5, 12) == QSeries(
            [1, 0, -1, -1, 0, 0, 0, 0, 0, 1, 0, 1, 0]
        )

    def test_theta_3_5(self):
        assert theta_series(3, 5, 13) == QSeries(
            [1, -1, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 1]
        )

    def test_first_derivative_is_twice_qderiv(self):
        assert theta_deriv(1, 5, 1, 20) == theta_series(1, 5, 20).qderiv() * 2

    def test_higher_derivative_operator_identity(self):
        for m in range(4):
            via_operator = theta_series(3, 5, 25)
            for _ in range(m):
                via_operator = via_operator.qderiv() * 2
            assert theta_deriv(3, 5, m, 25) == via_operator

    def test_fractional_exponent_rejected(self):
        with pytest.raises(FractionalExponentError):
            theta_series(2, 3, 10)

    def test_negative_exponent_rejected(self):
        with pytest.raises(FractionalExponentError):
            theta_series(3, 1, 10)


def paper_form_divisor_like_sum(a, b, ell, order):
    """g_{a,b,ell} with both index conditions tested at every m n <= order."""
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
    return QSeries(coeffs) + (1 - 2 ** (ell - 1)) * bernoulli(ell) / (2 * ell)


class TestDivisorLikeSum:
    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 3, 5, 7, 9])
    def test_matches_the_paper_form_double_loop(self, a, b):
        for ell in range(13):
            reference = paper_form_divisor_like_sum(a, b, ell, 60)
            for order in range(61):
                # Uncached: the cache serves a truncation of its highest order.
                built = divisor_like_sum.__wrapped__(a, b, ell, order)
                assert built == reference.truncate(order)

    @pytest.mark.parametrize("a, b", [(0, 5), (2, 0), (-1, 3), (2, -5)])
    def test_needs_positive_a_and_b(self, a, b):
        with pytest.raises(ValueError):
            divisor_like_sum(a, b, 2, 10)

    def test_g_2_5_2(self):
        assert divisor_like_sum(2, 5, 2, 8) == QSeries(
            [F(-1, 24), 0, 0, 1, 3, 5, 7, 9, 11]
        )

    def test_g_2_5_4_low_terms(self):
        g = divisor_like_sum(2, 5, 4, 5)
        assert g == QSeries([F(7, 240), 0, 0, 1, 27, 125])

    def test_odd_is_zero(self):
        assert divisor_like_sum(2, 5, 3, 10).is_zero()
        assert divisor_like_sum(4, 7, 9, 10).is_zero()

    def test_ell_zero_is_one(self):
        assert divisor_like_sum(3, 7, 0, 6) == QSeries.one(6)


def reference_count_numerator(k, m, order):
    """sum_{n>=1} (-1)^{n-1} q^{n((2k-1)n-1)/2 + |m| n} (1 - q^n), term by term."""
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
    return QSeries(numer)


def reference_direct_moment(k, j, order):
    """R_{k,j} by the theta-type double sum, n outer and m inner."""
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
    return QSeries(coeffs) * partition_series(order)


class TestCountSeries:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_the_term_by_term_numerator(self, k):
        for m in range(-8, 9):
            for order in range(121):
                expected = reference_count_numerator(k, m, order) * partition_series(order)
                assert krank_count_series(k, m, order) == expected

    def test_vanishes_at_q0(self):
        for m in range(-3, 4):
            assert krank_count_series(3, m, 10).coeff(0) == 0

    def test_matches_enumeration_entry(self):
        assert krank_count_series(3, 0, 5).coeff(2) == 1

    def test_symmetric_in_m(self):
        for m in range(7):
            assert krank_count_series(3, m, 25) == krank_count_series(3, -m, 25)

    def test_two_rank_case_counts_ranks(self):
        table = count_table(2, 4, 10)
        for m in range(-4, 5):
            series = krank_count_series(2, m, 10)
            for n in range(11):
                assert series.coeff(n) == table.count(m, n)


class TestRankMoments:
    def test_frozen_low_order(self):
        # Sum of m^2 over 3-ranks: n=3 gives 1^2+(-1)^2, n=4 gives 4+0+4.
        r = rank_moment(3, 2, 4, "direct")
        assert r == QSeries([0, 0, 0, 2, 8])

    def test_odd_moments_vanish(self):
        for method in ("direct", "divisor-sum", "combinatorial"):
            assert rank_moment(3, 5, 12, method).is_zero()

    def test_zeroth_moment_counts(self):
        r = rank_moment(3, 0, 5, "direct")
        assert r.coeff(2) == 1
        assert r.coeff(3) == 2

    def test_zeroth_moment_theta_form(self):
        d = 2 * 4 - 1
        expected = (QSeries.one(20) - theta_series(1, d, 20)) * partition_series(20)
        assert rank_moment(4, 0, 20, "direct") == expected

    def test_methods_agree_small(self):
        for k in (3, 4):
            for j in (0, 2, 4):
                direct = rank_moment(k, j, 15, "direct")
                assert direct == rank_moment(k, j, 15, "divisor-sum")
                assert direct == rank_moment(k, j, 15, "combinatorial")

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_direct_matches_the_double_sum(self, k):
        for j in range(11):
            for order in (0, 1, 2, 3, 17, 60, 121):
                expected = reference_direct_moment(k, j, order)
                assert rank_moment(k, j, order, "direct") == expected

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_methods_agree_at_order_300(self, k):
        for j in range(11):
            direct = rank_moment(k, j, 300, "direct")
            assert direct == rank_moment(k, j, 300, "divisor-sum")

    def test_combinatorial_ceiling(self):
        with pytest.raises(WindowTooLargeError):
            rank_moment(3, 2, 60, "combinatorial")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rank_moment(2, 2, 10)
        with pytest.raises(ValueError):
            rank_moment(3, 2, 10, "guesswork")


class TestCrankMoments:
    def test_zeroth_is_partition_count(self):
        c = crank_moment(0, 3, "combinatorial")
        assert c == QSeries([1, 1, 2, 3])

    def test_first_vanishes_by_symmetry(self):
        assert crank_moment(1, 18, "combinatorial").is_zero()

    def test_n_one_convention(self):
        c2 = crank_moment(2, 4, "combinatorial")
        assert c2.coeff(1) == 2
        assert c2.coeff(2) == 8

    def test_methods_agree(self):
        for j in range(9):
            comb = crank_moment(j, 20, "combinatorial")
            eis = crank_moment(j, 20, "eisenstein")
            assert comb == eis


class TestMultisum:
    def test_minimal_entry(self):
        table = multisum_count_table(3, 2, 3)
        assert table.count(0, 2) == 1

    def test_zero_row(self):
        table = multisum_count_table(3, 3, 6)
        assert all(table.count(m, 0) == 0 for m in range(-3, 4))

    @pytest.mark.parametrize(
        "k, max_m, order",
        [(3, 5, 12), (3, 8, 25), (5, 5, 20), (3, 40, 40), (4, 10, 40), (6, 8, 40)],
    )
    def test_three_way_agreement(self, k, max_m, order):
        brute = count_table(k, max_m, order)
        multi = multisum_count_table(k, max_m, order)
        for m in range(-max_m, max_m + 1):
            series = krank_count_series(k, m, order)
            for n in range(order + 1):
                assert multi.count(m, n) == brute.count(m, n) == series.coeff(n)
        assert multi.entries == brute.entries  # both store the nonzero counts only

    def test_four_rank_multisum(self):
        brute = count_table(4, 3, 10)
        multi = multisum_count_table(4, 3, 10)
        for m in range(-3, 4):
            for n in range(11):
                assert multi.count(m, n) == brute.count(m, n)

    def test_no_series_arithmetic(self, monkeypatch):
        """The oracle shares no code with the series kernel it checks."""
        tables = {args: count_table(*args) for args in [(3, 5, 15), (4, 3, 10)]}

        def refuse(*args, **kwargs):
            raise AssertionError("the multisum oracle used the series kernel")

        monkeypatch.setattr(QSeries, "__mul__", refuse)
        monkeypatch.setattr(QSeries, "__truediv__", refuse)
        monkeypatch.setattr(mockeis.qseries, "q_pochhammer", refuse)
        assert not hasattr(mockeis.functions, "q_pochhammer")
        for args, brute in tables.items():
            assert multisum_count_table(*args).entries == brute.entries
