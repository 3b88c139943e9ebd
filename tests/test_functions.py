"""Named q-series: Bernoulli data, Eisenstein and theta series,
divisor-like sums, count series, moments, and the multisum oracle."""

from fractions import Fraction as F

import pytest

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
from mockeis.qseries import QSeries, partition_series


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


class TestDivisorLikeSum:
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


class TestCountSeries:
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
        r = rank_moment(3, 2, 4, "direct").series
        assert r == QSeries([0, 0, 0, 2, 8])

    def test_odd_moments_vanish(self):
        for method in ("direct", "divisor-sum", "combinatorial"):
            assert rank_moment(3, 5, 12, method).series.is_zero()

    def test_zeroth_moment_counts(self):
        r = rank_moment(3, 0, 5, "direct").series
        assert r.coeff(2) == 1
        assert r.coeff(3) == 2

    def test_zeroth_moment_theta_form(self):
        d = 2 * 4 - 1
        expected = (QSeries.one(20) - theta_series(1, d, 20)) * partition_series(20)
        assert rank_moment(4, 0, 20, "direct").series == expected

    def test_methods_agree_small(self):
        for k in (3, 4):
            for j in (0, 2, 4):
                direct = rank_moment(k, j, 15, "direct").series
                assert direct == rank_moment(k, j, 15, "divisor-sum").series
                assert direct == rank_moment(k, j, 15, "combinatorial").series

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
        c = crank_moment(0, 3, "combinatorial").series
        assert c == QSeries([1, 1, 2, 3])

    def test_first_vanishes_by_symmetry(self):
        assert crank_moment(1, 18, "combinatorial").series.is_zero()

    def test_n_one_convention(self):
        c2 = crank_moment(2, 4, "combinatorial").series
        assert c2.coeff(1) == 2
        assert c2.coeff(2) == 8

    def test_methods_agree(self):
        for j in range(9):
            comb = crank_moment(j, 20, "combinatorial").series
            eis = crank_moment(j, 20, "eisenstein").series
            assert comb == eis


class TestMultisum:
    def test_minimal_entry(self):
        table = multisum_count_table(3, 2, 3)
        assert table.count(0, 2) == 1

    def test_zero_row(self):
        table = multisum_count_table(3, 3, 6)
        assert all(table.count(m, 0) == 0 for m in range(-3, 4))

    def test_three_way_agreement(self):
        brute = count_table(3, 5, 12)
        multi = multisum_count_table(3, 5, 12)
        for m in range(-5, 6):
            series = krank_count_series(3, m, 12)
            for n in range(13):
                assert multi.count(m, n) == brute.count(m, n) == series.coeff(n)
        assert multi.entries == brute.entries  # both store the nonzero counts only

    def test_four_rank_multisum(self):
        brute = count_table(4, 3, 10)
        multi = multisum_count_table(4, 3, 10)
        for m in range(-3, 4):
            for n in range(11):
                assert multi.count(m, n) == brute.count(m, n)
