"""Laurent jets, window certification, the level-5 Appell jet, heat
operators, and both differential-equation residuals."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from mockeis.bernoulli import bernoulli_poly
from mockeis.errors import ConfigError, ConstantTermError, WindowUnderflowError
from mockeis.functions import eisenstein, theta_deriv, theta_series
from mockeis.mock import mock_eisenstein_family
from mockeis.pde import appell5_jet, heat_operator, pde_residual, theta_ode_residual
from mockeis.qseries import QSeries
from mockeis.wjets import (
    WJet,
    build_jet,
    exp_cw,
    jet_exp,
    jet_log,
    member_exp,
    rational_jet,
    two_sinh_half_over_w,
)


def monomial_jet(deg, q_order, value=1):
    return WJet(deg, [QSeries.constant(value, q_order)])


def random_jet(rng, min_deg, max_deg, q_order):
    coeffs = [
        QSeries([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(q_order + 1)])
        for _ in range(max_deg - min_deg + 1)
    ]
    return WJet(min_deg, coeffs)


def padded_sum(a, b):
    """a + b from both jets zero-padded below their windows and truncated to one q-order."""
    lo = min(a.min_deg, b.min_deg)
    hi = min(a.max_deg, b.max_deg)
    order = min(a.q_order, b.q_order)
    zero = QSeries.zero(order)
    out = []
    for d in range(lo, hi + 1):
        x = a.coeff(d).truncate(order) if d >= a.min_deg else zero
        y = b.coeff(d).truncate(order) if d >= b.min_deg else zero
        out.append(x + y)
    return WJet(lo, out)


def padded_product(a, b):
    """a * b by the schoolbook double loop over every degree pair, with no term skipped.

    Each degree of a meets each degree of b that lands in the product's window;
    below its window b reads as zero, so every pair is a product.
    """
    lo = a.min_deg + b.min_deg
    hi = min(a.max_deg + b.min_deg, b.max_deg + a.min_deg)
    order = min(a.q_order, b.q_order)
    out = [QSeries.zero(order) for _ in range(lo, hi + 1)]
    for i in a.degrees():
        x = a.coeff(i).truncate(order)
        for j in range(lo - i, hi - i + 1):
            out[i + j - lo] = out[i + j - lo] + x * b.coeff(j).truncate(order)
    return WJet(lo, out)


def with_zeros(jet, parity):
    """The jet with its coefficients at degrees of the given parity replaced by zero."""
    zero = QSeries.zero(jet.q_order)
    coeffs = [zero if d % 2 == parity else c for d, c in zip(jet.degrees(), jet.coeffs)]
    return WJet(jet.min_deg, coeffs)


def even_jet():
    """A jet on [1, 8] that vanishes at every odd degree."""
    rng = random.Random(11)
    entries = {
        d: QSeries([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
        for d in range(2, 9, 2)
    }
    return build_jet(entries, 1, 8, 5)


def series_products(monkeypatch, compute):
    """(result, number of series-by-series products) of compute()."""
    products = []
    mul = QSeries.__mul__
    monkeypatch.setattr(
        QSeries, "__mul__",
        lambda a, b: (isinstance(b, QSeries) and products.append(b)) or mul(a, b),
    )
    result = compute()
    monkeypatch.undo()
    return result, len(products)


class TestJetArithmetic:
    def test_pole_times_monomial(self):
        prod = monomial_jet(-1, 5) * monomial_jet(1, 5)
        assert prod.min_deg == prod.max_deg == 0
        assert prod.coeff(0) == QSeries.one(5)

    def test_product_window_rule(self):
        rng = random.Random(7)
        a = random_jet(rng, -1, 6, 4)
        b = random_jet(rng, -1, 6, 4)
        prod = a * b
        assert prod.min_deg == -2
        assert prod.max_deg == 5

    def test_scaling_keeps_degrees(self):
        rng = random.Random(8)
        a = random_jet(rng, -2, 3, 6)
        scaled = a.scale(eisenstein(2, 6))
        assert (scaled.min_deg, scaled.max_deg) == (-2, 3)

    def test_coeff_below_window_is_zero(self):
        a = monomial_jet(2, 4)
        assert a.coeff(0).is_zero()

    def test_coeff_above_window_raises(self):
        a = monomial_jet(2, 4)
        with pytest.raises(WindowUnderflowError):
            a.coeff(3)

    def test_add_window(self):
        rng = random.Random(9)
        a = random_jet(rng, -1, 5, 4)
        b = random_jet(rng, 0, 3, 4)
        total = a + b
        assert (total.min_deg, total.max_deg) == (-1, 3)
        assert total.coeff(-1) == a.coeff(-1)

    def test_add_matches_the_padded_sum(self):
        rng = random.Random(10)
        for a_lo, b_lo in ((0, 0), (-2, 1), (1, -1), (0, 3)):
            for a_order, b_order in ((4, 4), (2, 5), (6, 0)):
                a = random_jet(rng, a_lo, a_lo + 4, a_order)
                b = random_jet(rng, b_lo, b_lo + 2, b_order)
                for total, expected in ((a + b, padded_sum(a, b)), (b + a, padded_sum(b, a))):
                    assert (total.min_deg, total.q_order) == (expected.min_deg, expected.q_order)
                    assert total.coeffs == expected.coeffs

    def test_mul_matches_the_padded_product(self):
        rng = random.Random(12)
        for a_lo, b_lo in ((0, 0), (-2, 1), (1, -1), (-1, -3), (0, 3)):
            for a_order, b_order in ((4, 4), (2, 5), (6, 0)):
                for zeros in (False, True):
                    a = random_jet(rng, a_lo, a_lo + 4, a_order)
                    b = random_jet(rng, b_lo, b_lo + 3, b_order)
                    if zeros:
                        a, b = with_zeros(a, 1), with_zeros(b, 0)
                    for left, right in ((a, b), (b, a)):
                        prod, expected = left * right, padded_product(left, right)
                        assert (prod.min_deg, prod.q_order) == (expected.min_deg, expected.q_order)
                        assert prod.coeffs == expected.coeffs

    def test_wderiv(self):
        jet = monomial_jet(-1, 4, 3)
        d = jet.wderiv()
        assert d.min_deg == d.max_deg == -2
        assert d.coeff(-2) == QSeries.constant(-3, 4)

    def test_exp_log_roundtrip(self):
        rng = random.Random(10)
        coeffs = [
            QSeries([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
            for _ in range(5)
        ]
        arg = WJet(1, coeffs)
        expo = jet_exp(arg)
        back = jet_log(expo)
        for d in range(1, 6):
            assert back.coeff(d) == arg.coeff(d)

    def test_exp_of_an_even_jet_multiplies_no_zero_term(self, monkeypatch):
        # b_m vanishes at odd m, so only a_k b_{n-k} with k and n - k even is
        # a product: 1 + 2 + 3 + 4 of them through w^8.
        arg = even_jet()
        expo, products = series_products(monkeypatch, lambda: jet_exp(arg))
        assert products == 10
        assert all(expo.coeff(d).is_zero() for d in range(1, 9, 2))
        back = jet_log(expo)
        for d in range(1, 9):
            assert back.coeff(d) == arg.coeff(d)

    def test_mul_and_log_of_even_jets_multiply_no_zero_term(self, monkeypatch):
        # Both factors vanish at odd degrees, so a product of degree d has a
        # term only at even i and d - i: 1 + 2 + 3 + 4 + 5 of them through w^8,
        # whichever factor comes first.
        expo = jet_exp(even_jet())
        sinc = rational_jet(two_sinh_half_over_w(8), 5)
        for left, right in ((sinc, expo), (expo, sinc)):
            prod, products = series_products(monkeypatch, lambda: left * right)
            assert products == 15
            assert prod.coeffs == padded_product(left, right).coeffs
        # n l_n = n a_n - sum_{k<n} k l_k a_{n-k}: even k and n - k >= 2, 1 + 2 + 3.
        back, products = series_products(monkeypatch, lambda: jet_log(expo))
        assert products == 6
        assert back.coeffs[1:] == even_jet().coeffs

    @pytest.mark.parametrize("seed", [None, 14])
    def test_exp_and_log_match_the_rational_series_routines(self, seed):
        # QSeries.exp and QSeries.log share no code with the jet recurrences.
        from mockeis.bernoulli import bernoulli

        top, q_order = 12, 3
        if seed is None:
            a = QSeries([0, 0] + [bernoulli(j) / j / factorial(j) for j in range(2, top + 1)])
        else:
            rng = random.Random(seed)
            a = QSeries([0] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(top)])
        expo = jet_exp(rational_jet(a, q_order))
        assert expo.coeffs == tuple(QSeries.constant(c, q_order) for c in a.exp().coeffs)
        log = jet_log(expo)
        assert log.coeffs == tuple(QSeries.constant(c, q_order) for c in a.exp().log().coeffs)

    def test_exp_requires_vanishing_constant(self):
        with pytest.raises(ConstantTermError):
            jet_exp(monomial_jet(0, 4))

    def test_log_requires_unit_constant(self):
        with pytest.raises(ConstantTermError):
            jet_log(monomial_jet(0, 4, 2))


class TestBernoulliExpansions:
    def test_two_sinh_is_bernoulli_exponential(self):
        # 2 sinh(w/2)/w = exp(sum_{j>=2} (B_j/j) w^j/j!)
        from mockeis.bernoulli import bernoulli

        order = 12
        arg = QSeries(
            [0, 0] + [bernoulli(j) / j / factorial(j) for j in range(2, order + 1)]
        )
        assert two_sinh_half_over_w(order) == arg.exp()

    def test_sinh_terms_collapse_to_minus_exp_half(self):
        # (1 - e^w)/(2 sinh(w/2)) = sum_n (B_n(1/2) - B_n(3/2)) w^{n-1}/n! = -e^{w/2}
        jet = -exp_cw(F(1, 2), 7, 3)
        for n in range(1, 9):
            expected = (bernoulli_poly(n, F(1, 2)) - bernoulli_poly(n, F(3, 2))) / factorial(n)
            assert jet.coeff(n - 1) == QSeries.constant(expected, 3)


class TestHeatOperator:
    def test_on_constant_jet(self):
        c = QSeries([F(1), F(2), F(0), F(5)])
        jet = WJet(0, [c])
        out = heat_operator(1, jet)
        assert (out.min_deg, out.max_deg) == (-2, -2)
        # the certified window keeps only the d^2/dw^2 image, which is zero
        assert out.coeff(-2).is_zero()

    def test_on_padded_constant_jet(self):
        # pad the window so the degree-0 coefficient stays certified
        c = QSeries([F(1), F(2), F(0), F(5)])
        jet = build_jet({0: c}, 0, 2, 3)
        out = heat_operator(1, jet)
        g2 = eisenstein(2, 3)
        assert out.coeff(0) == c.qderiv() * 10 + (g2 * c) * 10

    def test_second_derivative_of_w_squared(self):
        jet = build_jet({2: QSeries.one(4)}, 0, 2, 4)
        out = heat_operator(1, jet)
        assert out.coeff(0).coeff(0) == 2

    def test_linearity(self):
        rng = random.Random(11)
        a = random_jet(rng, -1, 4, 6)
        b = random_jet(rng, -1, 4, 6)
        lhs = heat_operator(3, a + b)
        rhs = heat_operator(3, a) + heat_operator(3, b)
        for d in range(lhs.min_deg, lhs.max_deg + 1):
            assert lhs.coeff(d) == rhs.coeff(d)

    def test_index_must_be_odd(self):
        with pytest.raises(ValueError):
            heat_operator(2, monomial_jet(0, 4))


class TestAppellJet:
    def test_exponential_prefactor_coefficients(self):
        # e^{3w/2} carries (3/2)^k/k! at w^k
        jet = exp_cw(F(3, 2), 5, 2)
        for k in range(6):
            assert jet.coeff(k) == QSeries.constant(F(3, 2) ** k / factorial(k), 2)

    def test_pole_coefficient(self):
        jet = appell5_jet(4, 8)
        assert jet.min_deg == -1
        assert jet.coeff(-1) == QSeries.constant(-1, 8)

    def test_degree_zero_coefficient(self):
        # the two sinh terms collapse to -e^{w/2} theta_{1,5}, so the
        # w^0 coefficient is -theta_{1,5} - theta_{3,5}
        jet = appell5_jet(4, 10)
        expected = -(theta_series(1, 5, 10) + theta_series(3, 5, 10))
        assert jet.coeff(0) == expected

    @pytest.mark.parametrize("max_deg, q_order", [(7, 20), (11, 40)])
    def test_matches_the_four_term_form(self, max_deg, q_order):
        # -(1/w) exp(2 sum f_{3,j} w^j/j!) + (1/(2 sinh(w/2))) theta_{1,5}
        #   - (e^w/(2 sinh(w/2))) theta_{1,5} - e^{3w/2} theta_{3,5}
        family = mock_eisenstein_family(3, max_deg + 2 - max_deg % 2, q_order)
        th15, th35 = theta_series(1, 5, q_order), theta_series(3, 5, q_order)
        inv_sinh = rational_jet(two_sinh_half_over_w(max_deg + 2).inverse(), q_order).shift(-1)
        expected = (
            -member_exp(family.member, 2, max_deg + 1, q_order).shift(-1)
            + inv_sinh.scale(th15)
            - (exp_cw(1, max_deg + 1, q_order) * inv_sinh).scale(th15)
            - exp_cw(F(3, 2), max_deg, q_order).scale(th35)
        )
        jet = appell5_jet(max_deg, q_order)
        assert (jet.min_deg, jet.max_deg, jet.q_order) == (-1, max_deg, q_order)
        assert (expected.min_deg, expected.max_deg) == (-1, max_deg)
        assert jet.coeffs == expected.coeffs

    @pytest.mark.parametrize("c", [F(1, 2), F(3, 2)])
    def test_operator_on_a_shifted_series_is_the_theta_operator(self, c):
        # (H_3 H_1 - (220/3) G_4)(e^{cw} s)
        #   = 100 e^{cw} [(qD + alpha + 5 G_2)(qD + alpha + G_2) s - (11/15) G_4 s]
        # with alpha = c^2/10, for a series s that is not a theta series.
        order = 12
        rng = random.Random(13)
        s = QSeries([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)])
        g2, g4 = eisenstein(2, order), eisenstein(4, order)
        alpha = c * c / 10
        inner = s.qderiv() + s * alpha + g2 * s
        theta_op = inner.qderiv() + inner * alpha + (g2 * inner) * 5 - (g4 * s) * F(11, 15)
        jet = exp_cw(c, 8, order).scale(s)
        lhs = heat_operator(3, heat_operator(1, jet)) - jet.scale(g4 * F(220, 3))
        rhs = exp_cw(c, 8, order).scale(theta_op * 100)
        assert (lhs.min_deg, lhs.max_deg) == (-4, 4)
        for d in lhs.degrees():
            assert lhs.coeff(d) == rhs.coeff(d)


class TestPDE:
    def test_residual_zero_small(self):
        residual = pde_residual(3, 12)
        assert (residual.min_deg, residual.max_deg) == (-5, 3)
        assert residual.is_zero()

    def test_leading_pole_identity(self):
        # at w^{-5} only the fourth w-derivative of the pole survives:
        # 24 * (-1) against the -24 constant of the right-hand side
        residual = pde_residual(1, 6)
        assert residual.coeff(-5).is_zero()


class TestThetaODE:
    def test_residuals_vanish(self):
        for a in (1, 3):
            assert theta_ode_residual(a, 25).is_zero()

    def test_constant_term_arithmetic(self):
        # hand value: alpha(alpha - 1/24) + 5(-1/24)(alpha - 1/24) - 11/3600
        # vanishes for alpha = 1/40
        res = theta_ode_residual(1, 0)
        assert res.coeff(0) == 0

    def test_matches_expanded_form(self):
        # (1/4) th'' + (alpha + 3 G_2) th' + (alpha^2 + 6 alpha G_2
        #   + 5 G_2^2 + qD(G_2)) th - (11/15) G_4 th, with th' the
        # doubled-derivative convention
        order = 40
        for a, alpha in ((1, F(1, 40)), (3, F(9, 40))):
            th = theta_series(a, 5, order)
            th1 = theta_deriv(a, 5, 1, order)
            th2 = theta_deriv(a, 5, 2, order)
            g2 = eisenstein(2, order)
            g4 = eisenstein(4, order)
            expanded = (
                th2 / 4
                + th1 * alpha
                + (g2 * th1) * 3
                + th * (alpha * alpha)
                + (g2 * th) * (6 * alpha)
                + (g2 * g2 * th) * 5
                + g2.qderiv() * th
                - (g4 * th) * F(11, 15)
            )
            assert expanded == theta_ode_residual(a, order)

    def test_unknown_theta_rejected(self):
        with pytest.raises(ConfigError):
            theta_ode_residual(2, 10)
