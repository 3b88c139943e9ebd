"""Series-core tests: exact arithmetic, truncation semantics, ring laws."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockeis.errors import ConstantTermError, ZeroConstantTermError
from mockeis.functions import (
    divisor_like_sum,
    eisenstein,
    krank_count_series,
    rank_moment,
    theta_deriv,
    theta_series,
)
from mockeis import qseries
from mockeis.mock import mock_eisenstein_family
from mockeis.qseries import QSeries, euler_product, partition_series, q_pochhammer


def pentagonal_partition_counts(limit):
    """Independent oracle: p(n) by the pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


def series_st(min_order=0, max_order=20, coeffs=rationals):
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.lists(coeffs, min_size=n + 1, max_size=n + 1).map(QSeries)
    )


class TestBasics:
    def test_add_coefficientwise(self):
        a = QSeries([1, -1, 0, 0, 0, 0])
        b = QSeries([0, 1, 1, 0, 0, 0])
        assert a + b == QSeries([1, 0, 1, 0, 0, 0])

    def test_additive_identity(self):
        a = QSeries([F(1, 3), 2, -5])
        assert a + QSeries.zero(2) == a
        assert a + 0 == a

    def test_truncation_to_min_order(self):
        a = QSeries.one(3)
        b = QSeries.one(10)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_mul_telescoping(self):
        a = QSeries([1, -1, 0, 0])
        b = QSeries([1, 1, 1, 1])
        assert a * b == QSeries([1, 0, 0, 0])

    def test_mul_identity(self):
        a = QSeries([3, F(1, 2), -7, 0, 4])
        assert a * QSeries.one(4) == a
        assert a * 1 == a

    def test_coeff_beyond_order_raises(self):
        a = QSeries.one(5)
        with pytest.raises(IndexError):
            a.coeff(6)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QSeries.one(10).truncate(-3),
            lambda: QSeries.one(10).truncate(-1),
            lambda: QSeries.one(0).truncate(-1),
            lambda: QSeries.one(10).truncate(11),
            lambda: QSeries.zero(-1),
            lambda: QSeries.one(-4),
            lambda: QSeries.constant(F(1, 2), -1),
        ],
    )
    def test_negative_or_extended_order_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSeries([0.5])
        with pytest.raises(TypeError):
            QSeries.from_terms({1: 0.5}, 2)

    def test_str(self):
        assert str(QSeries([F(-1, 24), 0, 0, 1, 3])) == "-1/24 + q^3 + 3q^4"
        assert str(QSeries.zero(4)) == "0"


class TestInverse:
    def test_geometric(self):
        assert QSeries([1, -1, 0, 0, 0]).inverse() == QSeries([1, 1, 1, 1, 1])

    def test_partition_numbers(self):
        counts = pentagonal_partition_counts(5)
        assert euler_product(5).inverse() == QSeries(counts)
        assert partition_series(5) == QSeries(counts)

    def test_constant(self):
        assert QSeries.constant(2, 3).inverse() == QSeries.constant(F(1, 2), 3)

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTermError):
            QSeries([0, 1, 1]).inverse()

    def test_euler_times_inverse_is_one(self):
        e = euler_product(7)
        assert e * e.inverse() == QSeries.one(7)


class TestExpLog:
    def test_exp_zero(self):
        assert QSeries.zero(4).exp() == QSeries.one(4)

    def test_exp_q(self):
        assert QSeries([0, 1, 0, 0]).exp() == QSeries([1, 1, F(1, 2), F(1, 6)])

    def test_log_exp_roundtrip(self):
        a = QSeries([0, 1, -1, 0, 0, 0, 0])
        assert a.exp().log() == a

    def test_bad_constant_terms(self):
        with pytest.raises(ConstantTermError):
            QSeries([1, 0]).exp()
        with pytest.raises(ConstantTermError):
            QSeries([0, 1]).log()


class TestDerivative:
    def test_constant_killed(self):
        assert QSeries.constant(9, 4).qderiv() == QSeries.zero(4)

    def test_monomial(self):
        assert QSeries.monomial(1, 3, 5).qderiv() == QSeries.monomial(3, 3, 5)


class TestEulerProduct:
    def test_order_seven(self):
        assert euler_product(7) == QSeries([1, -1, -1, 0, 0, 1, 0, 1])

    def test_empty_product(self):
        assert euler_product(0) == QSeries.one(0)

    def test_pentagonal_number_theorem(self):
        for order in range(0, 61):
            assert euler_product(order) == theta_series(1, 3, order)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 40, 300])
    def test_equals_the_finite_product(self, order):
        assert euler_product(order) == q_pochhammer(order, order)

    def test_q_pochhammer(self):
        assert q_pochhammer(0, 5) == QSeries.one(5)
        assert q_pochhammer(2, 5) == QSeries([1, -1, -1, 1, 0, 0])


def schoolbook_product(a, b):
    """Independent oracle: the truncated Cauchy product, term by term over Fraction."""
    n = min(len(a), len(b))
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n))


def assert_matches_oracle(a, b):
    expected = schoolbook_product(a.coeffs, b.coeffs)
    for product in (a * b, b * a):
        assert product.coeffs == expected
        for c in product.coeffs:
            assert type(c) is F
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def near_power_of_two(max_exp):
    """+-(2^e - 1), +-2^e and +-(2^e + 1): magnitudes at a byte's edge."""
    return st.builds(
        lambda e, d, sign: sign * (2**e + d),
        st.integers(0, max_exp),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((1, -1)),
    )


wide_rationals = st.one_of(
    rationals,
    st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 10**6)),
    near_power_of_two(200).map(F),
)


def sparse_series_st(max_order=40):
    """Mostly zero coefficients, so negative slots borrow across runs of zeros."""
    return st.integers(0, max_order).flatmap(
        lambda n: st.dictionaries(st.integers(0, n), wide_rationals, max_size=4).map(
            lambda terms: QSeries.from_terms(terms, n)
        )
    )


class TestProductAgainstOracle:
    @given(
        series_st(max_order=40, coeffs=wide_rationals),
        series_st(max_order=40, coeffs=wide_rationals),
    )
    @settings(deadline=None)
    def test_dense(self, a, b):
        assert_matches_oracle(a, b)

    @given(st.one_of(sparse_series_st(), series_st(max_order=40, coeffs=wide_rationals)),
           sparse_series_st())
    @settings(deadline=None)
    def test_sparse_and_zero(self, a, b):
        assert_matches_oracle(a, b)

    @given(
        series_st(max_order=40, coeffs=near_power_of_two(64).map(F)),
        series_st(max_order=40, coeffs=near_power_of_two(64).map(F)),
    )
    @settings(deadline=None)
    def test_near_slot_boundaries(self, a, b):
        assert_matches_oracle(a, b)

    def test_full_slots_of_either_sign(self):
        # Equal magnitudes make the top coefficient reach the bound the slot
        # width is chosen from; negated and alternating operands give
        # negative slots, each of which borrows from the slot above.
        for e in range(0, 33):
            for x in (2**e - 1, 2**e, 2**e + 1):
                for n in (1, 2, 3, 4, 8):
                    same = QSeries([x] * n)
                    assert_matches_oracle(same, same)
                    assert_matches_oracle(same, -same)
                    alternating = QSeries([(-1) ** i * x for i in range(n)])
                    assert_matches_oracle(alternating, same)
                    assert_matches_oracle(alternating, alternating)

    def test_all_zero(self):
        for n in (0, 1, 7):
            assert_matches_oracle(QSeries.zero(n), QSeries([F(2**100, 3)] * (n + 2)))
            assert_matches_oracle(QSeries.zero(n), QSeries.zero(n))

    @given(
        st.one_of(st.sampled_from((F(0), F(1), F(-1))), wide_rationals),
        series_st(max_order=40, coeffs=wide_rationals),
        st.integers(0, 45),
    )
    @settings(deadline=None)
    def test_constant_factor(self, c, a, order):
        assert_matches_oracle(QSeries.constant(c, order), a)

    def test_constant_factor_makes_no_convolution(self, monkeypatch):
        kernel = qseries._kronecker_product
        calls = []
        monkeypatch.setattr(
            qseries, "_kronecker_product", lambda a, b: calls.append(len(a)) or kernel(a, b)
        )
        dense = QSeries([F(2**70, 3), -1, 5, F(-7, 2), 0, 9])
        for c in (0, 1, -1, F(2**100, 3), F(-5, 7)):
            for n in (0, 3, 5, 8):
                assert_matches_oracle(QSeries.constant(c, n), dense)
        # Nonzero only past the common order counts as a constant too.
        assert_matches_oracle(QSeries([4, 0, 0, 1]).truncate(2), dense)
        assert calls == []
        # Zero at q^0 but not above it: a real convolution, on either side.
        for shifted in (QSeries([0, 1]), QSeries([0, 0, 0, 0, 0, F(-1, 3)])):
            assert_matches_oracle(shifted, dense)
            assert_matches_oracle(shifted, shifted)
        assert len(calls) == 8

    @pytest.mark.parametrize("order", [0, 1, 8])
    def test_kernel_with_a_zero_operand(self, order):
        # The other operand may be far wider than any struct word.
        zero = (0,) * (order + 1)
        for dense in (tuple(range(-3, order - 2)), (2**100,) * (order + 1)):
            for a, b in ((zero, dense), (dense, zero), (zero, zero)):
                assert qseries._kronecker_product(a, b) == zero

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_word_boundaries(self, n, monkeypatch):
        # max|a| * max|b| * n on either side of 2^e - 1, 2^e and 2^e + 1 for
        # e = 7, 15, 31, 63: below 2^63 the product takes the narrowest struct
        # word of 1, 2, 4 or 8 bytes that holds the bound, from 2^63 on byte
        # slots, whose 9/10- and 16/17-byte edges are e = 71 and 127.
        pack = qseries.pack
        code_bytes = {"b": 1, "h": 2, "i": 4, "q": 8}
        widths = []
        monkeypatch.setattr(
            qseries, "pack", lambda fmt, *v: widths.append(code_bytes[fmt[-1]]) or pack(fmt, *v)
        )
        for e in (7, 15, 31, 63, 71, 127):
            bounds = set()
            for target in (2**e - 1, 2**e, 2**e + 1):
                for m in {target // n, -(-target // n)}:
                    split = 2 ** (e // 2)
                    for x, y in ((m, 1), (1, m), (m // split or 1, split)):
                        bound = x * y * n
                        bounds.add(bound)
                        same_x = QSeries([x] * n)
                        same_y = QSeries([y] * n)
                        alt_x = QSeries([(-1) ** i * x for i in range(n)])
                        alt_y = QSeries([(-1) ** i * y for i in range(n)])
                        for a, b in (
                            (same_x, same_y),
                            (same_x, -same_y),
                            (-same_x, -same_y),
                            (alt_x, same_y),
                            (alt_x, alt_y),
                            (-alt_x, alt_y),
                        ):
                            assert_matches_oracle(a, b)
                            # The kernel itself, which the series product skips at n = 1.
                            del widths[:]
                            expected = schoolbook_product(a.nums, b.nums)
                            assert qseries._kronecker_product(a.nums, b.nums) == expected
                            fits = [w for w in (1, 2, 4, 8) if bound < 2 ** (8 * w - 1)]
                            # One struct code per operand.
                            assert widths == fits[:1] * 2
            assert min(bounds) < 2**e <= max(bounds)
            if n == 1:
                assert {2**e - 1, 2**e, 2**e + 1} <= bounds


class TestRingProperties:
    @given(series_st(), series_st(), series_st())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(series_st(), series_st())
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(series_st(coeffs=st.builds(F, st.integers(1, 20), st.integers(1, 12))))
    def test_inverse_two_sided(self, a):
        inv = a.inverse()
        assert a * inv == QSeries.one(a.order)
        assert inv * a == QSeries.one(a.order)

    @given(series_st(max_order=15), series_st(max_order=15))
    @settings(deadline=None)
    def test_exp_additivity(self, a, b):
        a = QSeries([0] + list(a.coeffs[1:]))
        b = QSeries([0] + list(b.coeffs[1:]))
        n = min(a.order, b.order)
        assert (a + b).exp() == a.truncate(n).exp() * b.truncate(n).exp()

    @given(series_st(max_order=12))
    @settings(deadline=None)
    def test_log_exp_roundtrip(self, a):
        a = QSeries([0] + list(a.coeffs[1:]))
        assert a.exp().log() == a

    @given(series_st(), series_st())
    def test_leibniz_rule(self, a, b):
        n = min(a.order, b.order)
        lhs = (a * b).qderiv()
        rhs = a.qderiv().truncate(n) * b.truncate(n) + a.truncate(n) * b.qderiv().truncate(n)
        assert lhs == rhs

    @given(series_st(), series_st())
    def test_deriv_commutes_with_add(self, a, b):
        assert (a + b).qderiv() == a.qderiv() + b.qderiv()


# -- integer storage against a Fraction oracle ------------------------------


def assert_stores(series, expected):
    """``series`` holds exactly ``expected``, as integers over one denominator in lowest terms."""
    assert type(series.den) is int and series.den > 0
    assert all(type(c) is int for c in series.nums)
    assert gcd(series.den, *series.nums) == 1
    coeffs = series.coeffs
    assert type(coeffs) is tuple
    assert all(type(c) is F and gcd(c.numerator, c.denominator) == 1 for c in coeffs)
    assert coeffs == tuple(expected)


halves = st.builds(lambda n: F(2 * n + 1, 2), st.integers(-20, 20))

storage_series = st.one_of(
    series_st(max_order=30),
    series_st(max_order=30, coeffs=wide_rationals),
    # Equal denominators whose sums and differences are integers.
    series_st(max_order=30, coeffs=halves),
    series_st(max_order=30, coeffs=st.integers(-(2**70), 2**70)),
    st.integers(0, 30).map(QSeries.zero),
)

scalars = st.one_of(st.integers(-50, 50), rationals, wide_rationals)


class TestStorageAgainstOracle:
    @given(storage_series, storage_series)
    @settings(deadline=None)
    def test_add_and_sub(self, a, b):
        pairs = list(zip(a.coeffs, b.coeffs))
        assert_stores(a + b, [x + y for x, y in pairs])
        assert_stores(a - b, [x - y for x, y in pairs])
        assert_stores(b - a, [y - x for x, y in pairs])

    @given(storage_series)
    def test_neg(self, a):
        assert_stores(-a, [-x for x in a.coeffs])

    @given(storage_series, scalars)
    @settings(deadline=None)
    def test_scalars(self, a, c):
        cs = a.coeffs
        assert_stores(a * c, [x * c for x in cs])
        assert_stores(c * a, [c * x for x in cs])
        assert_stores(a + c, [cs[0] + c, *cs[1:]])
        assert_stores(c + a, [c + cs[0], *cs[1:]])
        assert_stores(a - c, [cs[0] - c, *cs[1:]])
        assert_stores(c - a, [c - cs[0], *[-x for x in cs[1:]]])
        if c == 0:
            with pytest.raises(ZeroDivisionError):
                a / c
        else:
            assert_stores(a / c, [x / F(c) for x in cs])

    @given(storage_series, st.data())
    def test_truncate(self, a, data):
        order = data.draw(st.integers(0, a.order))
        assert_stores(a.truncate(order), a.coeffs[: order + 1])

    @given(storage_series)
    def test_qderiv(self, a):
        assert_stores(a.qderiv(), [n * x for n, x in enumerate(a.coeffs)])

    @given(series_st(max_order=12), st.integers(0, 4))
    @settings(deadline=None)
    def test_pow(self, a, e):
        expected = (F(1),) + (F(0),) * a.order
        for _ in range(e):
            expected = schoolbook_product(expected, a.coeffs)
        assert_stores(a**e, expected)

    @given(storage_series, storage_series)
    def test_eq_is_coefficientwise(self, a, b):
        assert (a == b) == (a.coeffs == b.coeffs)
        assert a == QSeries(a.coeffs)
        # The same coefficients reached by another route compare equal.
        n = min(a.order, b.order)
        assert (a + b) - b == a.truncate(n)

    def test_constructors(self):
        assert_stores(QSeries([F(1, 2), F(1, 3), 0]), [F(1, 2), F(1, 3), F(0)])
        assert_stores(QSeries([F(2, 4), "3/6", 1]), [F(1, 2), F(1, 2), F(1)])
        assert_stores(QSeries.zero(3), [F(0)] * 4)
        assert_stores(QSeries.constant(F(-6, 4), 2), [F(-3, 2), F(0), F(0)])
        assert_stores(QSeries.monomial(F(5, 10), 2, 3), [0, 0, F(1, 2), 0])
        assert_stores(QSeries.from_terms({1: F(1, 2), 3: F(1, 2), 9: 7}, 3), [0, F(1, 2), 0, F(1, 2)])
        assert_stores(QSeries([F(1, 2), F(1, 2)]) + QSeries([F(1, 2), F(-1, 2)]), [1, 0])
        assert_stores(QSeries([F(1, 6), 1]) * 3, [F(1, 2), 3])
        assert_stores(QSeries([F(1, 2), 1]).truncate(0), [F(1, 2)])
        assert_stores(QSeries([2, F(1, 2)]).truncate(0), [2])
        assert_stores(QSeries([F(1, 2), 2]).qderiv(), [0, 2])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: eisenstein(2, 12),
            lambda: eisenstein(3, 12),
            lambda: divisor_like_sum(2, 5, 4, 12),
            lambda: theta_series(1, 5, 20),
            lambda: theta_deriv(1, 5, 2, 20),
            lambda: krank_count_series(3, 1, 15),
            lambda: rank_moment(3, 4, 15, "direct"),
            lambda: rank_moment(3, 4, 15, "combinatorial"),
            lambda: q_pochhammer(4, 12),
            lambda: partition_series(12),
            lambda: mock_eisenstein_family(3, 6, 12).member(6),
        ],
    )
    def test_producers_store_lowest_terms(self, build):
        series = build()
        assert_stores(series, series.coeffs)

    @given(storage_series)
    @settings(deadline=None)
    def test_inverse(self, a):
        cs = a.coeffs
        if cs[0] == 0:
            with pytest.raises(ZeroConstantTermError):
                a.inverse()
            return
        # The recurrence over Fractions, term by term.
        expected = [1 / cs[0]]
        for n in range(1, len(cs)):
            expected.append(-sum(cs[k] * expected[n - k] for k in range(1, n + 1)) / cs[0])
        assert_stores(a.inverse(), expected)

    @given(storage_series)
    @settings(deadline=None)
    def test_log(self, a):
        a = a - a.coeff(0) + 1
        cs = a.coeffs
        # The recurrence n l_n = n a_n - sum_{k<n} k l_k a_{n-k} over Fractions.
        expected = [F(0)]
        for n in range(1, len(cs)):
            acc = sum((k * expected[k] * cs[n - k] for k in range(1, n)), F(0))
            expected.append(cs[n] - acc / n)
        assert_stores(a.log(), expected)


# -- division by a series ----------------------------------------------------


def quotient_oracle(a, b):
    """a / b to the smaller order, by c_n = (a_n - sum_k b_k c_{n-k}) / b_0 over Fractions."""
    x, y = a.coeffs, b.coeffs
    c = []
    for n in range(min(len(x), len(y))):
        c.append((x[n] - sum((y[k] * c[n - k] for k in range(1, n + 1)), F(0))) / y[0])
    return c


nonzero_scalars = st.builds(
    lambda p, q, sign: F(sign * p, q),
    st.integers(1, 20),
    st.integers(1, 12),
    st.sampled_from((1, -1)),
)

divisors = st.one_of(
    # Dense: any coefficients past q^0, over a nonzero constant term of either sign.
    st.builds(lambda b, c: b - b.coeff(0) + c, storage_series, nonzero_scalars),
    # Sparse: a q-Pochhammer symbol, scaled.
    st.builds(
        lambda g, n, c: q_pochhammer(g, n) * c,
        st.integers(0, 10),
        st.integers(0, 30),
        nonzero_scalars,
    ),
)


class TestDivision:
    @given(storage_series, divisors)
    @settings(deadline=None)
    def test_quotient(self, a, b):
        n = min(a.order, b.order)
        quotient = a / b
        assert_stores(quotient, quotient_oracle(a, b))
        assert quotient * b == a.truncate(n)
        assert quotient == a * b.inverse()

    @pytest.mark.parametrize("top", range(8))
    @pytest.mark.parametrize("t", [-1, -2, F(-3, 2)])
    def test_negative_constant_term_at_even_and_odd_top(self, top, t):
        a = QSeries([F(n + 1, 2) for n in range(top + 3)])
        b = QSeries([t] + [n % 3 - 1 for n in range(top)])
        quotient = a / b
        assert quotient.order == top
        assert_stores(quotient, quotient_oracle(a, b))
        assert quotient * b == a.truncate(top)

    @given(storage_series, storage_series)
    def test_zero_constant_term_raises(self, a, b):
        with pytest.raises(ZeroConstantTermError):
            a / (b - b.coeff(0))
