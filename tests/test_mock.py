"""The mock Eisenstein family: route agreement, published coefficient
tables, traces, the moment/trace identities, integrality, leading
pattern."""

from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockeis import qseries
from mockeis.bernoulli import bernoulli
from mockeis.errors import MissingMemberError
from mockeis.functions import divisor_like_sum, rank_moment, theta_series
from mockeis.mock import (
    MockFamily,
    ROUTES,
    _WEIGHTS,
    mock_eisenstein_family,
    partition_trace,
    phi_weight,
    psi_weight,
)
from mockeis.partitions import partitions_of
from mockeis.qseries import QSeries, euler_product, partition_series
from mockeis.verify import (
    crank_trace_residuals,
    eisenstein_members,
    integrality_check,
    leading_pattern_check,
    trace_identity_residuals,
)
from mockeis.wjets import build_jet, jet_exp, member_exp, rational_jet, two_sinh_half_over_w

# Published low-order coefficients of f_{k,j}; full prefixes, constants
# included.  (The (4,6) row's q^8 entry appears with a misprinted
# exponent in its source table; the value is confirmed by the recursion.)
KNOWN_TABLES = {
    (3, 2): [F(-1, 24), 0, 0, 1, 3, 5, 7, 9, 11],
    (3, 4): [F(1, 240), 0, 0, 1, 15, 65, 169, 333, 557],
    (3, 6): [F(-1, 504), 0, 0, 1, 63, 665, 3337, 10989, 27581],
    (3, 8): [F(1, 480), 0, 0, 1, 255, 6305, 58849, 319293, 1216037],
    (4, 2): [F(-1, 24), 0, 0, 0, 1, 3, 5, 7, 9, 11],
    (4, 4): [F(1, 240), 0, 0, 0, 1, 15, 65, 175, 363, 635],
    (4, 6): [F(-1, 504), 0, 0, 0, 1, 63, 665, 3367, 11499, 30491],
    (4, 8): [F(1, 480), 0, 0, 0, 1, 255, 6305, 58975, 324963, 1283195],
    (5, 2): [F(-1, 24), 0, 0, 0, 0, 1, 3, 5, 7, 9, 11],
    (5, 4): [F(1, 240), 0, 0, 0, 0, 1, 15, 65, 175, 369, 665],
    (5, 6): [F(-1, 504), 0, 0, 0, 0, 1, 63, 665, 3367, 11529, 31001],
    (5, 8): [F(1, 480), 0, 0, 0, 0, 1, 255, 6305, 58975, 325089, 1288865],
}


class TestFamilyTables:
    @pytest.mark.parametrize("k,j", sorted(KNOWN_TABLES))
    def test_known_coefficients(self, k, j):
        expected = KNOWN_TABLES[(k, j)]
        fam = mock_eisenstein_family(k, 8, len(expected) - 1)
        assert fam.member(j) == QSeries(expected)

    def test_odd_members_vanish(self):
        fam = mock_eisenstein_family(3, 8, 10)
        for j in (1, 3, 5, 7):
            assert fam.member(j).is_zero()

    def test_constant_terms(self):
        fam = mock_eisenstein_family(4, 12, 6)
        for j in range(2, 13, 2):
            assert fam.member(j).coeff(0) == -bernoulli(j) / (2 * j)

    def test_missing_member(self):
        fam = mock_eisenstein_family(3, 6, 8)
        with pytest.raises(MissingMemberError):
            fam.member(8)
        with pytest.raises(MissingMemberError):
            fam.member(0)

    def test_k2_requires_flag(self):
        with pytest.raises(ValueError):
            mock_eisenstein_family(2, 4, 8)
        fam = mock_eisenstein_family(2, 4, 8, allow_k2=True)
        assert fam.extrapolated
        # with k=2 the leading pattern starts at q^2
        assert fam.member(2).coeff(2) == 1


class TestRoutes:
    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_three_routes_agree(self, k):
        families = [
            mock_eisenstein_family(k, 10, 20, route)
            for route in ("recursionA", "recursionB", "logRoute")
        ]
        for j in range(2, 11, 2):
            a, b, c = (fam.member(j) for fam in families)
            assert a == b == c

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            mock_eisenstein_family(3, 4, 8, "newton")

    @given(
        st.integers(3, 5),
        st.sampled_from(ROUTES),
        st.integers(1, 6).map(lambda half: 2 * half),
        st.integers(1, 80).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_route_truncates_across_orders(self, k, route, j, orders):
        # Built separately at both orders: each route's q^M prefix does not
        # depend on the order it ran to.  The cache would serve order m as a
        # truncation of order n, so the low side is built uncached.
        m, n = orders
        high = mock_eisenstein_family(k, j, n, route).member(j)
        low = mock_eisenstein_family.__wrapped__(k, j, m, route).member(j)
        assert high.truncate(m) == low


class TestTraces:
    def test_weights(self):
        assert phi_weight(()) == 1
        assert phi_weight((2,)) == 1
        assert phi_weight((1, 1)) == 2
        assert psi_weight((2,)) == -1
        assert psi_weight((1, 1)) == 2

    def test_trace_zero_is_one(self):
        fam = mock_eisenstein_family(3, 4, 8)
        assert partition_trace(0, fam.member, 8) == QSeries.one(8)

    def test_trace_one_vanishes(self):
        fam = mock_eisenstein_family(3, 4, 8)
        assert partition_trace(1, fam.member, 8).is_zero()

    def test_trace_two_is_first_member(self):
        fam = mock_eisenstein_family(3, 4, 8)
        assert partition_trace(2, fam.member, 8) == fam.member(2)

    def test_trace_beyond_family_range(self):
        fam = mock_eisenstein_family(3, 4, 8)
        with pytest.raises(MissingMemberError):
            partition_trace(6, fam.member, 8)

    @pytest.mark.parametrize("weight,scale", [("phi", 2), ("psi", -2)])
    @pytest.mark.parametrize("family", ["k=3", "k=4", "eisenstein"])
    def test_cycle_index_consistency(self, family, weight, scale):
        # sum_n Tr_n(weight, f) w^n = exp(scale * sum_j f_j w^j / j!), the
        # exponential formula: by enumeration, by member_exp, and by a jet
        # built here by hand, so that member_exp is not its own reference.
        order, top = 30, 16
        if family == "eisenstein":
            members = eisenstein_members(order)
        else:
            members = mock_eisenstein_family(int(family[-1]), top, order).member
        expo = jet_exp(
            build_jet(
                {
                    j: members(j) * F(scale, factorial(j))
                    for j in range(2, top + 1, 2)
                },
                2,
                top,
                order,
            )
        )
        helper = member_exp(members, scale, top, order)
        monomials = {}
        for n in range(top + 1):
            trace = partition_trace(n, members, order, weight, monomials)
            assert trace == expo.coeff(n) == helper.coeff(n)

    def test_a_trace_resolves_each_part_once(self):
        # Tr_n walks every partition of n, but asks for each part's member once.
        fam = mock_eisenstein_family(3, 12, 20)
        calls = Counter()

        def counted(j):
            calls[j] += 1
            return fam.member(j)

        for n in range(13):
            calls.clear()
            assert partition_trace(n, counted, 20) == partition_trace(n, fam.member, 20)
            assert sum(calls.values()) <= n


    @pytest.mark.parametrize("weight", ["phi", "psi"])
    def test_shared_monomials(self, weight, monkeypatch):
        # Members with every part size alive, and a family whose odd members vanish.
        order = 12
        dense = {j: QSeries([F(j, 3), -j, 1, *range(order - 2)]) for j in range(1, 11)}
        fam = mock_eisenstein_family(3, 10, order)
        for members in (dense.__getitem__, fam.member):
            fresh = [partition_trace(n, members, order, weight) for n in range(11)]
            # The product of member powers for each partition, as the definition reads.
            for n, trace in enumerate(fresh):
                expected = QSeries.zero(order)
                for lam in partitions_of(n):
                    term = QSeries.one(order)
                    for part, mult in Counter(lam).items():
                        term = term * members(part) ** mult
                    expected = expected + term * _WEIGHTS[weight](lam)
                assert trace == expected
            for ns in (range(11), range(10, -1, -1)):
                monomials = {}
                shared = {n: partition_trace(n, members, order, weight, monomials) for n in ns}
                assert [shared[n] for n in range(11)] == fresh
            # A second pass over the same dict finds every monomial built.
            kernel = qseries._kronecker_product
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    qseries, "_kronecker_product", lambda a, b: calls.append(len(a)) or kernel(a, b)
                )
                again = [partition_trace(n, members, order, weight, monomials) for n in range(11)]
            assert again == fresh
            assert calls == []

    def test_a_trace_drops_the_monomials_no_later_trace_reads(self):
        # A trace of n leaves no mu with |mu| + mu[-1] <= n, and keeps the
        # nonzero monomial of each partition of n.
        order = 10
        dense = {j: QSeries([F(j, 5), 1, -j, *range(order - 2)]) for j in range(1, 13)}
        fam = mock_eisenstein_family(3, 12, order)
        for members in (dense.__getitem__, fam.member):
            monomials = {}
            for n in range(13):
                partition_trace(n, members, order, "phi", monomials)
                assert all(sum(mu) + mu[-1] > n for mu in monomials)
                codes = partitions_of(n).codes if n else ()  # () is never stored
                live = {mu for mu in codes if not any(members(p).is_zero() for p in mu)}
                assert live <= monomials.keys()
            assert len(monomials) >= len(live) > 0

    @pytest.mark.parametrize("weight", ["phi", "psi"])
    def test_out_of_order_traces_share_one_dict(self, weight):
        # The dropped monomials are only a cache: any order of sizes, with
        # gaps and repeats, gives the fresh traces.
        order = 10
        dense = {j: QSeries([F(j, 7), -1, j, *range(order - 2)]) for j in range(1, 13)}
        fam = mock_eisenstein_family(4, 12, order)
        for members in (dense.__getitem__, fam.member):
            fresh = [partition_trace(n, members, order, weight) for n in range(13)]
            for ns in ([12, 3, 7, 7, 0, 11, 2, 9], [5, 6, 1, 12, 4, 10, 8, 12, 2]):
                monomials = {}
                assert [partition_trace(n, members, order, weight, monomials) for n in ns] == [
                    fresh[n] for n in ns
                ]

    def test_recursion_b_products(self, monkeypatch):
        # Each monomial and each trace is built once: 28 products at (4, 12, 100).
        kernel = qseries._kronecker_product
        calls = []
        monkeypatch.setattr(
            qseries, "_kronecker_product", lambda a, b: calls.append(len(a)) or kernel(a, b)
        )
        family = mock_eisenstein_family.__wrapped__(4, 12, 100, "recursionB")
        assert len(calls) <= 40
        assert family == mock_eisenstein_family(4, 12, 100, "recursionA")._replace(
            route="recursionB"
        )


class TestTraceIdentity:
    def test_residuals_vanish(self):
        residuals = trace_identity_residuals(3, 6, 15)
        assert all(r.is_zero() for r in residuals)

    def test_w2_coefficient_relation(self):
        # The w^2 layer states R_{k,2}/2 = (f_{k,2} + 1/24)/(q)_inf.
        k, order = 4, 18
        fam = mock_eisenstein_family(k, 2, order)
        lhs = rank_moment(k, 2, order, "direct") / 2
        rhs = (fam.member(2) + F(1, 24)) * partition_series(order)
        assert lhs == rhs

    def test_uncorrected_identity_fails_at_w0(self):
        # Dropping the theta shift breaks the w^0 layer at q^{k-1}.
        k, order = 3, 10
        zeroth = rank_moment(k, 0, order, "direct")
        assert zeroth != partition_series(order)
        assert zeroth.coeff(k - 1) != partition_series(order).coeff(k - 1)

    def test_crank_analogue(self):
        residuals = crank_trace_residuals(6, 12)
        assert all(r.is_zero() for r in residuals)

    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_moment_g_sum_bridge(self, k):
        # (w/(2 sinh(w/2))) [ (q)_inf sum_j R_{k,j} w^j/j! + theta_{1,2k-1} ]
        #   = 1 + sum_j (j g_{2,2k-1,j}/2^{j-2}) w^j/j!,
        # the identity the log route reads its members from.
        top, order = 10, 30
        e = euler_product(order)
        entries = {
            j: (rank_moment(k, j, order, "direct") * e) / factorial(j)
            for j in range(top + 1)
        }
        entries[0] = entries[0] + theta_series(1, 2 * k - 1, order)
        lhs = rational_jet(two_sinh_half_over_w(top).inverse(), order) * build_jet(
            entries, 0, top, order
        )
        assert lhs.coeff(0) == QSeries.one(order)
        for j in range(1, top + 1):
            if j % 2:
                assert lhs.coeff(j).is_zero()
            else:
                g = divisor_like_sum(2, 2 * k - 1, j, order)
                assert lhs.coeff(j) == g * F(j, 2 ** (j - 2) * factorial(j))

    def test_eisenstein_members_accessor(self):
        members = eisenstein_members(8)
        assert members(3).is_zero()
        assert members(2).coeff(0) == F(-1, 24)
        with pytest.raises(MissingMemberError):
            members(0)


class TestIntegrality:
    def test_family_passes(self):
        fam = mock_eisenstein_family(3, 8, 25)
        assert integrality_check(fam).passed

    def test_trivial_families_pass(self):
        # vacuous: nothing to check
        empty = MockFamily(
            k=3, max_j=0, order=6, route="recursionA", extrapolated=False,
            members={},
        )
        assert integrality_check(empty).passed
        # zero in the shifted sense: members carry only their forced
        # constants, so every shifted coefficient is 0
        constants_only = MockFamily(
            k=3, max_j=4, order=6, route="recursionA", extrapolated=False,
            members={
                2: QSeries.constant(-bernoulli(2) / 4, 6),
                4: QSeries.constant(-bernoulli(4) / 8, 6),
            },
        )
        assert integrality_check(constants_only).passed

    def test_perturbed_family_fails(self):
        base = mock_eisenstein_family(3, 4, 10)
        members = dict(base.members)
        members[4] = members[4] + QSeries.monomial(F(1, 2), 3, 10)
        bad = MockFamily(
            k=3, max_j=4, order=10, route="recursionA", extrapolated=False,
            members=members,
        )
        assert integrality_check(bad) == (
            "integrality: k=3, j<=4, order 10",
            False,
            "member j=4: coefficient of q^3 is 3/2",
        )

    def test_cached_family_is_read_only(self):
        fam = mock_eisenstein_family(3, 4, 10)
        with pytest.raises(TypeError):
            fam.members[2] = QSeries.monomial(F(1, 2), 3, 10)
        assert integrality_check(mock_eisenstein_family(3, 4, 10)).passed

    def test_family_does_not_alias_the_callers_dict(self):
        members = {2: QSeries.constant(-bernoulli(2) / 4, 6)}
        fam = MockFamily(
            k=3, max_j=2, order=6, route="recursionA", extrapolated=False,
            members=members,
        )
        members[2] = QSeries.monomial(F(1, 2), 3, 6)
        assert integrality_check(fam).passed


class TestLeadingPattern:
    def test_k3_j4(self):
        fam = mock_eisenstein_family(3, 4, 6)
        assert [fam.member(4).coeff(3 + i) for i in range(3)] == [1, 15, 65]
        assert leading_pattern_check(3, 4, 6, fam).passed

    def test_k5_j2(self):
        fam = mock_eisenstein_family(5, 2, 10)
        assert [fam.member(2).coeff(5 + i) for i in range(5)] == [1, 3, 5, 7, 9]
        assert leading_pattern_check(5, 2, 10, fam).passed

    def test_k4_j8(self):
        fam = mock_eisenstein_family(4, 8, 8)
        assert [fam.member(8).coeff(4 + i) for i in range(4)] == [
            1, 255, 6305, 58975,
        ]
        assert leading_pattern_check(4, 8, 8, fam).passed

    def test_detects_wrong_coefficient(self):
        base = mock_eisenstein_family(3, 4, 6)
        members = dict(base.members)
        members[4] = members[4] + QSeries.monomial(1, 4, 6)
        bad = MockFamily(
            k=3, max_j=4, order=6, route="recursionA", extrapolated=False,
            members=members,
        )
        assert leading_pattern_check(3, 4, 6, bad) == (
            "pattern: f_{3,4} leading coefficients",
            False,
            "coefficient of q^4 is 16, expected 15",
        )

    def test_detects_wrong_constant(self):
        members = {2: mock_eisenstein_family(3, 2, 6).member(2) + 1}
        bad = MockFamily(
            k=3, max_j=2, order=6, route="recursionA", extrapolated=False,
            members=members,
        )
        assert leading_pattern_check(3, 2, 6, bad) == (
            "pattern: f_{3,2} leading coefficients",
            False,
            "constant 23/24 != -1/24",
        )

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            leading_pattern_check(3, 4, 4)
