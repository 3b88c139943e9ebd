"""Partition statistics: enumeration, Durfee squares, crank, k-ranks,
and the brute-force count tables with their conventions."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mockeis.errors import ConventionCaseError, WindowTooLargeError
from mockeis.functions import rank_moment
from mockeis.partitions import (
    PARTITION_CEILING,
    _k_rank_counts,
    count_table,
    crank,
    durfee_sizes,
    k_rank,
    partitions_of,
    rank,
    statistic_histogram,
)
from tests.test_qseries import pentagonal_partition_counts

partition_st = st.integers(0, 18).map(lambda n: partitions_of(n)).flatmap(st.sampled_from)


class TestEnumeration:
    def test_empty(self):
        assert partitions_of(0) == ((),)

    def test_small_count(self):
        assert len(partitions_of(4)) == 5

    def test_reverse_lex_order(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_counts_against_recurrence(self):
        counts = pentagonal_partition_counts(30)
        for n in (7, 12, 20, 30):
            parts = partitions_of(n)
            assert len(parts) == counts[n]
            assert len(set(parts)) == counts[n]
        assert len(partitions_of(30)) == 5604

    def test_matches_a_recursive_generator(self):
        def descending(n, largest):
            if n == 0:
                yield ()
                return
            for first in range(min(n, largest), 0, -1):
                for rest in descending(n - first, first):
                    yield (first,) + rest

        for n in range(26):
            assert partitions_of(n) == tuple(descending(n, n))

    @given(partition_st)
    def test_partitions_are_non_increasing(self, lam):
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert all(p >= 1 for p in lam)


class TestDurfee:
    def test_worked_diagram(self):
        assert durfee_sizes((7, 4, 4, 3, 2, 1)) == (3, 2, 1)

    def test_empty(self):
        assert durfee_sizes(()) == ()

    def test_stacked_unit_squares(self):
        assert durfee_sizes((1, 1)) == (1, 1)

    @given(partition_st)
    def test_weakly_decreasing_and_bounded(self, lam):
        d = durfee_sizes(lam)
        assert all(a >= b for a, b in zip(d, d[1:]))
        assert sum(d) <= len(lam)


class TestCrank:
    def test_no_ones_branch(self):
        assert crank((4,)) == 4

    def test_with_ones(self):
        assert crank((2, 1, 1)) == -2

    def test_empty(self):
        assert crank(()) == 0

    def test_partition_of_one_refused(self):
        with pytest.raises(ConventionCaseError):
            crank((1,))


class TestAppendingAOne:
    # The lemma behind the k >= 3 histogram recurrence.
    @given(partition_st)
    def test_adds_one_unit_durfee_square(self, lam):
        assert durfee_sizes(lam + (1,)) == durfee_sizes(lam) + (1,)

    @given(partition_st, st.integers(3, 7))
    def test_lowers_the_k_rank_by_one(self, lam, k):
        if len(durfee_sizes(lam)) >= k - 1:
            assert k_rank(lam + (1,), k) == k_rank(lam, k) - 1


class TestKRank:
    def test_rank_is_two_rank(self):
        assert k_rank((5, 2, 1), 2) == rank((5, 2, 1)) == 2

    def test_worked_diagram(self):
        assert k_rank((7, 4, 4, 3, 2, 1), 3) == 2

    def test_small_cases(self):
        assert k_rank((2, 1), 3) == 1
        assert k_rank((1, 1, 1), 3) == -1

    def test_too_few_durfee_squares(self):
        assert k_rank((5,), 3) == 0

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            k_rank((2, 1), 1)


class TestCountTable:
    def test_crank_conventions_at_one(self):
        table = count_table(1, 2, 3)
        assert table.count(0, 1) == -1
        assert table.count(1, 1) == 1
        assert table.count(-1, 1) == 1
        assert table.count(0, 0) == 1

    def test_rank_convention_at_zero(self):
        assert count_table(2, 2, 2).count(0, 0) == 0

    def test_nk_vanishes_at_zero(self):
        table = count_table(3, 4, 4)
        assert all(table.count(m, 0) == 0 for m in range(-4, 5))

    def test_three_rank_small_values(self):
        table = count_table(3, 3, 4)
        assert table.count(0, 2) == 1
        assert {m: table.count(m, 3) for m in (-1, 0, 1)} == {-1: 1, 0: 0, 1: 1}
        assert {m: table.count(m, 4) for m in (-2, 0, 2)} == {-2: 1, 0: 1, 2: 1}

    def test_out_of_window_is_absent(self):
        table = count_table(3, 2, 4)
        with pytest.raises(KeyError):
            table.count(3, 2)
        with pytest.raises(KeyError):
            table.count(0, 5)

    def test_window_ceiling(self):
        with pytest.raises(WindowTooLargeError):
            count_table(3, 2, 41)

    def test_stores_only_nonzero_counts(self):
        table = count_table(3, 2000, 40)
        nonzero = sum(len(statistic_histogram(3, n)) for n in range(41))
        assert len(table.entries) == nonzero
        assert table.count(2000, 40) == table.count(-1500, 7) == 0
        with pytest.raises(KeyError):
            table.count(2001, 40)
        with pytest.raises(KeyError):
            table.count(0, 41)

    def test_symmetry_in_m(self):
        for k in (1, 2, 3, 4, 5):
            table = count_table(k, 8, 12)
            for m in range(0, 9):
                for n in range(13):
                    assert table.count(m, n) == table.count(-m, n)

    def test_column_sums_match_zeroth_moment(self):
        # sum_m N_k(m, n) counts partitions with >= k-1 successive Durfee
        # squares, the q^n coefficient of the zeroth rank moment.
        for k in (3, 4):
            table = count_table(k, 14, 14)
            zeroth = rank_moment(k, 0, 14, "direct").series
            for n in range(15):
                total = sum(table.count(m, n) for m in range(-14, 15))
                assert total == zeroth.coeff(n)


def reference_histogram(k, n):
    """N_k(., n) from the definitional statistics, conventions written out."""
    if k == 1 and n == 0:
        return Counter({0: 1})  # N_1(0,0) = 1: the empty partition has crank 0
    if k == 1 and n == 1:
        return Counter({-1: 1, 0: -1, 1: 1})  # the n = 1 crank convention
    if n == 0:
        return Counter()  # N_2(0,0) = 0 and N_k(m,0) = 0 for k >= 3
    if k == 1:
        return Counter(crank(lam) for lam in partitions_of(n))
    if k == 2:
        return Counter(rank(lam) for lam in partitions_of(n))
    # k >= 3: only partitions with at least k-1 successive Durfee squares.
    return Counter(
        k_rank(lam, k) for lam in partitions_of(n) if len(durfee_sizes(lam)) >= k - 1
    )


class TestStatisticHistogram:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_the_definitional_statistics(self, k):
        for n in range(23):
            assert dict(statistic_histogram(k, n)) == reference_histogram(k, n)

    @pytest.mark.parametrize("k", range(3, 8))
    def test_recurrence_at_the_ceiling(self, k):
        # Forty shifts deep: the whole chain of N_k(., n-1) back to n = 0.
        n = PARTITION_CEILING
        assert dict(statistic_histogram(k, n)) == _k_rank_counts(partitions_of(n), k)

    @given(partition_st, st.integers(3, 6))
    def test_single_pass_k_rank_matches_conjugate_route(self, lam, k):
        expected = {k_rank(lam, k): 1} if len(durfee_sizes(lam)) >= k - 1 else {}
        assert _k_rank_counts([lam], k) == expected

    @given(partition_st.filter(bool), st.integers(3, 7))
    def test_fresh_counts_only_partitions_new_at_n(self, lam, k):
        # New at n: not lam' + (1,) for a lam' with at least k-1 squares.
        squares = len(durfee_sizes(lam))
        new = squares == k - 1 or (squares > k - 1 and lam[-1] != 1)
        expected = {k_rank(lam, k): 1} if new else {}
        assert _k_rank_counts([lam], k, fresh=True) == expected

    def test_sorted_without_zero_counts(self):
        for k in (1, 2, 3, 5):
            for n in (0, 1, 9, 16):
                hist = statistic_histogram(k, n)
                assert [m for m, _ in hist] == sorted({m for m, _ in hist})
                assert all(count != 0 for _, count in hist)

    def test_cached_result_is_immutable(self):
        hist = statistic_histogram(3, 12)
        assert type(hist) is tuple
        assert all(type(pair) is tuple for pair in hist)
        assert statistic_histogram(3, 12) is hist

    def test_bounds(self):
        with pytest.raises(WindowTooLargeError):
            statistic_histogram(3, 41)
        with pytest.raises(ValueError):
            statistic_histogram(3, -1)
        with pytest.raises(ValueError):
            statistic_histogram(0, 5)
