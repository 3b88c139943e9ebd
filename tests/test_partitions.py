"""Partition statistics: enumeration, Durfee squares, crank, k-ranks,
and the brute-force count tables with their conventions."""

import gc
from collections import Counter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mockeis import partitions
from mockeis.errors import ConventionCaseError, WindowTooLargeError
from mockeis.functions import rank_moment
from mockeis.partitions import (
    PARTITION_CEILING,
    Partitions,
    _one_free_tally,
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
one_free_st = (
    st.integers(0, 18)
    .map(lambda n: tuple(mu for mu in partitions_of(n) if 1 not in mu))
    .filter(bool)
    .flatmap(st.sampled_from)
)


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

    def test_ceiling(self):
        with pytest.raises(WindowTooLargeError, match="n = 41.*ceiling 40"):
            partitions_of(PARTITION_CEILING + 1)
        assert len(partitions_of(PARTITION_CEILING)) == 37338

    @given(partition_st)
    def test_partitions_are_non_increasing(self, lam):
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert all(p >= 1 for p in lam)


class TestPartitionsView:
    def test_reads_as_a_sequence_of_tuples(self):
        parts = partitions_of(4)
        assert isinstance(parts, Partitions)
        assert len(parts) == 5
        assert parts[1] == (3, 1) and parts[-1] == (1, 1, 1, 1)
        assert parts[1:3] == ((3, 1), (2, 2)) and parts[::-2] == ((1, 1, 1, 1), (2, 2), (4,))
        assert all(type(lam) is tuple for lam in parts)
        assert list(parts) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        with pytest.raises(IndexError):
            parts[5]

    @pytest.mark.parametrize("n", [0, 1, 4, 40])
    def test_equals_the_tuple_of_tuples(self, n):
        parts = partitions_of(n)
        as_tuples = tuple(tuple(lam) for lam in parts.codes)
        assert parts == as_tuples and as_tuples == parts
        assert not parts != as_tuples
        assert parts == Partitions(parts.blob, parts.starts)
        assert parts != as_tuples[1:] and parts != list(as_tuples)

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_reversed_index_and_count_split_the_blob_once(self, n):
        class CountingBlob(bytes):
            splits = 0

            def split(self, *args):
                CountingBlob.splits += 1
                return super().split(*args)

        parts = partitions_of(n)
        view = Partitions(CountingBlob(parts.blob), parts.starts)
        as_tuples = tuple(parts)
        for read, want in [
            (lambda: list(reversed(view)), list(reversed(as_tuples))),
            (lambda: view.index(as_tuples[-1]), len(as_tuples) - 1),
            (lambda: view.index(as_tuples[0], 0, -1), 0),
            (lambda: view.count(as_tuples[-1]), 1),
            (lambda: view.count((n + 1,)), 0),
            (lambda: as_tuples[-1] in view, True),
        ]:
            CountingBlob.splits = 0
            assert (read(), CountingBlob.splits) == (want, 1)
        with pytest.raises(ValueError):
            view.index((n + 1,))
        with pytest.raises(ValueError):
            view.index(as_tuples[-1], 0, -1)

    def test_codes_are_one_byte_per_part(self):
        for n in (0, 1, 4, 17, PARTITION_CEILING):
            codes = partitions_of(n).codes
            assert type(codes) is tuple and all(type(mu) is bytes for mu in codes)
        assert partitions_of(4).codes == (b"\x04", b"\x03\x01", b"\x02\x02", b"\x02\x01\x01", b"\x01" * 4)
        assert partitions_of(0).codes == (b"",)
        assert partitions_of(PARTITION_CEILING).codes[0] == bytes((PARTITION_CEILING,))

    def test_is_read_only(self):
        parts = partitions_of(4)
        with pytest.raises(TypeError):
            parts[0] = (1, 1, 1, 1)
        with pytest.raises(TypeError):
            del parts[0]
        with pytest.raises(AttributeError):
            parts.codes = ()
        with pytest.raises(TypeError):
            hash(parts)
        with pytest.raises(TypeError):
            parts + parts
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


class TestPartitionsBlob:
    def test_block_q_holds_the_codes_led_by_q(self):
        for n in range(1, PARTITION_CEILING + 1):
            parts = partitions_of(n)
            for q in range(1, n + 1):
                block = parts.blob[parts.starts[q] : parts.starts[q - 1] - 1]
                assert block.split(b"\0") == [mu for mu in parts.codes if mu[0] == q]
            assert parts.starts[n] == 0 and parts.starts[0] == len(parts.blob) + 1

    def test_run_led_by_a_pair_is_the_codes_led_by_p_p(self):
        for n in range(4, PARTITION_CEILING + 1):
            parts = partitions_of(n)
            for p in range(2, n // 2 + 1):
                run = partitions._run_led_by_pair(parts, p).split(b"\0")
                assert run == [mu for mu in parts.codes if len(mu) > 1 and mu[0] == mu[1] == p]

    def test_separators_are_single_and_inside(self):
        for n in range(1, PARTITION_CEILING + 1):
            blob = partitions_of(n).blob
            assert b"\0\0" not in blob
            assert not blob.startswith(b"\0") and not blob.endswith(b"\0")
            assert len(partitions_of(n)) == blob.count(b"\0") + 1

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

    def test_the_histogram_never_asks_the_crank_of_one(self, monkeypatch):
        # The cache holds (1,) as b"\x01", which crank's refusal does not
        # match, so the n <= 1 convention must answer before any crank runs.
        def refused(parts):
            raise AssertionError(f"crank({parts!r}) called")

        monkeypatch.setattr(partitions, "crank", refused)
        statistic_histogram.cache_clear()
        try:
            assert statistic_histogram(1, 0) == ((0, 1),)
            assert statistic_histogram(1, 1) == ((-1, 1), (0, -1), (1, 1))
            with pytest.raises(AssertionError, match="crank"):
                statistic_histogram(1, 2)
        finally:
            statistic_histogram.cache_clear()

    @given(partition_st)
    def test_matches_the_two_pass_definition(self, lam):
        assume(lam != (1,))
        assert crank(lam) == _crank_two_pass(lam)


def _crank_two_pass(parts) -> int:
    """The crank read off its definition, one pass for omega and one for mu."""
    omega = sum(1 for p in parts if p == 1)
    if omega == 0:
        return parts[0] if parts else 0
    return sum(1 for p in parts if p > omega) - omega


class TestAppendingAOne:
    # The lemma behind the k >= 3 histogram recurrence.
    @given(partition_st)
    def test_adds_one_unit_durfee_square(self, lam):
        assert durfee_sizes(lam + (1,)) == durfee_sizes(lam) + (1,)

    @given(partition_st, st.integers(3, 7))
    def test_lowers_the_k_rank_by_one(self, lam, k):
        if len(durfee_sizes(lam)) >= k - 1:
            assert k_rank(lam + (1,), k) == k_rank(lam, k) - 1

    @given(one_free_st, st.integers(1, 8))
    def test_closed_form_of_a_ones_tail(self, mu, r):
        # mu + 1^r with exactly k-1 squares has k-rank mu[0] - mu[1].
        k = len(durfee_sizes(mu)) + 1 + r
        assume(k >= 3)
        lam = mu + (1,) * r
        assert len(durfee_sizes(lam)) == k - 1
        expected = mu[0] - (mu[1] if len(mu) > 1 else 1) if mu else 0
        assert k_rank(lam, k) == expected


class TestRemovingATopRowCell:
    # The lemma behind the recurrence of _one_free_tally in n.
    @given(one_free_st)
    def test_keeps_the_squares_and_lowers_the_k_rank_by_one(self, mu):
        assume(mu and mu[0] >= 3 and mu[0] > (mu[1] if len(mu) > 1 else 0))
        nu = (mu[0] - 1,) + mu[1:]
        assert nu in partitions_of(sum(nu)) and 1 not in nu
        squares = durfee_sizes(mu)
        assert durfee_sizes(nu) == squares
        for k in range(3, len(squares) + 2):  # mu has at least k-1 squares
            assert k_rank(nu, k) == k_rank(mu, k) - 1

    def test_walks_p_f_of_n_minus_p_f_of_n_minus_one(self):
        # p_F(n) counts the 1-free partitions of n.  Shifted entries keep their
        # counts, so the tally of n holds p_F(n) only if the walk at n covered
        # exactly the partitions led by (p, p).
        one_free = [[mu for mu in partitions_of(n) if 1 not in mu] for n in range(41)]
        for n in range(3, PARTITION_CEILING + 1):
            led_by_pairs = [mu for mu in one_free[n] if len(mu) > 1 and mu[0] == mu[1]]
            assert len(led_by_pairs) == len(one_free[n]) - len(one_free[n - 1])
            for k in (3, 5, 42):
                entries = filter(None, _one_free_tally(k, n))
                assert sum(sum(counts) for _, counts in entries) == len(one_free[n])


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
            zeroth = rank_moment(k, 0, 14, "direct")
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


def _k_rank_counts(parts, k) -> dict:
    """k-rank counts (k >= 3) over ``parts``, one pass per partition.

    The full-scan reference for the 1-free recurrence of
    ``statistic_histogram``.  Partitions with fewer than k-1 successive
    Durfee squares are skipped.
    """
    counts: dict = {}
    for lam in parts:
        size = len(lam)
        d1 = 0
        while d1 < size and lam[d1] > d1:
            d1 += 1
        pos = d = d1
        for _ in range(k - 2):
            if pos == size:
                break
            d = 0
            while pos + d < size and lam[pos + d] > d:
                d += 1
            pos += d
        else:
            # d = d_{k-1} and rows 0..pos-1 are covered; the k-rank needs no
            # conjugate, as derived in partitions._one_free_tally.
            m = lam[0] - lam[d] - (size - pos)
            counts[m] = counts.get(m, 0) + 1
    return counts


def _one_free_tally_scan(k, n):
    """``_one_free_tally(k, n)`` from a scan of every partition of n.

    The reference for the recurrence in n: it skips the partitions that end
    in a part 1 and walks each other one's squares, at most k-1 of them.
    """
    last = k - 1
    ranks: dict = {}
    tails: dict = {}
    for mu in partitions_of(n):
        if mu[-1] == 1:
            continue
        size = len(mu)
        pos = 1
        while pos < size and mu[pos] > pos:
            pos += 1
        squares = 1
        while pos < size and squares < last:
            d = 1
            while pos + d < size and mu[pos + d] > d:
                d += 1
            pos += d
            squares += 1
        if squares == last:
            m = mu[0] - mu[d] - (size - pos)
            ranks[m] = ranks.get(m, 0) + 1
        else:
            tail = tails.setdefault(squares, {})
            v = mu[0] - (mu[1] if size > 1 else 1)
            tail[v] = tail.get(v, 0) + 1
    entries = [ranks, *(tails.get(s, {}) for s in range(1, max(tails, default=0) + 1))]
    return tuple(tuple(zip(*sorted(counts.items()))) for counts in entries)


class TestStatisticHistogram:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_the_definitional_statistics(self, k):
        for n in range(23):
            assert dict(statistic_histogram(k, n)) == reference_histogram(k, n)

    @pytest.mark.parametrize("k", [*range(3, 13), 20, 41, 42])
    def test_recurrence_at_the_ceiling(self, k):
        # The 1-free scan against the full scan at every n up to the ceiling,
        # the last one forty shifts deep.  k = 41: only 1^40 has k-1 squares;
        # k = 42: k-1 exceeds the squares of every partition there.
        for n in range(PARTITION_CEILING + 1):
            assert dict(statistic_histogram(k, n)) == _k_rank_counts(partitions_of(n), k)

    @pytest.mark.parametrize("k", [*range(3, 13), 20, 41, 42])
    def test_one_free_tally_matches_the_full_scan(self, k):
        for n in range(1, PARTITION_CEILING + 1):
            assert _one_free_tally(k, n) == _one_free_tally_scan(k, n)

    def test_one_free_tally_is_immutable_and_bounded(self):
        tally = _one_free_tally(3, 12)
        assert type(tally) is tuple
        for entry in tally:  # () or (sorted values, their counts)
            assert type(entry) is tuple and len(entry) in (0, 2)
            assert all(type(column) is tuple for column in entry)
        assert _one_free_tally(3, 12) is tally
        for k in (3, 5, 42):
            _one_free_tally.cache_clear()
            statistic_histogram.cache_clear()
            count_table(k, 6, PARTITION_CEILING)
            assert _one_free_tally.cache_info().currsize <= PARTITION_CEILING

    @given(partition_st, st.integers(3, 6))
    def test_single_pass_k_rank_matches_conjugate_route(self, lam, k):
        expected = {k_rank(lam, k): 1} if len(durfee_sizes(lam)) >= k - 1 else {}
        assert _k_rank_counts([lam], k) == expected

            # second square, of size d1.  No conjugate is needed.
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


class TestGarbageCollectorState:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        partitions_of.cache_clear()
        statistic_histogram.cache_clear()
        _one_free_tally.cache_clear()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_enumeration_leaves_the_callers_state(self, gc_state):
        assert len(partitions_of(20)) == 627
        assert gc.isenabled() is gc_state
        statistic_histogram(3, 20)
        statistic_histogram(1, 6)
        assert gc.isenabled() is gc_state

    def test_a_raising_call_leaves_the_callers_state(self, gc_state):
        for call, error in [
            (lambda: partitions_of(-1), ValueError),
            (lambda: partitions_of(PARTITION_CEILING + 1), WindowTooLargeError),
            (lambda: statistic_histogram(3, -1), ValueError),
            (lambda: statistic_histogram(3, PARTITION_CEILING + 1), WindowTooLargeError),
            (lambda: statistic_histogram(0, 5), ValueError),
        ]:
            with pytest.raises(error):
                call()
            assert gc.isenabled() is gc_state

    def test_no_collection_runs_during_a_cold_build(self, gc_state):
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(record)
        try:
            partitions_of(30)
            statistic_histogram(4, 30)
            _one_free_tally(6, 30)
        finally:
            gc.callbacks.remove(record)
        assert starts == []
