"""Integer partitions and their combinatorial statistics.

A partition is a non-increasing tuple of positive integers; the empty
tuple is the unique partition of 0.  This module supplies enumeration,
successive Durfee squares, the crank, the family of k-ranks, and the
brute-force count tables N_k(m, n) that anchor every series identity in
the package.

Counting conventions:
  * N_1 (crank counts): N_1(-1,1) = N_1(1,1) = 1 and N_1(0,1) = -1.
  * N_2 (rank counts): N_2(0,0) = 0.
  * N_k for k >= 3: N_k(m,0) = 0, and only partitions with at least
    k-1 successive Durfee squares are counted.
The n = 1 crank convention lives here in the counting code; the crank
statistic itself refuses the partition (1).

Every count is read from the cached :func:`statistic_histogram`: one walk
of ``partitions_of(n)`` for the crank and the rank, and for k >= 3
N_k(., n-1) shifted by one plus the k-ranks of the partitions new at n.
:func:`count_table` and the combinatorial moments in :mod:`mockeis.functions`
only read those histograms; ``crank``, ``rank``, ``k_rank``,
``durfee_sizes`` and ``conjugate`` are the definitional statistics they are
tested against.  ``table Nk`` at the ceiling takes about 0.3 s cold.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice, repeat
from typing import Dict, Iterable, Iterator, Tuple

from .errors import ConventionCaseError, WindowTooLargeError

Partition = Tuple[int, ...]

#: Brute-force enumeration ceiling: p(40) = 37338 partitions; ``table Nk
#: --maxm 6 --maxn 40`` takes about 0.3 s as a cold CLI process (median
#: 0.30 s for k = 3 over 76 runs and 0.33 s for k = 5 over 73 in BENCH_4.json,
#: Python 3.11 on a 2-vCPU Intel Xeon, at perfbench's reference host speed).
PARTITION_CEILING = 40


def _partitions_led_by(p: int, n: int) -> Iterator[Partition]:
    """(p,) + mu over the partitions mu of n - p with first part <= p."""
    rest = partitions_of(n - p)  # reverse-lex: those led by <= p are a suffix
    start = bisect_left(rest, -p, key=lambda mu: -mu[0])
    return map((p,).__add__, islice(rest, start, None))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographically, each exactly once."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        return ((),)
    # (n,), then the blocks led by n-1 .. 1, with no intermediate list.
    blocks = map(_partitions_led_by, range(n - 1, 0, -1), repeat(n))
    return tuple(chain(((n,),), chain.from_iterable(blocks)))


def conjugate(parts: Partition) -> Partition:
    """Column lengths of the Ferrers diagram (the conjugate partition)."""
    if not parts:
        return ()
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def durfee_sizes(parts: Partition) -> Tuple[int, ...]:
    """Sizes of the successive Durfee squares.

    The first entry is the largest r with at least r parts of size >= r;
    each later entry is the Durfee size of the rows strictly below the
    previous square.  Empty partition -> empty tuple.
    """
    sizes = []
    rest = tuple(parts)
    while rest:
        d = 0
        for r in range(1, len(rest) + 1):
            if rest[r - 1] >= r:
                d = r
            else:
                break
        sizes.append(d)
        rest = rest[d:]
    return tuple(sizes)


def crank(parts: Partition) -> int:
    """Crank: largest part if there are no ones, else mu - omega.

    omega = number of ones, mu = number of parts exceeding omega.
    The partition (1) is refused; its counts are a convention handled by
    :func:`count_table`.
    """
    if parts == (1,):
        raise ConventionCaseError(
            "crank of (1) is defined only through the n = 1 counting convention"
        )
    omega = sum(1 for p in parts if p == 1)
    if omega == 0:
        return parts[0] if parts else 0
    mu = sum(1 for p in parts if p > omega)
    return mu - omega


def rank(parts: Partition) -> int:
    """Largest part minus number of parts."""
    return (parts[0] - len(parts)) if parts else 0


def k_rank(parts: Partition, k: int) -> int:
    """Garvan's k-rank; k = 2 is the ordinary rank.

    For k >= 3: the number of columns right of the first Durfee square
    of length <= d_{k-1}, minus the number of parts below the (k-1)-th
    Durfee square.  Partitions with fewer than k-1 successive Durfee
    squares get 0.
    """
    if k < 2:
        raise ValueError("k-rank requires k >= 2")
    if k == 2:
        return rank(parts)
    dsizes = durfee_sizes(parts)
    if len(dsizes) < k - 1:
        return 0
    d1 = dsizes[0]
    bound = dsizes[k - 2]
    cols = conjugate(parts)
    # Columns strictly right of the first Durfee square; lengths over the
    # whole diagram coincide with lengths right of the square because the
    # rows below it never reach past column d1.
    right = sum(1 for j in range(d1, len(cols)) if cols[j] <= bound)
    below = len(parts) - sum(dsizes[: k - 1])
    return right - below


def _k_rank_counts(parts: Iterable[Partition], k: int, fresh=False) -> Dict[int, int]:
    """k-rank counts (k >= 3) over ``parts``, one pass per partition.

    Partitions with fewer than k-1 successive Durfee squares are skipped.
    With ``fresh``, so are those ending in a part 1 with more than k-1
    squares: they are lam + (1,) for a lam with at least k-1 squares.
    """
    counts: Dict[int, int] = {}
    for lam in parts:
        size = len(lam)
        ends_in_one = fresh and lam[-1] == 1
        if ends_in_one and size >= k and lam[size - k + 1] == 1:
            continue  # k-1 trailing ones below other rows: k or more squares
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
            # d = d_{k-1}, and the k-1 squares cover rows 0..pos-1.  Column c
            # has length #{i : lam[i] > c}, which is <= d exactly when
            # lam[d] <= c; lam[d] exists, as pos >= d1 + d > d.  The columns
            # right of the first square with length <= d are therefore
            # c = max(d1, lam[d]) .. lam[0]-1, and lam[d] >= d1 always: if
            # d < d1, lam[d] >= lam[d1-1] >= d1; if d = d1, row d1 starts the
            # second square, of size d1.  No conjugate is needed.
            if ends_in_one and pos < size:
                continue
            m = lam[0] - lam[d] - (size - pos)
            counts[m] = counts.get(m, 0) + 1
    return counts


@lru_cache(maxsize=None)
def statistic_histogram(k: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """The nonzero N_k(m, n) as sorted (m, count) pairs, conventions applied.

    k = 1 is the crank, k = 2 the rank and k >= 3 the k-rank.  The cache
    holds at most PARTITION_CEILING + 1 entries per k.
    """
    if k < 1:
        raise ValueError("statistic index k must be >= 1")
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n > PARTITION_CEILING:
        raise WindowTooLargeError(
            f"n = {n} exceeds the enumeration ceiling {PARTITION_CEILING}"
        )
    if k == 1 and n <= 1:
        counts = {0: 1} if n == 0 else {-1: 1, 0: -1, 1: 1}
    elif n == 0:
        counts = {}  # N_2(0,0) = 0 and N_k(m,0) = 0 for k >= 3
    elif k >= 3:
        # Appending a part 1 keeps every Durfee square and adds a unit square
        # below them.  If lam has at least k-1 squares, d_1, d_{k-1} and the
        # columns right of the first square stay, and one more part lies
        # below the (k-1)-th square: k-rank(lam + (1,)) = k-rank(lam) - 1.
        # That gives N_k(., n-1) shifted by -1.  New at n are the 1-free
        # partitions with at least k-1 squares and those ending in 1 with
        # exactly k-1, among them 1^(k-1).
        counts = Counter({m - 1: c for m, c in statistic_histogram(k, n - 1)})
        counts.update(_k_rank_counts(partitions_of(n), k, fresh=True))
    else:
        counts = Counter(map(crank if k == 1 else rank, partitions_of(n)))
    return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class CountTable:
    """N_k(m, n) over the rectangle |m| <= max_abs_m, 0 <= n <= max_n.

    ``entries`` holds the nonzero counts only: an absent pair inside the
    window counts 0, and reading a pair outside the window raises KeyError.
    """

    k: int
    max_abs_m: int
    max_n: int
    entries: Dict[Tuple[int, int], int] = field(repr=False)

    def count(self, m: int, n: int) -> int:
        if not self.in_window(m, n):
            raise KeyError((m, n))
        return self.entries.get((m, n), 0)

    def in_window(self, m: int, n: int) -> bool:
        return abs(m) <= self.max_abs_m and 0 <= n <= self.max_n


def count_table(k: int, max_abs_m: int, max_n: int) -> CountTable:
    """Brute-force table of N_k(m, n): a window on :func:`statistic_histogram`."""
    if max_abs_m < 0 or max_n < 0:
        raise ValueError("window bounds must be non-negative")
    if max_n > PARTITION_CEILING:
        raise WindowTooLargeError(
            f"max_n = {max_n} exceeds the enumeration ceiling {PARTITION_CEILING}"
        )
    entries = {
        (m, n): count
        for n in range(max_n + 1)
        for m, count in statistic_histogram(k, n)
        if abs(m) <= max_abs_m
    }
    return CountTable(k=k, max_abs_m=max_abs_m, max_n=max_n, entries=entries)
