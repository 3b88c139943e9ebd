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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, Tuple

from .errors import ConventionCaseError, WindowTooLargeError

Partition = Tuple[int, ...]

#: Brute-force enumeration ceiling: p(40) = 37338 partitions; ``table Nk``
#: at the ceiling takes about 4 s (Python 3.11, 2-vCPU Intel Xeon).
PARTITION_CEILING = 40


def _descending_partitions(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, reverse-lexicographically, each exactly once."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return tuple(_descending_partitions(n, n))


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


def _k_rank_with_durfee(parts: Partition, k: int, dsizes: Tuple[int, ...]) -> int:
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
    return _k_rank_with_durfee(parts, k, durfee_sizes(parts))


@dataclass(frozen=True)
class CountTable:
    """N_k(m, n) over the rectangle |m| <= max_abs_m, 0 <= n <= max_n.

    Entries outside the window are absent, never implicitly zero; reading
    one raises KeyError.
    """

    k: int
    max_abs_m: int
    max_n: int
    entries: Dict[Tuple[int, int], int] = field(repr=False)

    def count(self, m: int, n: int) -> int:
        return self.entries[(m, n)]

    def in_window(self, m: int, n: int) -> bool:
        return abs(m) <= self.max_abs_m and 0 <= n <= self.max_n


def count_table(k: int, max_abs_m: int, max_n: int) -> CountTable:
    """Brute-force table of N_k(m, n) with all counting conventions applied."""
    if k < 1:
        raise ValueError("statistic index k must be >= 1")
    if max_abs_m < 0 or max_n < 0:
        raise ValueError("window bounds must be non-negative")
    if max_n > PARTITION_CEILING:
        raise WindowTooLargeError(
            f"max_n = {max_n} exceeds the enumeration ceiling {PARTITION_CEILING}"
        )
    entries = {
        (m, n): 0 for m in range(-max_abs_m, max_abs_m + 1) for n in range(max_n + 1)
    }

    def bump(m: int, n: int, delta: int = 1) -> None:
        if abs(m) <= max_abs_m:
            entries[(m, n)] += delta

    for n in range(max_n + 1):
        if k == 1:
            if n == 0:
                bump(0, 0)
            elif n == 1:
                bump(1, 1)
                bump(-1, 1)
                bump(0, 1, -1)
            else:
                for lam in partitions_of(n):
                    bump(crank(lam), n)
        elif k == 2:
            if n >= 1:
                for lam in partitions_of(n):
                    bump(rank(lam), n)
            # N_2(0,0) = 0: the empty partition is not counted.
        else:
            if n >= 1:
                for lam in partitions_of(n):
                    dsizes = durfee_sizes(lam)
                    if len(dsizes) >= k - 1:
                        bump(_k_rank_with_durfee(lam, k, dsizes), n)
            # N_k(m,0) = 0 for k >= 3.
    return CountTable(k=k, max_abs_m=max_abs_m, max_n=max_n, entries=entries)
