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
of ``partitions_of(n)`` for the crank and the rank.  For k >= 3 it is
1-free partitions plus a closed form for the ones-tails: N_k(., n-1)
shifted by one, plus what the partitions of n with no part 1 and, through
their ones-tails, those of n-1 .. n-k+2 contribute, read from a cached
tally: that of n-1 shifted by one, plus a walk of those led by (p, p).
Beside the blob of all its partitions, ``partitions_of(n)`` keeps an index
of the ones with no part 1, built in the same pass, and the walk splits
only its runs led by (p, p) (see :class:`Partitions`).  :func:`count_table`
and the combinatorial moments in :mod:`mockeis.functions` only read those
histograms; ``crank``, ``rank``, ``k_rank``, ``durfee_sizes`` and
``conjugate`` are the definitional statistics they are tested against.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain
from typing import Iterator, Tuple

from .errors import ConventionCaseError, WindowTooLargeError
from .flags import PARTITION_CEILING

Partition = Tuple[int, ...]

assert PARTITION_CEILING <= 255  # so that every part fits in one byte of a code


def _refuse_above_the_ceiling(name: str, n: int) -> None:
    if n > PARTITION_CEILING:
        raise WindowTooLargeError(
            f"{name} = {n} exceeds the enumeration ceiling {PARTITION_CEILING}")


class Partitions(Sequence):
    """The partitions of one n as a read-only sequence of tuples.

    ``blob`` holds them as one ``bytes``: a code of one byte per part for
    each partition, joined by ``b"\\0"`` (no part is 0).  ``starts[q]`` is the
    offset of the first code led by q, and ``starts[0]`` is one past the end.
    Up to the ceiling the blobs take 2.56 MB (``sys.getsizeof``), against
    10.7 MiB as one ``bytes`` per partition.  ``codes``, that tuple of
    ``bytes``, is split afresh on every read, and indexing reads it, so
    indexing in a loop is quadratic: iterate, or read ``codes`` once.  Every
    other read, ``reversed`` and ``index`` included, splits it once; the
    length is counted on the first ``len()``.  The view equals the tuple of
    its tuples; it is not hashable, and has no ``+``.

    For n >= 2, ``partitions_of(n)`` also keeps an index of the codes with no
    part 1, which the k-rank tally walks: ``one_free`` joins them in the same
    order and ``one_free_starts[q]`` is the offset of the first led by at most
    q (one past the end if none), and ``pair_runs`` slices out of ``one_free``
    each nonempty run led by a pair (p, p), p descending.  Up to the ceiling
    the index adds 333,009 bytes (``sys.getsizeof`` of its blobs, tuples and
    slices; 302,161 of them the blobs).  A view built from ``blob`` and
    ``starts`` alone has an empty index.
    """

    __slots__ = ("_blob", "_starts", "_len", "_one_free", "_one_free_starts", "_pair_runs")

    def __init__(self, blob: bytes, starts: Tuple[int, ...], one_free: bytes = b"",
                 one_free_starts: Tuple[int, ...] = (), pair_runs: Tuple[slice, ...] = ()):
        self._blob, self._starts, self._len = blob, starts, None
        self._one_free, self._one_free_starts, self._pair_runs = one_free, one_free_starts, pair_runs

    blob = property(lambda self: self._blob)
    starts = property(lambda self: self._starts)
    codes = property(lambda self: tuple(self._blob.split(b"\0")))
    one_free = property(lambda self: self._one_free)
    one_free_starts = property(lambda self: self._one_free_starts)
    pair_runs = property(lambda self: self._pair_runs)

    def __len__(self) -> int:
        if self._len is None:
            self._len = self._blob.count(b"\0") + 1
        return self._len

    def __getitem__(self, index):
        codes = self.codes[index]
        return tuple(map(tuple, codes)) if isinstance(index, slice) else tuple(codes)

    def __iter__(self) -> Iterator[Partition]:
        return map(tuple, self._blob.split(b"\0"))

    def __reversed__(self) -> Iterator[Partition]:
        return map(tuple, reversed(self.codes))

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        return tuple(self).index(value, start, len(self) if stop is None else stop)

    def __eq__(self, other) -> bool:  # defining it leaves __hash__ None
        if isinstance(other, Partitions):
            return self._blob == other._blob
        return tuple(self) == other

    def __repr__(self) -> str:
        return f"Partitions({tuple(self)!r})"


def _prefixed(blob: bytes, start: int, stop: int | None, sep_lead: bytes) -> bytes:
    """``sep_lead`` before each code of ``blob[start:stop]``, which starts a code and ends one."""
    return (blob[start - 1 : stop] if start else b"\0" + blob[:stop]).replace(b"\0", sep_lead)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Partitions:
    """All partitions of n, reverse-lexicographically, each once: a cached read-only view."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    _refuse_above_the_ceiling("n", n)
    if n == 0:
        return Partitions(b"", (1,))
    if n == 1:  # no larger n reads the 1-free index of 1
        return Partitions(b"\x01", (2, 0))
    # (n,), then block p for p = n-1 .. 1: a separator, then p before each code
    # of n-p led by <= p, cut from the blob of n-p.  Block p of the 1-free
    # codes is cut the same way from those of n-p, for 2 <= p <= n-2; at
    # p <= n-p it opens with the run led by (p, p), which is cut on its own.
    blocks, free_blocks, runs = [bytes((n,))], [bytes((n,))], []
    starts, free_starts = [0] * (n + 1), [0] * (n + 1)
    size = free_size = 1
    for p in range(n - 1, 0, -1):
        rest, sep_lead = partitions_of(n - p), bytes((0, p))
        starts[p], free_starts[p] = size + 1, free_size + 1
        blocks.append(_prefixed(rest.blob, rest.starts[min(p, n - p)], None, sep_lead))
        size += len(blocks[-1])
        if 2 <= p <= n - 2:
            free, cuts = rest.one_free, rest.one_free_starts
            cut = 0  # at p > n-p every 1-free code of n-p is led by <= p
            if p <= n - p:
                cut = cuts[p - 1]
                run = _prefixed(free, cuts[p], cut - 1, sep_lead)
                if run:
                    runs.append(slice(free_size + 1, free_size + len(run)))
                    free_blocks.append(run)
                    free_size += len(run)
            free_blocks.append(_prefixed(free, cut, None, sep_lead))
            free_size += len(free_blocks[-1])
    starts[0], free_starts[0] = size + 1, free_size + 1
    return Partitions(b"".join(blocks), tuple(starts), b"".join(free_blocks),
                      tuple(free_starts), tuple(runs))


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
        while d < len(rest) and rest[d] > d:
            d += 1
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
    omega = parts.count(1)
    if omega == 0:
        return parts[0] if parts else 0
    mu = 0  # parts > omega lead the tuple, and its last part 1 <= omega
    while parts[mu] > omega:
        mu += 1
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


@lru_cache(maxsize=None)
def _one_free_tally(k: int, n: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """What the 1-free partitions of n (no part equal to 1) add to N_k, k >= 3.

    Entry 0 tallies the k-ranks of those with at least k-1 successive
    Durfee squares.  Entry s, for 1 <= s <= k-2, tallies mu[0] - mu[1] over
    those with exactly s squares, mu[1] read as 1 when mu has one part;
    trailing empty entries are dropped.  An entry is the pair (sorted
    values, their counts), or () when empty: up to the ceiling these take
    36 KB for k = 3 (sys.getsizeof), against 99 KB as one (value, count)
    tuple per value.  Only mu[0] == mu[1] is walked; the rest is the tally
    of n-1, shifted.  The walk splits the ``pair_runs`` of the 1-free index
    of ``partitions_of(n)`` itself, so every code it reads is walked: 6,152
    over n <= 40, plus (2,).  The cache holds at most PARTITION_CEILING
    entries per k.
    """
    parts = partitions_of(n)
    # Top-row lemma: a 1-free mu with mu[0] > mu[1] (0 if absent) and mu[0] >= 3
    # less one top-row cell is a 1-free partition of n-1 with the same squares
    # (row 0 counts toward d1 = #{i : mu[i] > i} either way) and both values
    # 1 lower (d_{k-1} >= 1); a top-row cell added to any such partition inverts
    # it.  Left: (2,), and runs led by (p, p) from mu[0] <= p up to mu[1] < p.
    shifted = _one_free_tally(k, n - 1) if n > 2 else ((),)
    counts = [{v + 1: c for v, c in zip(*entry)} for entry in shifted]
    free = parts.one_free
    runs = [free[run].split(b"\0") for run in parts.pair_runs]
    for mu in chain([b"\x02"] if n == 2 else (), *runs):
        size = len(mu)
        # Every row is at least 2 long, so each square is at least 1.
        pos = 1
        while pos < size and mu[pos] > pos:
            pos += 1
        squares = 1
        while pos < size and squares < k - 1:
            d = 1
            while pos + d < size and mu[pos + d] > d:
                d += 1
            pos += d
            squares += 1
        if squares == k - 1:  # k >= 3, so the loop above ran and set d
            # d = d_{k-1}, the k-1 squares cover rows 0..pos-1, and d1 is the
            # first square's size.  Column c has length #{i : mu[i] > c},
            # which is <= d exactly when mu[d] <= c; mu[d] exists, as
            # pos >= d1 + d > d.  The columns right of the first square with
            # length <= d are therefore c = max(d1, mu[d]) .. mu[0]-1, and
            # mu[d] >= d1 always: if d < d1, mu[d] >= mu[d1-1] >= d1; if
            # d = d1, row d1 starts the second square, of size d1.  No
            # conjugate is needed.
            entry, v = 0, mu[0] - mu[d] - (size - pos)
        else:
            entry, v = squares, mu[0] - (mu[1] if size > 1 else 1)
        if entry >= len(counts):
            counts.extend({} for _ in range(len(counts), entry + 1))
        counts[entry][v] = counts[entry].get(v, 0) + 1
    return tuple(tuple(zip(*sorted(tally.items()))) for tally in counts)


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
    _refuse_above_the_ceiling("n", n)
    if k == 1 and n <= 1:
        counts = {0: 1} if n == 0 else {-1: 1, 0: -1, 1: 1}
    elif n == 0:
        counts = {}  # N_2(0,0) = 0 and N_k(m,0) = 0 for k >= 3
    elif k >= 3:
        # Every partition of n is a 1-free mu plus r parts 1, and each part 1
        # appended keeps every Durfee square and adds a unit square below
        # them.  If lam has at least k-1 squares, d_1, d_{k-1} and the columns
        # right of the first square stay, and one more part lies below the
        # (k-1)-th square: k-rank(lam + (1,)) = k-rank(lam) - 1.  That gives
        # N_k(., n-1) shifted by -1.  New at n, from _one_free_tally, are the
        # 1-free partitions with at least k-1 squares, mu + 1^r for a 1-free mu
        # of n-r with exactly s = k-1-r squares (the last one a unit square, so
        # k-rank mu[0] - mu[1], mu[1] read as 1), and 1^(k-1), of k-rank 0.
        counts = Counter({m - 1: c for m, c in statistic_histogram(k, n - 1)})
        counts.update(dict(zip(*_one_free_tally(k, n)[0])))
        for r in range(1, min(k - 1, n - 1)):  # 1-free partitions start at 2
            tally = _one_free_tally(k, n - r)
            if k - 1 - r < len(tally):
                counts.update(dict(zip(*tally[k - 1 - r])))
        if n == k - 1:
            counts[0] += 1
    else:  # k = 1 only at n >= 2: crank refuses (1,) but not its code b"\x01"
        counts = Counter(map(crank if k == 1 else rank, partitions_of(n).codes))
    return tuple(sorted(counts.items()))


class CountTable(namedtuple("CountTable", "k max_abs_m max_n entries")):
    """N_k(m, n) over the rectangle |m| <= max_abs_m, 0 <= n <= max_n.

    ``entries`` maps (m, n) to the nonzero counts only: an absent pair inside
    the window counts 0, and reading a pair outside the window raises KeyError.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = f"k={self.k!r}, max_abs_m={self.max_abs_m!r}, max_n={self.max_n!r}"
        return f"CountTable({fields})"

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
    _refuse_above_the_ceiling("max_n", max_n)
    entries = {
        (m, n): count
        for n in range(max_n + 1)
        for m, count in statistic_histogram(k, n)
        if abs(m) <= max_abs_m
    }
    return CountTable(k=k, max_abs_m=max_abs_m, max_n=max_n, entries=entries)
