"""Truncated formal power series in q over exact rationals.

A :class:`QSeries` holds the coefficients c_0, ..., c_N of sum_n c_n q^n,
N being the truncation order, as integer numerators ``nums`` over one
common denominator ``den``: c_n = nums[n] / den.  The pair is kept in
lowest terms (den > 0 and gcd(den, *nums) == 1), so equal series have
equal fields and ``==`` is structural.  The series this package builds
are integral apart from a few constant terms, so ``den`` stays small and
all arithmetic runs on Python ints: a sum rescales its operands to the
lcm of their denominators, a scalar product multiplies the numerators and
the denominator, and each result is reduced by one gcd.  ``coeffs`` reads
the coefficients out as normalised ``fractions.Fraction``.  Binary
operations truncate to the smaller operand order, so a result never
claims a coefficient it cannot certify; reading past the order raises
instead of returning a silent zero.

Series products of two convolving factors use Kronecker substitution
(Schoenhage 1982; Harvey, J. Symb. Comput. 2009): the numerators of each
operand are packed into one Python ``int`` as the value of the
polynomial at 2^w, and one big-integer multiply does the whole
convolution.  Every slot is wider than the bound max|a| * max|b| * (N + 1)
on the product's coefficients, so no slot overflows into the next.  A
product takes one of two paths, chosen by its operands:

  * a factor with no nonzero coefficient past q^0 (a zero factor too)
    only scales the other factor's numerators: no convolution;
  * any other: Kronecker substitution with one slot format.  Each slot is
    offset by half its range, so every slot of the product reads back
    unsigned.  Below a bound of 2^63 the slot is the narrowest word of 1,
    2, 4 or 8 bytes that holds it, and ``struct`` packs and unpacks the
    words in C; from 2^63 on it is whole bytes, through ``int.to_bytes``
    and ``int.from_bytes``.

The product's denominator is the product of the two.  Nothing is
approximated: the products equal those of the schoolbook convolution,
which the test suite keeps as an independent oracle.

Division by a series is one integer recurrence of the quotient, over the
divisor's nonzero terms (``__truediv__``); ``inverse`` and ``log`` divide.

Since every operation truncates, a series built to order N is, truncated
to M <= N, the series built to order M.  ``order_cache`` caches builders on
that: one entry per key, at the highest order built.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import update_wrapper
from itertools import islice
from math import gcd, lcm
from operator import add, mul, neg, sub
from struct import pack, unpack
from typing import Iterable, Tuple, Union

from .errors import ConstantTermError, ZeroConstantTermError

Rational = Union[int, Fraction]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _ratio(value) -> Tuple[int, int]:
    """(numerator, denominator) of an exact rational scalar, in lowest terms."""
    if isinstance(value, int):
        return value, 1
    c = _coerce(value)
    return c.numerator, c.denominator


def check_order(order: int) -> None:
    """Reject a negative truncation order before any work is done."""
    if order < 0:
        raise ValueError(f"negative truncation order {order}")


# The most keys an order cache keeps; the least recently used goes first.
CACHE_KEYS = 128

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def order_cache(arguments):
    """Cache a builder whose result at a smaller order is a truncation.

    ``arguments`` takes the builder's arguments, checks them and returns
    (key, order), the key being every argument but the order; so a bad
    argument raises before the cache is read.  Each key keeps only the
    result at the highest order built, and a smaller order is served as
    ``result.truncate(order)``.  Like ``functools.lru_cache``, the cached
    function has ``cache_clear()``, ``cache_info()`` and ``__wrapped__``
    (the builder, which checks nothing).
    """

    def decorate(build):
        entries = OrderedDict()
        hits = misses = 0

        def cached(*args, **kwargs):
            nonlocal hits, misses
            key, order = arguments(*args, **kwargs)
            value = entries.get(key)
            if value is not None and value.order >= order:
                hits += 1
                entries.move_to_end(key)
                return value.truncate(order)
            misses += 1
            value = entries[key] = build(*args, **kwargs)
            entries.move_to_end(key)
            if len(entries) > CACHE_KEYS:
                entries.popitem(last=False)
            return value

        def cache_clear():
            nonlocal hits, misses
            entries.clear()
            hits = misses = 0

        cached.cache_clear = cache_clear
        cached.cache_info = lambda: CacheInfo(hits, misses, CACHE_KEYS, len(entries))
        return update_wrapper(cached, build)

    return decorate


# struct codes of the signed and unsigned little-endian words of each width.
_WORD_CODES = {1: "bB", 2: "hH", 4: "iI", 8: "qQ"}


def _kronecker_product(a: tuple, b: tuple) -> tuple:
    """The first len(a) coefficients of the product of two equal-length integer series."""
    n = len(a)
    bound = max(map(abs, a)) * max(map(abs, b)) * n
    if not bound:
        return (0,) * n
    # Bytes per slot: every |c_k| <= bound < h = 2^(8 * width - 1).  Up to 8
    # bytes, the slot is the next struct word, packed and read in C.
    width = (bound.bit_length() + 8) // 8
    words = width <= 8
    if words:
        width = 1 << (width - 1).bit_length()
        signed, unsigned = _WORD_CODES[width]
        fmt = f"<{n}{signed}"
        ra, rb = pack(fmt, *a), pack(fmt, *b)
    else:
        ra, rb = (b"".join([c.to_bytes(width, "little", signed=True) for c in v]) for v in (a, b))
    # h in every slot.  A negative slot reads as c + 2h, with its top bit set:
    # that bit, moved one place up, is the unit to take back off the slot
    # above.  Adding h to every slot of the product puts each in [0, 2h), so
    # that it reads back unsigned.
    top = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    pa, pb = int.from_bytes(ra, "little"), int.from_bytes(rb, "little")
    product = (pa - ((pa & top) << 1)) * (pb - ((pb & top) << 1)) + top
    low = (product & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    if words:
        slots = unpack(f"<{n}{unsigned}", low)
    else:
        slots = [int.from_bytes(low[i : i + width], "little") for i in range(0, width * n, width)]
    return tuple(map((-1 << (8 * width - 1)).__add__, slots))


class QSeries:
    """Power series in q known through q^order: coefficient n is nums[n] / den."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Rational]):
        cs = [_coerce(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least the q^0 coefficient")
        # Over the lcm of reduced denominators the numerators are already in
        # lowest terms: a prime's highest power in the lcm divides one
        # denominator exactly, and that numerator is prime to it.
        den = lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, nums: Iterable[int], den: int = 1) -> "QSeries":
        """The series with coefficients nums[n] / den (den > 0), in lowest terms."""
        nums = tuple(nums)
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(c // g for c in nums)
                den //= g
        series = object.__new__(cls)
        object.__setattr__(series, "nums", nums)
        object.__setattr__(series, "den", den)
        return series

    # A series can be cached and shared, so it is never changed in place.
    def __setattr__(self, name, value):
        raise AttributeError(f"QSeries is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QSeries is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (QSeries._of, (self.nums, self.den))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "QSeries":
        check_order(order)
        p, q = _ratio(value)
        return cls._of((p,) + (0,) * order, q)

    @classmethod
    def monomial(cls, value: Rational, n: int, order: int) -> "QSeries":
        if not 0 <= n <= order:
            raise ValueError(f"monomial degree {n} outside [0, {order}]")
        p, q = _ratio(value)
        nums = [0] * (order + 1)
        nums[n] = p
        return cls._of(nums, q)

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "QSeries":
        """Series from an {exponent: coefficient} map; exponents beyond order are dropped."""
        cs = [0] * (order + 1)
        for n, c in terms.items():
            if n < 0:
                raise ValueError("negative q-exponent")
            if n <= order:
                cs[n] += c if isinstance(c, int) else _coerce(c)
        return cls(cs)

    # -- basic accessors ---------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Fractions in lowest terms."""
        if self.den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient of q^{n} requested beyond truncation order {self.order}"
            )
        return Fraction(self.nums[n], self.den)

    def truncate(self, order: int) -> "QSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate an order {self.order} series to order {order}")
        if order == self.order:
            return self
        return QSeries._of(self.nums[: order + 1], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    __hash__ = None  # equality is structural, so instances stay unhashable

    # -- ring operations ----------------------------------------------

    def _combine(self, other: "QSeries", op) -> "QSeries":
        """op on the numerators over the common order and denominator."""
        da, db = self.den, other.den
        if da == db:
            return QSeries._of(map(op, self.nums, other.nums), da)
        den = lcm(da, db)
        sa, sb = den // da, den // db
        return QSeries._of(
            (op(x * sa, y * sb) for x, y in zip(self.nums, other.nums)), den
        )

    def __add__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return self._combine(other, add)
        p, q = _ratio(other)
        den = lcm(self.den, q)
        s = den // self.den
        nums = self.nums if s == 1 else tuple(c * s for c in self.nums)
        return QSeries._of((nums[0] + p * (den // q),) + nums[1:], den)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._of(map(neg, self.nums), self.den)

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return self._combine(other, sub)
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            a, b = self.nums, other.nums
            n = min(len(a), len(b))
            den = self.den * other.den
            if not any(islice(b, 1, n)):
                a, b = b, a  # a constant factor goes first
            if not any(islice(a, 1, n)):
                # Nothing past q^0 (a zero factor too): scale the other factor.
                c = a[0]
                return QSeries._of([c * x for x in islice(b, n)], den)
            return QSeries._of(_kronecker_product(a[:n], b[:n]), den)
        p, q = _ratio(other)
        if p == q:
            return self
        return QSeries._of([c * p for c in self.nums], self.den * q)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QSeries":
        """Quotient by a scalar, or by a series with a nonzero constant term.

        By a series, c_n = (a_n - sum_{k=1}^{n} b_k c_{n-k}) / b_0 in integers:
        with a_k = A_k / da, b_k = B_k / db and t = B_0, c_n = db C_n / (da t^(n+1)),
        where C_n = A_n t^n - sum_{k=1}^{n} B_k t^(k-1) C_{n-k}.
        """
        if not isinstance(other, QSeries):
            c = _coerce(other)
            if c == 0:
                raise ZeroDivisionError("division of a series by zero")
            return self * (1 / c)
        size = min(len(self.nums), len(other.nums))
        t = other.nums[0]
        if t == 0:
            raise ZeroConstantTermError("cannot divide by a series with zero constant term")
        terms = [(k, c * t ** (k - 1)) for k, c in enumerate(other.nums[:size]) if k and c]
        quot = []
        for n, a in enumerate(self.nums[:size]):
            acc = a * t**n if a else 0
            for k, w in terms:
                if k > n:
                    break
                acc -= w * quot[n - k]
            quot.append(acc)
        top = size - 1
        # Over t^(top + 1), which is negative for t < 0 and even top: carry
        # that sign in the numerators.
        db = -other.den if t < 0 and top % 2 == 0 else other.den
        nums = [db * c * t ** (top - n) for n, c in enumerate(quot)]
        return QSeries._of(nums, self.den * abs(t) ** (top + 1))

    def __pow__(self, exponent: int) -> "QSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must be non-negative integers")
        result = QSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- analytic-style operations -------------------------------------

    def inverse(self) -> "QSeries":
        """Multiplicative inverse up to the truncation order: 1 / self."""
        return QSeries.one(self.order) / self

    def exp(self) -> "QSeries":
        """exp of a series with zero constant term: n b_n = sum_k k a_k b_{n-k}."""
        a = self.coeffs
        if a[0] != 0:
            raise ConstantTermError("exp requires a zero constant term")
        b = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    acc += k * a[k] * b[n - k]
            b.append(acc / n)
        return QSeries(b)

    def log(self) -> "QSeries":
        """log of a series with constant term 1; inverse of :meth:`exp`.

        The integral of the log-derivative: n l_n = [q^n] qD(a)/a, each
        numerator divided by its n over the denominator times lcm(1, ..., N).
        """
        if self.nums[0] != self.den:
            raise ConstantTermError("log requires constant term 1")
        d = self.qderiv() / self
        top = lcm(*range(1, len(d.nums)))
        return QSeries._of(
            [c * (top // n) if n else 0 for n, c in enumerate(d.nums)], d.den * top
        )

    def qderiv(self) -> "QSeries":
        """The operator q d/dq: coefficient of q^n becomes n c_n."""
        return QSeries._of(map(mul, range(len(self.nums)), self.nums), self.den)

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if n == 0:
                body = str(mag)
            else:
                q = "q" if n == 1 else f"q^{n}"
                if mag == 1:
                    body = q
                elif mag.denominator == 1:
                    body = f"{mag}{q}"
                else:
                    body = f"({mag}){q}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}: {self})"


def euler_product(order: int) -> QSeries:
    """(q)_inf = prod_{k>=1} (1 - q^k), truncated at the given order.

    Summed by Euler's pentagonal number theorem: (q)_inf is the sum over
    all integers n of (-1)^n q^(n(3n-1)/2), so O(sqrt(order)) terms are set.
    The test suite checks it against the finite product ``q_pochhammer``
    and against the theta series with (a, b) = (1, 3).
    """
    check_order(order)
    c = [1] + [0] * order
    n = 1
    while (e := n * (3 * n - 1) // 2) <= order:
        c[e] = (-1) ** n
        if e + n <= order:  # the exponent of -n
            c[e + n] = (-1) ** n
        n += 1
    return QSeries._of(c)


def _order_only(order: int):
    check_order(order)
    return None, order


@order_cache(_order_only)
def partition_series(order: int) -> QSeries:
    """1/(q)_inf: the generating function of unrestricted partitions."""
    return euler_product(order).inverse()


def q_pochhammer(n: int, order: int) -> QSeries:
    """(q)_n = prod_{k=1}^{n} (1 - q^k), truncated."""
    if n < 0:
        raise ValueError("q-Pochhammer length must be non-negative")
    check_order(order)
    c = [1] + [0] * order
    for k in range(1, n + 1):
        for m in range(order, k - 1, -1):
            c[m] -= c[m - k]
    return QSeries._of(c)
