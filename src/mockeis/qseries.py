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
product takes one of three paths, chosen by its operands:

  * a factor with no nonzero coefficient past q^0 (a zero factor too)
    only scales the other factor's numerators: no convolution;
  * a bound below 2^63: each slot is the narrowest word of 1, 2, 4 or 8
    bytes that holds it, ``struct`` packs and unpacks the words in C, and
    every slot of the product is offset by half its range, so that it
    reads back unsigned;
  * a larger bound: the slots are whole bytes, and each signed slot is
    read back in Python with a borrow from each negative slot to the one
    above.

The product's denominator is the product of the two.  Nothing is
approximated: the products equal those of the schoolbook convolution,
which the test suite keeps as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


def _pack(values: tuple, width: int) -> int:
    """sum_i values[i] * 256^(width * i), for |values[i]| < 256^width / 2."""
    raw = b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    packed = int.from_bytes(raw, "little")
    # A negative slot reads as v + 256^width and has its top bit set: that
    # bit, moved one place up, is the unit to take back off the slot above.
    top = int.from_bytes((bytes(width - 1) + b"\x80") * len(values), "little")
    return packed - ((packed & top) << 1)


# struct codes of the signed and unsigned little-endian words of each width.
_WORD_CODES = {1: "bB", 2: "hH", 4: "iI", 8: "qQ"}


def _word_product(a: tuple, b: tuple, width: int) -> tuple:
    """_kronecker_product with slots of one struct word of 1, 2, 4 or 8 bytes.

    Every |c_k| must be below h = 2^(8 * width - 1).
    """
    n = len(a)
    signed, unsigned = _WORD_CODES[width]
    # h in every slot: the top bits of the signed slots, as in _pack, and the
    # offset that keeps each slot of the product in [0, 2h).
    top = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    pa = int.from_bytes(pack(f"<{n}{signed}", *a), "little")
    pb = int.from_bytes(pack(f"<{n}{signed}", *b), "little")
    product = (pa - ((pa & top) << 1)) * (pb - ((pb & top) << 1)) + top
    low = (product & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    return tuple(map((-1 << (8 * width - 1)).__add__, unpack(f"<{n}{unsigned}", low)))


def _kronecker_product(a: tuple, b: tuple) -> tuple:
    """The first len(a) coefficients of the product of two equal-length integer series."""
    n = len(a)
    bound = max(map(abs, a)) * max(map(abs, b)) * n
    if not bound:
        return (0,) * n
    # Bytes per slot: every |c_k| <= bound < 2^(8 * width - 1).
    width = (bound.bit_length() + 8) // 8
    if width <= 8:
        # Up to 8 bytes, the next struct word: packed and read in C.
        return _word_product(a, b, 1 << (width - 1).bit_length())
    product = _pack(a, width) * _pack(b, width)
    low = (product & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    out = []
    borrow = 0
    for i in range(0, width * n, width):
        # Slot k reads c_k less the borrow from below; a negative slot
        # borrows one from the slot above.
        s = int.from_bytes(low[i : i + width], "little", signed=True)
        out.append(s + borrow)
        borrow = s < 0
    return tuple(out)


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
        self.nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

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
        series.nums = nums
        series.den = den
        return series

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls._of((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls._of((1,) + (0,) * order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "QSeries":
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
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
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

    def __truediv__(self, scalar) -> "QSeries":
        c = _coerce(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a series by zero")
        return self * (1 / c)

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
        """Multiplicative inverse up to the truncation order.

        The recurrence b_n = -(1/a_0) sum_{k=1}^{n} a_k b_{n-k}, in integers:
        with a_k = A_k / den and t = A_0, b_n = den * B_n / t^(n+1), where
        B_0 = 1 and B_n = -sum_{k=1}^{n} A_k t^(k-1) B_{n-k}.
        """
        a = self.nums
        t = a[0]
        if t == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        terms = [(k, c * t ** (k - 1)) for k, c in enumerate(a) if k and c]
        b = [1]
        for n in range(1, len(a)):
            acc = 0
            for k, w in terms:
                if k > n:
                    break
                acc += w * b[n - k]
            b.append(-acc)
        top = len(a) - 1
        if t < 0 and top % 2 == 0:
            # t^(top + 1) < 0: carry its sign in the numerators.
            b = [-c for c in b]
        return QSeries._of(
            [self.den * c * t ** (top - n) for n, c in enumerate(b)], abs(t) ** (top + 1)
        )

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
        d = self.qderiv() * self.inverse()
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

    Computed by the finite product; the pentagonal-number form is the
    theta series with (a, b) = (1, 3) and the two agree (pentagonal
    number theorem), which the test suite checks.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    return q_pochhammer(order, order)


@lru_cache(maxsize=None)
def partition_series(order: int) -> QSeries:
    """1/(q)_inf: the generating function of unrestricted partitions."""
    return euler_product(order).inverse()


@lru_cache(maxsize=None)
def q_pochhammer(n: int, order: int) -> QSeries:
    """(q)_n = prod_{k=1}^{n} (1 - q^k), truncated."""
    if n < 0:
        raise ValueError("q-Pochhammer length must be non-negative")
    c = [1] + [0] * order
    for k in range(1, n + 1):
        for m in range(order, k - 1, -1):
            c[m] -= c[m - k]
    return QSeries._of(c)
