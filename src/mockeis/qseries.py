"""Truncated formal power series in q over exact rationals.

A :class:`QSeries` stores the coefficients c_0, ..., c_N of sum_n c_n q^n
together with the truncation order N.  Every coefficient is a
``fractions.Fraction`` and all arithmetic is exact.  Binary operations
truncate to the smaller operand order, so a result never claims a
coefficient it cannot certify; reading past the order raises instead of
returning a silent zero.

Series products use Kronecker substitution (Schoenhage 1982; Harvey,
J. Symb. Comput. 2009).  Each operand is scaled to integer numerators over
the lcm of its denominators, and the numerators are packed into one
Python ``int`` as the value of the polynomial at 2^w.  One big-integer
multiply then does the whole convolution.  The slot width w exceeds the
bit length of the bound max|a| * max|b| * (N + 1) on every product
coefficient, so no slot overflows into the next, and the signed slots are
read back exactly with a borrow from each negative slot to the one above.
Nothing is approximated: the products equal those of the schoolbook
convolution, which the test suite keeps as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Union

from .errors import ConstantTermError, ZeroConstantTermError

Rational = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _numerators(coeffs: tuple) -> tuple:
    """(integer numerators, common denominator) of a tuple of Fractions."""
    den = lcm(*{c.denominator for c in coeffs})
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _pack(values: list, width: int) -> int:
    """sum_i values[i] * 256^(width * i), for |values[i]| < 256^width."""
    pos = b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in values)
    neg = b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_product(a: tuple, b: tuple) -> tuple:
    """The first len(a) coefficients of the product of two equal-length series."""
    n = len(a)
    na, da = _numerators(a)
    nb, db = _numerators(b)
    bound = max(map(abs, na)) * max(map(abs, nb)) * n
    if not bound:
        return (_ZERO,) * n
    # Bytes per slot: every |c_k| <= bound < 2^(8 * width - 1).
    width = (bound.bit_length() + 8) // 8
    product = _pack(na, width) * _pack(nb, width)
    low = (product & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    out = []
    borrow = 0
    for i in range(0, width * n, width):
        # Slot k reads c_k less the borrow from below; a negative slot
        # borrows one from the slot above.
        s = int.from_bytes(low[i : i + width], "little", signed=True)
        out.append(s + borrow)
        borrow = s < 0
    den = da * db
    if den == 1:
        return tuple(map(Fraction, out))
    return tuple(Fraction(c, den) for c in out)


class QSeries:
    """Power series in q known through q^order, with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(_coerce(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the q^0 coefficient")
        self.coeffs = cs

    @classmethod
    def _raw(cls, coeffs: tuple) -> "QSeries":
        series = object.__new__(cls)
        series.coeffs = coeffs
        return series

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls._raw((_ZERO,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.constant(_ONE, order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "QSeries":
        return cls._raw((_coerce(value),) + (_ZERO,) * order)

    @classmethod
    def monomial(cls, value: Rational, n: int, order: int) -> "QSeries":
        if not 0 <= n <= order:
            raise ValueError(f"monomial degree {n} outside [0, {order}]")
        cs = [_ZERO] * (order + 1)
        cs[n] = _coerce(value)
        return cls._raw(tuple(cs))

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "QSeries":
        """Series from an {exponent: coefficient} map; exponents beyond order are dropped."""
        cs = [_ZERO] * (order + 1)
        for n, c in terms.items():
            if n < 0:
                raise ValueError("negative q-exponent")
            if n <= order:
                cs[n] += _coerce(c)
        return cls._raw(tuple(cs))

    # -- basic accessors ---------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient of q^{n} requested beyond truncation order {self.order}"
            )
        return self.coeffs[n]

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
        if order == self.order:
            return self
        return QSeries._raw(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # equality is structural, so instances stay unhashable

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return QSeries._raw(
                tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
            )
        c = _coerce(other)
        return QSeries._raw((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QSeries":
        return self + (-other if isinstance(other, QSeries) else -_coerce(other))

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return QSeries._raw(_kronecker_product(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        c = _coerce(other)
        if c == 1:
            return self
        return QSeries._raw(tuple(c * x for x in self.coeffs))

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
        """Multiplicative inverse up to the truncation order."""
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("cannot invert a series with zero constant term")
        b = [1 / a[0]]
        for n in range(1, self.order + 1):
            acc = _ZERO
            for k in range(1, n + 1):
                if a[k]:
                    acc += a[k] * b[n - k]
            b.append(-b[0] * acc)
        return QSeries._raw(tuple(b))

    def exp(self) -> "QSeries":
        """exp of a series with zero constant term: n b_n = sum_k k a_k b_{n-k}."""
        a = self.coeffs
        if a[0] != 0:
            raise ConstantTermError("exp requires a zero constant term")
        b = [_ONE]
        for n in range(1, self.order + 1):
            acc = _ZERO
            for k in range(1, n + 1):
                if a[k]:
                    acc += k * a[k] * b[n - k]
            b.append(acc / n)
        return QSeries._raw(tuple(b))

    def log(self) -> "QSeries":
        """log of a series with constant term 1; inverse of :meth:`exp`."""
        a = self.coeffs
        if a[0] != 1:
            raise ConstantTermError("log requires constant term 1")
        l = [_ZERO]
        for n in range(1, self.order + 1):
            acc = _ZERO
            for k in range(1, n):
                if l[k] and a[n - k]:
                    acc += k * l[k] * a[n - k]
            l.append(a[n] - acc / n)
        return QSeries._raw(tuple(l))

    def qderiv(self) -> "QSeries":
        """The operator q d/dq: coefficient of q^n becomes n c_n."""
        return QSeries._raw(tuple(n * c for n, c in enumerate(self.coeffs)))

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
    c = [_ZERO] * (order + 1)
    c[0] = _ONE
    for k in range(1, n + 1):
        for m in range(order, k - 1, -1):
            c[m] -= c[m - k]
    return QSeries._raw(tuple(c))
