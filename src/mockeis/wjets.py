"""Laurent jets in the formal variable w with q-series coefficients.

All two-variable identities in this package are computed in the variable
w = 2*pi*i*z, in which every coefficient is an exact rational q-series:
zeta = e^w, 1/(2i sin(pi z)) = 1/(2 sinh(w/2)), and sin(pi z)/(pi z) =
2 sinh(w/2)/w.  That choice eliminates pi and i from the arithmetic.

A :class:`WJet` stores coefficients for degrees min_deg..max_deg and
certifies exactly that window: degrees below min_deg are known to be
zero, degrees above max_deg are unknown.  Products and derivatives
shrink the certified window so that no reported coefficient ever depends
on discarded data; in particular the window of a product is
[a.min + b.min, min(a.max + b.min, b.max + a.min)].
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .errors import ConstantTermError, WindowUnderflowError
from .qseries import QSeries


def _convolve(terms: Iterable[Tuple[QSeries, QSeries, int]], order: int) -> QSeries:
    """The sum of x * y * k over the (x, y, k) triples, skipping a zero x or y."""
    products = (x * y * k for x, y, k in terms if not (x.is_zero() or y.is_zero()))
    return sum(products, QSeries.zero(order))


class WJet:
    """Laurent polynomial in w whose coefficients are truncated q-series."""

    __slots__ = ("min_deg", "coeffs", "q_order")

    def __init__(self, min_deg: int, coeffs: Sequence[QSeries]):
        cs = tuple(coeffs)
        if not cs:
            raise WindowUnderflowError("a jet needs at least one certified degree")
        q_order = min(c.order for c in cs)
        self.min_deg = min_deg
        self.coeffs = tuple(c.truncate(q_order) for c in cs)
        self.q_order = q_order

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.coeffs) - 1

    def coeff(self, deg: int) -> QSeries:
        """Coefficient of w^deg; zero below the window, error above it."""
        if deg > self.max_deg:
            raise WindowUnderflowError(
                f"w^{deg} is outside the certified window [{self.min_deg}, {self.max_deg}]"
            )
        if deg < self.min_deg:
            return QSeries.zero(self.q_order)
        return self.coeffs[deg - self.min_deg]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def degrees(self):
        return range(self.min_deg, self.max_deg + 1)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "WJet") -> "WJet":
        # Each max_deg is at least its own min_deg >= lo: the window is never empty.
        lo = min(self.min_deg, other.min_deg)
        hi = min(self.max_deg, other.max_deg)
        return WJet(lo, [self.coeff(d) + other.coeff(d) for d in range(lo, hi + 1)])

    def __neg__(self) -> "WJet":
        return WJet(self.min_deg, [-c for c in self.coeffs])

    def __sub__(self, other: "WJet") -> "WJet":
        return self + (-other)

    def __mul__(self, other: "WJet") -> "WJet":
        lo = self.min_deg + other.min_deg
        hi = min(self.max_deg + other.min_deg, other.max_deg + self.min_deg)
        if hi < lo:
            raise WindowUnderflowError("product has an empty certified window")
        a, b = self.coeffs, other.coeffs
        order = min(self.q_order, other.q_order)
        out = []
        for d in range(hi - lo + 1):  # a[i] * b[d - i] lands at degree lo + d
            pairs = range(max(0, d - len(b) + 1), d + 1)
            out.append(_convolve(((a[i], b[d - i], 1) for i in pairs), order))
        return WJet(lo, out)

    def scale(self, factor) -> "WJet":
        """Multiply every coefficient by a q-series or rational scalar."""
        return WJet(self.min_deg, [c * factor for c in self.coeffs])

    def shift(self, degree: int) -> "WJet":
        """Exact multiplication by the monomial w^degree."""
        return WJet(self.min_deg + degree, self.coeffs)

    def wderiv(self) -> "WJet":
        """d/dw: coefficient at degree d becomes (d+1) * c_{d+1}."""
        out = [
            (self.min_deg + i) * c for i, c in enumerate(self.coeffs)
        ]
        return WJet(self.min_deg - 1, out)

    def qderiv(self) -> "WJet":
        """q d/dq applied to every coefficient; the window is unchanged."""
        return WJet(self.min_deg, [c.qderiv() for c in self.coeffs])

    def __repr__(self) -> str:
        return (
            f"WJet(window=[{self.min_deg}, {self.max_deg}], q_order={self.q_order})"
        )


def build_jet(entries: Dict[int, QSeries], min_deg: int, max_deg: int, q_order: int) -> WJet:
    """Jet over [min_deg, max_deg] from a sparse {degree: series} map."""
    if max_deg < min_deg:
        raise WindowUnderflowError("empty jet window requested")
    stray = [d for d in entries if not min_deg <= d <= max_deg]
    if stray:
        raise ValueError(f"entries at degrees {stray} fall outside the window")
    zero = QSeries.zero(q_order)
    out = [entries.get(d, zero) for d in range(min_deg, max_deg + 1)]
    return WJet(min_deg, out)


def rational_jet(wseries: QSeries, q_order: int) -> WJet:
    """Lift a rational series in w (a QSeries reused formally) to a jet on [0, wseries.order]."""
    return WJet(0, [QSeries.constant(c, q_order) for c in wseries.coeffs])


def exp_cw(c, max_deg: int, q_order: int) -> WJet:
    """The jet of e^{c w} = sum_k c^k w^k / k! through w^max_deg."""
    c = Fraction(c)
    return rational_jet(QSeries([c**k / factorial(k) for k in range(max_deg + 1)]), q_order)


def two_sinh_half_over_w(max_deg: int) -> QSeries:
    """2 sinh(w/2)/w as a rational series in w: sum_m w^{2m}/(4^m (2m+1)!).

    This is sin(pi z)/(pi z) in w-coordinates, and also equals
    exp(sum_{j>=2} (B_j/j) w^j/j!) (checked in the tests).
    """
    coeffs = [Fraction(0)] * (max_deg + 1)
    for m in range(0, max_deg // 2 + 1):
        coeffs[2 * m] = Fraction(1, 4**m * factorial(2 * m + 1))
    return QSeries(coeffs)


def jet_exp(a: WJet) -> WJet:
    """exp of a jet with certified window contained in degrees >= 1.

    Standard recurrence n b_n = sum_k k a_k b_{n-k} with q-series
    coefficients; the result is certified on [0, a.max_deg].
    """
    if a.min_deg < 0 or not a.coeff(0).is_zero():
        raise ConstantTermError("jet exp requires vanishing below degree 1")
    order = a.q_order
    b = [QSeries.one(order)]
    for n in range(1, a.max_deg + 1):
        terms = ((a.coeff(k), b[n - k], k) for k in range(1, n + 1))
        b.append(_convolve(terms, order) / n)
    return WJet(0, b)


def member_exp(
    members: Callable[[int], QSeries], scale: int, max_deg: int, q_order: int
) -> WJet:
    """exp(scale * sum_{even j <= max_deg} members(j) w^j/j!) on [0, max_deg].

    By the exponential formula (Stanley, Enumerative Combinatorics vol. 2,
    1999, ch. 5), scale 2 gives the partition traces Tr_n(phi, members) as
    the coefficients of w^n.
    """
    entries = {j: members(j) * Fraction(scale, factorial(j)) for j in range(2, max_deg + 1, 2)}
    return jet_exp(build_jet(entries, 1, max_deg, q_order))


def jet_log(a: WJet) -> WJet:
    """log of a jet with min_deg 0 and constant coefficient equal to 1."""
    order = a.q_order
    if a.min_deg != 0 or a.coeff(0) != QSeries.one(order):
        raise ConstantTermError("jet log requires constant coefficient 1")
    l = [QSeries.zero(order)]
    for n in range(1, a.max_deg + 1):
        terms = ((l[k], a.coeff(n - k), k) for k in range(1, n))
        l.append(a.coeff(n) - _convolve(terms, order) / n)
    return WJet(0, l)
