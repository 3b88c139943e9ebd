"""The mock Eisenstein series attached to k-rank moments.

For k >= 3 the family members f_{k,j} (even j; odd members vanish) are
defined through

    FG_k(zeta, q) + theta_{1,2k-1}/(q)_inf
        = sin(pi z)/(pi z (q)_inf) * exp(2 sum_j f_{k,j} (2 pi i z)^j / j!),

and are computed here by three independent routes, all phrased over the
divisor-like sums g_ell = g_{2,2k-1,ell}:

  * recursionA:
        f_n = n g_n / 2^{n-1}
              - sum_{l=2}^{n-1} binom(n-1, l-1) f_l (n-l) g_{n-l} / 2^{n-l-2}
  * recursionB:
        f_n = sum_{l=2}^{n} (l g_l / 2^{l-1}) ((n-1)!/(l-1)!) Tr_{n-l}(psi, f)
  * logRoute: read 2 f_j / j! off the w^j coefficient of
        log(1 + sum_j (j g_j / 2^{j-2}) w^j / j!).

Partition traces use the weights

    phi(lambda) = prod_k 2^{l_k} / (l_k! k!^{l_k}),
    psi(lambda) = (-1)^{sum l_k} phi(lambda).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple

from .divisor import divisor_like_sum
from .errors import MissingMemberError, WindowTooLargeError
from .partitions import PARTITION_CEILING, partitions_of
from .qseries import QSeries, order_cache
from .wjets import build_jet, jet_log

ROUTES = ("recursionA", "recursionB", "logRoute")

Members = Callable[[int], QSeries]


def phi_weight(lam: Tuple[int, ...]) -> Fraction:
    """phi(lambda) = prod over parts k with multiplicity l: 2^l/(l! k!^l)."""
    w = Fraction(1)
    for part, mult in Counter(lam).items():
        w *= Fraction(2**mult, factorial(mult) * factorial(part) ** mult)
    return w


def psi_weight(lam: Tuple[int, ...]) -> Fraction:
    """psi(lambda) = (-1)^{number of parts} phi(lambda)."""
    sign = -1 if len(lam) % 2 else 1
    return sign * phi_weight(lam)


_WEIGHTS = {"phi": phi_weight, "psi": psi_weight}


def partition_trace(
    n: int, members: Members, order: int, weight: str = "phi", monomials: Optional[dict] = None
) -> QSeries:
    """Tr_n(weight, f) = sum_{lambda of n} weight(lambda) prod_k f_k^{l_k}.

    ``members`` maps a part size to its series, and is called once per part
    size; odd members are expected to be zero series.  Tr_0 = 1.  ``monomials`` may be a
    dict shared by calls with the same members and order, keyed by partition
    code: over increasing n each nonzero monomial costs one product, and as
    later traces read mu only as the head of mu + (p,), p <= mu[-1], each mu
    with |mu| + mu[-1] <= n is dropped (a smaller n asked later rebuilds it).
    """
    try:
        weigh = _WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"unknown trace weight {weight!r}") from None
    if monomials is None:
        monomials = {}
    factors = [None, *(None if f.is_zero() else f for f in map(members, range(1, n + 1)))]
    total = QSeries.zero(order)
    for lam in partitions_of(n).codes:
        term = _monomial(lam, factors, order, monomials)
        if term is not None:
            total = total + term * weigh(lam)
    for mu in [mu for mu in monomials if sum(mu) + mu[-1] <= n]:
        del monomials[mu]
    return total


def _monomial(lam: bytes, factors: list, order: int, monomials: dict):
    """prod_k f_k^{l_k} over the parts of lam, or None if a part's member is zero.

    mono(lam) = mono(lam[:-1]) * factors[lam[-1]], where factors[k] is f_k, or
    None if f_k is zero.  Only the nonzero monomials are kept in
    ``monomials``: with zero odd members most partitions are dead, and a dead
    one is found again within its run of trailing live parts.
    """
    if not lam:
        return QSeries.one(order)
    term = monomials.get(lam)
    if term is None:
        factor = factors[lam[-1]]
        head = None if factor is None else _monomial(lam[:-1], factors, order, monomials)
        if head is None:
            return None
        term = monomials[lam] = head * factor
    return term


class MockFamily(namedtuple("MockFamily", "k max_j order route extrapolated members")):
    """Members f_{k,j} for even j <= max_j at a common truncation order.

    ``members`` is a read-only copy of the mapping passed in: families are
    cached, so a caller must not be able to change one another caller sees.
    """

    __slots__ = ()

    def __new__(cls, k, max_j, order, route, extrapolated, members):
        members = MappingProxyType(dict(members))
        return super().__new__(cls, k, max_j, order, route, extrapolated, members)

    def __repr__(self) -> str:
        return (
            f"MockFamily(k={self.k!r}, max_j={self.max_j!r}, order={self.order!r}, "
            f"route={self.route!r}, extrapolated={self.extrapolated!r})"
        )

    def member(self, j: int) -> QSeries:
        if j < 1 or j > self.max_j:
            raise MissingMemberError(
                f"member {j} outside the computed range 1..{self.max_j}"
            )
        if j % 2:
            return QSeries.zero(self.order)
        return self.members[j]

    def truncate(self, order: int) -> "MockFamily":
        """The family at a lower order: each member truncated, read-only as well."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate an order {self.order} family to order {order}")
        if order == self.order:
            return self
        members = {j: series.truncate(order) for j, series in self.members.items()}
        return MockFamily(self.k, self.max_j, order, self.route, self.extrapolated, members)


def _g_sums(k: int, max_j: int, order: int) -> Dict[int, QSeries]:
    return {
        ell: divisor_like_sum(2, 2 * k - 1, ell, order)
        for ell in range(2, max_j + 1, 2)
    }


def _route_recursion_a(g: Dict[int, QSeries], max_j: int, order: int) -> Dict[int, QSeries]:
    members: Dict[int, QSeries] = {}
    for n in range(2, max_j + 1, 2):
        acc = g[n] * Fraction(n, 2 ** (n - 1))
        for ell in range(2, n - 1, 2):
            coeff = comb(n - 1, ell - 1) * Fraction(n - ell, 2 ** (n - ell - 2))
            acc = acc - (members[ell] * g[n - ell]) * coeff
        members[n] = acc
    return members


def _route_recursion_b(g: Dict[int, QSeries], max_j: int, order: int) -> Dict[int, QSeries]:
    members: Dict[int, QSeries] = {}

    def partial(j: int) -> QSeries:
        if j % 2:
            return QSeries.zero(order)
        return members[j]

    # traces[i] = Tr_{2i}(psi, f), each from the members below it.
    traces: List[QSeries] = []
    monomials: dict = {}
    for n in range(2, max_j + 1, 2):
        traces.append(partition_trace(n - 2, partial, order, "psi", monomials))
        acc = QSeries.zero(order)
        for ell in range(2, n + 1, 2):
            coeff = Fraction(ell, 2 ** (ell - 1)) * Fraction(
                factorial(n - 1), factorial(ell - 1)
            )
            acc = acc + (g[ell] * traces[(n - ell) // 2]) * coeff
        members[n] = acc
    return members


def _route_log(g: Dict[int, QSeries], max_j: int, order: int) -> Dict[int, QSeries]:
    entries = {0: QSeries.one(order)}
    for j in range(2, max_j + 1, 2):
        entries[j] = g[j] * Fraction(j, 2 ** (j - 2) * factorial(j))
    logs = jet_log(build_jet(entries, 0, max_j, order))
    return {
        j: logs.coeff(j) * Fraction(factorial(j), 2)
        for j in range(2, max_j + 1, 2)
    }


_ROUTE_BUILDERS = {
    "recursionA": _route_recursion_a,
    "recursionB": _route_recursion_b,
    "logRoute": _route_log,
}


def _family_args(
    k: int, max_j: int, order: int, route: str = "recursionA", allow_k2: bool = False
):
    if k < 2:
        raise ValueError("the family is defined for k >= 2")
    if k == 2 and not allow_k2:
        raise ValueError("k = 2 is an extrapolation; pass allow_k2=True to compute it")
    if max_j < 2 or max_j % 2:
        raise ValueError("max_j must be an even integer >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    if route not in _ROUTE_BUILDERS:
        raise ValueError(f"unknown route {route!r}; choose one of {ROUTES}")
    if route == "recursionB" and max_j - 2 > PARTITION_CEILING:
        # Its last member traces the partitions of max_j - 2: fail before any work.
        raise WindowTooLargeError(
            f"--j {max_j} by recursionB traces the partitions of {max_j - 2}, above "
            f"the enumeration ceiling {PARTITION_CEILING}"
        )
    return (k, max_j, route, allow_k2), order


@order_cache(_family_args)
def mock_eisenstein_family(
    k: int,
    max_j: int,
    order: int,
    route: str = "recursionA",
    allow_k2: bool = False,
) -> MockFamily:
    """Build the family {f_{k,j}} for even j <= max_j at the given order.

    k = 2 runs the same recursions with g_{2,3,ell}; it is an
    extrapolation outside the verified k >= 3 range and must be enabled
    explicitly.
    """
    g = _g_sums(k, max_j, order)
    members = _ROUTE_BUILDERS[route](g, max_j, order)
    return MockFamily(
        k=k,
        max_j=max_j,
        order=order,
        route=route,
        extrapolated=(k == 2),
        members=members,
    )


def first_fractional(series: QSeries) -> Optional[int]:
    """The first n whose coefficient of q^n is not an integer, or None."""
    if series.den == 1:
        return None
    # In lowest terms some numerator is not a multiple of a den above 1.
    return next(n for n, c in enumerate(series.nums) if c % series.den)
