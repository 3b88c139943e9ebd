"""Named verification suites with machine-readable results, and the
identity checks only they run.

Each suite checks one family of identities at its default acceptance
size; sizes can be overridden.  All comparisons are exact, so a check
either matches coefficient-for-coefficient or reports the first
offender.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from . import functions as fn
from . import mock
from . import partitions as pt
from . import pde
from .bernoulli import bernoulli
from .errors import ConfigError
from .flags import FLAGS, check
from .functions import eisenstein_members
from .qseries import QSeries, partition_series
from .wjets import WJet, build_jet, rational_jet, two_sinh_half_over_w

DEFAULT_KS = (3, 4, 5)


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


def _first_nonzero(residual) -> Optional[Tuple[Optional[int], int, Fraction]]:
    """(w-degree, n, coefficient) of the first nonzero coefficient, or None.

    ``residual`` is a q-series, whose degree is None, or a jet in w: a WJet
    or a list of q-series indexed by w-degree.
    """
    if isinstance(residual, QSeries):
        by_degree = [(None, residual)]
    elif isinstance(residual, WJet):
        by_degree = zip(residual.degrees(), residual.coeffs)
    else:
        by_degree = enumerate(residual)
    for d, series in by_degree:
        for n, c in enumerate(series.nums):
            if c:
                return d, n, Fraction(c, series.den)
    return None


def _series_check(name: str, a, b) -> CheckResult:
    bad = _first_nonzero(a - b)
    if bad is None:
        return CheckResult(name, True)
    n = bad[1]
    return CheckResult(name, False, f"q^{n}: {a.coeff(n)} != {b.coeff(n)}")


def _zero_check(name: str, residual) -> CheckResult:
    bad = _first_nonzero(residual)
    if bad is None:
        return CheckResult(name, True)
    d, n, c = bad
    where = f"q^{n}: {c} != 0" if d is None else f"w^{d} q^{n}: residual {c}"
    return CheckResult(name, False, where)


def _count_check(
    name: str, route: str, table: pt.CountTable, rows: Dict[int, QSeries]
) -> CheckResult:
    """The count series ``rows[m]`` against the enumerated ``table``; reports
    the first mismatch.  Coefficient n of ``rows[m]`` is nums[n] / den, so it
    equals a count c exactly when nums[n] == c * den."""
    for m in range(-table.max_abs_m, table.max_abs_m + 1):
        nums, den = rows[m].nums, rows[m].den
        for n in range(table.max_n + 1):
            want = table.count(m, n)
            if nums[n] != want * den:
                got = Fraction(nums[n], den)
                detail = f"N_{table.k}({m},{n}): {route} {got}, enumeration {want}"
                return CheckResult(name, False, detail)
    return CheckResult(name, True)


# -- identity checks ------------------------------------------------------


def _trace_residuals(moments: List[QSeries], members: mock.Members, order: int) -> List[QSeries]:
    """Residuals, one per power of w through w^(len(moments) - 1), of

        sum_j M_j w^j/j! = (2 sinh(w/2) / (w (q)_inf)) sum_j Tr_j(phi, members) w^j

    for the moment series M_j = ``moments[j]``.
    """
    max_j = len(moments) - 1
    monomials: dict = {}
    traces = build_jet(
        {j: mock.partition_trace(j, members, order, monomials=monomials) for j in range(max_j + 1)},
        0,
        max_j,
        order,
    )
    sinc = rational_jet(two_sinh_half_over_w(max_j), order)
    rhs = (sinc * traces).scale(partition_series(order))
    return [moments[j] / factorial(j) - rhs.coeff(j) for j in range(max_j + 1)]


def trace_identity_residuals(k: int, max_j: int, order: int) -> List[QSeries]:
    """Residuals (one per power of the trace variable, 0..max_j) of

        sum_j R_{k,j} w^j/j! + theta_{1,2k-1}/(q)_inf
            = (2 sinh(w/2) / (w (q)_inf)) sum_j Tr_j(phi, f_k) w^j.

    The theta shift on the w^0 coefficient makes the identity exact;
    without it the two sides already differ at q^{k-1}.
    """
    if max_j % 2:
        raise ValueError("max_j must be even")
    fam = mock.mock_eisenstein_family(k, max(max_j, 2), order)
    moments = [fn.rank_moment(k, j, order, "direct") for j in range(max_j + 1)]
    moments[0] = moments[0] + fn.theta_series(1, 2 * k - 1, order) * partition_series(order)
    return _trace_residuals(moments, fam.member, order)


def crank_trace_residuals(max_j: int, order: int) -> List[QSeries]:
    """Residuals of the crank analogue

        sum_j C_j w^j/j! = (2 sinh(w/2) / (w (q)_inf)) sum_j Tr_j(phi, G) w^j

    with C_j from enumeration and G the Eisenstein family."""
    if max_j % 2:
        raise ValueError("max_j must be even")
    moments = [fn.crank_moment(j, order, "combinatorial") for j in range(max_j + 1)]
    return _trace_residuals(moments, eisenstein_members(order), order)


def integrality_check(family: mock.MockFamily) -> CheckResult:
    """Check that every member plus B_j/(2j) has integer coefficients."""
    name = f"integrality: k={family.k}, j<={family.max_j}, order {family.order}"
    for j in range(2, family.max_j + 1, 2):
        shifted = family.member(j) + bernoulli(j) / (2 * j)
        n = mock.first_fractional(shifted)
        if n is not None:
            detail = f"member j={j}: coefficient of q^{n} is {shifted.coeff(n)}"
            return CheckResult(name, False, detail)
    return CheckResult(name, True)


def leading_pattern_check(
    k: int, j: int, order: int, family: Optional[mock.MockFamily] = None
) -> CheckResult:
    """Check the leading coefficients of f_{k,j}:

    constant -B_j/(2j), then q^{k+i} carries (i+1)^j - i^j for i < k.
    """
    if j < 2 or j % 2:
        raise ValueError("the pattern concerns even j >= 2")
    if order < 2 * k - 1:
        raise ValueError("order must reach q^{2k-1}")
    if family is None:
        family = mock.mock_eisenstein_family(k, j, order)
    name = f"pattern: f_{{{k},{j}}} leading coefficients"
    member = family.member(j)
    expected_const = -bernoulli(j) / (2 * j)
    if member.coeff(0) != expected_const:
        return CheckResult(name, False, f"constant {member.coeff(0)} != {expected_const}")
    for i in range(k):
        want = (i + 1) ** j - i**j
        got = member.coeff(k + i)
        if got != want:
            return CheckResult(name, False, f"coefficient of q^{k + i} is {got}, expected {want}")
    return CheckResult(name, True)


# -- suites ---------------------------------------------------------------


def suite_counts(
    ks: Iterable[int] = DEFAULT_KS,
    max_n: Optional[int] = None,
    max_m: Optional[int] = None,
) -> List[CheckResult]:
    """N_k(m,n): enumeration vs the count series, plus the multisum for k=3."""
    # The multisum's smaller default window is part of verify's recorded output.
    n_top, n3 = (25, 15) if max_n is None else (max_n, max_n)
    m_top, m3 = (6, 5) if max_m is None else (max_m, max_m)
    results = []
    for k in ks:
        table = pt.count_table(k, m_top, n_top)
        by_abs = [fn.krank_count_series(k, m, n_top) for m in range(m_top + 1)]
        series = {m: by_abs[abs(m)] for m in range(-m_top, m_top + 1)}  # it reads only |m|
        name = f"counts: N_{k} enumeration = count series (n<={n_top}, |m|<={m_top})"
        results.append(_count_check(name, "series", table, series))
        if k == 3:
            small = pt.count_table(3, m3, n3)
            multi = fn.multisum_count_table(3, m3, n3)
            rows = {
                m: QSeries._of(multi.count(m, n) for n in range(n3 + 1))
                for m in range(-m3, m3 + 1)
            }
            name = f"counts: N_3 multisum = enumeration (n<={n3}, |m|<={m3})"
            results.append(_count_check(name, "multisum", small, rows))
    return results


def suite_moments(
    ks: Iterable[int] = DEFAULT_KS, max_j: int = 10, order: int = 40
) -> List[CheckResult]:
    """Rank-moment identities: two series routes, odd vanishing, and the
    brute-force moments through j = 6 at order 25."""
    comb_order, comb_max_j = 25, 6
    results = []
    for k in ks:
        results += [
            _series_check(
                f"moments: R_{{{k},{j}}} direct = divisor-sum (order {order})",
                fn.rank_moment(k, j, order, "direct"),
                fn.rank_moment(k, j, order, "divisor-sum"),
            )
            for j in range(2, max_j + 1, 2)
        ]
        odd_ok = all(
            fn.rank_moment(k, j, order, m).is_zero()
            for j in range(1, max_j + 1, 2)
            for m in ("direct", "divisor-sum")
        )
        results.append(CheckResult(f"moments: R_{{{k},odd}} vanish identically", odd_ok))
        results += [
            _series_check(
                f"moments: R_{{{k},{j}}} {'theta form' if j == 0 else 'series'}"
                f" = enumeration (order {comb_order})",
                fn.rank_moment(k, j, comb_order, "direct"),
                fn.rank_moment(k, j, comb_order, "combinatorial"),
            )
            for j in range(comb_max_j + 1)
        ]
    return results


def suite_traces(
    ks: Iterable[int] = DEFAULT_KS, max_j: int = 8, order: int = 30
) -> List[CheckResult]:
    """The moment/trace identity (with the theta shift) per k."""
    return [
        _zero_check(
            f"traces: k={k} moment/trace identity (w^{max_j}, order {order})",
            trace_identity_residuals(k, max_j, order),
        )
        for k in ks
    ]


def suite_crank(max_j: int = 8, order: int = 20) -> List[CheckResult]:
    """The crank analogue of the trace identity, plus method agreement."""
    trace = _zero_check(
        f"crank: trace identity for Eisenstein family (w^{max_j}, order {order})",
        crank_trace_residuals(max_j, order),
    )
    eisenstein_route = fn.crank_moments(max_j, order)
    return [trace] + [
        _series_check(
            f"crank: C_{j} enumeration = Eisenstein route (order {order})",
            fn.crank_moment(j, order, "combinatorial"),
            eisenstein_route[j],
        )
        for j in range(max_j + 1)
    ]


def suite_integrality(
    ks: Iterable[int] = DEFAULT_KS, max_j: int = 12, order: int = 60
) -> List[CheckResult]:
    return [integrality_check(mock.mock_eisenstein_family(k, max_j, order)) for k in ks]


def suite_pattern(ks: Iterable[int] = DEFAULT_KS, max_j: int = 12) -> List[CheckResult]:
    return [
        leading_pattern_check(k, j, 2 * k, family)
        for k in ks
        for family in [mock.mock_eisenstein_family(k, max_j, 2 * k)]
        for j in range(2, max_j + 1, 2)
    ]


def suite_pde(q_order: int = 20) -> List[CheckResult]:
    return [
        _zero_check(
            f"pde: level-5 residual zero on window [-5, 7] at order {q_order}",
            pde.pde_residual(7, q_order),
        )
    ]


def suite_theta_ode(q_order: int = 40) -> List[CheckResult]:
    return [
        _zero_check(
            f"theta-ode: theta_{{{a},5}} residual zero (order {q_order})",
            pde.theta_ode_residual(a, q_order),
        )
        for a in (1, 3)
    ]


SUITES: Dict[str, Callable[..., List[CheckResult]]] = {
    "counts": suite_counts,
    "moments": suite_moments,
    "traces": suite_traces,
    "crank": suite_crank,
    "integrality": suite_integrality,
    "pattern": suite_pattern,
    "pde": suite_pde,
    "theta-ode": suite_theta_ode,
}


def iter_suites(
    name: str, flags: Optional[Dict[str, object]] = None
) -> Iterator[List[CheckResult]]:
    """Run one named suite (or 'all'), yielding each suite's results as it finishes.

    ``flags`` are size overrides keyed by CLI flag; flags whose value is
    None are not given.  A suite named on its own refuses a flag it does not
    take; under 'all' each suite takes only its own.  A value is passed as
    the suite parameter that the suite's row of :data:`mockeis.flags.FLAGS`
    names (``--k K`` as ``ks=(K,)``), once every flag of every suite to run
    has passed its check there.  Under 'all', an error inside one suite
    stops the run after the results of the suites before it.
    """
    given = {flag: v for flag, v in (flags or {}).items() if v is not None}
    calls = []
    for key in list(SUITES) if name == "all" else [name]:
        scope = f"suite {key!r}"
        rules = FLAGS[scope]
        unknown = [flag for flag in given if flag not in rules]
        if unknown and name != "all":
            raise ConfigError(f"{scope} does not take {', '.join(unknown)}")
        taken = {flag: v for flag, v in given.items() if flag in rules}
        for flag, v in taken.items():
            check(scope, flag, v)
        calls.append((key, {rules[flag].dest: (v,) if rules[flag].dest == "ks" else v
                            for flag, v in taken.items()}))
    for key, kwargs in calls:
        yield SUITES[key](**kwargs)
