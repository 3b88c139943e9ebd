"""Named verification suites with machine-readable results.

Each suite checks one family of identities at its default acceptance
size; sizes can be overridden.  All comparisons are exact, so a check
either matches coefficient-for-coefficient or reports the first
offender.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from . import functions as fn
from . import mock
from . import partitions as pt
from . import pde
from .errors import ConfigError
from .qseries import QSeries
from .wjets import WJet

DEFAULT_KS = (3, 4, 5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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


# -- suites ---------------------------------------------------------------


def suite_counts(
    ks: Iterable[int] = DEFAULT_KS,
    max_n: Optional[int] = None,
    max_m: Optional[int] = None,
) -> List[CheckResult]:
    """N_k(m,n): enumeration vs the count series, plus the multisum for k=3."""
    results = []
    for k in ks:
        n_top = 25 if max_n is None else max_n
        m_top = 6 if max_m is None else max_m
        table = pt.count_table(k, m_top, n_top)
        ok = True
        detail = ""
        for m in range(-m_top, m_top + 1):
            series = fn.krank_count_series(k, m, n_top)
            for n in range(n_top + 1):
                if series.coeff(n) != table.count(m, n):
                    ok = False
                    detail = (
                        f"N_{k}({m},{n}): series {series.coeff(n)}, "
                        f"enumeration {table.count(m, n)}"
                    )
                    break
            if not ok:
                break
        results.append(
            CheckResult(
                f"counts: N_{k} enumeration = count series (n<={n_top}, |m|<={m_top})",
                ok,
                detail,
            )
        )
        if k == 3:
            n3 = min(15, n_top) if max_n is None else max_n
            m3 = min(5, m_top) if max_m is None else max_m
            small = pt.count_table(3, m3, n3)
            multi = fn.multisum_count_table(3, m3, n3)
            ok = True
            detail = ""
            for m in range(-m3, m3 + 1):
                for n in range(n3 + 1):
                    if multi.count(m, n) != small.count(m, n):
                        ok = False
                        detail = (
                            f"N_3({m},{n}): multisum {multi.count(m, n)}, "
                            f"enumeration {small.count(m, n)}"
                        )
                        break
                if not ok:
                    break
            results.append(
                CheckResult(
                    f"counts: N_3 multisum = enumeration (n<={n3}, |m|<={m3})",
                    ok,
                    detail,
                )
            )
    return results


def suite_moments(
    ks: Iterable[int] = DEFAULT_KS,
    max_j: int = 10,
    order: int = 40,
    comb_order: int = 25,
    comb_max_j: int = 6,
) -> List[CheckResult]:
    """Rank-moment identities: two series routes, odd vanishing, and the
    brute-force moments."""
    results = []
    for k in ks:
        for j in range(2, max_j + 1, 2):
            direct = fn.rank_moment(k, j, order, "direct").series
            divsum = fn.rank_moment(k, j, order, "divisor-sum").series
            results.append(
                _series_check(
                    f"moments: R_{{{k},{j}}} direct = divisor-sum (order {order})",
                    direct,
                    divsum,
                )
            )
        odd_ok = all(
            fn.rank_moment(k, j, order, m).series.is_zero()
            for j in range(1, max_j + 1, 2)
            for m in ("direct", "divisor-sum")
        )
        results.append(
            CheckResult(f"moments: R_{{{k},odd}} vanish identically", odd_ok)
        )
        zero_series = fn.rank_moment(k, 0, comb_order, "direct").series
        comb_zero = fn.rank_moment(k, 0, comb_order, "combinatorial").series
        results.append(
            _series_check(
                f"moments: R_{{{k},0}} theta form = enumeration (order {comb_order})",
                zero_series,
                comb_zero,
            )
        )
        for j in range(1, comb_max_j + 1):
            results.append(
                _series_check(
                    f"moments: R_{{{k},{j}}} series = enumeration (order {comb_order})",
                    fn.rank_moment(k, j, comb_order, "direct").series,
                    fn.rank_moment(k, j, comb_order, "combinatorial").series,
                )
            )
    return results


def suite_traces(
    ks: Iterable[int] = DEFAULT_KS, max_j: int = 8, order: int = 30
) -> List[CheckResult]:
    """The moment/trace identity (with the theta shift) per k."""
    results = []
    for k in ks:
        results.append(
            _zero_check(
                f"traces: k={k} moment/trace identity (w^{max_j}, order {order})",
                mock.trace_identity_residuals(k, max_j, order),
            )
        )
    return results


def suite_crank(max_j: int = 8, order: int = 20) -> List[CheckResult]:
    """The crank analogue of the trace identity, plus method agreement."""
    results = [
        _zero_check(
            f"crank: trace identity for Eisenstein family (w^{max_j}, order {order})",
            mock.crank_trace_residuals(max_j, order),
        )
    ]
    for j in range(0, max_j + 1):
        results.append(
            _series_check(
                f"crank: C_{j} enumeration = Eisenstein route (order {order})",
                fn.crank_moment(j, order, "combinatorial").series,
                fn.crank_moment(j, order, "eisenstein").series,
            )
        )
    return results


def suite_integrality(
    ks: Iterable[int] = DEFAULT_KS, max_j: int = 12, order: int = 60
) -> List[CheckResult]:
    results = []
    for k in ks:
        family = mock.mock_eisenstein_family(k, max_j, order)
        report = mock.integrality_check(family)
        results.append(
            CheckResult(
                f"integrality: k={k}, j<={max_j}, order {order}",
                report.ok,
                "" if report.ok else report.describe(),
            )
        )
    return results


def suite_pattern(ks: Iterable[int] = DEFAULT_KS, max_j: int = 12) -> List[CheckResult]:
    results = []
    for k in ks:
        order = 2 * k
        family = mock.mock_eisenstein_family(k, max_j, order)
        for j in range(2, max_j + 1, 2):
            report = mock.leading_pattern_check(k, j, order, family)
            results.append(
                CheckResult(
                    f"pattern: f_{{{k},{j}}} leading coefficients",
                    report.ok,
                    report.detail,
                )
            )
    return results


def suite_pde(max_deg: int = 7, q_order: int = 20) -> List[CheckResult]:
    return [
        _zero_check(
            f"pde: level-5 residual zero on window [-5, {max_deg}] at order {q_order}",
            pde.pde_residual(max_deg, q_order),
        )
    ]


def suite_theta_ode(q_order: int = 40) -> List[CheckResult]:
    results = []
    for a in (1, 3):
        results.append(
            _zero_check(
                f"theta-ode: theta_{{{a},5}} residual zero (order {q_order})",
                pde.theta_ode_residual(a, q_order),
            )
        )
    return results


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


# CLI flag -> suite parameter, per suite.  A suite named on its own
# rejects a flag it does not list; under "all" each suite takes only the
# flags it lists.
SUITE_FLAGS: Dict[str, Dict[str, str]] = {
    "counts": {"--k": "ks", "--maxn": "max_n", "--maxm": "max_m"},
    "moments": {"--k": "ks", "--maxj": "max_j", "--order": "order"},
    "traces": {"--k": "ks", "--maxj": "max_j", "--order": "order"},
    "crank": {"--maxj": "max_j", "--order": "order"},
    "integrality": {"--k": "ks", "--maxj": "max_j", "--order": "order"},
    "pattern": {"--k": "ks", "--maxj": "max_j"},
    "pde": {"--order": "q_order"},
    "theta-ode": {"--order": "q_order"},
}


def iter_suites(
    name: str, flags: Optional[Dict[str, object]] = None
) -> Iterator[List[CheckResult]]:
    """Run one named suite (or 'all'), yielding each suite's results as it finishes.

    ``flags`` are size overrides keyed by CLI flag; flags whose value is
    None are not given.  A value is passed as the suite parameter that
    :data:`SUITE_FLAGS` maps the flag to.  Under 'all', an error in one
    suite stops the run after the results of the suites before it.
    """
    given = {flag: v for flag, v in (flags or {}).items() if v is not None}
    if name == "all":
        for key in SUITES:
            taken = {f: v for f, v in given.items() if f in SUITE_FLAGS[key]}
            yield from iter_suites(key, taken)
        return
    if name not in SUITES:
        raise KeyError(name)
    params = SUITE_FLAGS[name]
    unknown = [flag for flag in given if flag not in params]
    if unknown:
        raise ConfigError(f"suite {name!r} does not take {', '.join(unknown)}")
    yield SUITES[name](**{params[flag]: v for flag, v in given.items()})


def run_suite(name: str, flags: Optional[Dict[str, object]] = None) -> List[CheckResult]:
    """The results of one named suite (or 'all'), as one list; see :func:`iter_suites`."""
    return [result for results in iter_suites(name, flags) for result in results]
