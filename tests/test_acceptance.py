"""Acceptance criteria, one test per criterion, exact (tolerance zero).

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

from mockeis import verify
from mockeis.functions import theta_series
from mockeis.mock import mock_eisenstein_family
from mockeis.pde import pde_residual, theta_ode_residual
from mockeis.qseries import QSeries, euler_product

from tests.test_mock import KNOWN_TABLES


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _all_passed(results):
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_criterion_01_published_tables():
    with criterion(1, "published coefficient tables for k in {3,4,5}, j in {2,4,6,8}"):
        for route in ("recursionA", "recursionB", "logRoute"):
            for (k, j), expected in sorted(KNOWN_TABLES.items()):
                fam = mock_eisenstein_family(k, 8, len(expected) - 1, route)
                assert fam.member(j) == QSeries(expected), (route, k, j)


def test_criterion_02_three_route_equality():
    with criterion(2, "recursionA = recursionB = logRoute, k in {3,4,5}, j <= 12, order 40"):
        for k in (3, 4, 5):
            fams = [
                mock_eisenstein_family(k, 12, 40, route)
                for route in ("recursionA", "recursionB", "logRoute")
            ]
            for j in range(1, 13):
                a, b, c = (fam.member(j) for fam in fams)
                assert a == b == c, (k, j)


def test_criterion_03_combinatorial_oracle():
    with criterion(3, "N_k(m,n): enumeration = count series = multisum"):
        _all_passed(verify.suite_counts())


def test_criterion_04_moment_identities():
    with criterion(4, "rank-moment identities (two routes, odd vanishing, enumeration)"):
        _all_passed(verify.suite_moments())


def test_criterion_05_trace_identities():
    with criterion(5, "moment/trace identity (theta-shifted) and crank analogue"):
        _all_passed(verify.suite_traces())
        residuals = verify.crank_trace_residuals(8, 20)
        assert all(r.is_zero() for r in residuals)


def test_criterion_06_integrality():
    with criterion(6, "integer shifted coefficients, k in {3,4,5}, j <= 12, order 60"):
        _all_passed(verify.suite_integrality())


def test_criterion_07_leading_pattern():
    with criterion(7, "leading coefficients (i+1)^j - i^j at q^{k+i}"):
        _all_passed(verify.suite_pattern())


def test_criterion_08_pde_residual():
    with criterion(8, "level-5 rank-crank-type PDE residual, window [-5,7], order 20"):
        residual = pde_residual(7, 20)
        assert (residual.min_deg, residual.max_deg) == (-5, 7)
        assert residual.is_zero()


def test_criterion_09_theta_ode():
    with criterion(9, "theta differential equation residuals at order 40"):
        assert theta_ode_residual(1, 40).is_zero()
        assert theta_ode_residual(3, 40).is_zero()


def test_criterion_10_structural_properties():
    with criterion(10, "pentagonal identity, exp/log round-trip, Leibniz rule"):
        for order in range(61):
            assert euler_product(order) == theta_series(1, 3, order)

        rng = random.Random(20260810)

        def random_series(zero_const=False):
            order = rng.randint(5, 20)
            coeffs = [
                F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
            ]
            if zero_const:
                coeffs[0] = F(0)
            return QSeries(coeffs)

        for _ in range(100):
            a = random_series(zero_const=True)
            assert a.exp().log() == a

        for _ in range(100):
            a = random_series()
            b = random_series()
            n = min(a.order, b.order)
            lhs = (a * b).qderiv()
            rhs = (
                a.qderiv().truncate(n) * b.truncate(n)
                + a.truncate(n) * b.qderiv().truncate(n)
            )
            assert lhs == rhs
