"""The level-5 Appell jet, the heat-type operators, and the two
differential-equation residuals.

Coordinates: w = 2*pi*i*z throughout, so that

    zeta = e^w,   1/(2i sin(pi z)) = 1/(2 sinh(w/2)),   qD = q d/dq,

and the heat-type operator at level 5 becomes

    H_j = 10 qD + d^2/dw^2 + 10 (2j - 1) G_2.

The level-5 Appell function, written through the k = 3 mock Eisenstein
family, is the jet

    A_5 = -(1/w) exp(2 sum_j f_{3,j} w^j/j!)
          + (1/(2 sinh(w/2))) theta_{1,5}
          - (e^w/(2 sinh(w/2))) theta_{1,5}
          - e^{3w/2} theta_{3,5},

and it satisfies (H_3 H_1 - (220/3) G_4) A_5 = -24 w^{-5} exp(10 sum_k G_k w^k/k!);
the right-hand side's -24 w^{-5} is the w-form of (3i)/(4 pi^5 z^5).
Since 2 sinh(w/2) = e^{-w/2} (e^w - 1), the two theta_{1,5} terms sum to
-e^{w/2} theta_{1,5}, so the code subtracts e^{c_a w} theta_{a,5} for each
a -> c_a of ``_THETA_C``.  For any q-series s, (H_3 H_1 - (220/3) G_4)(e^{cw} s)
is 100 e^{cw} times the operator of ``theta_ode_residual`` at alpha = c^2/10,
so the theta terms drop out of the PDE exactly when the theta ODE holds.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError
from .functions import eisenstein, eisenstein_exponential, theta_series
from .mock import mock_eisenstein_family
from .qseries import QSeries
from .wjets import WJet, exp_cw, member_exp

_THETA_C = {1: Fraction(1, 2), 3: Fraction(3, 2)}


def appell5_jet(max_deg: int, q_order: int) -> WJet:
    """The level-5 Appell jet, in the theta form above, on the certified window [-1, max_deg]."""
    if max_deg < 1 or q_order < 1:
        raise ValueError("max_deg and q_order must be >= 1")
    family = mock_eisenstein_family(3, max_deg + 2 - max_deg % 2, q_order)  # an even j > max_deg
    jet = -member_exp(family.member, 2, max_deg + 1, q_order).shift(-1)
    for a, c in _THETA_C.items():
        jet = jet - exp_cw(c, max_deg, q_order).scale(theta_series(a, 5, q_order))
    return jet


def heat_operator(j: int, jet: WJet) -> WJet:
    """H_j = 10 qD + d^2/dw^2 + 10 (2j - 1) G_2 on a jet.

    The second w-derivative shrinks the certified window to
    [min-2, max-2]; below the input window the other two summands are
    known zero, so nothing is lost at the bottom.
    """
    if j < 1 or j % 2 == 0:
        raise ValueError("heat operator index must be odd and positive")
    g2 = eisenstein(2, jet.q_order)
    return (
        jet.qderiv().scale(10)
        + jet.wderiv().wderiv()
        + jet.scale(g2 * (10 * (2 * j - 1)))
    )


def pde_residual(max_deg: int, q_order: int) -> WJet:
    """(H_3 H_1 - (220/3) G_4) A_5 + 24 w^{-5} exp(10 sum G_k w^k/k!).

    Zero on its whole certified window [-5, max_deg]; the w^{-5}
    coefficient alone is the leading Eisenstein identity, and each
    higher degree encodes one coefficient equation of the closure
    argument.
    """
    a5 = appell5_jet(max_deg + 4, q_order)
    g4 = eisenstein(4, q_order)
    lhs = heat_operator(3, heat_operator(1, a5)) - a5.scale(g4 * Fraction(220, 3))
    rhs = eisenstein_exponential(10, max_deg + 5, q_order).shift(-5).scale(-24)
    return lhs - rhs


def theta_ode_residual(a: int, q_order: int) -> QSeries:
    """Residual of the second-order theta differential equation.

    With alpha = c_a^2/10 (1/40 for theta_{1,5} and 9/40 for theta_{3,5}; the
    fractional q-power conjugated away):

        (qD + alpha + 5 G_2)(qD + alpha + G_2) theta - (11/15) G_4 theta.
    """
    try:
        alpha = _THETA_C[a] ** 2 / 10
    except KeyError:
        raise ConfigError("theta ODE is implemented for a in {1, 3} at level 5") from None
    theta = theta_series(a, 5, q_order)
    g2 = eisenstein(2, q_order)
    g4 = eisenstein(4, q_order)
    inner = theta.qderiv() + theta * alpha + g2 * theta
    outer = inner.qderiv() + inner * alpha + (g2 * inner) * 5
    return outer - (g4 * theta) * Fraction(11, 15)
