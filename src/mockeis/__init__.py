"""Exact q-series computations for k-rank moments, their mock Eisenstein
series, and the formal identities tying them together.

The public names below are loaded on first use (PEP 562), so that a
command line run imports only the modules its command needs.
"""

from importlib import import_module

# The submodule shares this function's name, so the package binds the
# function now: a later import of the submodule would bind the module.
from .bernoulli import bernoulli, bernoulli_poly

_MODULE_OF = {
    name: module
    for module, names in (
        ("divisor", "divisor_like_sum eisenstein"),
        ("functions", "crank_moment crank_moments eisenstein_members krank_count_series "
         "multisum_count_table rank_moment theta_deriv theta_series"),
        ("mock", "MockFamily mock_eisenstein_family partition_trace phi_weight"),
        ("partitions", "PARTITION_CEILING CountTable count_table crank durfee_sizes "
         "k_rank partitions_of rank"),
        ("pde", "appell5_jet heat_operator pde_residual theta_ode_residual"),
        ("qseries", "QSeries euler_product partition_series q_pochhammer"),
        ("verify", "crank_trace_residuals integrality_check leading_pattern_check "
         "trace_identity_residuals"),
        ("wjets", "WJet build_jet jet_exp jet_log"),
    )
    for name in names.split()
}

__all__ = ["bernoulli", "bernoulli_poly", *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
