"""Every flag of every command, declared once, and the one check of its values.

``FLAGS[scope][option]`` is a ``Flag``: ``dest`` is a command flag's argparse
attribute (``kwargs`` its other keywords) or a suite's parameter, and it takes
``least`` <= value <= ``ceiling``, the enumeration ceiling, even if ``even``.
This module imports no computing code, so that parsing a command loads none.
"""

from collections import namedtuple

from .errors import ConfigError

ROUTES = ("recursionA", "recursionB", "logRoute")
RANK_METHODS = ("direct", "divisor-sum", "combinatorial")
SUITES = ("counts", "moments", "traces", "crank", "integrality", "pattern", "pde", "theta-ode")

#: Brute-force enumeration ceiling: p(40) = 37338 partitions, and 215,307
#: over 1 <= n <= 40.  ``partitions.partitions_of`` refuses any n above it.
PARTITION_CEILING = 40

Flag = namedtuple("Flag", "dest least even ceiling kwargs", defaults=(None, False, None, {}))
_NEED, _CEIL = {"type": int, "required": True}, PARTITION_CEILING
_K, _ORDER = Flag("k", 2, kwargs=_NEED), Flag("order", 1, kwargs={"type": int, "default": 30})
_OUT, _ALLOW_K2 = Flag("out"), Flag("allow_k2", kwargs={"action": "store_true"})
_ROUTE = Flag("route", kwargs={"choices": ROUTES, "default": "recursionA"})
_CSV = Flag("fmt", kwargs={"choices": ("csv", "json"), "default": "csv"})
_KS, _EVEN_J, _TRACE_J = Flag("ks", 3), Flag("max_j", 2, True), Flag("max_j", 0, True, _CEIL)
# Scopes: each command, then each suite, which takes the verify flags it lists.
# The family suites need --k >= 3: verify has no flag for the k = 2 extrapolation.
FLAGS = {
    "f": {"--k": _K, "--j": Flag("j", 1, kwargs=_NEED), "--order": _ORDER, "--route": _ROUTE,
          "--format": Flag("fmt", kwargs={"choices": ("text", "json", "bfile"), "default": "text"}),
          "--out": _OUT, "--allow-k2": _ALLOW_K2},
    "table Nk": {"--k": _K, "--format": _CSV, "--out": _OUT,
                 "--maxm": Flag("max_m", 0, kwargs=_NEED),
                 "--maxn": Flag("max_n", 0, False, _CEIL, _NEED)},
    "table moments": {
        "--k": Flag("k", 3, kwargs=_NEED), "--format": _CSV, "--out": _OUT,
        "--j": Flag("j", 0, kwargs=_NEED), "--order": _ORDER,
        "--method": Flag("method", kwargs={"choices": RANK_METHODS, "default": "direct"})},
    # The ceiling holds on every route, though only recursionB enumerates.
    "table traces": {"--k": _K, "--format": _CSV, "--out": _OUT,
                     "--maxj": Flag("max_j", 0, False, _CEIL, _NEED), "--order": _ORDER,
                     "--route": _ROUTE, "--allow-k2": _ALLOW_K2},
    "verify": {"--suite": Flag("suite", kwargs={"choices": ("all", *SUITES), "required": True}),
               **{"--" + dest.replace("_", ""): Flag(dest, kwargs={"type": int})
                  for dest in ("k", "max_j", "max_n", "max_m", "order")}},
    "suite 'counts'": {"--k": Flag("ks", 2), "--maxn": Flag("max_n", 0, False, _CEIL),
                       "--maxm": Flag("max_m", 0)},
    "suite 'moments'": {"--k": _KS, "--maxj": Flag("max_j", 0), "--order": Flag("order", 1)},
    "suite 'traces'": {"--k": _KS, "--maxj": _TRACE_J, "--order": Flag("order", 1)},
    "suite 'crank'": {"--maxj": _TRACE_J, "--order": Flag("order", 1, False, _CEIL)},
    "suite 'integrality'": {"--k": _KS, "--maxj": _EVEN_J, "--order": Flag("order", 1)},
    "suite 'pattern'": {"--k": _KS, "--maxj": _EVEN_J},
    "suite 'pde'": {"--order": Flag("q_order", 1)},
    "suite 'theta-ode'": {"--order": Flag("q_order", 1)},
}


def check(scope: str, option: str, value) -> None:
    """Raise ``ConfigError`` unless the flag ``option`` of ``scope`` accepts ``value``."""
    flag = FLAGS[scope][option]
    if flag.least is None or value is None:
        return
    if value < flag.least or flag.even and value % 2:
        even = "an even " if flag.even else ""
        raise ConfigError(f"{scope} needs {even}{option} >= {flag.least}")
    if flag.ceiling is not None and value > flag.ceiling:
        raise ConfigError(f"{scope}: {option} {value} exceeds the enumeration ceiling "
                          f"{flag.ceiling}")
