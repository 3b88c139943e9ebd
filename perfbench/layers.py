"""In-process tracing of the mockeis layers for the per-layer metrics.

The benchmark's traced run calls ``mockeis.cli.main(argv)`` in this
process with the public entry point of each layer wrapped.  A wrapper
records one span (name, start, end, parent) per call and, for two layers,
a computed count.  Self time is a span's duration minus the time its
direct child spans cover.

Layers are hooked from outside the program: every module of the package
is scanned for names bound to the hooked function, so ``from .x import y``
bindings such as ``mock.partitions_of`` are wrapped as well as the
defining module's own name.  Helpers that run once per partition
(``durfee_sizes``, ``conjugate``, ``crank``) are deliberately not spanned:
they run more than 10^5 times per command, and a span on each would
dominate what it measures.

Each command starts cold, as a CLI process does: every ``lru_cache`` in
the package is cleared before it, and its ``cache_info()`` is read after.
"""

from __future__ import annotations

import importlib
import io
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stdout
from time import perf_counter

# (span name, module, attribute path).  ``qseries.mul`` and the verify
# suites are hooked separately.
HOOKS = (
    ("cli", "mockeis.cli", "main"),
    ("qseries.inverse", "mockeis.qseries", "QSeries.inverse"),
    ("qseries.partition_series", "mockeis.qseries", "partition_series"),
    ("wjets.mul", "mockeis.wjets", "WJet.__mul__"),
    ("wjets.jet_exp", "mockeis.wjets", "jet_exp"),
    ("wjets.jet_log", "mockeis.wjets", "jet_log"),
    ("mock.partition_trace", "mockeis.mock", "partition_trace"),
    ("mock.mock_eisenstein_family", "mockeis.mock", "mock_eisenstein_family"),
    ("functions.divisor_like_sum", "mockeis.functions", "divisor_like_sum"),
    ("functions.rank_moment", "mockeis.functions", "rank_moment"),
    ("functions.crank_moment", "mockeis.functions", "crank_moment"),
    ("functions.krank_count_series", "mockeis.functions", "krank_count_series"),
    ("functions.multisum_count_table", "mockeis.functions", "multisum_count_table"),
    ("partitions.partitions_of", "mockeis.partitions", "partitions_of"),
    ("partitions.count_table", "mockeis.partitions", "count_table"),
    ("pde.pde_residual", "mockeis.pde", "pde_residual"),
    ("pde.theta_ode_residual", "mockeis.pde", "theta_ode_residual"),
)

def package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "mockeis" or name.startswith("mockeis."))
    ]


def find_caches():
    """Every lru_cache bound at module level in the package, by qualified name."""
    caches = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                caches.setdefault(f"{value.__module__}.{value.__qualname__}", value)
    return caches


class Tracer:
    """Spans and counts of traced passes; install the hooks with :meth:`hooked`."""

    def __init__(self):
        # [name, start, end, parent index or -1, outermost span of its name]
        self.spans = []
        self.counts = Counter()
        self.cache_stats = Counter()  # (cache name, "hits" | "misses") -> total
        self._stack = []
        self._active = Counter()

    def wrap(self, name, func):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            active[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active[name] -= 1

        return traced

    @contextmanager
    def hooked(self):
        """Wrap every layer entry point for the duration of the block."""
        from mockeis import qseries, verify

        undo = []  # (object or dict, attribute or key, original value)
        try:
            for name, module_name, path in HOOKS:
                self._hook(name, importlib.import_module(module_name), path, undo)
            self._hook_series_mul(qseries.QSeries, undo)
            for suite, func in list(verify.SUITES.items()):
                undo.append((verify.SUITES, suite, func))
                verify.SUITES[suite] = self.wrap(f"verify.{suite}", func)
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def _hook(self, name, module, path, undo):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
            return
        original = getattr(module, attr)
        inner = self._count_enumerated(original) if name == "partitions.partitions_of" else original
        wrapped = self.wrap(name, inner)
        for other in package_modules():
            for binding, value in list(vars(other).items()):
                if value is original:
                    undo.append((other, binding, original))
                    setattr(other, binding, wrapped)

    def _count_enumerated(self, partitions_of):
        """Computed count ``partitions.enumerated``: partitions built on a cache miss."""
        info = getattr(partitions_of, "cache_info", None)
        counts = self.counts

        def counted(*args, **kwargs):
            before = info().misses if info else None
            result = partitions_of(*args, **kwargs)
            if info is None or info().misses != before:
                counts["partitions.enumerated"] += len(result)
            return result

        return counted

    def _hook_series_mul(self, cls, undo):
        """Span series-by-series products only; scalar products pass through."""
        counts = self.counts
        original_mul = vars(cls)["__mul__"]

        def product(a, b):
            # Computed count: coefficient products of a schoolbook convolution.
            n = min(a.order, b.order)
            counts["qseries.mul.coeff_ops"] += (n + 1) * (n + 2) // 2
            counts["qseries.mul.max_order"] = max(counts["qseries.mul.max_order"], n)
            return original_mul(a, b)

        traced_product = self.wrap("qseries.mul", product)
        for attr in ("__mul__", "__rmul__"):
            original = vars(cls)[attr]

            def dispatch(a, b, original=original):
                if isinstance(b, cls):
                    return traced_product(a, b)
                return original(a, b)

            undo.append((cls, attr, original))
            setattr(cls, attr, dispatch)

    def read_caches(self, caches):
        for name, cache in caches.items():
            info = cache.cache_info()
            self.cache_stats[(name, "hits")] += info.hits
            self.cache_stats[(name, "misses")] += info.misses

    def summary(self):
        """Per span name: calls, self_s, and total_s over outermost spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for index, (name, start, end, _, outer) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[index]
            if outer:
                row["total_s"] += end - start
        return out


def run_pass(commands, tracer=None):
    """Run each argv through ``mockeis.cli.main`` with cold caches.

    Returns (wall seconds, [(exit code, stdout bytes)]).  With a tracer
    the layers are hooked for the whole pass, and the cache statistics of
    each command are added to the tracer's.
    """
    from mockeis import cli

    caches = find_caches()
    results = []
    start = perf_counter()
    with tracer.hooked() if tracer is not None else nullcontext():
        for argv in commands:
            for cache in caches.values():
                cache.cache_clear()
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli.main(list(argv))
            if tracer is not None:
                tracer.read_caches(caches)
            results.append((code, buffer.getvalue().encode()))
    wall = perf_counter() - start
    for cache in caches.values():
        cache.cache_clear()
    return wall, results
