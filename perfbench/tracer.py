"""Per-layer counters and self times for qtcorr, measured from outside.

The tracer wraps public functions and methods of the qtcorr modules from
benchmark code; the package itself is not modified.  A wrapped function is
replaced in every loaded ``qtcorr`` namespace that binds it (``g_covariance``
is bound in ``measures``, ``correlation``, ``decomposition`` and the package
root), and :meth:`Tracer.uninstall` puts every original back.  A hook whose
function no longer exists is reported as ``absent`` instead of failing, so
the benchmark keeps running when a later refactor merges or renames it.

Each wrapped call is a span of one layer.  A layer's self time is its span
durations minus the time covered by nested spans; inclusive timers (such as
``bivariate.sample_s``) count only the outermost call.  Counts are exact and
repeat run to run: integrand points, calls, and distinct-argument ratios.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

_DIST_METHODS = (
    "quantile",
    "quantile_comp",
    "quantile_density",
    "quantile_density_comp",
    "quantile_integral",
    "quantile_integral_comp",
)

# Layers whose self time is reported, and the plain spans that feed them.
_PLAIN_SPANS = (
    ("qtcorr.quadrature", "unit_integral", "quadrature"),
    ("qtcorr.quadrature", "unit_integral_2d", "quadrature"),
    ("qtcorr.measures", "cov_with_unit_transform", "measures"),
    ("qtcorr.correlation", "beta_h", "correlation"),
    ("qtcorr.correlation", "beta_h_reversed", "correlation"),
    ("qtcorr.correlation", "pearson", "correlation"),
    ("qtcorr.correlation", "rho_t", "correlation"),
    ("qtcorr.correlation", "rho_t_scale", "correlation"),
    ("qtcorr.correlation", "symmetric_tau", "correlation"),
    ("qtcorr.correlation", "symmetric_nu", "correlation"),
    ("qtcorr.correlation", "symmetric_nu_bar", "correlation"),
    ("qtcorr.correlation", "fgm_beta_closed_form", "correlation"),
    ("qtcorr.decomposition", "decompose", "decomposition"),
    ("qtcorr.decomposition", "subadditivity_report", "decomposition"),
)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _arg_key(value):
    """Hashable identity of an argument: laws and configs by value."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, _digest(value))
    if dataclasses.is_dataclass(value):
        return repr(value)
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):  # Empirical laws are not dataclasses
        return (type(value).__name__, _digest(values))
    return repr(value)


def _call_key(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(_arg_key(v) for v in bound.arguments.values())


class Tracer:
    """Installable set of wrappers; one instance per traced pass."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.distinct = defaultdict(set)
        self.merged_distinct = defaultdict(int)
        self.hooks: dict[str, str] = {}
        self._stack: list[list] = []
        self._depth = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _run(self, layer, timer, fn, args, kwargs):
        """Call fn inside a span; returns (result, outermost-for-timer)."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[timer] += 1
        outer = self._depth[timer] == 1
        try:
            return fn(*args, **kwargs), outer
        finally:
            dur = time.perf_counter() - frame[0]
            self._stack.pop()
            self._depth[timer] -= 1
            self.self_s[layer] += dur - frame[1]
            if outer:
                self.incl_s[timer] += dur
            if self._stack:
                self._stack[-1][1] += dur

    def _untimed(self, fn, *args):
        """Bookkeeping that must not count as the caller's self time."""
        t0 = time.perf_counter()
        out = fn(*args)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - t0
        return out

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if not (name == "qtcorr" or name.startswith("qtcorr.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _hook_function(self, module, name, make_wrapper):
        hook = f"{module.rsplit('.', 1)[-1]}.{name}"
        mod = sys.modules.get(module)
        original = getattr(mod, name, None) if mod is not None else None
        if not callable(original):
            self.hooks[hook] = "absent"
            return
        self._replace_everywhere(original, make_wrapper(original))
        self.hooks[hook] = "ok"

    def _hook_methods(self, base, names, make_wrapper, hook_prefix):
        classes = [base]
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        for name in names:
            found = False
            for cls in classes:
                original = cls.__dict__.get(name)
                if callable(original):
                    self._patches.append((cls, name, original))
                    setattr(cls, name, make_wrapper(original))
                    found = True
            self.hooks[f"{hook_prefix}.{name}"] = "ok" if found else "absent"

    def _span_wrapper(self, layer, timer=None, after=None, before=None):
        timer = timer or layer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    args = before(args)
                result, outer = self._run(layer, timer, fn, args, kwargs)
                if after is not None:
                    self._untimed(after, outer, args, kwargs, result)
                return result

            return wrapper

        return make

    def _keyed_wrapper(self, layer, metric):
        def make(fn):
            sig = inspect.signature(fn)

            def after(outer, args, kwargs, result):
                self.counts[f"{metric}_calls"] += 1
                self.distinct[metric].add(_call_key(sig, args, kwargs))

            return self._span_wrapper(layer, after=after)(fn)

        return make

    def _integrand(self, f, dim):
        points = f"quadrature.points_{dim}d"

        @functools.wraps(f)
        def wrapped(*xs):
            self.counts[points] += np.size(xs[0])
            return self._run("integrand", "quadrature.integrand_s", f, xs, {})[0]

        return wrapped

    def _engine_wrapper(self, dim):
        def before(args):
            self.counts[f"quadrature.calls_{dim}d"] += 1
            return (self._integrand(args[0], dim),) + tuple(args[1:])

        return self._span_wrapper("quadrature", timer="quadrature.engine", before=before)

    def install(self) -> "Tracer":
        import qtcorr.bivariate
        import qtcorr.cli  # noqa: F401  (binds names that must be patched too)
        import qtcorr.distributions

        def dist_after(outer, args, kwargs, result):
            if outer:
                self.counts["distributions.points"] += np.size(args[1])

        self._hook_methods(
            qtcorr.distributions.Distribution,
            _DIST_METHODS,
            self._span_wrapper("distributions", after=dist_after),
            "distributions",
        )

        def sample_after(outer, args, kwargs, result):
            if outer:
                u, v = result
                self.counts["bivariate.sample_calls"] += 1
                self.counts["bivariate.sample_pairs"] += np.size(u)
                self.distinct["bivariate.sample"].add(_digest(u, v))

        def cond_after(outer, args, kwargs, result):
            self.counts["bivariate.cond_cdf_points"] += np.size(result)

        copula = qtcorr.bivariate.Copula
        self._hook_methods(
            copula,
            ("sample",),
            self._span_wrapper("bivariate", "bivariate.sample_s", after=sample_after),
            "bivariate",
        )
        self._hook_methods(
            copula,
            ("cond_cdf",),
            self._span_wrapper("bivariate", "bivariate.cond_cdf", after=cond_after),
            "bivariate",
        )

        self._hook_function("qtcorr.quadrature", "integrate", self._engine_wrapper(1))
        self._hook_function("qtcorr.quadrature", "integrate_2d", self._engine_wrapper(2))
        for module, name, layer in _PLAIN_SPANS:
            self._hook_function(module, name, self._span_wrapper(layer))
        self._hook_function(
            "qtcorr.measures",
            "g_covariance",
            self._keyed_wrapper("measures", "measures.g_covariance"),
        )
        self._hook_function(
            "qtcorr.correlation",
            "dependence_integral",
            self._keyed_wrapper("correlation", "correlation.dependence_integral"),
        )

        def estimate_after(outer, args, kwargs, result):
            if outer:
                self.counts["estimation.estimate_calls"] += 1

        for name in ("estimate_named", "estimate_beta_h"):
            self._hook_function(
                "qtcorr.estimation",
                name,
                self._span_wrapper("estimation", "estimation.estimate_s", after=estimate_after),
            )

        def csv_after(outer, args, kwargs, result):
            self.counts["estimation.csv_rows"] += result.n

        self._hook_function(
            "qtcorr.estimation",
            "load_pairs_csv",
            self._span_wrapper("estimation", "estimation.csv_s", after=csv_after),
        )
        self._hook_function(
            "qtcorr.tables", "run_table", self._span_wrapper("tables", "tables.run_table_s")
        )
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def _ratio(self, key: str, calls: float) -> float:
        # An idle layer wastes nothing: 0 of 0 reads as a ratio of 1.
        if not calls:
            return 1.0
        return (len(self.distinct[key]) + self.merged_distinct[key]) / calls

    def metrics(self) -> dict[str, float]:
        c, s, i = self.counts, self.self_s, self.incl_s
        return {
            "distributions.points": c["distributions.points"],
            "distributions.self_s": s["distributions"],
            "quadrature.calls_1d": c["quadrature.calls_1d"],
            "quadrature.points_1d": c["quadrature.points_1d"],
            "quadrature.calls_2d": c["quadrature.calls_2d"],
            "quadrature.points_2d": c["quadrature.points_2d"],
            "quadrature.self_s": s["quadrature"],
            "quadrature.integrand_s": i["quadrature.integrand_s"],
            "measures.g_covariance_calls": c["measures.g_covariance_calls"],
            "measures.g_covariance_useful_ratio": self._ratio(
                "measures.g_covariance", c["measures.g_covariance_calls"]
            ),
            "correlation.dependence_integral_calls": c[
                "correlation.dependence_integral_calls"
            ],
            "correlation.dependence_integral_useful_ratio": self._ratio(
                "correlation.dependence_integral",
                c["correlation.dependence_integral_calls"],
            ),
            "correlation.self_s": s["correlation"],
            "bivariate.sample_calls": c["bivariate.sample_calls"],
            "bivariate.sample_pairs": c["bivariate.sample_pairs"],
            "bivariate.cond_cdf_points": c["bivariate.cond_cdf_points"],
            "bivariate.sample_s": i["bivariate.sample_s"],
            "bivariate.sample_useful_ratio": self._ratio(
                "bivariate.sample", c["bivariate.sample_calls"]
            ),
            "estimation.estimate_calls": c["estimation.estimate_calls"],
            "estimation.estimate_s": i["estimation.estimate_s"],
            "estimation.csv_rows": c["estimation.csv_rows"],
            "estimation.csv_s": i["estimation.csv_s"],
            "decomposition.self_s": s["decomposition"],
            "tables.run_table_s": i["tables.run_table_s"],
        }

    def merge(self, exported: dict) -> None:
        """Add the counters another traced process exported (the CLI shim).

        Distinct keys are summed per process, not unioned: a cache lives
        in one process, so repeats across processes are not waste it
        could remove.
        """
        for key, value in exported["counts"].items():
            self.counts[key] += value
        for key, value in exported["self_s"].items():
            self.self_s[key] += value
        for key, value in exported["incl_s"].items():
            self.incl_s[key] += value
        for key, value in exported["distinct"].items():
            self.merged_distinct[key] += value

    def export(self) -> dict:
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
