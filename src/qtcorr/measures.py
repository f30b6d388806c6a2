"""Coupled-quantile covariance and the variability measures it unifies.

The central quantity is ``g_covariance(F, G)``: the covariance between X
and the rank-preserving image of X under G, equal to the coupled-quantile
integral

    integral_0^1 F^{-1}(u) G^{-1}(u) du  -  mean(F) * mean(G).

Every other measure in this module is a thin reparametrization of that one
integral (variance, Gini mean difference, cumulative residual entropy and
its generalization, log-odds covariance, extended Gini, record-value
gaps), so there is a single production code path; the direct x-domain
integral forms live only in the test suite as independent oracles.

A step law (``Empirical``) is a sorted column of its centred values, constant on
each of its n cells, so g takes the estimators' exact rank-cell route: the dot with
the other law's cell means over n (of two step laws, the larger is the column), or
of two such columns of equal size.

Location cancels and scale factors out: g(F, G) = s_F s_G g(F0, G0) on the
laws' standard shapes.  Each distinct quadrature integral is computed once per
process: one ``lru_cache`` of 1024 floats, ``_quadrature_memo``, shared with
``correlation.dependence_integral``, keys ``g_covariance`` on the unordered
pair of standard shapes plus abs_tol, never the method or seed.
Keys hold only hashable dataclass laws of numbers, so no array data (no
``Empirical`` law) is retained; errors are not cached.  Tests reset it with
``cache_clear``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    Logistic,
    Pareto,
    Power,
    Reflected,
    Uniform,
    Weibull,
)
from .errors import DomainError
from .estimation import _cell_dots, _dot
from .quadrature import unit_integral


@dataclass(frozen=True)
class IntegrationConfig:
    """Numerical policy shared by every measure and correlation routine.

    method      -- "quadrature" or "monte_carlo"
    abs_tol     -- absolute tolerance target of adaptive quadrature on standard shapes;
                   halving the engine's tail truncation must not move a result by as much
    mc_samples  -- Monte Carlo sample count
    seed        -- base seed; operations derive child streams from it
    """

    method: str = "quadrature"
    abs_tol: float = 1e-8
    mc_samples: int = 10**6
    seed: int = 42

    def __post_init__(self):
        if self.method not in ("quadrature", "monte_carlo"):
            raise DomainError(f"unknown method {self.method!r}")
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive")
        if self.mc_samples < 10**3:
            raise DomainError("mc_samples must be at least 1000")


DEFAULT_CONFIG = IntegrationConfig()


def _by_value(x) -> bool:
    """True for numbers and for hashable dataclasses of them, such as laws and copulas."""
    names = getattr(type(x), "__dataclass_fields__", None)
    if names is None:
        return isinstance(x, (int, float))
    return type(x).__hash__ is not None and all(_by_value(getattr(x, n)) for n in names)


@functools.lru_cache(maxsize=1024)
def _quadrature_memo(integral, *key) -> float:
    return integral(*key)


def _once(integral, args, cfg: IntegrationConfig) -> float:
    """integral(*args, abs_tol), integrated once per process when args are by value."""
    if all(map(_by_value, args)):
        return _quadrature_memo(integral, *args, cfg.abs_tol)
    return integral(*args, cfg.abs_tol)


def _is_degenerate(d: Distribution) -> bool:
    return isinstance(d, Empirical) and d.is_degenerate()


def g_covariance(
    f: Distribution,
    g: Distribution,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """Covariance of X with the G-image of its own rank, Cov(X, G^{-1}F(X)).

    Equals the coupled-quantile integral of F^{-1} and G^{-1} minus the
    product of means; symmetric in its arguments and nonnegative up to
    quadrature tolerance.  Degenerate empirical inputs return 0.  Location
    cancels and scale factors out: it is s_F s_G times the standard shapes' one.
    """
    (f, _, sf), (g, _, sg) = f.standard_form, g.standard_form
    if _is_degenerate(f) or _is_degenerate(g):
        return 0.0
    if isinstance(g, Empirical) and not (isinstance(f, Empirical) and f.n >= g.n):
        f, g = g, f  # the step law with more cells is the column, so both orders agree
    if not isinstance(f, Empirical):  # the means commute exactly: one entry serves both orders
        return sf * sg * _once(_coupled_quadrature, sorted((f, g), key=repr), cfg)
    if isinstance(g, Empirical) and g.n == f.n:
        return sf * sg * (_dot(f.values, g.values) / f.n)
    return sf * sg * (_cell_dots(g, f.n, (None, f.values))[0] / f.n)


def _coupled_quadrature(f, g, abs_tol: float) -> float:
    def integrand(p, upper):
        if upper:
            return f.quantile_comp(p) * g.quantile_comp(p)
        return f.quantile(p) * g.quantile(p)

    return unit_integral(integrand, abs_tol) - f.mean() * g.mean()


def gmd(f: Distribution, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Gini mean difference E|X1 - X2| = 4 Cov(X, F(X))."""
    return 4.0 * g_covariance(f, Uniform(0.0, 1.0), cfg)


def extended_gini(
    f: Distribution, nu: float, cfg: IntegrationConfig = DEFAULT_CONFIG
) -> float:
    """Extended Gini with weight nu > 0 (nu != 1); nu = 2 halves the GMD.

    Computed as nu times the coupled-quantile covariance against the
    Pareto (nu < 1) or power (nu > 1) weight law, which keeps the measure
    nonnegative across both regimes.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"extended_gini requires nu > 0, got {nu}")
    if nu == 1.0:
        raise DomainError("extended_gini is undefined at nu = 1")
    weight_law = Pareto(nu) if nu < 1.0 else Power(nu)
    return nu * g_covariance(f, weight_law, cfg)


def _require_nonnegative_support(f: Distribution, what: str) -> None:
    if f.support[0] < 0.0:
        raise DomainError(f"{what} requires a law supported on [0, inf)")


def cre(f: Distribution, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Cumulative residual entropy of a nonnegative law.

    Equals Cov(X, Lambda(X)) with Lambda the cumulative hazard, i.e. the
    coupled-quantile covariance against a unit exponential.
    """
    _require_nonnegative_support(f, "cre")
    return g_covariance(f, Exponential(1.0), cfg)


def gcre(
    f: Distribution, n: int, cfg: IntegrationConfig = DEFAULT_CONFIG
) -> float:
    """Generalized cumulative residual entropy of order n >= 1.

    Uses the covariance representation built from Weibull(1, 1/n) weight
    laws; n = 1 reduces to :func:`cre`.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"gcre requires an integer n >= 1, got {n}")
    _require_nonnegative_support(f, "gcre")
    if n == 1:
        return cre(f, cfg)
    lead = g_covariance(f, Weibull(1.0, 1.0 / n), cfg) / math.factorial(n)
    prev = g_covariance(f, Weibull(1.0, 1.0 / (n - 1)), cfg) / math.factorial(n - 1)
    return lead - prev


def log_odds_covariance(
    f: Distribution, cfg: IntegrationConfig = DEFAULT_CONFIG
) -> float:
    """Covariance of X with its log-odds rate log(F / (1 - F))."""
    return g_covariance(f, Logistic(0.0, 1.0), cfg)


def equilibrium_entropy(
    f: Distribution, cfg: IntegrationConfig = DEFAULT_CONFIG
) -> float:
    """Shannon entropy of the stationary-renewal (equilibrium) density."""
    _require_nonnegative_support(f, "equilibrium_entropy")
    mu = f.mean()
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"equilibrium_entropy requires 0 < mean < inf, got {mu}")
    return cre(f, cfg) / mu + math.log(mu)


def record_mean_gap(
    f: Distribution,
    n: int,
    kind: str = "upper",
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """Expected gap between the n-th and first record values.

    kind = "upper" gives E(R_n - R_1) for upper records, "lower" the same
    for lower records, and "spread" the expected distance E(R_n - R'_n)
    between the n-th upper and lower records.  With m = n - 1 and the weight
    law W = Weibull(1, 1/m), whose quantile is (-log(1 - u))^m, the upper gap
    is Cov(X, W^{-1}F(X)) / m! and the lower gap is -Cov(X, R^{-1}F(X)) / m!
    for R = Reflected(W), whose quantile is -(-log u)^m.  Spread is upper
    minus lower: the sum of two integrals, each held to ``abs_tol``.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"record_mean_gap requires an integer n >= 1, got {n}")
    if kind not in ("upper", "lower", "spread"):
        raise DomainError(f"unknown record gap kind {kind!r}")
    if n == 1:
        return 0.0
    m = n - 1
    weight = Weibull(1.0, 1.0 / m)
    fact = math.factorial(m)
    if kind == "upper":
        return g_covariance(f, weight, cfg) / fact
    lower = 0.0 - g_covariance(f, Reflected(weight), cfg) / fact  # a zero gap stays +0.0
    if kind == "lower":
        return lower
    return g_covariance(f, weight, cfg) / fact - lower
