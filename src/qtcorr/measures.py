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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    Logistic,
    Pareto,
    Power,
    Uniform,
    Weibull,
)
from .errors import DomainError, UnsupportedOperationError
from .quadrature import unit_integral


@dataclass(frozen=True)
class IntegrationConfig:
    """Numerical policy shared by every measure and correlation routine.

    method      -- "quadrature" or "monte_carlo"
    abs_tol     -- absolute tolerance target for adaptive quadrature
    tail_eps    -- truncation parameter of the tail-transformed integrals;
                   halving it must not move any result by abs_tol or more
    mc_samples  -- Monte Carlo sample count
    seed        -- base seed; operations derive child streams from it
    """

    method: str = "quadrature"
    abs_tol: float = 1e-8
    tail_eps: float = 1e-9
    mc_samples: int = 10**6
    seed: int = 42

    def __post_init__(self):
        if self.method not in ("quadrature", "monte_carlo"):
            raise DomainError(f"unknown method {self.method!r}")
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive")
        if not 0.0 < self.tail_eps < 1e-3:
            raise DomainError("tail_eps must lie in (0, 1e-3)")
        if self.mc_samples < 10**3:
            raise DomainError("mc_samples must be at least 1000")


DEFAULT_CONFIG = IntegrationConfig()


def _is_degenerate(d: Distribution) -> bool:
    return isinstance(d, Empirical) and d.is_degenerate()


def _empirical_pair_integral(f: Empirical, g: Empirical) -> float:
    # Exact integral of the product of two step quantile functions.
    edges = np.union1d(np.arange(1, f.n) / f.n, np.arange(1, g.n) / g.n)
    edges = np.concatenate([[0.0], edges, [1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return float(np.sum(widths * f.quantile(mids) * g.quantile(mids)))


@functools.lru_cache(maxsize=4)
def _cell_values(law: Distribution, n: int) -> np.ndarray:
    # The law's mean over each of n equal cells (midpoint rule without one),
    # read-only; kept because equal-size empirical laws ask for the same cells.
    try:
        cells = law.cell_means(n)
    except UnsupportedOperationError:
        cells = law.quantile((np.arange(n) + 0.5) / n)
    cells.flags.writeable = False
    return cells


def _empirical_mixed_integral(emp: Empirical, other: Distribution) -> float:
    # Exact per cell of the empirical grid: the step side is constant there and
    # the other law enters by its cell mean.
    return float(np.mean(emp.values * _cell_values(other, emp.n)))


def cov_with_unit_transform(
    f: Distribution,
    psi,
    psi_mean: float,
    psi_cells,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """Cov(X, psi(F(X))) for a monotone-integrable transform psi on (0, 1).

    ``psi(p, upper)`` follows the tail-aware convention of
    :func:`qtcorr.quadrature.unit_integral`; ``psi_mean`` is its exact
    unit-interval integral, and ``psi_cells(n)`` its exact means over n
    equal cells, which an empirical law of n points uses instead.
    """
    if _is_degenerate(f):
        return 0.0
    if isinstance(f, Empirical):
        return float(np.mean(f.values * psi_cells(f.n)) - f.mean() * psi_mean)

    def integrand(p, upper):
        q = f.quantile_comp(p) if upper else f.quantile(p)
        return q * psi(p, upper)

    raw = unit_integral(integrand, cfg.abs_tol, cfg.tail_eps)
    return raw - f.mean() * psi_mean


def g_covariance(
    f: Distribution,
    g: Distribution,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """Covariance of X with the G-image of its own rank, Cov(X, G^{-1}F(X)).

    Equals the coupled-quantile integral of F^{-1} and G^{-1} minus the
    product of means; symmetric in its arguments and nonnegative up to
    quadrature tolerance.  Degenerate empirical inputs return 0.
    """
    if _is_degenerate(f) or _is_degenerate(g):
        return 0.0
    if isinstance(f, Empirical) and isinstance(g, Empirical):
        raw = _empirical_pair_integral(f, g)
    elif isinstance(f, Empirical):
        raw = _empirical_mixed_integral(f, g)
    elif isinstance(g, Empirical):
        raw = _empirical_mixed_integral(g, f)
    else:

        def integrand(p, upper):
            if upper:
                return f.quantile_comp(p) * g.quantile_comp(p)
            return f.quantile(p) * g.quantile(p)

        raw = unit_integral(integrand, cfg.abs_tol, cfg.tail_eps)
    return raw - f.mean() * g.mean()


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


def _pow_neglog_comp(m: int):
    # psi(u) = (-log(1 - u))**m, tail-aware: the Weibull(1, 1/m) quantile
    def psi(p, upper):
        lam = -np.log(p) if upper else -np.log1p(-p)
        return lam**m

    return psi


def _pow_neglog(m: int):
    # psi(u) = (-log(u))**m, tail-aware: the Weibull(1, 1/m) quantile at 1 - u
    def psi(p, upper):
        lam = -np.log1p(-p) if upper else -np.log(p)
        return lam**m

    return psi


def record_mean_gap(
    f: Distribution,
    n: int,
    kind: str = "upper",
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """Expected gap between the n-th and first record values.

    kind = "upper" gives E(R_n - R_1) for upper records, "lower" the same
    for lower records, and "spread" the expected distance E(R_n - R'_n)
    between the n-th upper and lower records.  All three are covariances
    of X against powers of (+/-) log-rank transforms, scaled by (n-1)!.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"record_mean_gap requires an integer n >= 1, got {n}")
    if kind not in ("upper", "lower", "spread"):
        raise DomainError(f"unknown record gap kind {kind!r}")
    if n == 1:
        return 0.0
    m = n - 1
    up = _pow_neglog_comp(m)
    down = _pow_neglog(m)
    up_cells = Weibull(1.0, 1.0 / m).cell_means  # down's cell means are these reversed

    def down_cells(k):
        return up_cells(k)[::-1]

    fact = float(math.factorial(m))
    if kind == "upper":
        return cov_with_unit_transform(f, up, fact, up_cells, cfg) / fact
    if kind == "lower":
        return cov_with_unit_transform(f, down, fact, down_cells, cfg) / fact

    def spread_psi(p, upper):
        return up(p, upper) - down(p, upper)

    def spread_cells(k):
        return up_cells(k) - down_cells(k)

    return cov_with_unit_transform(f, spread_psi, 0.0, spread_cells, cfg) / fact
