"""Variability decomposition for standby systems (sums of lifetimes).

A standby system runs its units sequentially, so the system lifetime is
T = X_1 + ... + X_n with independent nonnegative component lifetimes.
The coupled-quantile covariance of T against any target law G splits
exactly into per-component shares,

    C(T, Y) = sum_i beta_G(X_i, T) * C(X_i, Y),

with every share coefficient in [0, 1].  T has no closed-form law in
general, so a seeded Monte Carlo convolution sample stands for it: each
coefficient is the plug-in estimator of beta_G on the pairs (x_i, t), all
numerators from one sort of t and one pass of G's rank cells, system measures
integrate its empirical law (Var(T), of two equal-size step laws, is one dot of
the sorted values), component measures come from quadrature and standard
errors are 10 batch means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bivariate import child_rng
from .distributions import Distribution, Empirical
from .errors import DomainError
from .estimation import _cell_dots, _coupled_cov, _run_sums, _sorted_runs
from .measures import (
    DEFAULT_CONFIG,
    IntegrationConfig,
    cre,
    extended_gini,
    g_covariance,
    gcre,
    gmd,
)

_N_BATCHES = 10


@dataclass(frozen=True)
class StandbySystem:
    """Independent nonnegative component lifetimes, operated sequentially."""

    components: tuple[Distribution, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise DomainError("a standby system needs at least one component")
        for d in comps:
            if d.support[0] < 0.0:
                raise DomainError("component lifetimes must be nonnegative laws")
            if not math.isfinite(d.mean()):
                raise DomainError("component lifetimes must have finite means")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class DecompositionResult:
    """Per-component shares and the decomposition identity check."""

    terms: tuple[tuple[float, float], ...]  # (beta_i, C_i) per component
    total: float  # sum beta_i * C_i
    mc_estimate: float  # independent Monte Carlo estimate of C(T, Y)
    mc_se: float  # batch-means standard error of mc_estimate


def _component_samples(system: StandbySystem, n: int, seed: int) -> np.ndarray:
    rows = []
    for i, dist in enumerate(system.components):
        rng = child_rng(seed, f"decomposition.component.{i}")
        u = np.maximum(rng.random(n), 1e-300)
        rows.append(dist.quantile(u))
    return np.vstack(rows)


def decompose(
    system: StandbySystem,
    g: Distribution,
    mc_samples: int = 10**6,
    seed: int = 42,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> DecompositionResult:
    """Split C(T, Y) into per-component share * component-variability terms.

    beta_i is the rank plug-in estimate of the transformed correlation
    between component i and the system lifetime; C_i = C(X_i, Y) comes
    from quadrature.  ``mc_estimate`` re-estimates C(T, Y) directly from
    the convolution sample for the identity check.
    """
    c_terms = [g_covariance(dist, g, cfg) for dist in system.components]
    if system.n == 1:
        c1 = c_terms[0]
        return DecompositionResult(((1.0, c1),), c1, c1, 0.0)
    if mc_samples < _N_BATCHES * 100:
        raise DomainError("mc_samples is too small for batch-means errors")

    xs = _component_samples(system, mc_samples, seed)
    t = xs.sum(axis=0)
    order, _, bounds = _sorted_runs(t)
    # each component and t in the order of t, centred: one pass of G's cells reads them all
    columns = [(bounds, _run_sums(c[order] - c.mean(), bounds)) for c in (*xs, t)]
    *nums, mc_estimate = (d / (mc_samples - 1) for d in _cell_dots(g, mc_samples, *columns))
    betas = []
    for i, num in enumerate(nums):
        den = _coupled_cov(g, xs[i])
        if not den > 0.0:
            raise DomainError(f"component {i} has a degenerate lifetime law")
        betas.append(num / den)
    total = float(np.dot(betas, c_terms))

    # batch-means error of mc_estimate, the independent plug-in estimate of C(T, Y)
    batch = np.array_split(t, _N_BATCHES)
    est_b = [_coupled_cov(g, tb) for tb in batch]
    mc_se = float(np.std(est_b, ddof=1) / math.sqrt(_N_BATCHES))
    return DecompositionResult(
        tuple((float(b), float(c)) for b, c in zip(betas, c_terms)),
        total,
        mc_estimate,
        mc_se,
    )


@dataclass(frozen=True)
class SubadditivityRow:
    """One measure's system-vs-components comparison."""

    measure: str
    lhs: float  # measure of the system lifetime
    rhs: float  # sum of the component measures (or share bound)
    slack: float  # rhs - lhs; nonnegative up to Monte Carlo error
    se: float  # batch-means standard error of the slack


def _measure_set(cfg):
    return (
        ("cre", lambda d: cre(d, cfg)),
        ("gcre2", lambda d: gcre(d, 2, cfg)),
        ("gmd", lambda d: gmd(d, cfg)),
        ("egini0.5", lambda d: extended_gini(d, 0.5, cfg)),
        ("egini3", lambda d: extended_gini(d, 3.0, cfg)),
    )


def subadditivity_report(
    system: StandbySystem,
    mc_samples: int = 10**6,
    seed: int = 42,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> list[SubadditivityRow]:
    """Check that system variability never exceeds the component total.

    Rows cover the variance share bound Var(T) <= sum_i C(X_i, T) and the
    subadditivity of CRE, second-order GCRE, GMD and the extended Gini at
    weights 0.5 and 3.  System-side quantities ride on the empirical
    convolution law; slacks carry batch-means standard errors.
    """
    if system.n == 1:
        # T is distributed exactly as the single component; every bound is
        # an equality and the analytic route applies.
        comp = system.components[0]
        var = g_covariance(comp, comp, cfg)
        rows = [SubadditivityRow("var-bound", var, var, 0.0, 0.0)]
        for name, fn in _measure_set(cfg):
            value = fn(comp)
            rows.append(SubadditivityRow(name, value, value, 0.0, 0.0))
        return rows

    xs = _component_samples(system, mc_samples, seed)
    t = xs.sum(axis=0)
    t_law = Empirical(t)
    batch_laws = [Empirical(tb) for tb in np.array_split(t, _N_BATCHES)]

    def batched(fn):
        return fn(t_law), [fn(d) for d in batch_laws]

    rows = []
    # Var(T) <= sum_i C(X_i, T): both sides depend on the system sample.
    var_full, var_b = batched(lambda d: g_covariance(d, d, cfg))
    rhs_full = 0.0
    rhs_b = np.zeros(_N_BATCHES)
    for comp in system.components:
        full, per = batched(lambda d, c=comp: g_covariance(c, d, cfg))
        rhs_full += full
        rhs_b += np.array(per)
    slack_b = rhs_b - np.array(var_b)
    rows.append(
        SubadditivityRow(
            "var-bound",
            var_full,
            rhs_full,
            rhs_full - var_full,
            float(np.std(slack_b, ddof=1) / math.sqrt(_N_BATCHES)),
        )
    )
    for name, fn in _measure_set(cfg):
        rhs = sum(fn(comp) for comp in system.components)
        lhs_full, lhs_b = batched(fn)
        rows.append(
            SubadditivityRow(
                name,
                lhs_full,
                rhs,
                rhs - lhs_full,
                float(np.std(lhs_b, ddof=1) / math.sqrt(_N_BATCHES)),
            )
        )
    return rows
