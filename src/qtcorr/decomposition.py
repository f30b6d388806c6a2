"""Variability decomposition for standby systems (sums of lifetimes).

A standby system runs its units sequentially, so the system lifetime is
T = X_1 + ... + X_n with independent nonnegative component lifetimes.
The coupled-quantile covariance of T against any target law G splits
exactly into per-component shares,

    C(T, Y) = sum_i beta_G(X_i, T) * C(X_i, Y),

with every share coefficient in [0, 1].  T has no closed-form law in
general, so a seeded Monte Carlo convolution sample, drawn once per (system,
n, seed) for both reports, stands for it.  Its system-side numbers read the
estimators' ranked view with T as the shared score: each coefficient is the
plug-in estimator of beta_G on the pairs (x_i, t), system measures are T's
empirical law against their weight laws, component measures come from
quadrature and standard errors are 10 batch means.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bivariate import child_rng
from .distributions import Distribution, Exponential, Pareto, Power, Uniform, Weibull
from .errors import DegenerateError, DomainError
from .estimation import _Ranked
from .measures import DEFAULT_CONFIG, IntegrationConfig, g_covariance

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


@functools.lru_cache(maxsize=1)  # keyed on (system, n, seed); holds the last system's sample
def _system_sample(system: StandbySystem, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The convolution sample, read-only: component draws, one row each, and their sum T."""
    if n < _N_BATCHES * 100:
        raise DomainError("mc_samples is too small for batch-means errors")
    rows = []
    for i, dist in enumerate(system.components):
        rng = child_rng(seed, f"decomposition.component.{i}")
        u = np.maximum(rng.random(n), 1e-300)
        rows.append(dist.quantile(u))
    xs = np.vstack(rows)
    t = xs.sum(axis=0)
    xs.flags.writeable = t.flags.writeable = False
    return xs, t


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

    xs, t = _system_sample(system, mc_samples, seed)
    k, batches = system.n, np.array_split(t, _N_BATCHES)
    # t ranks itself and every component; each component and each batch of t ranks itself
    dots = _Ranked((t, *xs, *batches), ((0, tuple(range(k + 1))),)).cell_dots(g)
    own = np.diagonal(dots)  # each column against G's cells at its own ranks
    for i in range(k):
        if not own[1 + i] > 0.0:  # a component without spread
            raise DegenerateError(f"component {i} has a degenerate lifetime law")
    betas = dots[0, 1 : k + 1] / own[1 : k + 1]
    total = float(np.dot(betas, c_terms))

    # batch-means error of mc_estimate, the independent plug-in estimate of C(T, Y)
    mc_estimate = float(own[0]) / (mc_samples - 1)
    est_b = own[k + 1 :] / [b.size - 1 for b in batches]
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


# each measure as its weight terms (c, W), the sum of c * g(X, W), as measures.py writes it
_MEASURES = (
    ("cre", ((1.0, Exponential(1.0)),)),
    ("gcre2", ((0.5, Weibull(1.0, 0.5)), (-1.0, Weibull(1.0, 1.0)))),
    ("gmd", ((4.0, Uniform(0.0, 1.0)),)),
    ("egini0.5", ((0.5, Pareto(0.5)),)),
    ("egini3", ((3.0, Power(3.0)),)),
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
    comps = system.components
    if system.n == 1:
        # T is distributed exactly as the single component; every bound is
        # an equality and the analytic route applies.
        g_of = functools.partial(g_covariance, comps[0], cfg=cfg)
        rows = [("var-bound", g_of(comps[0]))]
        rows += [(name, sum(c * g_of(w) for c, w in terms)) for name, terms in _MEASURES]
        return [SubadditivityRow(name, value, value, 0.0, 0.0) for name, value in rows]

    _, t = _system_sample(system, mc_samples, seed)
    view = _Ranked((t, *np.array_split(t, _N_BATCHES)))  # T's full sample and its batches
    sizes = np.array([c.size for c in view.values])
    # g(T, W) on the full sample, then on each batch: one pass of W's cells per column size
    g_of_t = functools.cache(lambda w: np.diagonal(view.cell_dots(w)) / sizes)

    def se(per_batch) -> float:
        return float(np.std(per_batch, ddof=1) / math.sqrt(_N_BATCHES))

    # Var(T) <= sum_i C(X_i, T): both sides depend on the system sample.
    var = np.array([view.moment(s, s) for s in range(sizes.size)]) / sizes
    shares = sum(g_of_t(comp) for comp in comps)
    full = (float(x[0]) for x in (var, shares, shares - var))
    rows = [SubadditivityRow("var-bound", *full, se((shares - var)[1:]))]
    for name, terms in _MEASURES:
        lhs = sum(c * g_of_t(w) for c, w in terms)
        rhs = sum(sum(c * g_covariance(comp, w, cfg) for c, w in terms) for comp in comps)
        rows.append(SubadditivityRow(name, float(lhs[0]), rhs, rhs - float(lhs[0]), se(lhs[1:])))
    return rows
