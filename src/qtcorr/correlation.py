"""Transformed correlation between the components of a bivariate model.

``beta_h`` measures association as the covariance of X with the
H-transformed rank of Y, normalized by the same covariance with the rank
of X:

    beta_H(X, Y) = Cov(X, H^{-1} G(Y)) / Cov(X, H^{-1} F(X)).

The production numerator is the dependence integral over the unit square,

    integral integral (C(u, v) - u v) qd_F(u) qd_H(v) du dv,

with qd the quantile densities (the x-y plane form of the same integral
is kept to the test suite as an oracle).  Named choices of H recover the
classical indices: uniform H gives the Gini correlation, logistic H the
log-odds based one, exponential H the cumulative-residual-entropy based
one, and Pareto/power H the extended Gini family.  H = G gives a
variance-free Pearson variant whose magnitude dominates Pearson's.

Models built on the Gaussian copula have no closed-form copula CDF here
and must use the Monte Carlo method (see ``default_config_for``).  Every
Monte Carlo index of a model reads one seeded sample, drawn and ranked once
per (model, sample size, seed); the last model's sample is retained.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bivariate import BivariateModel, Copula, child_rng
from .distributions import (
    Distribution,
    Exponential,
    Logistic,
    Pareto,
    Power,
    Uniform,
)
from .errors import DegenerateError, DomainError, UnsupportedOperationError
from .estimation import _cov, _rank_cell_means
from .measures import DEFAULT_CONFIG, IntegrationConfig, g_covariance, gmd
from .quadrature import unit_integral_2d


@dataclass(frozen=True)
class CorrelationSpec:
    """A transform law H together with the name it answers to."""

    h: Distribution
    label: str = "custom"


_NAMED_LABELS = ("cre_based", "or_based", "gini", "egini")


def named_transform(label: str, nu: float | None = None) -> CorrelationSpec:
    """CorrelationSpec for a named index; ``egini`` needs its weight nu."""
    key = label.strip().lower()
    if key == "cre_based":
        return CorrelationSpec(Exponential(1.0), "cre_based")
    if key == "or_based":
        return CorrelationSpec(Logistic(0.0, 1.0), "or_based")
    if key == "gini":
        return CorrelationSpec(Uniform(0.0, 1.0), "gini")
    if key == "egini":
        if nu is None:
            raise DomainError("egini requires the weight parameter nu")
        if nu == 1.0 or nu <= 0.0:
            raise DomainError(f"egini weight must be positive and != 1, got {nu}")
        law = Pareto(nu) if nu < 1.0 else Power(nu)
        return CorrelationSpec(law, f"egini({nu:g})")
    raise DomainError(f"unknown index label {label!r}; expected one of {_NAMED_LABELS}")


def dependence_integral(
    copula: Copula,
    weight_u: Distribution,
    weight_v: Distribution,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """integral of (C(u,v) - uv) qd_wu(u) qd_wv(v) over the unit square.

    This is the covariance of the wu-image of U with the wv-image of V
    under the copula; with the model margins as weights it is exactly
    Cov(X, Y) (the classical CDF-difference identity), and with a
    transform law on one axis it is the numerator of ``beta_h``.
    """
    if not copula.has_cdf:
        raise UnsupportedOperationError(
            f"{copula.family} copula cannot be integrated; use monte_carlo"
        )

    def g2(pu, upper_u, pv, upper_v):
        if upper_u:
            u, uc = 1.0 - pu, pu
            wu = weight_u.quantile_density_comp(pu)
        else:
            u, uc = pu, 1.0 - pu
            wu = weight_u.quantile_density(pu)
        if upper_v:
            v, vc = 1.0 - pv, pv
            wv = weight_v.quantile_density_comp(pv)
        else:
            v, vc = pv, 1.0 - pv
            wv = weight_v.quantile_density(pv)
        return copula.excess(u, uc, v, vc) * wu * wv

    return unit_integral_2d(g2, cfg.abs_tol, cfg.tail_eps)


def default_config_for(
    model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG
) -> IntegrationConfig:
    """cfg with the method the model supports (Monte Carlo for Gaussian)."""
    if not model.copula.has_cdf and cfg.method == "quadrature":
        return dataclasses.replace(cfg, method="monte_carlo")
    return cfg


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Sample:
    """One seeded draw of a model's (U, V), shared by its Monte Carlo indices.

    X, Y and the rank-cell means of each transform law are computed on first
    use; every array is read-only, since later indices read the same ones.
    """

    def __init__(self, model: BivariateModel, n: int, seed: int):
        self._model = model
        rng = child_rng(seed, "correlation.beta_h")  # the tag fixes every MC value
        self.u, self.v = map(_read_only, model.copula.sample(n, rng))
        self._cells: dict[Distribution, tuple[np.ndarray, ...]] = {}

    @functools.cached_property
    def x(self) -> np.ndarray:
        return _read_only(self._model.margin_x.quantile(self.u))

    @functools.cached_property
    def y(self) -> np.ndarray:
        return _read_only(self._model.margin_y.quantile(self.v))

    def cells(self, h: Distribution) -> tuple[np.ndarray, ...]:
        """H^{-1} rank-cell means at the ranks of u and of v."""
        if h not in self._cells:
            self._cells[h] = tuple(_read_only(_rank_cell_means(h, c)) for c in (self.u, self.v))
        return self._cells[h]


# keyed on (model, n, seed); holds one sample, the last model's
_mc_sample = functools.lru_cache(maxsize=1)(_Sample)


def _mc_ratio(z: np.ndarray, h_own: np.ndarray, h_other: np.ndarray):
    """Directed Monte Carlo index Cov(z, h_other) / Cov(z, h_own) and its denominator."""
    den = _cov(z, h_own)
    if not den > 0.0:
        raise DegenerateError("degenerate transformed-covariance denominator")
    return _cov(z, h_other) / den, den


def beta_h(
    model: BivariateModel,
    spec: CorrelationSpec,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """H-transformed correlation of (X, Y) under the model."""
    h = spec.h
    if cfg.method == "monte_carlo":
        s = _mc_sample(model, cfg.mc_samples, cfg.seed)
        hu, hv = s.cells(h)
        return _mc_ratio(s.x, hu, hv)[0]
    den = g_covariance(model.margin_x, h, cfg)
    if den <= cfg.abs_tol:
        raise DegenerateError(
            f"transformed-covariance denominator {den:.3e} is numerically degenerate"
        )
    return dependence_integral(model.copula, model.margin_x, h, cfg) / den


def beta_h_reversed(
    model: BivariateModel,
    spec: CorrelationSpec,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """H-transformed correlation with the roles of X and Y exchanged."""
    h = spec.h
    if cfg.method == "monte_carlo":
        s = _mc_sample(model, cfg.mc_samples, cfg.seed)
        hu, hv = s.cells(h)
        return _mc_ratio(s.y, hv, hu)[0]
    den = g_covariance(model.margin_y, h, cfg)
    if den <= cfg.abs_tol:
        raise DegenerateError(
            f"transformed-covariance denominator {den:.3e} is numerically degenerate"
        )
    return dependence_integral(model.copula, h, model.margin_y, cfg) / den


def pearson(model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Pearson correlation, with Cov(X, Y) via the dependence integral."""
    if cfg.method == "monte_carlo":
        s = _mc_sample(model, cfg.mc_samples, cfg.seed)
        sx, sy = np.std(s.x, ddof=1), np.std(s.y, ddof=1)
        if not (sx > 0.0 and sy > 0.0):
            raise DegenerateError("zero sample variance")
        return _cov(s.x, s.y) / float(sx * sy)
    var_x = g_covariance(model.margin_x, model.margin_x, cfg)
    var_y = g_covariance(model.margin_y, model.margin_y, cfg)
    if min(var_x, var_y) <= cfg.abs_tol:
        raise DegenerateError("a marginal variance is numerically degenerate")
    num = dependence_integral(model.copula, model.margin_x, model.margin_y, cfg)
    return num / math.sqrt(var_x * var_y)


def rho_t(model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Rank-coupled Pearson variant (the H = G case of ``beta_h``).

    Normalizes Cov(X, Y) by the coupled-quantile covariances instead of
    the standard deviations, so |rho_t| >= |pearson| always.
    """
    if cfg.method == "monte_carlo":
        s = _mc_sample(model, cfg.mc_samples, cfg.seed)
        d1 = _cov(s.x, model.margin_y.quantile(s.u))
        d2 = _cov(s.y, model.margin_x.quantile(s.v))
        if not (d1 > 0.0 and d2 > 0.0):
            raise DegenerateError("degenerate coupled-covariance denominator")
        return _cov(s.x, s.y) / math.sqrt(d1 * d2)
    d1 = g_covariance(model.margin_x, model.margin_y, cfg)
    d2 = g_covariance(model.margin_y, model.margin_x, cfg)
    if min(d1, d2) <= cfg.abs_tol:
        raise DegenerateError("degenerate coupled-covariance denominator")
    num = dependence_integral(model.copula, model.margin_x, model.margin_y, cfg)
    return num / math.sqrt(d1 * d2)


def rho_t_scale(model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Diagnostic ratio rho_t / pearson = sigma_x sigma_y / C(F, G); >= 1."""
    var_x = g_covariance(model.margin_x, model.margin_x, cfg)
    var_y = g_covariance(model.margin_y, model.margin_y, cfg)
    c = g_covariance(model.margin_x, model.margin_y, cfg)
    if c <= cfg.abs_tol:
        raise DegenerateError("degenerate coupled-covariance denominator")
    return math.sqrt(var_x * var_y) / c


def fgm_beta_closed_form(
    f: Distribution,
    spec: CorrelationSpec,
    gamma: float,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """beta_h for the FGM family: gamma GMD(F) GMD(H) / (4 Cov(X, H^{-1}F(X))).

    Linear in gamma and independent of the second margin.
    """
    if not (math.isfinite(gamma) and -1.0 <= gamma <= 1.0):
        raise DomainError(f"FGM dependence parameter must lie in [-1, 1], got {gamma}")
    den = g_covariance(f, spec.h, cfg)
    if den <= cfg.abs_tol:
        raise DegenerateError("degenerate transformed-covariance denominator")
    return gamma * gmd(f, cfg) * gmd(spec.h, cfg) / (4.0 * den)


def _symmetric_parts(model, spec, cfg):
    if cfg.method == "monte_carlo":
        # the sample beta_h and beta_h_reversed read, so the parts equal theirs
        s = _mc_sample(model, cfg.mc_samples, cfg.seed)
        hu, hv = s.cells(spec.h)
        b_xy, eta_x = _mc_ratio(s.x, hu, hv)
        b_yx, eta_y = _mc_ratio(s.y, hv, hu)
        return b_xy, b_yx, eta_x, eta_y
    b_xy = beta_h(model, spec, cfg)
    b_yx = beta_h_reversed(model, spec, cfg)
    eta_x = g_covariance(model.margin_x, spec.h, cfg)
    eta_y = g_covariance(model.margin_y, spec.h, cfg)
    if not (eta_x > 0.0 and eta_y > 0.0):
        raise DegenerateError("degenerate transformed-covariance weight")
    return b_xy, b_yx, eta_x, eta_y


def symmetric_tau(model, spec, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Arithmetic mean of the two directed transformed correlations."""
    b_xy, b_yx, _, _ = _symmetric_parts(model, spec, cfg)
    return 0.5 * (b_xy + b_yx)


def symmetric_nu(model, spec, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Weighted symmetric version, weights eta = Cov(margin, transformed rank)."""
    b_xy, b_yx, eta_x, eta_y = _symmetric_parts(model, spec, cfg)
    return (eta_x * b_xy + eta_y * b_yx) / (eta_x + eta_y)


def symmetric_nu_bar(model, spec, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Mobility-style complement; identically 1 - symmetric_nu, range [0, 2]."""
    return 1.0 - symmetric_nu(model, spec, cfg)
