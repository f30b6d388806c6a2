"""Transformed correlation between the components of a bivariate model.

``beta_h`` measures association as the covariance of X with the
H-transformed rank of Y, normalized by the same covariance with the rank
of X:

    beta_H(X, Y) = Cov(X, H^{-1} G(Y)) / Cov(X, H^{-1} F(X)).

The production numerator is the dependence integral over the unit square,

    integral integral (C(u, v) - u v) qd_F(u) qd_H(v) du dv,

with qd the quantile densities (the x-y plane form of the same integral
is kept to the test suite as an oracle).  Each copula family integrates it
by its own ``dependence_integral`` method: the 2-D quadrature, or, for FGM,
whose excess gamma u(1-u) v(1-v) factorises, the product
4 gamma Cov(F^{-1}(U), U) Cov(H^{-1}(U), U) of two memoised 1-D integrals,
which is the paper's FGM closed form.  Named choices of H recover the
classical indices: uniform H gives the Gini correlation, logistic H the
log-odds based one, exponential H the cumulative-residual-entropy based
one, and Pareto/power H the extended Gini family.  H = G gives a
variance-free Pearson variant whose magnitude dominates Pearson's.

Every index is a ratio of dependence covariances Cov(a(U), b(V)) and
coupled-quantile covariances Cov(X, H^{-1} F(X)).  One memoised evaluator
per (model, config), the last one retained, computes each once: by
quadrature (every copula family), or, when the config asks for
``method="monte_carlo"``, from one seeded sample drawn and ranked once.  A
Monte Carlo value is the plug-in estimator of :mod:`qtcorr.estimation` on
that sample: with strictly increasing margins, each index equals the
estimator on the pairs (x, y), or (y, x) for the reversed index; rho_t does
when the margins differ, and is pearson when they are equal, as under
quadrature.
Quadrature values also pass through the process-wide memo of
:mod:`qtcorr.measures`, keyed on (copula, weight laws, abs_tol, tail_eps).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bivariate import FGM, BivariateModel, Copula, child_rng
from .distributions import (
    Distribution,
    Exponential,
    Logistic,
    Pareto,
    Power,
    Uniform,
)
from .errors import DegenerateError, DomainError
from .estimation import _cell_dots, _dot, _dot_at_average_ranks, _no_spread, _run_sums, _sorted_runs
from .measures import DEFAULT_CONFIG, IntegrationConfig, _once, g_covariance


@dataclass(frozen=True)
class CorrelationSpec:
    """A transform law H together with the name it answers to."""

    h: Distribution
    label: str = "custom"


_NAMED_LABELS = ("cre_based", "or_based", "gini", "egini")


def named_transform(label: str, nu: float | None = None) -> CorrelationSpec:
    """CorrelationSpec for a named index; ``egini`` needs its weight nu, the others refuse one."""
    key = label.strip().lower()
    if nu is not None and key != "egini":
        raise DomainError(f"the weight nu applies only to egini, not to {label!r}")
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
    transform law on one axis it is the numerator of ``beta_h``.  The
    copula's ``dependence_integral`` method computes it: a 2-D quadrature,
    or for FGM the product 4 gamma g(wu, U(0,1)) g(wv, U(0,1)) of two
    coupled-quantile covariances.  It reads only quantile densities, so the
    weights' scales factor out and their standard shapes are integrated.
    """
    (a, _, sa), (b, _, sb) = weight_u.standard_form, weight_v.standard_form
    # the family's method, unbound, so the memo keys on the copula by value
    return sa * sb * _once(type(copula).dependence_integral, (copula, a, b), cfg)


def _denominator(parts: list[float], floor: float) -> float:
    """One covariance, or the geometric mean of two, once each exceeds the floor."""
    if not all(p > floor for p in parts):
        raise DegenerateError(f"covariance denominator {parts} is numerically degenerate")
    return parts[0] if len(parts) == 1 else math.sqrt(parts[0] * parts[1])


_X, _Y = 0, 1  # the columns U and V, and the margins X = F^{-1}(U), Y = G^{-1}(V)


class _Evaluator:
    """The covariances a model's indices are ratios of, each computed once.

    ``cov(a, i, b, j)`` is Cov(a-image of column i, b-image of column j):
    ``cross(a, b)`` across the copula, ``coupled(axis, b)`` along one margin
    Z = X or Y.  Images are laws; a transform law comes as its spec.
    """

    def __init__(self, model: BivariateModel, cfg: IntegrationConfig):
        self.model, self.cfg, self.floor = model, cfg, cfg.abs_tol
        self.margins = (model.margin_x, model.margin_y)
        self._memo: dict[tuple, float] = {}

    def cov(self, a, i: int, b, j: int) -> float:
        key = self._key(a, i, b, j)
        if key not in self._memo:
            self._memo[key] = self._compute(*key)
        return self._memo[key]

    def _key(self, *key) -> tuple:
        # a spec integrates as its law, so the two share one value
        return tuple(k.h if isinstance(k, CorrelationSpec) else k for k in key)

    def _compute(self, a, i: int, b, j: int) -> float:  # by quadrature
        if i == j:
            return g_covariance(a, b, self.cfg)
        return dependence_integral(self.model.copula, a, b, self.cfg)

    def cross(self, a, b) -> float:
        return self.cov(a, _X, b, _Y)

    def coupled(self, axis: int, b) -> float:
        return self.cov(self.margins[axis], axis, b, axis)

    def ratio(self, cross: tuple, *coupled: tuple) -> float:
        """cross over a coupled covariance (or two's geometric mean), denominator first."""
        den = _denominator([self.coupled(*c) for c in coupled], self.floor)
        return self.cross(*cross) / den


class _MonteCarlo(_Evaluator):
    """The rank plug-in estimators on one seeded draw of the copula's scores u, v (U and V,
    or normal scores), with X and Y mapped from them by ``score_quantile``.

    Ranks are the scores', so a step margin that ties x where u is distinct still reads H at
    u's ranks.  X and Y are centred once and kept read-only in the order of u and of v, and
    one ``_cell_dots`` pass per transform law reads all four of its rank covariances.
    """

    def __init__(self, model: BivariateModel, cfg: IntegrationConfig):
        super().__init__(model, cfg)
        self.floor = 0.0
        rng = child_rng(cfg.seed, "correlation.beta_h")  # the tag fixes every MC value
        scores = model.copula.scores(cfg.mc_samples, rng)
        self.x, self.y = map(model.copula.score_quantile, self.margins, scores)
        means = self.x.mean(), self.y.mean()
        centred = self.x - means[0], self.y - means[1]
        # per score: its tied-run bounds, then x and y in its order
        self.by_score = [(b, *(c[o] for c in centred)) for o, _, b in map(_sorted_runs, scores)]
        # each column's sum of squares in its own order; a constant column centres to ulp
        # residues, not zeros, and every covariance of it is 0
        self.squares = [_dot(s[1 + i], s[1 + i]) for i, s in enumerate(self.by_score)]
        self.flat = [_no_spread(c, m, q) for c, m, q in zip((self.x, self.y), means, self.squares)]
        for column in (self.x, self.y, *self.by_score[0][1:], *self.by_score[1][1:]):
            column.flags.writeable = False
        self._dots: dict[Distribution, list[float]] = {}

    def cov(self, a, i: int, b, j: int) -> float:
        if isinstance(a, CorrelationSpec):  # a covariance is symmetric: the spec goes second
            a, i, b, j = b, j, a, i
        if self.flat[i] or (self.flat[j] and not isinstance(b, CorrelationSpec)):
            return 0.0  # of a constant column's values (a spec reads column j's ranks only)
        if not isinstance(b, CorrelationSpec):  # two margins
            return super().cov(a, i, b, j)
        if b.h not in self._dots:  # (x, y) at the ranks of u, then of v
            columns = [(s[0], _run_sums(c, s[0])) for s in self.by_score for c in s[1:]]
            self._dots[b.h] = _cell_dots(b.h, self.x.size, *columns)
        return self._dots[b.h][2 * j + i] / (self.x.size - 1)

    def _compute(self, a, i: int, b, j: int) -> float:  # two margins
        bounds, ordered = self.by_score[i][0], self.by_score[i][1 + i]  # column i, sorted
        if i != j:
            dot = _dot(*self.by_score[0][1:])  # Cov(X, Y)
        elif a == b:
            dot = self.squares[i]
        else:  # rho_t's Cov(X, G^{-1}F(X)): the sorted column against the other one sorted
            other = self.by_score[1 - i][2 - i]
            dot = _dot_at_average_ranks(bounds, _run_sums(ordered, bounds), other)
        return dot / (self.x.size - 1)


@functools.lru_cache(maxsize=1)  # keyed on (model, cfg); holds the last model's
def _evaluator(model: BivariateModel, cfg: IntegrationConfig) -> _Evaluator:
    return (_MonteCarlo if cfg.method == "monte_carlo" else _Evaluator)(model, cfg)


def beta_h(
    model: BivariateModel,
    spec: CorrelationSpec,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """H-transformed correlation of (X, Y) under the model."""
    return _evaluator(model, cfg).ratio((model.margin_x, spec), (_X, spec))


def beta_h_reversed(
    model: BivariateModel,
    spec: CorrelationSpec,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """H-transformed correlation with the roles of X and Y exchanged."""
    return _evaluator(model, cfg).ratio((spec, model.margin_y), (_Y, spec))


def pearson(model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Pearson correlation, with Cov(X, Y) via the dependence integral."""
    f, g = model.margin_x, model.margin_y
    return _evaluator(model, cfg).ratio((f, g), (_X, f), (_Y, g))


def rho_t(model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Rank-coupled Pearson variant (the H = G case of ``beta_h``).

    Normalizes Cov(X, Y) by the coupled-quantile covariances instead of
    the standard deviations, so |rho_t| >= |pearson| always.
    """
    f, g = model.margin_x, model.margin_y
    return _evaluator(model, cfg).ratio((f, g), (_X, g), (_Y, f))


def rho_t_scale(model: BivariateModel, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Diagnostic ratio rho_t / pearson = sigma_x sigma_y / C(F, G); >= 1.

    The margins alone fix it, so it is integrated, never sampled.
    """
    f, g = model.margin_x, model.margin_y
    ev = _Evaluator(model, cfg)
    den = _denominator([ev.coupled(_X, g)], ev.floor)
    return math.sqrt(ev.coupled(_X, f) * ev.coupled(_Y, g)) / den


def fgm_beta_closed_form(
    f: Distribution,
    spec: CorrelationSpec,
    gamma: float,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
) -> float:
    """beta_h for the FGM family: gamma GMD(F) GMD(H) / (4 Cov(X, H^{-1}F(X))).

    Linear in gamma and independent of the second margin: the numerator is
    FGM's dependence integral, which is that GMD product.  Integrated, never
    sampled, whatever ``cfg.method`` says.
    """
    model = BivariateModel(FGM(gamma), f, f)
    return _Evaluator(model, cfg).ratio((f, spec), (_X, spec))


def symmetric_tau(model, spec, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Arithmetic mean of the two directed transformed correlations."""
    return 0.5 * (beta_h(model, spec, cfg) + beta_h_reversed(model, spec, cfg))


def symmetric_nu(model, spec, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Weighted symmetric version, weights eta = Cov(margin, transformed rank)."""
    b_xy, b_yx = beta_h(model, spec, cfg), beta_h_reversed(model, spec, cfg)
    ev = _evaluator(model, cfg)
    eta_x, eta_y = ev.coupled(_X, spec), ev.coupled(_Y, spec)
    return (eta_x * b_xy + eta_y * b_yx) / (eta_x + eta_y)


def symmetric_nu_bar(model, spec, cfg: IntegrationConfig = DEFAULT_CONFIG) -> float:
    """Mobility-style complement; identically 1 - symmetric_nu, range [0, 2]."""
    return 1.0 - symmetric_nu(model, spec, cfg)
