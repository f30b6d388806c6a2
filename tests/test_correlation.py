"""Transformed correlation: worked values, theorem properties, oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from qtcorr.bivariate import (
    AMH,
    BivariateModel,
    Copula,
    FGM,
    FrechetLower,
    FrechetUpper,
    GaussianCopula,
    GumbelBarnett,
    Independence,
    reflect_x,
    reflect_y,
)
from qtcorr.correlation import (
    CorrelationSpec,
    _evaluator,
    beta_h,
    beta_h_reversed,
    dependence_integral,
    fgm_beta_closed_form,
    named_transform,
    pearson,
    rho_t,
    rho_t_scale,
    symmetric_nu,
    symmetric_nu_bar,
    symmetric_tau,
)
from qtcorr.distributions import (
    Affine,
    Empirical,
    ExpTransformed,
    Exponential,
    Gumbel,
    Laplace,
    Logistic,
    Normal,
    Pareto,
    Power,
    Reflected,
    Uniform,
    Weibull,
)
from qtcorr.errors import (
    DegenerateError,
    DomainError,
    NumericalError,
    QtcorrError,
    UnsupportedOperationError,
)
from qtcorr.estimation import PairedSample, estimate_beta_h, estimate_named
from test_bivariate import _copula_cdf
from test_distributions import _cdf
from qtcorr.measures import IntegrationConfig, g_covariance

TOL = 2e-4  # quadrature assertion tolerance: max(10 abs_tol, 2e-4)
MC_TOL = 5e-3

NAMED = [
    named_transform("cre_based"),
    named_transform("or_based"),
    named_transform("egini", 0.5),
    named_transform("gini"),
    named_transform("egini", 3.0),
]
SYMMETRIC_H = [
    CorrelationSpec(Uniform(0, 1)),
    CorrelationSpec(Logistic(0, 1)),
    CorrelationSpec(Normal(0, 1)),
    CorrelationSpec(Laplace(0, 1)),
]


def test_named_transform_bindings():
    assert named_transform("cre_based").h == Exponential(1.0)
    assert named_transform("or_based").h == Logistic(0.0, 1.0)
    assert named_transform("gini").h == Uniform(0.0, 1.0)
    assert named_transform("egini", 0.5).h == Pareto(0.5)
    assert named_transform("egini", 3.0).h == Power(3.0)
    with pytest.raises(DomainError):
        named_transform("egini")
    with pytest.raises(DomainError):
        named_transform("kendall")


def test_a_named_spec_is_the_spec_of_its_law():
    assert [f.name for f in dataclasses.fields(CorrelationSpec)] == ["h"]
    assert named_transform("gini") == CorrelationSpec(Uniform(0.0, 1.0))
    assert named_transform("egini", 0.5) == CorrelationSpec(Pareto(0.5))
    assert named_transform("egini", 3.0) == CorrelationSpec(Power(3.0))


def test_a_weight_is_refused_by_every_index_but_egini():
    x = np.random.default_rng(3).normal(size=200)
    sample = PairedSample(x, x + np.random.default_rng(4).normal(size=200))
    for label in ("gini", "cre_based", "or_based", " GINI "):
        assert named_transform(label, None) == named_transform(label)
        with pytest.raises(DomainError, match="nu"):
            named_transform(label, 3.0)
    for which in ("gini", "cre_based", "or_based", "pearson", "rho_t"):
        with pytest.raises(DomainError, match="nu"):
            estimate_named(sample, which, 3.0)
        assert math.isfinite(estimate_named(sample, which))
    assert estimate_named(sample, "egini", 3.0) == estimate_beta_h(sample, Power(3.0))


# -- x-y plane oracle for the dependence integral ------------------------------


def xy_plane_covariance(model, lo_x, hi_x, lo_y, hi_y):
    """Cov(X, Y) as the CDF-difference integral on the x-y plane."""
    fx, gy = model.margin_x, model.margin_y

    def integrand(y, x):
        u, v = _cdf(fx, x), _cdf(gy, y)
        return _copula_cdf(model.copula, u, v) - u * v

    val, _ = dblquad(integrand, lo_x, hi_x, lo_y, hi_y, epsabs=1e-10)
    return val


@pytest.mark.parametrize(
    "model,box",
    [
        (BivariateModel(GumbelBarnett(0.7), Exponential(1), Exponential(1)), (0, 40, 0, 40)),
        (BivariateModel(FGM(0.5), Uniform(0, 1), Exponential(1)), (0, 1, 0, 40)),
        (BivariateModel(AMH(-1.0), Power(1.5), Power(4 / 3)), (0, 1, 0, 1)),
    ],
    ids=["gb-exp", "fgm-mixed", "amh-power"],
)
def test_dependence_integral_matches_xy_plane_oracle(model, box):
    got = dependence_integral(model.copula, model.margin_x, model.margin_y)
    want = xy_plane_covariance(model, *box)
    assert got == pytest.approx(want, abs=5e-7)


# -- worked values -------------------------------------------------------------


def test_beta_examples():
    indep = BivariateModel(Independence(), Weibull(1, 2), Exponential(1))
    for spec in NAMED:
        assert beta_h(indep, spec) == pytest.approx(0.0, abs=TOL)
    gb = BivariateModel(GumbelBarnett(1.0), Exponential(1), Exponential(1))
    assert beta_h(gb, named_transform("cre_based")) == pytest.approx(-0.40365, abs=TOL)
    amh = BivariateModel(AMH(1.0), Logistic(0, 1), Logistic(0, 1))
    assert beta_h(amh, named_transform("egini", 3.0)) == pytest.approx(0.55556, abs=TOL)
    up = BivariateModel(FrechetUpper(), Weibull(1, 2), Exponential(1))
    assert beta_h(up, named_transform("or_based")) == pytest.approx(1.0, abs=TOL)


def test_rho_t_examples():
    m = BivariateModel(FGM(-1.0), Uniform(0, 1), Exponential(1))
    assert rho_t(m) == pytest.approx(-1 / 3, abs=TOL)
    m = BivariateModel(FGM(1.0), Exponential(1), Exponential(1))
    assert rho_t(m) == pytest.approx(0.25, abs=TOL)
    m = BivariateModel(GaussianCopula(0.7), Normal(0, 1), Normal(0, 1))
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=10**6, seed=7)
    assert rho_t(m, cfg) == pytest.approx(0.7, abs=MC_TOL)


def test_pearson_examples():
    m = BivariateModel(FGM(1.0), Uniform(0, 1), Exponential(1))
    assert pearson(m) == pytest.approx(math.sqrt(3) / 6.0, abs=TOL)
    m = BivariateModel(AMH(-1.0), Logistic(0, 1), Logistic(0, 1))
    assert pearson(m) == pytest.approx(-0.25, abs=TOL)
    m = BivariateModel(Independence(), Weibull(1, 2), Normal(0, 1))
    assert pearson(m) == pytest.approx(0.0, abs=TOL)


def test_fgm_closed_form_examples():
    assert fgm_beta_closed_form(
        Weibull(1, 0.5), named_transform("cre_based"), -1.0
    ) == pytest.approx(-0.18750, abs=TOL)
    assert fgm_beta_closed_form(
        Exponential(1), named_transform("egini", 3.0), 1.0
    ) == pytest.approx(0.37500, abs=TOL)
    for spec in NAMED:
        assert fgm_beta_closed_form(Weibull(1, 2), spec, 0.0) == 0.0
    with pytest.raises(DomainError):
        fgm_beta_closed_form(Exponential(1), named_transform("gini"), 1.5)


def test_beta_reversed_examples():
    gb = BivariateModel(GumbelBarnett(1.0), Exponential(1), Exponential(1))
    spec = named_transform("gini")
    assert beta_h_reversed(gb, spec) == pytest.approx(beta_h(gb, spec), abs=TOL)
    ww = BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5))
    assert beta_h_reversed(ww, named_transform("cre_based")) == pytest.approx(
        -0.29817, abs=TOL
    )
    indep = BivariateModel(Independence(), Weibull(1, 2), Exponential(1))
    assert beta_h_reversed(indep, named_transform("or_based")) == pytest.approx(
        0.0, abs=TOL
    )


def test_symmetric_examples():
    ww = BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5))
    gini = named_transform("gini")
    assert symmetric_tau(ww, gini) == pytest.approx(-0.56534, abs=TOL)
    assert symmetric_nu(ww, gini) == pytest.approx(-0.58537, abs=TOL)
    assert symmetric_nu_bar(ww, gini) == pytest.approx(1.58537, abs=TOL)
    eg3 = named_transform("egini", 3.0)
    assert symmetric_nu_bar(ww, eg3) == pytest.approx(1.76379, abs=TOL)
    # exact complement identity
    for spec in NAMED:
        assert symmetric_nu_bar(ww, spec) == 1.0 - symmetric_nu(ww, spec)
    indep = BivariateModel(Independence(), Exponential(1), Uniform(0, 1))
    for spec in (gini, eg3):
        assert symmetric_tau(indep, spec) == pytest.approx(0.0, abs=TOL)
        assert symmetric_nu(indep, spec) == pytest.approx(0.0, abs=TOL)
        assert symmetric_nu_bar(indep, spec) == pytest.approx(1.0, abs=TOL)


# -- FGM margin-independence ----------------------------------------------------

FGM_GRID_F = [
    Weibull(1, 0.5),
    Exponential(1),
    Weibull(1, 2),
    Logistic(0, 1),
    Gumbel(0, 1),
    Laplace(0, 1),
]
FGM_GRID_H = [
    named_transform("cre_based"),
    named_transform("or_based"),
    named_transform("egini", 0.5),
    named_transform("egini", 3.0),
]


@pytest.mark.parametrize("g_margin", [Normal(0, 1), Uniform(0, 1), Exponential(2)])
def test_fgm_quadrature_is_margin_free_and_matches_closed_form(g_margin):
    for f in FGM_GRID_F[:3]:
        for spec in FGM_GRID_H:
            for gamma in (-1.0, 1.0):
                model = BivariateModel(FGM(gamma), f, g_margin)
                got = beta_h(model, spec)
                want = fgm_beta_closed_form(f, spec, gamma)
                assert got == pytest.approx(want, abs=1e-4)


def test_fgm_beta_is_linear_in_dependence_parameter():
    f, spec = Weibull(1, 2), named_transform("or_based")
    slope = fgm_beta_closed_form(f, spec, 1.0)
    for gamma in (-0.6, 0.37, 0.85):
        assert fgm_beta_closed_form(f, spec, gamma) == pytest.approx(
            gamma * slope, abs=1e-9
        )
        model = BivariateModel(FGM(gamma), f, Exponential(1))
        assert beta_h(model, spec) == pytest.approx(gamma * slope, abs=1e-4)


@dataclasses.dataclass(frozen=True)
class _FGMExcess(Copula):
    """FGM on the 2-D route: the base method's quadrature of its excess."""

    gamma: float

    def excess(self, u, uc, v, vc):
        return self.gamma * u * uc * v * vc


@pytest.mark.parametrize("gamma", [-1.0, 1.0])
def test_fgm_product_form_matches_the_2d_quadrature(gamma):
    # FGM integrates its excess as 4 gamma g(A, U) g(B, U); the 2-D quadrature of
    # gamma u(1-u) v(1-v) is the oracle
    cfg = IntegrationConfig()
    for a in (Weibull(1, 2), Exponential(1)):
        for spec in NAMED:
            want = _FGMExcess(gamma).dependence_integral(a, spec.h, cfg.abs_tol)
            assert dependence_integral(FGM(gamma), a, spec.h) == pytest.approx(want, abs=1e-9)


def test_fgm_closed_form_is_integrated_never_sampled():
    f, spec = Weibull(1, 2), named_transform("gini")
    mc = IntegrationConfig(method="monte_carlo", mc_samples=1000, seed=3)
    assert fgm_beta_closed_form(f, spec, 0.5, mc) == fgm_beta_closed_form(f, spec, 0.5)


# -- theorem properties ----------------------------------------------------------

PROPERTY_MODELS = [
    BivariateModel(GumbelBarnett(1.0), Exponential(1), Weibull(1, 2)),
    BivariateModel(AMH(-1.0), Logistic(0, 1), Power(1.5)),
    BivariateModel(FGM(0.8), Weibull(1, 2), Exponential(1)),
]


@pytest.mark.parametrize("model", PROPERTY_MODELS, ids=["gb", "amh", "fgm"])
def test_upper_bound_and_symmetric_range(model):
    for spec in NAMED:
        assert beta_h(model, spec) <= 1.0 + TOL
    for spec in SYMMETRIC_H:
        b = beta_h(model, spec)
        assert -1.0 - TOL <= b <= 1.0 + TOL


@pytest.mark.parametrize("model", PROPERTY_MODELS, ids=["gb", "amh", "fgm"])
def test_sign_flip_antisymmetry(model):
    for spec in SYMMETRIC_H[:2]:
        b = beta_h(model, spec)
        assert beta_h(reflect_x(model), spec) == pytest.approx(-b, abs=TOL)
        assert beta_h(reflect_y(model), spec) == pytest.approx(-b, abs=TOL)
        assert beta_h(reflect_x(reflect_y(model)), spec) == pytest.approx(b, abs=TOL)


@pytest.mark.parametrize("model", PROPERTY_MODELS, ids=["gb", "amh", "fgm"])
def test_monotone_invariance_in_y(model):
    # replacing the Y margin by the law of exp(Y) leaves beta unchanged
    transformed = BivariateModel(
        model.copula, model.margin_x, ExpTransformed(model.margin_y)
    )
    for spec in (NAMED[0], NAMED[3]):
        assert beta_h(transformed, spec) == pytest.approx(
            beta_h(model, spec), abs=TOL
        )


@pytest.mark.parametrize("model", PROPERTY_MODELS, ids=["gb", "amh", "fgm"])
def test_location_scale_invariance(model):
    scaled = BivariateModel(
        model.copula,
        Affine(model.margin_x, shift=-3.0, scale=2.5),
        Affine(model.margin_y, shift=1.0, scale=0.4),
    )
    for spec in (NAMED[1], NAMED[4]):
        assert beta_h(scaled, spec) == pytest.approx(beta_h(model, spec), abs=TOL)


def test_exchangeability_symmetry():
    for model in (
        BivariateModel(GumbelBarnett(0.6), Exponential(1), Exponential(1)),
        BivariateModel(AMH(0.9), Logistic(0, 1), Logistic(0, 1)),
    ):
        for spec in NAMED:
            assert beta_h(model, spec) == pytest.approx(
                beta_h_reversed(model, spec), abs=TOL
            )


def test_gaussian_model_recovers_rho():
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=10**6, seed=42)
    model = BivariateModel(GaussianCopula(-0.8), Normal(0, 1), Normal(2, 3))
    for spec in NAMED:
        assert beta_h(model, spec, cfg) == pytest.approx(-0.8, abs=MC_TOL)


def test_frechet_attainment():
    f, g = Weibull(1, 2), Exponential(1)
    up = BivariateModel(FrechetUpper(), f, g)
    lo = BivariateModel(FrechetLower(), f, g)
    for spec in NAMED:
        assert beta_h(up, spec) == pytest.approx(1.0, abs=TOL)
    for spec in SYMMETRIC_H[:2]:
        assert beta_h(lo, spec) == pytest.approx(-1.0, abs=TOL)
    # asymmetric transform law: the lower extreme is NOT attained
    assert beta_h(lo, named_transform("cre_based")) > -0.99


FRECHET_MARGINS = [
    Uniform(0, 1),
    Exponential(1),
    Weibull(1, 2),
    Weibull(1, 0.5),
    Logistic(0, 1),
    Normal(2, 3),
    Laplace(0, 1),
    Gumbel(0, 1),
    Power(1.5),
]


def test_comonotone_indices_are_exactly_one():
    # the numerator Cov(F^{-1}(U), H^{-1}(U)) and the denominator are one memo entry
    for f in FRECHET_MARGINS:
        for g in FRECHET_MARGINS[:4]:
            model = BivariateModel(FrechetUpper(), f, g)
            assert rho_t(model) == 1.0
            for spec in NAMED:
                assert beta_h(model, spec) == 1.0


def test_countermonotone_lower_end_is_minus_one_only_for_symmetric_h():
    # by the rearrangement inequality beta_H >= -g(F, Reflected(H)) / g(F, H), attained
    # by (U, 1 - U); the two covariances agree when H is symmetric
    for f in FRECHET_MARGINS:
        model = BivariateModel(FrechetLower(), f, Exponential(1))
        for spec in SYMMETRIC_H:
            assert abs(beta_h(model, spec) + 1.0) <= 1e-12
        for spec in NAMED:
            want = -g_covariance(f, Reflected(spec.h)) / g_covariance(f, spec.h)
            assert beta_h(model, spec) == want
    # F = H = Exp(1): Cov(-log(1 - U), -log U) / Var(-log U) = (2 - pi^2/6 - 1) / 1
    cre = beta_h(BivariateModel(FrechetLower(), Exponential(1), Exponential(1)), NAMED[0])
    assert abs(cre + (math.pi**2 / 6.0 - 1.0)) <= 1e-12


def test_reflecting_the_comonotone_model_is_the_countermonotone_one():
    for f in FRECHET_MARGINS[:4]:
        up = BivariateModel(FrechetUpper(), f, Exponential(1))
        lo = BivariateModel(FrechetLower(), f, Reflected(Exponential(1)))
        for spec in NAMED + SYMMETRIC_H:
            assert repr(beta_h(reflect_y(up), spec)) == repr(beta_h(lo, spec))


def test_pearson_never_exceeds_rho_t():
    models = [
        BivariateModel(FGM(1.0), Uniform(0, 1), Exponential(1)),
        BivariateModel(FGM(-1.0), Logistic(0, 1), Normal(0, 1)),
        BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5)),
        BivariateModel(AMH(1.0), Power(1.5), Power(4 / 3)),
    ]
    for m in models:
        assert abs(pearson(m)) <= abs(rho_t(m)) + TOL
        assert rho_t_scale(m) >= 1.0 - 1e-9
        assert rho_t_scale(m) * pearson(m) == pytest.approx(rho_t(m), abs=TOL)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_rho_t_scale_is_integrated_under_a_monte_carlo_config(seed):
    # the margins alone fix it, so a sample must not enter
    for f, g in ((Normal(0, 1), Normal(0, 1)), (Normal(0, 1), Logistic(0, 1))):
        model = BivariateModel(GaussianCopula(0.6), f, g)
        cfg = IntegrationConfig(method="monte_carlo", mc_samples=2_000, seed=seed)
        exact = math.sqrt(g_covariance(f, f) * g_covariance(g, g)) / g_covariance(f, g)
        assert rho_t_scale(model, cfg) == exact == rho_t_scale(model, IntegrationConfig())
        assert rho_t_scale(model, cfg) >= 1.0
    assert rho_t_scale(BivariateModel(GaussianCopula(0.6), f, f), cfg) == 1.0


def test_rho_t_dominance_on_full_margin_grids():
    # every margin pairing of the fgm grid plus the unequal-margin models
    grid = [Uniform(0, 1), Exponential(1), Weibull(1, 2), Logistic(0, 1), Normal(0, 1)]
    for i, f in enumerate(grid):
        for g in grid[i:]:
            m = BivariateModel(FGM(1.0), f, g)
            assert abs(pearson(m)) <= abs(rho_t(m)) + TOL
    for theta, margins in ((1.0, (Weibull(1, 2), Weibull(1, 0.5))),):
        m = BivariateModel(GumbelBarnett(theta), *margins)
        assert abs(pearson(m)) <= abs(rho_t(m)) + TOL
    for theta in (-1.0, 1.0):
        m = BivariateModel(AMH(theta), Power(1.5), Power(4 / 3))
        assert abs(pearson(m)) <= abs(rho_t(m)) + TOL


@pytest.mark.parametrize(
    "model",
    [
        BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5)),
        BivariateModel(FGM(1.0), Exponential(1), Normal(0, 1)),
        BivariateModel(Independence(), Exponential(1), Weibull(1, 0.5)),
        BivariateModel(AMH(0.2), Pareto(0.3), Exponential(1)),
    ],
)
def test_monte_carlo_rho_t_dominates_pearson_on_every_draw(model):
    # the plug-in's coupled covariance is a dot of the sorted columns, so Cauchy-Schwarz
    # keeps |rho_t| >= |pearson| on each sample, not only in the limit
    for n in (1000, 2000):
        for seed in range(40):
            cfg = IntegrationConfig(method="monte_carlo", mc_samples=n, seed=seed)
            assert abs(rho_t(model, cfg)) >= abs(pearson(model, cfg)) * (1 - 4 * 2.0**-52)


# -- error paths -----------------------------------------------------------------


def test_monte_carlo_agrees_with_quadrature_route():
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=10**6, seed=5)
    cases = [
        (BivariateModel(GumbelBarnett(1.0), Exponential(1), Exponential(1)),
         named_transform("cre_based")),
        (BivariateModel(AMH(1.0), Logistic(0, 1), Logistic(0, 1)),
         named_transform("egini", 3.0)),
        (BivariateModel(AMH(-1.0), Power(1.5), Power(4 / 3)),
         named_transform("gini")),
    ]
    for model, spec in cases:
        assert beta_h(model, spec, cfg) == pytest.approx(beta_h(model, spec), abs=MC_TOL)
        assert beta_h_reversed(model, spec, cfg) == pytest.approx(
            beta_h_reversed(model, spec), abs=MC_TOL
        )


def test_monte_carlo_symmetric_parts_share_one_draw(monkeypatch):
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=20_000, seed=9)
    model = BivariateModel(AMH(-1.0), Logistic(0, 1), Exponential(1))
    spec = named_transform("cre_based")
    b_xy = beta_h(model, spec, cfg)
    b_yx = beta_h_reversed(model, spec, cfg)
    draws = []
    sample = AMH.sample
    monkeypatch.setattr(
        AMH, "sample", lambda self, n, rng: draws.append(n) or sample(self, n, rng)
    )
    # same stream as the directed indices, so the parts agree bit for bit
    assert symmetric_tau(model, spec, cfg) == 0.5 * (b_xy + b_yx)
    assert min(b_xy, b_yx) <= symmetric_nu(model, spec, cfg) <= max(b_xy, b_yx)
    assert draws == []


@pytest.mark.parametrize(
    "cfg",
    [IntegrationConfig(), IntegrationConfig(method="monte_carlo", mc_samples=5_000, seed=3)],
    ids=["quadrature", "monte-carlo"],
)
def test_the_evaluators_tau_and_nu_are_the_module_functions(cfg):
    model = BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5))
    spec = named_transform("cre_based")
    _evaluator.cache_clear()
    tau, nu = symmetric_tau(model, spec, cfg), symmetric_nu(model, spec, cfg)
    b_xy, b_yx = beta_h(model, spec, cfg), beta_h_reversed(model, spec, cfg)
    ev = _evaluator(model, cfg)
    eta_x, eta_y = ev.coupled(0, spec), ev.coupled(1, spec)
    assert tau == 0.5 * (b_xy + b_yx)
    assert nu == (eta_x * b_xy + eta_y * b_yx) / (eta_x + eta_y)
    assert symmetric_nu_bar(model, spec, cfg) == 1.0 - nu
    _evaluator.cache_clear()  # a fresh evaluator, asked for tau and nu first
    ev = _evaluator(model, cfg)
    assert (ev.tau(spec), ev.nu(spec)) == (tau, nu)
    _evaluator.cache_clear()


def _all_indices(model, spec, cfg):
    directed = [f(model, spec, cfg) for f in (beta_h, beta_h_reversed)]
    paired = [f(model, cfg) for f in (pearson, rho_t)]
    symmetric = [f(model, spec, cfg) for f in (symmetric_tau, symmetric_nu, symmetric_nu_bar)]
    return directed + paired + symmetric


@pytest.mark.parametrize(
    "model",
    [
        BivariateModel(FGM(0.7), Exponential(1), Normal(0, 1)),
        BivariateModel(GaussianCopula(0.6), Normal(0, 1), Logistic(0, 1)),
    ],
)
def test_monte_carlo_indices_of_a_model_draw_once(monkeypatch, model):
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=5_000, seed=3)
    family = type(model.copula)
    draws = []
    scores = family.scores  # the one draw of every model; a Gaussian's never calls sample
    monkeypatch.setattr(
        family, "scores", lambda self, n, rng: draws.append(n) or scores(self, n, rng)
    )
    _evaluator.cache_clear()
    _all_indices(model, named_transform("gini"), cfg)
    # a second transform law ranks again but draws nothing
    _all_indices(model, named_transform("egini", 0.5), cfg)
    assert draws == [5_000]


def test_monte_carlo_memo_matches_cleared_cache_when_interleaved():
    models = [
        BivariateModel(AMH(-1.0), Logistic(0, 1), Exponential(1)),
        BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5)),
    ]
    specs = [named_transform("cre_based"), named_transform("gini")]
    configs = [
        IntegrationConfig(method="monte_carlo", mc_samples=n, seed=seed)
        for n in (2_000, 3_000)
        for seed in (1, 2)
    ]
    cases = [(m, spec, cfg) for cfg in configs for m in models for spec in specs]
    fresh = []
    for case in cases:
        _evaluator.cache_clear()
        fresh.append(_all_indices(*case))
    # every index of every case, interleaved across models, seeds and sizes
    memo = [[] for _ in cases]
    for k in range(7):
        for i, case in enumerate(cases):
            memo[i].append(_all_indices(*case)[k])
    assert memo == fresh


def test_monte_carlo_sample_is_read_only():
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=2_000, seed=4)
    model = BivariateModel(FGM(0.5), Exponential(1), Normal(0, 1))
    spec = named_transform("cre_based")
    before = _all_indices(model, spec, cfg)
    ev = _evaluator(model, cfg)
    built = (a for pair in ev.view.pairs.values() for a in pair if a is not None)
    for arr in (*ev.view.values, *built):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _all_indices(model, spec, cfg) == before


def test_gaussian_monte_carlo_keeps_normal_margins_in_normal_scores(monkeypatch):
    import qtcorr.bivariate as bivariate
    import qtcorr.distributions as distributions

    def refuse(*args):
        raise AssertionError("a Normal margin went through Phi and back")

    for owner, name in ((distributions, "ndtri"), (bivariate, "ndtri"), (Normal, "quantile")):
        monkeypatch.setattr(owner, name, refuse)
    # any margin of standard shape Normal(0, 1) is loc + scale Z: a Normal, or an Affine of one
    located = Affine(Normal(0.0, 1.0), 0.5, 2.0), Affine(Normal(-6.0, 2.0), 0.5, 0.25)
    for margins in ((Normal(0.5, 2.0), Normal(-1.0, 0.5)), located):
        model = BivariateModel(GaussianCopula(0.6), *margins)
        cfg = IntegrationConfig(method="monte_carlo", mc_samples=20_000, seed=1)
        _evaluator.cache_clear()
        assert all(np.isfinite(_all_indices(model, named_transform("cre_based"), cfg)))
        ev = _evaluator(model, cfg)
        z, w = model.copula.scores(20_000, bivariate.child_rng(1, "correlation.beta_h"))
        x, y = ev.view.values
        assert np.array_equal(x, 0.5 + 2.0 * z) and np.array_equal(y, -1.0 + 0.5 * w)
        # a paired sample takes the same path
        z, w = model.copula.scores(1000, bivariate.child_rng(3, "bivariate.sample"))
        sample = model.sample(1000, seed=3)
        assert np.array_equal(sample.x, 0.5 + 2.0 * z)
        assert np.array_equal(sample.y, -1.0 + 0.5 * w)
    _evaluator.cache_clear()


def test_gaussian_monte_carlo_scores_match_the_phi_round_trip(monkeypatch):
    from qtcorr.distributions import ndtr

    model = BivariateModel(GaussianCopula(0.6), Normal(0.5, 2.0), Logistic(0.0, 1.0))
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=20_000, seed=1)
    spec = named_transform("cre_based")
    _evaluator.cache_clear()
    scored = _all_indices(model, spec, cfg)
    scores = GaussianCopula.scores  # the reference draws uniforms Phi(z) and maps them back
    monkeypatch.setattr(
        GaussianCopula, "scores", lambda self, n, rng: tuple(map(ndtr, scores(self, n, rng)))
    )
    monkeypatch.setattr(GaussianCopula, "score_quantile", staticmethod(Copula.score_quantile))
    _evaluator.cache_clear()
    round_trip = _all_indices(model, spec, cfg)
    _evaluator.cache_clear()
    assert scored == pytest.approx(round_trip, rel=0.0, abs=1e-12)


ORACLE_MODELS = [
    BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5)),
    BivariateModel(AMH(-1.0), Logistic(0, 1), Logistic(0, 1)),
    BivariateModel(FGM(0.5), Exponential(1), Normal(0, 1)),
]


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_quadrature_indices_are_the_explicit_integral_ratios(model):
    c, f, g = model.copula, model.margin_x, model.margin_y
    h = named_transform("cre_based").h
    _evaluator.cache_clear()
    assert beta_h(model, named_transform("cre_based")) == (
        dependence_integral(c, f, h) / g_covariance(f, h)
    )
    assert beta_h_reversed(model, named_transform("cre_based")) == (
        dependence_integral(c, h, g) / g_covariance(g, h)
    )
    cov_xy = dependence_integral(c, f, g)
    assert pearson(model) == cov_xy / math.sqrt(g_covariance(f, f) * g_covariance(g, g))
    assert rho_t(model) == cov_xy / math.sqrt(g_covariance(f, g) * g_covariance(g, f))


def test_symmetric_table_integrates_each_dependence_covariance_once(monkeypatch):
    import qtcorr.correlation as correlation
    from qtcorr.tables import run_table

    calls = []
    integral = correlation.dependence_integral
    monkeypatch.setattr(
        correlation, "dependence_integral", lambda *a: calls.append(a[1:3]) or integral(*a)
    )
    _evaluator.cache_clear()
    cells, ok = run_table("symmetric")
    assert ok and len(cells) == 25
    # five transform laws, two directions each
    assert len(calls) == 10 == len(set(calls))


def test_quadrature_transform_equal_to_a_margin_shares_its_integrals(monkeypatch):
    import qtcorr.correlation as correlation

    calls = []
    for name in ("dependence_integral", "g_covariance"):
        fn = getattr(correlation, name)
        monkeypatch.setattr(
            correlation, name, lambda *a, fn=fn: calls.append(fn.__name__) or fn(*a)
        )
    f, g = Weibull(1, 2), Exponential(1)
    model = BivariateModel(FGM(0.5), f, g)
    _evaluator.cache_clear()
    # H = G: beta_h reads rho_t's numerator and its Cov(X, G^{-1}F(X))
    assert beta_h(model, CorrelationSpec(g)) * rho_t(model) != 0.0
    assert sorted(calls) == ["dependence_integral", "g_covariance", "g_covariance"]


# -- Gaussian oracles: every family takes the same quadrature path -------------

GAUSSIAN_RHOS = (-0.999, -0.5, 0.3, 0.6, 0.999)
ORACLE_TOL = 1e-9


def test_gaussian_beta_h_equals_rho_for_every_named_h():
    # E[X | Y] is linear in Y under normal margins, so every beta_H is rho
    for rho in GAUSSIAN_RHOS:
        model = BivariateModel(GaussianCopula(rho), Normal(0, 1), Normal(2, 3))
        for spec in NAMED:
            assert beta_h(model, spec) == pytest.approx(rho, abs=ORACLE_TOL)
        assert pearson(model) == pytest.approx(rho, abs=ORACLE_TOL)
        assert rho_t(model) == pytest.approx(rho, abs=ORACLE_TOL)


def test_gaussian_spearman_identity():
    # Spearman's rho_S = 12 Cov(U, V) = (6 / pi) arcsin(rho / 2)
    for rho in GAUSSIAN_RHOS:
        cov = dependence_integral(GaussianCopula(rho), Uniform(0, 1), Uniform(0, 1))
        assert 12.0 * cov == pytest.approx(6.0 / math.pi * math.asin(rho / 2.0), abs=ORACLE_TOL)


def test_gaussian_normal_covariance_is_rho():
    for rho in GAUSSIAN_RHOS:
        cov = dependence_integral(GaussianCopula(rho), Normal(0, 1), Normal(0, 1))
        assert cov == pytest.approx(rho, abs=ORACLE_TOL)


def test_degenerate_denominator():
    flat = Empirical([1.0, 1.0, 1.0, 1.0])
    model = BivariateModel(Independence(), flat, Exponential(1))
    with pytest.raises(DegenerateError):
        beta_h(model, named_transform("gini"))


# -- the process-wide quadrature memo ------------------------------------------

import qtcorr.quadrature as quadrature  # noqa: E402
from qtcorr.measures import _quadrature_memo  # noqa: E402


def _engine_calls(monkeypatch) -> list:
    calls = []
    for name in ("integrate", "integrate_2d"):
        engine = getattr(quadrature, name)
        monkeypatch.setattr(
            quadrature, name, lambda *a, e=engine, **k: calls.append(e.__name__) or e(*a, **k)
        )
    return calls


def test_dependence_integral_memo_is_bit_identical_and_ignores_method_and_seed(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    args = (AMH(-1.0), Logistic(0.0, 1.0), Exponential(1.0))
    first = dependence_integral(*args)
    assert "integrate_2d" in calls and type(first) is float
    calls.clear()
    assert repr(dependence_integral(AMH(-1.0), Logistic(0.0, 1.0), Exponential(1.0))) == repr(first)
    mc = IntegrationConfig(method="monte_carlo", mc_samples=5000, seed=11)
    assert dependence_integral(*args, mc) == first
    assert calls == [] and _quadrature_memo.cache_info().currsize == 1
    # the weights are ordered: the reversed pair is another integral
    dependence_integral(AMH(-1.0), Exponential(1.0), Logistic(0.0, 1.0))
    assert "integrate_2d" in calls and _quadrature_memo.cache_info().currsize == 2


def test_frechet_and_reflected_fgm_models_integrate_in_one_dimension(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    _evaluator.cache_clear()
    f, g = Weibull(1, 2), Exponential(1)
    fgm = BivariateModel(FGM(0.8), f, g)
    models = [
        BivariateModel(FrechetUpper(), f, g),
        BivariateModel(FrechetLower(), f, g),
        reflect_x(fgm),
        reflect_y(fgm),
        reflect_x(reflect_y(fgm)),
    ]
    for model in models:
        for spec in NAMED:
            beta_h(model, spec)
            beta_h_reversed(model, spec)
        pearson(model)
        rho_t(model)
    assert "integrate" in calls and "integrate_2d" not in calls
    # reflecting Y negates beta_H for every H; reflecting X for symmetric H
    for spec in NAMED:
        assert abs(beta_h(reflect_y(fgm), spec) + beta_h(fgm, spec)) <= 1e-15
    for spec in SYMMETRIC_H:
        assert abs(beta_h(reflect_x(fgm), spec) + beta_h(fgm, spec)) <= 1e-15


@dataclasses.dataclass(frozen=True)
class _RefusingCopula(Copula):
    def excess(self, u, uc, v, vc):
        raise NumericalError("refused")


def test_dependence_integral_memo_never_caches_a_refusal():
    _quadrature_memo.cache_clear()
    for _ in range(2):
        with pytest.raises(NumericalError):
            dependence_integral(_RefusingCopula(), Normal(0, 1), Uniform(0, 1))
    assert _quadrature_memo.cache_info().currsize == 0


def test_models_sharing_copula_margin_and_transform_share_every_integral(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    _evaluator.cache_clear()
    spec = named_transform("gini")
    first = beta_h(BivariateModel(GumbelBarnett(1.0), Exponential(1.0), Exponential(1.0)), spec)
    assert calls
    calls.clear()
    # beta_h depends on the copula, F and H only: another Y margin integrates nothing
    other = BivariateModel(GumbelBarnett(1.0), Exponential(1.0), Weibull(1.0, 2.0))
    assert beta_h(other, spec) == first
    assert calls == []


def test_fgm_rhot_table_integrates_no_2d_point(monkeypatch):
    import qtcorr.bivariate as bivariate
    from qtcorr.tables import run_table

    calls = []
    engine = bivariate.unit_integral_2d
    monkeypatch.setattr(
        bivariate, "unit_integral_2d", lambda *a: calls.append(a) or engine(*a)
    )
    _quadrature_memo.cache_clear()
    assert run_table("fgm-rhot")[1] and calls == []
    # the patched binding is the live one: a family without a product form uses it
    dependence_integral(GumbelBarnett(0.5), Uniform(0, 1), Exponential(1))
    assert len(calls) == 1
    assert dependence_integral(FGM(0.0), Weibull(1, 2), Logistic(0, 1)) == 0.0


def test_independence_members_integrate_no_2d_point(monkeypatch):
    import qtcorr.bivariate as bivariate

    calls = []
    engine = bivariate.unit_integral_2d
    monkeypatch.setattr(
        bivariate, "unit_integral_2d", lambda *a: calls.append(a) or engine(*a)
    )
    _quadrature_memo.cache_clear()
    for cop in (Independence(), GumbelBarnett(0.0), AMH(0.0), GaussianCopula(0.0)):
        assert cop.independent
        assert repr(dependence_integral(cop, Weibull(1, 2), Logistic(0, 1))) == "0.0"
        # a reflection negates its base's integral, and a zero stays +0.0
        for reflect in (reflect_x, reflect_y):
            reflected = reflect(BivariateModel(cop, Weibull(1, 2), Logistic(0, 1))).copula
            assert repr(dependence_integral(reflected, Weibull(1, 2), Logistic(0, 1))) == "0.0"
    assert calls == []
    for cop in (GumbelBarnett(0.5), AMH(-1.0), GaussianCopula(-0.3), FrechetUpper()):
        assert not cop.independent


def test_a_transform_without_exact_cell_means_is_refused_never_approximated():
    # exp of a Weibull has no exact partial quantile integral: every use of its mean or
    # rank-cell means raises instead of falling back to a midpoint or pointwise quantile
    h = ExpTransformed(Weibull(1.0, 2.0))
    rng = np.random.default_rng(9)
    x = rng.normal(size=500)
    sample = PairedSample(x, x + rng.normal(size=500))
    model = BivariateModel(FGM(0.5), Exponential(1.0), Exponential(1.0))
    mc = IntegrationConfig(method="monte_carlo", mc_samples=2000, seed=1)
    refusals = (
        lambda: estimate_beta_h(sample, h),
        lambda: beta_h(model, CorrelationSpec(h), mc),
        lambda: g_covariance(Empirical(x), h),
        ExpTransformed(Logistic(0.0, 0.5)).mean,
    )
    for refusal in refusals:
        with pytest.raises(UnsupportedOperationError) as err:
            refusal()
        assert isinstance(err.value, QtcorrError)
    assert h.quantile(0.5) == pytest.approx(math.exp(math.sqrt(math.log(2.0))))


# -- location cancels and scale factors out of every covariance --------------------


def test_a_shifted_margin_leaves_pearson_alone():
    # location inside the coupled integral would cancel against the product of means
    shifted = BivariateModel(GumbelBarnett(1.0), Affine(Exponential(1.0), 1e7, 1.0), Weibull(1, 2))
    plain = BivariateModel(GumbelBarnett(1.0), Exponential(1.0), Weibull(1, 2))
    assert abs(pearson(shifted) - pearson(plain)) <= 1e-12


def test_reflecting_a_shifted_margin_negates_pearson_exactly():
    # -(1e7 + Z) is -1e7 + (-Z): the reflection keeps the location out of every integral
    plain = BivariateModel(GumbelBarnett(1.0), Normal(0.0, 1.0), Weibull(1, 2))
    shifted = BivariateModel(GumbelBarnett(1.0), Normal(1e7, 1.0), Weibull(1, 2))
    assert pearson(reflect_x(shifted)) == -pearson(plain)


@pytest.mark.parametrize("h", [Exponential(1.0), Logistic(0.0, 1.0), Pareto(0.4), Uniform()])
def test_beta_h_is_free_of_an_affine_map_of_h(h):
    model = BivariateModel(GumbelBarnett(0.7), Weibull(1, 2), Logistic(1.0, 2.0))
    mc = IntegrationConfig(method="monte_carlo", mc_samples=20_000, seed=2)
    for cfg in (IntegrationConfig(), mc):
        for fn in (beta_h, beta_h_reversed):
            want = fn(model, CorrelationSpec(h), cfg)
            for a, b in ((1e6, 3.0), (-2.5, 1e-3), (1e12, 1e4)):
                got = fn(model, CorrelationSpec(Affine(h, a, b)), cfg)
                assert abs(got - want) <= 1e-14
    _evaluator.cache_clear()


def test_dependence_integral_factors_the_weight_scales_out():
    for copula in (GumbelBarnett(1.0), FGM(-0.5), GaussianCopula(0.4)):
        want = dependence_integral(copula, Weibull(1, 2), Logistic(0.0, 1.0))
        got = dependence_integral(copula, Weibull(3.0, 2.0), Logistic(1e9, 0.5))
        assert abs(got - 1.5 * want) <= 1e-15 * abs(1.5 * want)


def test_monte_carlo_refuses_a_constant_margin():
    # x = 0.3 centres to equal residues of a few ulps, not zeros: Var(x) must read 0 there
    _evaluator.cache_clear()
    with pytest.raises(DegenerateError):
        pearson(
            BivariateModel(FGM(0.5), Empirical([0.3] * 4), Exponential(1)),
            IntegrationConfig(method="monte_carlo", mc_samples=1000, seed=1),
        )
    model = BivariateModel(FGM(0.5), Empirical([0.3] * 4), Exponential(1))
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=1000, seed=1)
    for index in (rho_t, lambda m, c: beta_h(m, named_transform("gini"), c)):
        with pytest.raises(DegenerateError):  # as at quadrature and in the estimators
            index(model, cfg)
    # beta_h_reversed reads x only through the ranks of its scores
    assert math.isfinite(beta_h_reversed(model, named_transform("gini"), cfg))
    _evaluator.cache_clear()
