"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qtcorr.bivariate import (
    AMH,
    BivariateModel,
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
    beta_h,
    beta_h_reversed,
    fgm_beta_closed_form,
    named_transform,
    pearson,
    symmetric_nu,
    symmetric_nu_bar,
)
from qtcorr.decomposition import StandbySystem, decompose, subadditivity_report
from qtcorr.distributions import (
    Affine,
    ExpTransformed,
    Exponential,
    Gumbel,
    Laplace,
    Logistic,
    Normal,
    Power,
    Uniform,
    Weibull,
)
from qtcorr.estimation import PairedSample, estimate_beta_h, estimate_named
from qtcorr.measures import (
    IntegrationConfig,
    cre,
    extended_gini,
    g_covariance,
    gcre,
    gmd,
)
from qtcorr.tables import run_table

TABLE_TOL = 5e-4
NAMED = [
    named_transform("cre_based"),
    named_transform("or_based"),
    named_transform("egini", 0.5),
    named_transform("gini"),
    named_transform("egini", 3.0),
]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_fgm_rho_table():
    start = time.perf_counter()
    cells, ok = run_table("fgm-rhot", tol=TABLE_TOL)
    elapsed = time.perf_counter() - start
    worst = max(cell.diff for cell in cells)
    rho_cells = sum(1 for c in cells if c.col.endswith("/rho"))
    rhot_cells = sum(1 for c in cells if c.col.endswith("/rho-t"))
    ok = ok and rho_cells == 50 and rhot_cells == 50 and elapsed < 60.0
    report(
        1,
        ok,
        f"fgm rho/rho_t grid (25+25 cells, both signs) worst |diff| = "
        f"{worst:.2e} <= {TABLE_TOL}, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_fgm_beta_table_and_margin_free_quadrature():
    cells, ok = run_table("fgm-beta", tol=TABLE_TOL)
    worst_table = max(cell.diff for cell in cells)
    ok = ok and len(cells) == 48
    # independent quadrature route with an arbitrary, unused second margin
    margin_g = Normal(0.0, 1.0)
    rows = [
        Weibull(1, 0.5), Exponential(1), Weibull(1, 2),
        Logistic(0, 1), Gumbel(0, 1), Laplace(0, 1),
    ]
    cols = [NAMED[0], NAMED[1], NAMED[2], NAMED[4]]
    worst_gap = 0.0
    for f in rows:
        for spec in cols:
            for gamma in (-1.0, 1.0):
                closed = fgm_beta_closed_form(f, spec, gamma)
                quadr = beta_h(BivariateModel(FGM(gamma), f, margin_g), spec)
                worst_gap = max(worst_gap, abs(closed - quadr))
    ok = ok and worst_gap <= 1e-4
    report(
        2,
        ok,
        f"fgm beta table worst |diff| = {worst_table:.2e} <= {TABLE_TOL}; "
        f"closed-form vs quadrature (arbitrary G) gap = {worst_gap:.2e} <= 1e-4",
    )


def test_criterion_3_exchangeable_table():
    cells, ok = run_table("exchangeable", tol=TABLE_TOL)
    worst = max(cell.diff for cell in cells)
    report(3, ok, f"exchangeable bounds table worst |diff| = {worst:.2e} <= {TABLE_TOL}")


def test_criterion_4_nonexchangeable_table():
    cells, ok = run_table("nonexchangeable", tol=TABLE_TOL)
    worst = max(cell.diff for cell in cells)
    report(
        4, ok, f"nonexchangeable bounds table worst |diff| = {worst:.2e} <= {TABLE_TOL}"
    )


def test_criterion_5_symmetric_table():
    cells, ok = run_table("symmetric", tol=TABLE_TOL)
    worst = max(cell.diff for cell in cells)
    model = BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5))
    exact = all(
        symmetric_nu_bar(model, spec) == 1.0 - symmetric_nu(model, spec)
        for spec in NAMED
    )
    ok = ok and exact
    report(
        5,
        ok,
        f"symmetric-index table worst |diff| = {worst:.2e} <= {TABLE_TOL}; "
        f"nu_bar == 1 - nu exactly: {exact}",
    )


def test_criterion_6_gaussian_model_beta_equals_rho():
    start = time.perf_counter()
    cfg = IntegrationConfig(method="monte_carlo", mc_samples=10**6, seed=42)
    worst = 0.0
    for rho in (-0.8, 0.3, 0.6):
        model = BivariateModel(GaussianCopula(rho), Normal(0, 1), Normal(2, 3))
        for spec in NAMED:
            worst = max(worst, abs(beta_h(model, spec, cfg) - rho))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and elapsed < 120.0
    report(
        6,
        ok,
        f"gaussian-copula beta recovers rho for 5 transforms x 3 rho: worst "
        f"|err| = {worst:.2e} <= 5e-3, {elapsed:.1f}s < 120s",
    )


def test_criterion_7_dependence_extremes():
    f, g = Weibull(1, 2), Exponential(1)
    upper = BivariateModel(FrechetUpper(), f, g)
    lower = BivariateModel(FrechetLower(), f, g)
    worst_up = max(abs(beta_h(upper, spec) - 1.0) for spec in NAMED)
    sym = [named_transform("gini"), named_transform("or_based")]
    worst_lo = max(abs(beta_h(lower, spec) + 1.0) for spec in sym)
    asym = beta_h(lower, named_transform("cre_based"))
    ok = worst_up <= TABLE_TOL and worst_lo <= TABLE_TOL and asym > -0.99
    report(
        7,
        ok,
        f"comonotone beta = 1 (worst {worst_up:.2e}), countermonotone beta = -1 "
        f"for symmetric transforms (worst {worst_lo:.2e}), asymmetric transform "
        f"stays above -0.99 ({asym:.5f})",
    )


def test_criterion_8_measures_consistency():
    laws = [Exponential(1), Weibull(1, 2), Uniform(0, 1)]
    worst = 0.0
    for f in laws:
        worst = max(worst, abs(gmd(f) - 4.0 * g_covariance(f, Uniform(0, 1))))
        worst = max(worst, abs(cre(f) - g_covariance(f, Exponential(1))))
        worst = max(worst, abs(extended_gini(f, 2.0) - gmd(f) / 2.0))
        sf = lambda x, f=f: 1.0 - f.cdf(x)
        hi = 60.0 if f.support[1] == math.inf else f.support[1]
        for n in (1, 2, 3):
            direct = (
                quad(
                    lambda x: sf(x) * (-math.log(sf(x))) ** n
                    if 0.0 < sf(x) < 1.0
                    else 0.0,
                    0.0,
                    hi,
                    limit=400,
                )[0]
                / math.factorial(n)
            )
            worst = max(worst, abs(gcre(f, n) - direct))
    ok = worst <= 1e-6
    report(8, ok, f"measure consistency web worst |gap| = {worst:.2e} <= 1e-6")


def _random_config_matrix(count: int):
    rng = np.random.default_rng(20240817)
    margins = [
        Exponential(1.0), Weibull(1, 2), Weibull(1, 0.5), Uniform(0, 1),
        Logistic(0, 1), Normal(0, 1), Gumbel(0, 1), Laplace(0, 1), Power(1.5),
    ]
    configs = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 0:
            copula = Independence()
        elif kind == 1:
            copula = FGM(float(rng.uniform(-1, 1)))
        elif kind == 2:
            copula = GumbelBarnett(float(rng.uniform(0, 1)))
        else:
            copula = AMH(float(rng.uniform(-1, 1)))
        fx = margins[rng.integers(0, len(margins))]
        gy = margins[rng.integers(0, len(margins))]
        spec = NAMED[rng.integers(0, len(NAMED))]
        configs.append((BivariateModel(copula, fx, gy), spec))
    return configs


def test_criterion_9_transformed_correlation_properties():
    tol = 1e-3
    worst = 0.0
    count = 0
    rng = np.random.default_rng(20240817)
    for model, spec in _random_config_matrix(50):
        count += 1
        b = beta_h(model, spec)
        worst = max(worst, b - 1.0)
        assert b <= 1.0 + tol
        if isinstance(model.copula, Independence):
            assert abs(b) <= tol
        if spec.h.symmetry_center is not None:
            assert abs(beta_h(reflect_x(model), spec) + b) <= tol
            assert abs(beta_h(reflect_y(model), spec) + b) <= tol
        lifted = BivariateModel(
            model.copula, model.margin_x, ExpTransformed(model.margin_y)
        )
        assert abs(beta_h(lifted, spec) - b) <= tol
        scaled = BivariateModel(
            model.copula,
            Affine(model.margin_x, float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 3))),
            Affine(model.margin_y, float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 3))),
        )
        assert abs(beta_h(scaled, spec) - b) <= tol
        if model.margin_x == model.margin_y:
            assert abs(beta_h_reversed(model, spec) - b) <= tol
    report(
        9,
        True,
        f"{count} randomized configurations satisfy independence/sign-flip/"
        f"invariance/exchangeability and beta <= 1 (max beta-1 = {worst:.2e})",
    )


def test_criterion_10_decomposition():
    n_mc = 10**6
    seed = 7
    configs = [
        (StandbySystem((Exponential(1),)), Uniform(0, 1)),
        (StandbySystem((Exponential(1), Exponential(1))), Uniform(0, 1)),
        (StandbySystem((Exponential(1), Exponential(1))), Exponential(1)),
        (StandbySystem((Exponential(1), Weibull(1, 2))), Logistic(0, 1)),
        (StandbySystem((Weibull(1, 2), Weibull(1, 2))), Exponential(1)),
        (StandbySystem((Weibull(1, 2),) * 3), Uniform(0, 1)),
    ]
    worst_resid_sig = 0.0
    for system, g in configs:
        result = decompose(system, g, n_mc, seed=seed)
        residual = abs(result.total - result.mc_estimate)
        if result.mc_se > 0.0:
            worst_resid_sig = max(worst_resid_sig, residual / result.mc_se)
        else:
            assert residual == 0.0
        for beta, _ in result.terms:
            assert -1e-3 <= beta <= 1.0 + 1e-3
    rows = subadditivity_report(
        StandbySystem((Exponential(1), Exponential(1))), n_mc, seed=seed
    )
    min_slack_sig = min(
        (row.slack / row.se for row in rows if row.se > 0.0), default=0.0
    )
    gmd_lhs = next(row.lhs for row in rows if row.measure == "gmd")
    rows3 = subadditivity_report(
        StandbySystem((Exponential(1), Weibull(1, 2), Weibull(1, 2))), n_mc, seed=seed
    )
    slacks_ok = all(row.slack >= -3.0 * row.se for row in rows + rows3)
    gmd_ok = abs(gmd_lhs - 1.5) <= 2e-3
    ok = worst_resid_sig <= 3.0 and slacks_ok and gmd_ok
    report(
        10,
        ok,
        f"decomposition identity residual <= 3 SE across 6 configurations "
        f"(worst {worst_resid_sig:.2f} SE); slacks >= -3 SE "
        f"(min {min_slack_sig:.2f} SE); system GMD for twin exponentials = "
        f"{gmd_lhs:.4f} within 2e-3 of 1.5",
    )


def _batched_se(sample: PairedSample, estimator):
    batches = np.array_split(np.arange(sample.n), 10)
    values = [
        estimator(PairedSample(sample.x[idx], sample.y[idx])) for idx in batches
    ]
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def test_criterion_11_estimator_tracks_quadrature():
    n = 10**6
    panels = [
        (BivariateModel(GumbelBarnett(1.0), Exponential(1), Exponential(1)), 102),
        (BivariateModel(GumbelBarnett(0.0), Exponential(1), Exponential(1)), 101),
        (BivariateModel(AMH(-1.0), Logistic(0, 1), Logistic(0, 1)), 102),
        (BivariateModel(AMH(1.0), Logistic(0, 1), Logistic(0, 1)), 101),
    ]
    worst_sig = 0.0
    for model, seed in panels:
        sample = model.sample(n, seed=seed)
        for index in range(-1, len(NAMED)):  # pearson, then NAMED by position
            if index < 0:
                truth = pearson(model)
                estimator = lambda s: estimate_named(s, "pearson")
            else:
                spec = NAMED[index]
                truth = beta_h(model, spec)
                estimator = lambda s, h=spec.h: estimate_beta_h(s, h)
            est = estimator(sample)
            se = _batched_se(sample, estimator)
            sig = abs(est - truth) / se if se > 0.0 else 0.0
            worst_sig = max(worst_sig, sig)
            assert abs(est - truth) <= 3.0 * se, (index, model.copula, est, truth, se)
    x = np.linspace(0.0, 5.0, 1000)
    mono = PairedSample(x, x**3)
    exact = all(estimate_beta_h(mono, spec.h) == 1.0 for spec in NAMED)
    ok = exact and worst_sig <= 3.0
    report(
        11,
        ok,
        f"plug-in estimator within 3 SE of quadrature truth on every "
        f"exchangeable-table cell (worst {worst_sig:.2f} SE); comonotone data "
        f"returns exactly 1: {exact}",
    )
