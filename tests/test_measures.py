"""Measures: worked values against independent x-domain oracles.

Production code integrates everything in the quantile domain; the oracles
here integrate survival-function forms (or density-weighted moments) on
the x axis with scipy's QUADPACK, so formula and integrator both differ.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qtcorr.distributions import (
    Empirical,
    Exponential,
    Affine,
    Logistic,
    Normal,
    Pareto,
    Uniform,
    Weibull,
)
from qtcorr.errors import DomainError, NumericalError
from qtcorr.measures import (
    DEFAULT_CONFIG,
    IntegrationConfig,
    cre,
    equilibrium_entropy,
    extended_gini,
    g_covariance,
    gcre,
    gmd,
    log_odds_covariance,
    record_mean_gap,
)

CFG = DEFAULT_CONFIG
TOL = 10.0 * CFG.abs_tol


# -- x-domain oracles ---------------------------------------------------------


def oracle_gmd(cdf, lo, hi):
    # E|X1 - X2| = 2 integral F (1-F)
    return 2.0 * quad(lambda x: cdf(x) * (1.0 - cdf(x)), lo, hi, limit=400)[0]


def oracle_cre(sf, hi):
    # -integral of Fbar log Fbar over the nonnegative support
    def f(x):
        s = sf(x)
        return -s * math.log(s) if 0.0 < s < 1.0 else 0.0

    return quad(f, 0.0, hi, limit=400)[0]


def oracle_gcre(sf, n, hi):
    # direct integral (1/n!) Fbar (-log Fbar)^n
    def f(x):
        s = sf(x)
        return s * (-math.log(s)) ** n if 0.0 < s < 1.0 else 0.0

    return quad(f, 0.0, hi, limit=400)[0] / math.factorial(n)


def oracle_cov(density, transform, lo, hi):
    # Cov(X, t(X)) through density-weighted moments
    m_x = quad(lambda x: x * density(x), lo, hi, limit=400)[0]
    m_t = quad(lambda x: transform(x) * density(x), lo, hi, limit=400)[0]
    m_xt = quad(lambda x: x * transform(x) * density(x), lo, hi, limit=400)[0]
    return m_xt - m_x * m_t


# -- g_covariance -------------------------------------------------------------


def test_g_covariance_examples():
    assert g_covariance(Uniform(0, 1), Uniform(0, 1)) == pytest.approx(1 / 12, abs=TOL)
    assert g_covariance(Exponential(1), Uniform(0, 1)) == pytest.approx(0.25, abs=TOL)
    assert g_covariance(Exponential(1), Exponential(1)) == pytest.approx(1.0, abs=TOL)


def test_g_covariance_symmetry_and_sign():
    laws = [Uniform(0, 1), Exponential(1), Weibull(1, 2), Logistic(0, 1), Normal(0, 1)]
    for f in laws:
        for g in laws:
            a = g_covariance(f, g)
            b = g_covariance(g, f)
            assert a >= -CFG.abs_tol
            assert abs(a - b) <= TOL


def test_g_covariance_cauchy_schwarz():
    laws = {
        Uniform(0, 1): 1 / 12,
        Exponential(1): 1.0,
        Weibull(1, 2): 1.0 - math.pi / 4.0,
        Logistic(0, 1): math.pi**2 / 3.0,
        Normal(0, 1): 1.0,
    }
    for f, vf in laws.items():
        for g, vg in laws.items():
            assert g_covariance(f, g) ** 2 <= vf * vg * (1.0 + 1e-6)


def test_g_covariance_equality_for_location_shift():
    # identical up to location: the bound sigma_f sigma_g is attained
    f = Weibull(1.0, 2.0)
    g = Affine(f, shift=3.0, scale=1.0)
    sigma2 = 1.0 - math.pi / 4.0
    assert g_covariance(f, g) == pytest.approx(sigma2, abs=TOL)


def test_g_covariance_degenerate_empirical_is_zero():
    flat = Empirical([2.0, 2.0, 2.0])
    assert g_covariance(flat, Exponential(1)) == 0.0
    assert g_covariance(Exponential(1), flat) == 0.0
    assert gmd(flat) == 0.0


def test_g_covariance_empirical_routes():
    rng = np.random.default_rng(7)
    x = rng.exponential(size=4000)
    emp = Empirical(x)
    approx = g_covariance(emp, Uniform(0, 1))
    plug_in = float(np.mean(np.sort(x) * (np.arange(4000) + 0.5) / 4000) - x.mean() / 2)
    assert approx == pytest.approx(plug_in, abs=1e-12)
    # empirical x empirical equals the comonotone sorted moment
    y = rng.exponential(size=1000)
    both = g_covariance(Empirical(x[:1000]), Empirical(y))
    sortmom = float(np.mean(np.sort(x[:1000]) * np.sort(y)) - x[:1000].mean() * y.mean())
    assert both == pytest.approx(sortmom, abs=1e-12)


def test_g_covariance_empirical_uses_exact_cell_means():
    # The other law enters by its mean over each empirical cell; summing
    # x_(k) times scipy's quad of the Pareto quantile over each cell gives
    # 1.13906852856723.  The midpoint rule gave 1.1083, biased low by the
    # unbounded last cell.
    x = np.random.default_rng(0).exponential(size=2000)
    assert g_covariance(Empirical(x), Pareto(0.6)) == pytest.approx(1.13906852856723, abs=1e-12)
    assert g_covariance(Pareto(0.6), Empirical(x)) == g_covariance(Empirical(x), Pareto(0.6))


def test_g_covariance_divergent_pair_raises():
    with pytest.raises(NumericalError):
        g_covariance(Pareto(0.5), Pareto(0.5))


# -- gmd ----------------------------------------------------------------------


def test_gmd_examples_and_oracle():
    assert gmd(Exponential(1)) == pytest.approx(1.0, abs=TOL)
    assert gmd(Uniform(0, 1)) == pytest.approx(1 / 3, abs=TOL)
    assert gmd(Uniform(5.0, 5.0 + 1e-6)) == pytest.approx(0.0, abs=1e-6)
    want = oracle_gmd(Weibull(1, 2).cdf, 0.0, 40.0)
    assert gmd(Weibull(1, 2)) == pytest.approx(want, abs=1e-7)
    want = oracle_gmd(Logistic(0, 1).cdf, -60.0, 60.0)
    assert gmd(Logistic(0, 1)) == pytest.approx(want, abs=1e-7)
    assert gmd(Logistic(0, 1)) == pytest.approx(2.0, abs=TOL)


def test_gmd_is_four_g_covariances():
    for f in (Exponential(1), Weibull(1, 2), Uniform(0, 1), Normal(0, 1)):
        assert gmd(f) == pytest.approx(4.0 * g_covariance(f, Uniform(0, 1)), abs=TOL)


# -- extended Gini ------------------------------------------------------------


def test_extended_gini_examples():
    assert extended_gini(Exponential(1), 2.0) == pytest.approx(0.5, abs=TOL)
    assert extended_gini(Uniform(0, 1), 2.0) == pytest.approx(1 / 6, abs=TOL)
    # oracle: -3 Cov(X, (1-F(X))^2) for the unit exponential
    want = -3.0 * oracle_cov(
        lambda x: math.exp(-x), lambda x: math.exp(-2.0 * x), 0.0, 60.0
    )
    assert want == pytest.approx(2 / 3, abs=1e-9)
    assert extended_gini(Exponential(1), 3.0) == pytest.approx(want, abs=TOL)


def test_extended_gini_nonnegative_both_regimes():
    for f in (Exponential(1), Uniform(0, 1), Weibull(1, 2), Logistic(0, 1)):
        for nu in (0.5, 0.75, 2.0, 3.0):
            assert extended_gini(f, nu) >= -CFG.abs_tol


def test_extended_gini_halves_gmd_at_two():
    for f in (Exponential(1), Uniform(0, 1), Weibull(1, 2)):
        assert extended_gini(f, 2.0) == pytest.approx(gmd(f) / 2.0, abs=TOL)


def test_extended_gini_rejects_bad_weight():
    with pytest.raises(DomainError):
        extended_gini(Exponential(1), 1.0)
    with pytest.raises(DomainError):
        extended_gini(Exponential(1), -2.0)


# -- cre / gcre ---------------------------------------------------------------


def test_cre_examples_and_oracle():
    assert cre(Exponential(1)) == pytest.approx(1.0, abs=TOL)
    want = oracle_cre(lambda x: math.exp(-(x**2)), 30.0)
    assert want == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-10)
    assert cre(Weibull(1, 2)) == pytest.approx(want, abs=TOL)
    assert cre(Exponential(2)) == pytest.approx(0.5, abs=TOL)
    with pytest.raises(DomainError):
        cre(Normal(0, 1))


def test_gcre_examples():
    for n in (1, 2, 3):
        assert gcre(Exponential(1), n) == pytest.approx(1.0, abs=TOL)
    assert gcre(Exponential(1), 1) == pytest.approx(cre(Exponential(1)), abs=TOL)
    with pytest.raises(DomainError):
        gcre(Exponential(1), 0)


@pytest.mark.parametrize("law,hi", [(Exponential(1), 60.0), (Weibull(1, 2), 30.0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gcre_matches_direct_integral(law, hi, n):
    def sf(x):
        return 1.0 - law.cdf(x)

    assert gcre(law, n) == pytest.approx(oracle_gcre(sf, n, hi), abs=1e-6)


# -- log-odds covariance ------------------------------------------------------


def test_log_odds_examples_and_oracle():
    assert log_odds_covariance(Logistic(0, 1)) == pytest.approx(
        math.pi**2 / 3.0, abs=TOL
    )
    # two-term survival/cdf entropy oracle on the x axis
    def f_exp(x):
        s = math.exp(-x)
        c = -math.expm1(-x)
        out = 0.0
        if 0.0 < s < 1.0:
            out -= s * math.log(s)
        if 0.0 < c < 1.0:
            out -= c * math.log(c)
        return out

    want = quad(f_exp, 0.0, 60.0, limit=400)[0]
    assert want == pytest.approx(math.pi**2 / 6.0, abs=1e-9)
    assert log_odds_covariance(Exponential(1)) == pytest.approx(want, abs=TOL)
    want_u = oracle_cov(
        lambda x: 1.0, lambda x: math.log(x / (1.0 - x)), 1e-12, 1.0 - 1e-12
    )
    assert log_odds_covariance(Uniform(0, 1)) == pytest.approx(want_u, abs=1e-6)
    assert log_odds_covariance(Uniform(0, 1)) == pytest.approx(0.5, abs=TOL)


def test_log_odds_is_g_covariance_against_logistic():
    for f in (Exponential(1), Uniform(0, 1), Weibull(1, 2)):
        assert log_odds_covariance(f) == pytest.approx(
            g_covariance(f, Logistic(0, 1)), abs=TOL
        )


# -- equilibrium entropy ------------------------------------------------------


def test_equilibrium_entropy_examples():
    assert equilibrium_entropy(Exponential(1)) == pytest.approx(1.0, abs=TOL)
    assert equilibrium_entropy(Exponential(2)) == pytest.approx(
        1.0 - math.log(2.0), abs=TOL
    )
    want = oracle_cre(lambda x: 1.0 - x if 0 <= x <= 1 else 0.0, 1.0)
    assert equilibrium_entropy(Uniform(0, 1)) == pytest.approx(
        want / 0.5 + math.log(0.5), abs=1e-7
    )
    with pytest.raises(DomainError):
        equilibrium_entropy(Normal(0, 1))


# -- record gaps --------------------------------------------------------------


def test_record_gap_examples():
    for law in (Exponential(1), Weibull(1, 2), Uniform(0, 1)):
        for kind in ("upper", "lower", "spread"):
            assert record_mean_gap(law, 1, kind) == 0.0
    assert record_mean_gap(Exponential(1), 2, "upper") == pytest.approx(1.0, abs=TOL)
    assert record_mean_gap(Exponential(1), 3, "upper") == pytest.approx(2.0, abs=TOL)
    # lower-record oracle: Cov(X, -log F(X)) for the unit exponential;
    # negative because lower records decrease
    want = oracle_cov(
        lambda x: math.exp(-x),
        lambda x: -math.log(-math.expm1(-x)) if x > 1e-12 else 30.0,
        1e-12,
        60.0,
    )
    assert want == pytest.approx(1.0 - math.pi**2 / 6.0, abs=1e-6)
    assert record_mean_gap(Exponential(1), 2, "lower") == pytest.approx(want, abs=1e-6)


def test_record_gap_structure():
    for law in (Exponential(1), Weibull(1, 2)):
        gaps = [record_mean_gap(law, n, "upper") for n in (1, 2, 3, 4)]
        assert all(g >= -CFG.abs_tol for g in gaps)
        assert all(b >= a - CFG.abs_tol for a, b in zip(gaps, gaps[1:]))
        for n in (2, 3):
            spread = record_mean_gap(law, n, "spread")
            upper = record_mean_gap(law, n, "upper")
            lower = record_mean_gap(law, n, "lower")
            assert spread == pytest.approx(upper - lower, abs=TOL)
    with pytest.raises(DomainError):
        record_mean_gap(Exponential(1), 2, "sideways")


def test_record_gap_empirical_uses_exact_cell_means():
    # psi is the Weibull(1, 1/m) quantile at u ("upper") or 1 - u ("lower"),
    # so an empirical law takes its exact cell means; the midpoint rule gave
    # 1.028263575457635 for "upper", the log singularity sitting in the last cell.
    law = Empirical(np.random.default_rng(0).exponential(size=2000))
    upper = record_mean_gap(law, 2, "upper")
    assert upper == 1.0296567628785944
    assert upper == g_covariance(law, Weibull(1, 1))
    lower = record_mean_gap(law, 2, "lower")
    assert lower == -0.6540235803994283
    assert record_mean_gap(law, 2, "spread") == pytest.approx(upper - lower, abs=1e-14)


# -- configuration ------------------------------------------------------------


def test_integration_config_validation():
    with pytest.raises(DomainError):
        IntegrationConfig(method="magic")
    with pytest.raises(DomainError):
        IntegrationConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        IntegrationConfig(tail_eps=0.01)
    with pytest.raises(DomainError):
        IntegrationConfig(mc_samples=10)


def test_consistency_web():
    for f in (Exponential(1), Weibull(1, 2), Uniform(0, 1)):
        assert gmd(f) == pytest.approx(4.0 * g_covariance(f, Uniform(0, 1)), abs=TOL)
        assert cre(f) == pytest.approx(g_covariance(f, Exponential(1)), abs=TOL)
        assert log_odds_covariance(f) == pytest.approx(
            g_covariance(f, Logistic(0, 1)), abs=TOL
        )
        assert extended_gini(f, 2.0) == pytest.approx(gmd(f) / 2.0, abs=TOL)
