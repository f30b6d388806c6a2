"""Measures: worked values against independent x-domain oracles.

Production code integrates everything in the quantile domain; the oracles
here integrate survival-function forms (or density-weighted moments) on
the x axis with scipy's QUADPACK, so formula and integrator both differ.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qtcorr.distributions import (
    Empirical,
    Exponential,
    Affine,
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
from qtcorr.errors import DomainError, NumericalError, QtcorrError
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
from test_distributions import _cdf

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
    want = oracle_gmd(lambda x: _cdf(Weibull(1, 2), x), 0.0, 40.0)
    assert gmd(Weibull(1, 2)) == pytest.approx(want, abs=1e-7)
    want = oracle_gmd(lambda x: _cdf(Logistic(0, 1), x), -60.0, 60.0)
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
        return 1.0 - _cdf(law, x)

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
    # closed forms: R_n of U(0, 1) has mean 1 - 2^-n (and the lower record
    # 2^-n); R_n of Weibull(1, k) is Gamma(n, 1)^(1/k)
    for n in (2, 3, 4, 6):
        unit = Uniform(0, 1)
        assert record_mean_gap(unit, n, "upper") == pytest.approx(0.5 - 2.0**-n, abs=1e-9)
        assert record_mean_gap(unit, n, "lower") == pytest.approx(2.0**-n - 0.5, abs=1e-9)
        assert record_mean_gap(unit, n, "spread") == pytest.approx(1.0 - 2.0 ** (1 - n), abs=1e-9)
        for k in (0.5, 1.0, 2.0, 3.0):
            want = math.gamma(n + 1 / k) / math.gamma(n) - math.gamma(1 + 1 / k)
            assert record_mean_gap(Weibull(1, k), n, "upper") == pytest.approx(want, abs=1e-9)


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


_GAP_LAWS = [
    Uniform(-2.0, 5.0),
    Exponential(2.5),
    Logistic(1.5, 0.7),
    Normal(2.0, 3.0),
    Weibull(1.0, 0.5),
    Weibull(2.0, 1.3),
    Laplace(-1.0, 2.0),
    Gumbel(1.0, 0.5),
    Pareto(0.5),
    Pareto(0.8),
    Power(1.5),
    Power(3.0),
]


def _gap_or_none(law, n, kind):
    # a finite gap, or None where the law is refused with a typed error
    try:
        gap = record_mean_gap(law, n, kind)
    except QtcorrError:
        return None
    assert math.isfinite(gap)
    return gap


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(_GAP_LAWS),
    shift=st.floats(-10.0, 10.0),
    scale=st.floats(0.1, 10.0),
    n=st.integers(2, 6),
)
def test_record_gap_structure_fuzz(base, shift, scale, n):
    moved = Affine(base, shift, scale)
    tol = TOL * max(1.0, abs(shift), scale)
    kinds = ("upper", "lower", "spread")
    gap = {
        (law, kind, j): _gap_or_none(law, j, kind)
        for law in (base, moved)
        for kind in kinds
        for j in (n - 1, n)
    }
    for law in (base, moved):
        # upper gaps are nonnegative and grow with n; lower gaps mirror them
        for sign, kind in ((1.0, "upper"), (-1.0, "lower")):
            prev, now = gap[law, kind, n - 1], gap[law, kind, n]
            if None not in (prev, now):
                assert sign * now >= -tol and sign * now >= sign * prev - tol
        upper, lower, spread = (gap[law, kind, n] for kind in kinds)
        if None not in (upper, lower, spread):
            assert spread == pytest.approx(upper - lower, rel=1e-12, abs=0.0)
    for kind in kinds:
        if None not in (gap[base, kind, n], gap[moved, kind, n]):
            assert gap[moved, kind, n] == pytest.approx(scale * gap[base, kind, n], abs=tol)


def test_record_gap_empirical_uses_exact_cell_means():
    # psi is the Weibull(1, 1/m) quantile at u ("upper") or 1 - u ("lower"),
    # so an empirical law takes its exact cell means; the midpoint rule gave
    # 1.028263575457635 for "upper", the log singularity sitting in the last cell.
    law = Empirical(np.random.default_rng(0).exponential(size=2000))
    # the Weibull cell means come from an incomplete gamma function whose last bits depend
    # on its implementation; the midpoint rule misses by 1e-3, not 1e-15
    upper = record_mean_gap(law, 2, "upper")
    assert upper == pytest.approx(1.0296567628785944, rel=1e-15, abs=0.0)
    assert upper == g_covariance(law, Weibull(1, 1))
    lower = record_mean_gap(law, 2, "lower")
    assert lower == pytest.approx(-0.6540235803994283, rel=1e-15, abs=0.0)
    assert record_mean_gap(law, 2, "spread") == pytest.approx(upper - lower, abs=1e-14)


# -- configuration ------------------------------------------------------------


def test_integration_config_validation():
    with pytest.raises(DomainError):
        IntegrationConfig(method="magic")
    with pytest.raises(DomainError):
        IntegrationConfig(abs_tol=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="^abs_tol must be positive"):
            IntegrationConfig(abs_tol=bad)
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


# -- the process-wide quadrature memo ------------------------------------------

import gc  # noqa: E402
import weakref  # noqa: E402

import qtcorr.quadrature as quadrature  # noqa: E402
from qtcorr.measures import _once, _quadrature_memo  # noqa: E402


def _engine_calls(monkeypatch) -> list:
    calls = []
    for name in ("integrate", "integrate_2d"):
        engine = getattr(quadrature, name)
        monkeypatch.setattr(
            quadrature, name, lambda *a, e=engine, **k: calls.append(e.__name__) or e(*a, **k)
        )
    return calls


def test_g_covariance_memo_serves_both_orders_bit_for_bit(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    first = g_covariance(Weibull(1.0, 2.0), Logistic(0.0, 1.0))
    assert calls and type(first) is float
    calls.clear()
    # fresh but equal laws, in both orders
    assert g_covariance(Weibull(1.0, 2.0), Logistic(0.0, 1.0)) == first
    assert repr(g_covariance(Logistic(0.0, 1.0), Weibull(1.0, 2.0))) == repr(first)
    assert calls == []
    assert _quadrature_memo.cache_info().currsize == 1


def test_g_covariance_memo_keys_on_tolerances_not_method_or_seed(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    f, g = Normal(0.0, 2.0), Exponential(1.0)
    first = g_covariance(f, g)
    calls.clear()
    mc = IntegrationConfig(method="monte_carlo", mc_samples=5000, seed=7)
    assert g_covariance(f, g, mc) == first and calls == []
    loose = IntegrationConfig(abs_tol=1e-6)
    assert g_covariance(f, g, loose) == pytest.approx(first, abs=1e-6)
    assert calls and _quadrature_memo.cache_info().currsize == 2


def test_g_covariance_memo_never_caches_a_failure(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    for _ in range(2):
        calls.clear()
        with pytest.raises(NumericalError, match="tail"):
            g_covariance(Pareto(0.5), Pareto(0.5))
        assert calls
    assert _quadrature_memo.cache_info().currsize == 0


def test_record_gaps_share_the_memo_with_gcre(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    law = Weibull(1.0, 2.0)
    record_mean_gap(law, 3, "upper")
    calls.clear()
    record_mean_gap(law, 3, "upper")
    assert calls == []
    # gcre of order 2 integrates against Weibull(1, 1) and Weibull(1, 1/2),
    # the weight laws of the upper gaps of orders 2 and 3
    record_mean_gap(law, 2, "upper")
    calls.clear()
    gcre(law, 2)
    assert calls == []
    record_mean_gap(law, 4, "upper")
    record_mean_gap(law, 4, "lower")
    calls.clear()
    record_mean_gap(law, 4, "spread")
    assert calls == []


def test_g_covariance_memo_holds_no_sample_data():
    _quadrature_memo.cache_clear()
    law = Empirical(np.random.default_rng(3).normal(size=500))
    shifted = Affine(law, 1.0, 2.0)  # a dataclass law wrapping sample data
    ref = weakref.ref(law)
    g_covariance(law, Normal(0.0, 1.0))
    g_covariance(shifted, Uniform(0.0, 1.0), IntegrationConfig(abs_tol=1e-3))
    assert _quadrature_memo.cache_info().currsize == 0
    del law, shifted
    gc.collect()
    assert ref() is None


def _stand_in(x, abs_tol):  # an integral's signature, at no cost
    return x + abs_tol


def test_quadrature_memo_is_bounded():
    _quadrature_memo.cache_clear()
    bound = _quadrature_memo.cache_info().maxsize
    assert bound == 1024
    for k in range(bound + 50):
        assert _once(_stand_in, (float(k),), CFG) == k + CFG.abs_tol
        assert _quadrature_memo.cache_info().currsize == min(k + 1, bound)
    assert _once(_stand_in, (float(bound + 49),), CFG) == bound + 49 + CFG.abs_tol
    assert _quadrature_memo.cache_info().hits == 1
    _quadrature_memo.cache_clear()


# -- float node grids: the same arrays as the integer-arange forms --------------



@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 10**6 + 1])
def test_float_arange_grids_equal_the_integer_forms(n):
    assert np.array_equal(np.arange(1.0, n) / n, np.arange(1, n) / n)
    assert np.array_equal(np.arange(0.5, n) / n, (np.arange(n) + 0.5) / n)


def test_empirical_grids_match_the_integer_arange_forms_bit_for_bit():
    # unequal sizes: the larger law is the column, the smaller one H; oracle, the midpoint
    # sum over the union of both laws' step edges, exact for two step laws
    rng = np.random.default_rng(4)
    laws = [Empirical(rng.normal(size=m)) for m in (2, 3, 7, 250, 1000)]
    for f in laws:
        for g in (g for g in laws if g.n != f.n):  # equal sizes take one dot (below)
            edges = np.union1d(np.arange(1, f.n) / f.n, np.arange(1, g.n) / g.n)
            edges = np.concatenate([[0.0], edges, [1.0]])
            mids = 0.5 * (edges[:-1] + edges[1:])
            raw = math.fsum(np.diff(edges) * f.quantile(mids) * g.quantile(mids))
            want = raw - f.mean() * g.mean()
            assert g_covariance(f, g) == pytest.approx(want, rel=1e-13, abs=0.0)
            assert g_covariance(f, g) == g_covariance(g, f)


@pytest.mark.parametrize("n", [1, 3, 1000, 50_000])
def test_equal_size_empirical_pair_integral_is_the_mean_product_of_sorted_values(n):
    rng = np.random.default_rng(n)
    f, g = Empirical(rng.gamma(2.0, size=n)), Empirical(rng.exponential(size=n))
    for a, b in ((f, g), (f, f)):
        want = math.fsum((a.values - a.mean()) * (b.values - b.mean())) / n
        assert g_covariance(a, b) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert g_covariance(b, a) == g_covariance(a, b)


# -- location cancels and scale factors out ---------------------------------------

_CATALOG = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
    Exponential(1.0),
    Exponential(2.5),
    Logistic(0.0, 1.0),
    Logistic(1.5, 0.7),
    Normal(0.0, 1.0),
    Normal(2.0, 3.0),
    Weibull(1.0, 0.5),
    Weibull(2.0, 1.3),
    Laplace(-1.0, 2.0),
    Gumbel(1.0, 0.5),
    Pareto(0.5),
    Pareto(0.8),
    Power(1.5),
    Power(4.0 / 3.0),
]


@pytest.mark.parametrize("mu", [0.0, -3.5, 1e4, 1e7, -1e15, 1e15])
@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0])
def test_normal_variance_is_free_of_location(mu, sigma):
    # invariance, not the exact sigma^2: quadrature gives 0.9999999999999988 at (0, 1);
    # the reflection -(mu + sigma Z) = -mu + sigma (-Z) keeps its location out too
    want = sigma**2 * g_covariance(Normal(0.0, 1.0), Normal(0.0, 1.0))
    for law in (Normal(mu, sigma), Reflected(Normal(mu, sigma))):
        assert abs(g_covariance(law, law) - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize("f", _CATALOG, ids=repr)
def test_g_covariance_of_an_affine_image_is_scale_times_the_covariance(f):
    for g in (Exponential(1.0), Normal(2.0, 0.5)):
        base = g_covariance(f, g)
        for shift in (-1e12, -3.5, 0.0, 1e12):
            for scale in (0.25, 7.0):
                got = g_covariance(Affine(f, shift, scale), g)
                assert abs(got - scale * base) <= 1e-15 * abs(scale * base)


def test_laws_of_one_standard_shape_share_one_memo_entry(monkeypatch):
    calls = _engine_calls(monkeypatch)
    _quadrature_memo.cache_clear()
    near = g_covariance(Normal(0.0, 2.0), Exponential(1.0))
    assert calls
    calls.clear()
    far = g_covariance(Normal(5.0, 2.0), Exponential(4.0))
    assert far == near / 4.0 and calls == []
    assert _quadrature_memo.cache_info().currsize == 1
    _quadrature_memo.cache_clear()
