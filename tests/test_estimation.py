"""Plug-in estimators: exact algebraic cases and model consistency."""

import math
import warnings

import numpy as np
import pytest

from qtcorr.bivariate import (
    AMH,
    BivariateModel,
    FGM,
    GaussianCopula,
    GumbelBarnett,
    Independence,
)
from qtcorr.correlation import beta_h, named_transform
from qtcorr.distributions import Exponential, Logistic, Normal, Uniform
from qtcorr.errors import DegenerateError, DomainError
from qtcorr.estimation import (
    PairedSample,
    average_ranks,
    estimate_beta_h,
    estimate_named,
    load_pairs_csv,
)


def test_paired_sample_validation():
    with pytest.raises(DomainError):
        PairedSample(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        PairedSample(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        PairedSample(np.array([1.0, 2.0, np.inf]), np.array([1.0, 2.0, 3.0]))
    s = PairedSample(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert s.n == 3


def test_comonotone_data_gives_exactly_one():
    x = np.linspace(-2, 2, 51)
    sample = PairedSample(x, x**3)
    for spec in ("gini", "or_based", "cre_based"):
        assert estimate_beta_h(sample, named_transform(spec).h) == 1.0


def test_anticomonotone_pearson():
    x = np.linspace(0.0, 1.0, 41)
    sample = PairedSample(x, -x)
    assert estimate_named(sample, "pearson") == pytest.approx(-1.0, abs=1e-12)
    assert estimate_named(sample, "rho_t") == pytest.approx(-1.0, abs=1e-12)


def test_rank_invariance_and_sign_flip():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    y = rng.normal(size=200) + 0.5 * x
    base = PairedSample(x, y)
    h = named_transform("gini").h
    b = estimate_beta_h(base, h)
    # strictly increasing transform of y: identical estimate
    assert estimate_beta_h(PairedSample(x, np.exp(y)), h) == b
    assert estimate_beta_h(PairedSample(x, y**3), h) == b
    # strictly decreasing transform flips the sign for a symmetric transform law
    assert estimate_beta_h(PairedSample(x, -y), h) == pytest.approx(-b, abs=1e-12)


def test_ties_warn_and_average():
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.warns(UserWarning, match="ties"):
        estimate_beta_h(PairedSample(x, y), named_transform("gini").h)


@pytest.mark.parametrize("rounding", [None, 1, 0])
def test_average_ranks_match_scipy(rounding):
    from scipy.stats import rankdata

    values = np.random.default_rng(4).normal(size=5000)
    if rounding is not None:
        values = np.round(values, rounding)  # long tied runs
    assert np.array_equal(average_ranks(values), rankdata(values, method="average"))
    for small in ([2.0], [1.0, 1.0, 1.0], [3.0, -1.0, 3.0, 0.0]):
        small = np.array(small)
        assert np.array_equal(average_ranks(small), rankdata(small, method="average"))


def test_degenerate_sample_errors():
    x = np.ones(10)
    y = np.arange(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DegenerateError):
            estimate_beta_h(PairedSample(x, y), named_transform("gini").h)
        with pytest.raises(DegenerateError):
            estimate_named(PairedSample(x, y), "pearson")


def _model_sample(model, n, seed):
    return model.sample(n, seed)


def test_gaussian_model_estimate():
    model = BivariateModel(GaussianCopula(0.5), Normal(0, 1), Normal(2, 3))
    sample = _model_sample(model, 10**5, seed=2)
    got = estimate_beta_h(sample, Logistic(0, 1))
    assert got == pytest.approx(0.5, abs=0.02)


def test_independence_estimate():
    model = BivariateModel(Independence(), Exponential(1), Uniform(0, 1))
    sample = _model_sample(model, 10**5, seed=3)
    assert estimate_beta_h(sample, Logistic(0, 1)) == pytest.approx(0.0, abs=0.02)


def test_fgm_gini_estimate():
    model = BivariateModel(FGM(1.0), Uniform(0, 1), Uniform(0, 1))
    sample = _model_sample(model, 10**5, seed=4)
    assert estimate_named(sample, "gini") == pytest.approx(1 / 3, abs=0.02)


def test_gumbel_model_cre_estimate():
    model = BivariateModel(GumbelBarnett(1.0), Exponential(1), Exponential(1))
    sample = _model_sample(model, 10**5, seed=5)
    assert estimate_named(sample, "cre_based") == pytest.approx(-0.40365, abs=0.02)


def test_estimator_tracks_quadrature_truth():
    model = BivariateModel(AMH(-1.0), Logistic(0, 1), Logistic(0, 1))
    sample = _model_sample(model, 2 * 10**5, seed=6)
    spec = named_transform("egini", 3.0)
    truth = beta_h(model, spec)
    batches = np.array_split(np.arange(sample.n), 10)
    per_batch = [
        estimate_beta_h(PairedSample(sample.x[idx], sample.y[idx]), spec.h)
        for idx in batches
    ]
    se = np.std(per_batch, ddof=1) / math.sqrt(len(per_batch))
    got = estimate_beta_h(sample, spec.h)
    assert abs(got - truth) <= 3.0 * se + 1e-3


def test_estimate_named_needs_nu_for_egini():
    s = PairedSample(np.arange(5.0), np.arange(5.0))
    with pytest.raises(DomainError):
        estimate_named(s, "egini")
    assert estimate_named(s, "egini", 3.0) == 1.0


# -- CSV ingestion --------------------------------------------------------------


def test_load_pairs_csv_roundtrip(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("1.0,2.0\n3.5,-1.25\n4,5\n")
    sample = load_pairs_csv(str(path))
    assert sample.n == 3
    assert sample.x.tolist() == [1.0, 3.5, 4.0]


def test_load_pairs_csv_optional_header(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n5,6\n")
    sample = load_pairs_csv(str(path))
    assert sample.n == 3


def test_load_pairs_csv_reports_bad_lines(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("1.0,2.0\noops,3.0\n4.0\n5.0,6.0\n7.0,eight\n")
    with pytest.raises(DomainError) as err:
        load_pairs_csv(str(path))
    message = str(err.value)
    assert "2" in message and "3" in message and "5" in message
