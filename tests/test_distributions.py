"""Distribution catalog: round trips, densities, symmetry, grammar."""

import ast
import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy import special
from scipy.special import ndtri

from qtcorr import distributions
from qtcorr.distributions import (
    Affine,
    Distribution,
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
    parse_distribution,
)
from qtcorr.errors import DomainError, NumericalError, QtcorrError, UnsupportedOperationError

CATALOG = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
    Exponential(1.0),
    Exponential(2.5),
    Logistic(0.0, 1.0),
    Logistic(1.5, 0.7),
    Normal(0.0, 1.0),
    Normal(2.0, 3.0),
    Weibull(1.0, 0.5),
    Weibull(1.0, 2.0),
    Weibull(2.0, 1.3),
    Laplace(0.0, 1.0),
    Laplace(-1.0, 2.0),
    Gumbel(0.0, 1.0),
    Gumbel(1.0, 0.5),
    Pareto(0.5),
    Pareto(0.8),
    Power(1.5),
    Power(3.0),
    Power(4.0 / 3.0),
]

# The CDF of each standard shape.  The library evaluates no CDF, so this is the test-side
# oracle of its quantiles, its samplers and the x-domain integrals of the other test modules.
_STANDARD_CDF = {
    Uniform: lambda z, x: x,
    Exponential: lambda z, x: -np.expm1(-x),
    Logistic: lambda z, x: special.expit(x),
    Normal: lambda z, x: special.ndtr(x),
    Weibull: lambda z, x: -np.expm1(-(x**z.shape)),
    Laplace: lambda z, x: np.where(x < 0.0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x)),
    Gumbel: lambda z, x: np.exp(-np.exp(-x)),
    Pareto: lambda z, x: -np.expm1(np.log(x) / (z.nu - 1.0)),
    Power: lambda z, x: -np.expm1(np.log1p(-x) / (z.nu - 1.0)),
    Reflected: lambda z, x: 1.0 - _cdf(z.base, -x),  # P(-X <= x) = 1 - F(-x), X continuous
}


def _cdf(law, x):
    """F(x): the standard shape's CDF at (x - loc) / scale, 0 below the support, 1 above it."""
    z, loc, scale = law.standard_form
    t = (np.asarray(x, dtype=float) - loc) / scale
    lo, hi = z.support
    out = np.where(t >= hi, 1.0, 0.0)
    inside = (t > lo) & (t < hi)
    out[inside] = _STANDARD_CDF[type(z)](z, t[inside])
    return float(out) if out.ndim == 0 else out


# Symmetry centres c, with X - c distributed as c - X
_CENTRES = {
    Uniform(-2, 5): 1.5,
    Normal(1.5, 2.0): 1.5,
    Logistic(0.3, 1.1): 0.3,
    Laplace(-1, 2): -1.0,
    Affine(Uniform(0, 1), 2.0, 3.0): 3.5,
    Reflected(Uniform(-2, 5)): -1.5,
    Affine(Laplace(1, 2), -3, 0.5): -2.5,
}
# A map carries its shape's centre c along: loc + scale c, and -c under a reflection
_MAPPED_CENTRES = {
    Uniform(0.1, 0.7): 0.1 + (0.7 - 0.1) * 0.5,
    Uniform(0.0, 1.0): 0.5,
    Normal(2.0, 3.0): 2.0,
    Affine(Uniform(0.0, 1.0), 2.0, 3.0): 3.5,
    Affine(Logistic(1.0, 2.0), 1.0, 3.0): 4.0,
    Reflected(Laplace(-1.0, 2.0)): 1.0,
    Reflected(Affine(Uniform(0.0, 1.0), 2.0, 3.0)): -3.5,
    Affine(Reflected(Normal(1.0, 1.0)), 1.0, 2.0): -1.0,
}


# -- worked examples ---------------------------------------------------------


def test_cdf_examples():
    # F(x) = p read through the quantile: Q(p) = x
    assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    assert Uniform(0, 1).quantile(0.3) == pytest.approx(0.3, abs=1e-15)
    assert Power(3.0).quantile(1.0 - math.sqrt(0.5)) == pytest.approx(0.5, abs=1e-12)


def test_quantile_examples():
    assert Uniform(0, 1).quantile(0.25) == pytest.approx(0.25, abs=1e-15)
    assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    assert Logistic(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-15)


def test_quantile_density_examples():
    assert Uniform(0, 1).quantile_density(0.7) == pytest.approx(1.0, abs=1e-15)
    assert Exponential(1.0).quantile_density(0.5) == pytest.approx(2.0, abs=1e-12)
    assert Normal(0, 1).quantile_density(0.5) == pytest.approx(
        math.sqrt(2.0 * math.pi), abs=1e-12
    )


def test_mean_examples():
    assert Exponential(2.0).mean() == pytest.approx(0.5)
    assert Uniform(0, 1).mean() == pytest.approx(0.5)
    # oracle: integral of x dH(x) for the nu=3 power law, H(x) = 1 - sqrt(1-x)
    oracle = quad(lambda x: x * 0.5 * (1 - x) ** -0.5, 0, 1)[0]
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert Power(3.0).mean() == pytest.approx(oracle, abs=1e-10)
    assert Pareto(0.5).mean() == pytest.approx(2.0)
    assert Weibull(1.0, 0.5).mean() == pytest.approx(2.0)
    assert Gumbel(0, 1).mean() == pytest.approx(0.5772156649015329)


# -- invariants ---------------------------------------------------------------


@pytest.mark.parametrize("law", CATALOG, ids=lambda d: repr(d))
def test_quantile_cdf_round_trip(law):
    p = np.linspace(0.004, 0.996, 100)
    x = law.quantile(p)
    err = np.abs(law.quantile(_cdf(law, x)) - x)
    assert np.all(err <= 1e-9 * (1.0 + np.abs(x)))


@pytest.mark.parametrize("law", CATALOG, ids=lambda d: repr(d))
def test_cdf_bounds_and_monotonicity(law):
    # a CDF rising from 0 to 1 is a quantile increasing across the support
    x = law.quantile(np.linspace(0.01, 0.99, 25))
    assert np.all(np.diff(x) > 0)
    lo, hi = law.support
    assert np.all((x > lo) & (x < hi))


@pytest.mark.parametrize("law", CATALOG, ids=lambda d: repr(d))
def test_quantile_density_matches_finite_difference(law):
    p = np.linspace(0.01, 0.99, 50)
    h = 1e-6
    fd = (law.quantile(p + h) - law.quantile(p - h)) / (2.0 * h)
    qd = law.quantile_density(p)
    assert np.all(qd >= 0.0)
    assert np.all(np.abs(fd - qd) <= 1e-5 * np.abs(qd) + 1e-12)


@pytest.mark.parametrize("law", list(_CENTRES), ids=lambda d: repr(d))
def test_symmetric_quantile_identity(law):
    a = _CENTRES[law]
    p = np.linspace(0.001, 0.999, 97)
    assert np.all(np.abs(law.quantile(p) + law.quantile(1.0 - p) - 2.0 * a) <= 1e-9)


@pytest.mark.parametrize("law", CATALOG, ids=lambda d: repr(d))
def test_comp_variants_agree_in_the_bulk(law):
    q = np.linspace(0.01, 0.99, 37)
    assert np.allclose(law.quantile_comp(q), law.quantile(1.0 - q), rtol=1e-9, atol=1e-9)
    assert np.allclose(
        law.quantile_density_comp(q), law.quantile_density(1.0 - q), rtol=1e-8
    )


@pytest.mark.parametrize("law", CATALOG, ids=lambda d: repr(d))
def test_quantile_integral_against_quadrature(law):
    for p in (0.1, 0.5, 0.93):
        want = quad(law.quantile, 0.0, p, limit=200)[0]
        assert law.quantile_integral(p) == pytest.approx(want, abs=5e-7, rel=5e-7)
    for q in (0.07, 0.4):
        want = quad(law.quantile, 1.0 - q, 1.0, limit=200)[0]
        assert law.quantile_integral_comp(q) == pytest.approx(want, abs=5e-7, rel=5e-7)
    assert law.quantile_integral(1.0) == pytest.approx(law.mean(), rel=1e-9, abs=1e-9)


def test_quantile_support_endpoints():
    assert Normal(0, 1).quantile(0.0) == -math.inf
    assert Normal(0, 1).quantile(1.0) == math.inf
    assert Exponential(1.0).quantile(0.0) == 0.0
    assert Power(3.0).quantile(1.0) == 1.0
    assert Pareto(0.5).quantile(0.0) == 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        Exponential(1.0).quantile(1.2)
    with pytest.raises(DomainError):
        Normal(0, 1).quantile(-0.1)
    with pytest.raises(DomainError):
        Uniform(0, 1).quantile_density(0.0)
    with pytest.raises(DomainError):
        Uniform(0, 1).quantile_density(1.0)


def test_nan_inputs_error_instead_of_propagating():
    with pytest.raises(DomainError):
        Exponential(1.0).quantile(math.nan)
    with pytest.raises(DomainError):
        Logistic(0, 1).quantile_density(np.array([0.5, math.nan]))


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Uniform(2.0, 1.0),
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Normal(0.0, 0.0),
        lambda: Weibull(1.0, -2.0),
        lambda: Weibull(0.0, 1.0),
        lambda: Logistic(0.0, -1.0),
        lambda: Laplace(0.0, 0.0),
        lambda: Gumbel(0.0, 0.0),
        lambda: Pareto(1.5),
        lambda: Pareto(0.0),
        lambda: Power(1.0),
        lambda: Power(0.5),
    ],
)
def test_invalid_parameters_rejected_at_construction(bad):
    with pytest.raises(DomainError):
        bad()


# -- empirical ---------------------------------------------------------------


def test_empirical_order_statistics():
    values = np.array([4.0, 1.0, 3.0, 2.0])
    emp = Empirical(values)
    srt = np.sort(values)
    n = len(values)
    for k in range(1, n + 1):
        assert emp.quantile(k / n) == srt[k - 1]
    assert emp.quantile(0.0) == srt[0]
    assert emp.quantile(1.0) == srt[-1]
    # ties resolve to the smallest matching order statistic
    tied = Empirical([1.0, 2.0, 2.0, 3.0])
    assert tied.quantile(0.5) == 2.0
    assert tied.quantile(0.26) == 2.0


def test_empirical_cdf_and_mean():
    emp = Empirical([1.0, 2.0, 3.0])
    # the step CDF rises by 1/3 at each value: the quantile steps at 1/3 and 2/3
    p = np.array([1e-9, 1 / 3, 0.34, 2 / 3, 0.67, 1.0])
    assert emp.quantile(p).tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert emp.mean() == pytest.approx(2.0)
    with pytest.raises(DomainError):
        emp.quantile_density(0.5)
    with pytest.raises(DomainError):
        Empirical([])
    with pytest.raises(DomainError):
        Empirical([1.0, math.nan])


# -- derived laws -------------------------------------------------------------


def test_affine_and_reflected():
    base = Exponential(1.0)
    aff = Affine(base, shift=2.0, scale=3.0)
    assert aff.mean() == pytest.approx(5.0)
    assert aff.quantile(0.3) == pytest.approx(2.0 + 3.0 * base.quantile(0.3))
    assert aff.support == (2.0, math.inf)
    refl = Reflected(base)
    assert refl.mean() == pytest.approx(-1.0)
    assert refl.support == (-math.inf, 0.0)
    p = np.linspace(0.05, 0.95, 11)
    assert np.allclose(refl.quantile(p), -base.quantile(1.0 - p))
    assert np.allclose(_cdf(refl, refl.quantile(p)), p, atol=1e-12)
    with pytest.raises(DomainError):
        Affine(base, 0.0, -1.0)


def test_exp_transformed_is_lognormal_for_normal_base():
    law = ExpTransformed(Normal(0.0, 1.0))
    # the lognormal mean e^{1/2} comes from the exact partial integral at 1
    assert law.mean() == math.exp(0.5)
    assert law.quantile(0.5) == pytest.approx(1.0)
    assert law.support[0] == 0.0
    with pytest.raises(UnsupportedOperationError):
        ExpTransformed(Logistic(0.0, 1.0)).quantile_integral(0.5)


# -- grammar ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("uniform:0:1", Uniform(0.0, 1.0)),
        ("weibull:1:0.5", Weibull(1.0, 0.5)),
        ("LOGISTIC:0:1", Logistic(0.0, 1.0)),
        ("power:3", Power(3.0)),
        ("pareto:0.5", Pareto(0.5)),
        ("exp:2", Exponential(2.0)),
        ("exponential:2", Exponential(2.0)),
        ("normal:2:3", Normal(2.0, 3.0)),
        ("rayleigh", Weibull(1.0, 2.0)),
        ("extreme-value:0:1", Gumbel(0.0, 1.0)),
        ("gumbel", Gumbel(0.0, 1.0)),
        ("laplace:0:1", Laplace(0.0, 1.0)),
    ],
)
def test_parse_distribution(text, expected):
    assert parse_distribution(text) == expected


@pytest.mark.parametrize("text", ["nosuch:1", "exp:abc", "uniform:1:2:3", "power:0.5"])
def test_parse_distribution_rejects(text):
    with pytest.raises(DomainError):
        parse_distribution(text)


# -- property-based spot checks ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(0.1, 10.0),
    p=st.floats(1e-6, 1.0 - 1e-6),
)
def test_exponential_round_trip_property(rate, p):
    law = Exponential(rate)
    x = law.quantile(p)
    assert abs(_cdf(law, x) - p) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(1.05, 8.0),
    p=st.floats(1e-6, 1.0 - 1e-6),
)
def test_power_round_trip_property(nu, p):
    law = Power(nu)
    x = law.quantile(p)
    assert abs(law.quantile(_cdf(law, x)) - x) <= 1e-9 * (1.0 + abs(x))


# -- the interior fast path of the quantile-side methods -----------------------

_DERIVED = [
    Affine(Normal(0.0, 1.0), 2.0, 3.0),
    Affine(Pareto(0.8), -1.0, 0.5),
    Reflected(Gumbel(0.0, 1.0)),
    Reflected(Weibull(1.0, 0.5)),
    ExpTransformed(Normal(0.0, 1.0)),
    ExpTransformed(Logistic(0.0, 0.5)),
]
_POINT_METHODS = ("quantile", "quantile_comp", "quantile_density", "quantile_density_comp")
_CLOSED_MESSAGES = {
    "quantile": "quantile requires p in [0, 1], got {!r}",
    "quantile_comp": "quantile_comp requires q in [0, 1], got {!r}",
    "quantile_integral": "quantile_integral requires p in [0, 1], got {!r}",
    "quantile_integral_comp": "quantile_integral_comp requires q in [0, 1], got {!r}",
}
_OPEN_MESSAGES = {
    "quantile_density": "quantile_density is defined on the open interval (0, 1)",
    "quantile_density_comp": "quantile_density_comp is defined on (0, 1)",
}


def _interior_points():
    rng = np.random.default_rng(0)
    return np.concatenate([rng.random(196), [1e-30, 1e-12, 0.5, 1.0 - 2.0**-53]])


@pytest.mark.parametrize("law", CATALOG + _DERIVED, ids=lambda d: repr(d))
def test_interior_arrays_match_the_masked_path_bit_for_bit(law):
    p = _interior_points()
    for name in _POINT_METHODS:
        method = getattr(law, name)
        for arr in (p, p.reshape(8, 25), p[::3], np.asfortranarray(p.reshape(20, 10))):
            got = method(arr)
            masked = method(arr.tolist())  # a list is validated and masked
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == arr.shape
            assert got.tobytes() == np.ascontiguousarray(masked).tobytes(), name


def test_empirical_interior_quantiles_match_the_masked_path():
    law = Empirical(np.round(np.random.default_rng(1).normal(size=997), 1))
    p = _interior_points()
    for name in ("quantile", "quantile_comp"):
        got = getattr(law, name)(p)
        assert got.tobytes() == getattr(law, name)(p.tolist()).tobytes()


@pytest.mark.parametrize("law", CATALOG + _DERIVED + [Uniform(0, 1)], ids=lambda d: repr(d))
def test_inputs_off_the_fast_path_keep_types_ends_and_messages(law):
    lo, hi = law.support
    for name in _POINT_METHODS:
        method = getattr(law, name)
        for x in (0.3, np.float64(0.3), np.array(0.3), np.float32(0.3), np.array(0.3, np.float32)):
            assert type(method(x)) is float
        for arr in (np.array([0.25, 0.5], np.float32), np.array([], float)):
            out = method(arr)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.shape == arr.shape
        for nan in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError, match="^NaN is not a valid argument$"):
                method(nan)
    for name, message in _CLOSED_MESSAGES.items():
        for bad in (-0.1, 1.5, np.array([0.5, 1.5]), np.array([-1, 0]), [0.2, 2.0]):
            with pytest.raises(DomainError) as err:
                getattr(law, name)(bad)
            assert str(err.value) == message.format(bad)
    for name, message in _OPEN_MESSAGES.items():
        for bad in (0.0, 1.0, -0.5, np.array([0.5, 1.0]), np.array([0, 1]), [0.0, 0.5]):
            with pytest.raises(DomainError) as err:
                getattr(law, name)(bad)
            assert str(err.value) == message
    for ends in (law.quantile(np.array([0, 1])), law.quantile_comp(np.array([1.0, 0.0, 0.5]))):
        assert ends.dtype == np.float64 and ends[:2].tolist() == [lo, hi]
    ends = (law.quantile(0.0), law.quantile(1), law.quantile_comp(np.array(0.0)))
    assert ends == (lo, hi, hi) and all(type(x) is float for x in ends)


def _full_node_cell_means(law, n):
    """Former grid: integer nodes k / n from 0 to n, both ends through the masked path, of
    the standard shape; a located law maps it, loc + scale * grid, after the differencing."""
    z, loc, scale = law.standard_form
    half = n // 2
    lower = np.diff(z.quantile_integral(np.arange(half + 1) / n))
    upper = np.diff(z.quantile_integral_comp(np.arange(n - half + 1) / n))[::-1]
    return loc + scale * (np.concatenate([lower, upper]) * n)


@pytest.mark.parametrize("law", CATALOG + _DERIVED[:4], ids=lambda d: repr(d))
def test_cell_means_match_the_full_node_grid_bit_for_bit(law):
    for n in (1, 2, 3, 7, 1000, 100_001):
        assert np.array_equal(law.cell_means(n), _full_node_cell_means(law, n))


def test_cell_means_match_the_full_node_grid_at_a_million_and_one():
    for law in (Logistic(0.0, 1.0), Exponential(1.0), Pareto(0.5), Normal(1e4, 1.0)):
        assert np.array_equal(law.cell_means(10**6 + 1), _full_node_cell_means(law, 10**6 + 1))


# -- location-scale laws: a standard shape under one affine map ----------------

_LOCATED = [  # (law, its standard shape Z, loc, scale): the law of loc + scale * Z
    (Uniform(-2.0, 5.0), Uniform(0.0, 1.0), -2.0, 7.0),
    (Uniform(0.1, 0.7), Uniform(0.0, 1.0), 0.1, 0.7 - 0.1),
    (Exponential(2.5), Exponential(1.0), 0.0, 1.0 / 2.5),
    (Logistic(1.5, 0.7), Logistic(0.0, 1.0), 1.5, 0.7),
    (Normal(2.0, 3.0), Normal(0.0, 1.0), 2.0, 3.0),
    (Normal(1e7, 1.0), Normal(0.0, 1.0), 1e7, 1.0),
    (Weibull(2.0, 1.3), Weibull(1.0, 1.3), 0.0, 2.0),
    (Laplace(-1.0, 2.0), Laplace(0.0, 1.0), -1.0, 2.0),
    (Gumbel(1.0, 0.5), Gumbel(0.0, 1.0), 1.0, 0.5),
    (Affine(Normal(1.0, 2.0), 3.0, 4.0), Normal(0.0, 1.0), 7.0, 8.0),
    (Affine(Pareto(0.8), -1.0, 0.5), Pareto(0.8), -1.0, 0.5),
    (Affine(Exponential(1.0), 0.0, 1.0), Exponential(1.0), 0.0, 1.0),
    (Reflected(Normal(2.0, 1.0)), Reflected(Normal(0.0, 1.0)), -2.0, 1.0),
]


@pytest.mark.parametrize("law,shape,loc,scale", _LOCATED, ids=lambda v: repr(v))
def test_a_located_law_is_its_standard_shape_under_one_affine_map(law, shape, loc, scale):
    assert law.standard_form == (shape, loc, scale)
    p = _interior_points()
    pairs = (
        (law.quantile(p), loc + scale * shape.quantile(p)),
        (law.quantile_comp(p), loc + scale * shape.quantile_comp(p)),
        (law.quantile_density(p), scale * shape.quantile_density(p)),
        (law.quantile_density_comp(p), scale * shape.quantile_density_comp(p)),
        (law.quantile_integral(p), loc * p + scale * shape.quantile_integral(p)),
        (law.quantile_integral_comp(p), loc * p + scale * shape.quantile_integral_comp(p)),
        (law.cell_means(1001), loc + scale * shape.cell_means(1001)),
    )
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
    lo, hi = shape.support
    assert law.support == (loc + scale * lo, loc + scale * hi)
    assert law.mean() == loc + scale * shape.mean()


@pytest.mark.parametrize(
    "law",
    [Uniform(0, 1), Exponential(1), Logistic(0, 1), Normal(0, 1), Weibull(1, 0.5), Laplace()]
    + [Gumbel(), Pareto(0.5), Power(3.0), Reflected(Normal()), ExpTransformed(Normal())],
    ids=repr,
)
def test_a_standard_shape_is_its_own_standard_form(law):
    z, loc, scale = law.standard_form
    assert z is law and (loc, scale) == (0.0, 1.0)


def test_an_empirical_law_is_its_centred_values_at_their_mean():
    law = Empirical([4.0, 1.0, 2.0])
    z, loc, scale = law.standard_form
    assert (loc, scale) == (law.mean(), 1.0) and law.standard_form is law.standard_form
    assert np.array_equal(z.values, law.values - law.mean()) and z.standard_form == (z, 0.0, 1.0)
    assert z.support == (z.values[0], z.values[-1])
    # the law's own quantiles stay its order statistics, never mean + (v - mean)
    assert law.quantile(np.array([0.2, 0.5, 0.9])).tolist() == [1.0, 2.0, 4.0]


def test_empirical_cell_means_difference_no_location():
    # the cells of the centred values, then the mean added: a cumulative sum carrying 1e3
    # missed the order statistics by 9.7e-8
    values = 1e3 + np.random.default_rng(0).normal(size=10**6)
    law = Empirical(values)
    assert np.max(np.abs(law.cell_means(law.n) - law.values)) <= 1e-9


def test_affine_composes_its_map_with_its_base_exactly():
    law = Affine(Normal(1e7, 1.0), -1e7, 1.0)  # a standard normal again, with no 1e7 rounding
    assert law.standard_form == (Normal(0.0, 1.0), 0.0, 1.0)
    p = _interior_points()
    assert np.array_equal(law.quantile(p), Normal(0.0, 1.0).quantile(p))
    assert np.array_equal(law.cell_means(1000), Normal(0.0, 1.0).cell_means(1000))
    twice = Affine(Affine(Logistic(1.0, 2.0), 3.0, 4.0), -1.0, 0.5)  # -1 + 0.5 (3 + 4 (1 + 2 Z))
    assert twice.standard_form == (Logistic(0.0, 1.0), 2.5, 4.0)


def test_families_keep_their_fields_equality_and_repr():
    fields = {
        Uniform: ("a", "b"),
        Exponential: ("rate",),
        Logistic: ("loc", "scale"),
        Normal: ("mu", "sigma"),
        Weibull: ("scale", "shape"),
        Laplace: ("loc", "scale"),
        Gumbel: ("loc", "scale"),
        Affine: ("base", "shift", "scale"),
    }
    for family, names in fields.items():
        assert tuple(f.name for f in dataclasses.fields(family)) == names
    law = Normal(5.0, 2.0)
    assert repr(law) == "Normal(mu=5.0, sigma=2.0)"
    assert law == Normal(5.0, 2.0) and hash(law) == hash(Normal(5.0, 2.0))
    assert law != Normal(0.0, 2.0) and law.standard_form[0] == Normal(0.0, 1.0)
    assert repr(Affine(Normal(), 1.0, 2.0)) == (
        "Affine(base=Normal(mu=0.0, sigma=1.0), shift=1.0, scale=2.0)"
    )


def test_every_located_family_refuses_a_bad_location_or_scale_in_one_message():
    for bad in (
        lambda: Uniform(2.0, 1.0),
        lambda: Uniform(-math.inf, 1.0),
        lambda: Exponential(0.0),
        lambda: Logistic(math.nan, 1.0),
        lambda: Normal(0.0, -1.0),
        lambda: Weibull(math.inf, 1.0),
        lambda: Laplace(0.0, 0.0),
        lambda: Gumbel(math.inf, 1.0),
        lambda: Affine(Normal(), 0.0, -1.0),
        lambda: Affine(Normal(0.0, 1e300), 0.0, 1e300),
    ):
        with pytest.raises(DomainError, match="requires a finite location and a finite scale > 0"):
            bad()


def test_symmetry_center_is_loc_plus_scale_times_the_shape_centre():
    # Q(p) + Q(1 - p) = 2c on the maps of symmetric shapes, and on no skewed law
    p = np.linspace(0.001, 0.999, 97)
    for law, c in _MAPPED_CENTRES.items():
        assert np.all(np.abs(law.quantile(p) + law.quantile(1.0 - p) - 2.0 * c) <= 1e-9)
    for law in (Gumbel(), Exponential(), Affine(Gumbel(1, 2)), Reflected(Weibull()), Pareto()):
        assert np.ptp(law.quantile(p) + law.quantile(1.0 - p)) > 0.1


def test_cell_means_keep_the_standard_grid_far_from_zero():
    # loc enters after the differencing, so loc = 1e4 costs its own rounding and no more
    near, far = Normal(0.0, 1.0).cell_means(10**6), Normal(1e4, 1.0).cell_means(10**6)
    assert np.max(np.abs(far - (1e4 + near))) <= 1e4 * np.finfo(float).eps


# -- first moments: every mean and cell mean comes from the partial integral QI --

# The closed forms the laws carried next to QI before mean() became QI(1); kept as references.
_FORMER_MEANS = {
    Uniform: lambda d: 0.5 * (d.a + d.b),
    Exponential: lambda d: 1.0 / d.rate,
    Logistic: lambda d: d.loc,
    Normal: lambda d: d.mu,
    Laplace: lambda d: d.loc,
    Gumbel: lambda d: d.loc + d.scale * 0.5772156649015329,
    Pareto: lambda d: 1.0 / d.nu,
    Power: lambda d: 1.0 - 1.0 / d.nu,
    Affine: lambda d: d.shift + d.scale * d.base.mean(),
    Reflected: lambda d: -d.base.mean(),
}
_FORMER_MEAN_LAWS = [
    *(Uniform(a, b) for a, b in ((0, 1), (-2.0, 5.0), (0.1, 0.7), (1e3, 1e3 + 1e-6))),
    *(Exponential(r) for r in (1, 2.5, 3.0, 0.1)),
    *(Logistic(m, s) for m, s in ((0, 1), (1.5, 0.7), (-3.0, 2.0))),
    *(Normal(m, s) for m, s in ((0, 1), (2.0, 3.0), (-1e3, 0.1))),
    *(Laplace(m, s) for m, s in ((0, 1), (-1, 2), (4.25, 0.3))),
    *(Gumbel(m, s) for m, s in ((0, 1), (1.0, 0.5), (-2.0, 3.0))),
    *(Pareto(nu) for nu in (0.5, 0.8, 0.3, 0.999)),
    *(Power(nu) for nu in (1.5, 3.0, 4.0 / 3.0, 10.0)),
    Affine(Normal(0.0, 1.0), 2.0, 3.0),
    Affine(Pareto(0.8), -1.0, 0.5),
    Affine(Gumbel(0.0, 1.0), 0.3, 7.0),
    Reflected(Gumbel(0.0, 1.0)),
    Reflected(Weibull(1.0, 0.5)),
    Reflected(Exponential(3.0)),
]


@pytest.mark.parametrize("law", _FORMER_MEAN_LAWS, ids=repr)
def test_mean_from_qi_equals_the_former_closed_form(law):
    got, want = law.mean(), float(_FORMER_MEANS[type(law)](law))
    if isinstance(law, Uniform):  # a + (b - a) / 2 is correctly rounded; (a + b) / 2 may not be
        assert abs(got - want) <= math.ulp(want)
    else:
        assert got.hex() == want.hex()


@pytest.mark.parametrize(
    "law",
    CATALOG
    + [Logistic(0, 1), Laplace(-1, 2), Normal(2, 3), Gumbel(0, 1), Uniform(0, 1), Exponential(2)]
    + [d for d in _DERIVED if not isinstance(d, ExpTransformed) or isinstance(d.base, Normal)]
    + [Affine(Logistic(0, 1), 1, 2), Reflected(Laplace(-1, 2)), ExpTransformed(Normal(0, 1))]
    + [Empirical([1, 2, 4]), Empirical([3])],
    ids=repr,
)
def test_mean_is_a_float(law):
    assert type(law.mean()) is float


def _step_mass(values, lo, hi):
    """Integral of the empirical quantile over [lo, hi]: order statistics times cell overlaps."""
    v, n = np.sort(np.asarray(values, dtype=float)), len(values)
    return math.fsum(v[k] * max(0.0, min(hi, (k + 1) / n) - max(lo, k / n)) for k in range(n))


@pytest.mark.parametrize(
    "values",
    [
        [2.5],
        [-1.0, 2.0, 2.0, 2.0, 5.0, 5.0, 7.5],
        np.round(np.random.default_rng(8).normal(size=40), 1),
    ],
    ids=["n1", "ties", "rounded"],
)
def test_empirical_quantile_integral_is_the_step_sum(values):
    law, n = Empirical(values), len(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    for p in [0.0, 1.0 / (3 * n), *(np.arange(1, n + 1) / n), 0.5, 1.0]:
        lower, upper = _step_mass(values, 0.0, p), _step_mass(values, 1.0 - p, 1.0)
        assert law.quantile_integral(p) == pytest.approx(lower, rel=1e-13, abs=1e-15 * scale)
        assert law.quantile_integral_comp(p) == pytest.approx(upper, rel=1e-13, abs=1e-15 * scale)
    want = [7 * _step_mass(values, k / 7, (k + 1) / 7) for k in range(7)]
    np.testing.assert_allclose(law.cell_means(7), want, rtol=1e-12, atol=1e-13 * scale)


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (0.3, 0.5), (-1.0, 2.0)])
def test_lognormal_quantile_integral_against_quadrature(mu, sigma):
    law = ExpTransformed(Normal(mu, sigma))
    assert law.mean() == math.exp(mu + sigma**2 / 2)

    def x_density(z):  # e^{mu + sigma z} times the standard normal density: the x-domain form
        return math.exp(mu + sigma * z - 0.5 * z * z) / math.sqrt(2.0 * math.pi)

    for p in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
        z = float(ndtri(p))
        lower = quad(x_density, -math.inf, z, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        upper = quad(x_density, -z, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert law.quantile_integral(p) == pytest.approx(lower, rel=1e-12)
        assert law.quantile_integral_comp(p) == pytest.approx(upper, rel=1e-12)


def test_a_lognormal_base_is_any_law_of_standard_shape_normal():
    law = ExpTransformed(Affine(Normal(0.0, 1.0), 2.0, 3.0))  # exp(2 + 3 Z)
    assert law.mean() == ExpTransformed(Normal(2.0, 3.0)).mean() == math.exp(2.0 + 0.5 * 9.0)
    p = np.array([1e-6, 0.3, 0.5, 0.9])
    assert np.array_equal(
        law.quantile_integral(p), ExpTransformed(Normal(2.0, 3.0)).quantile_integral(p)
    )


def test_a_lognormal_mean_beyond_float_range_is_a_numerical_error():
    law = ExpTransformed(Normal(0.0, 40.0))  # log of the mean is 800
    for first_moment in (law.mean, lambda: law.cell_means(4)):
        with pytest.raises(NumericalError, match="overflows"):
            first_moment()
    assert law.quantile(0.5) == 1.0


class _QuantileOnly(Distribution):
    """A user law that supplies quantiles but no partial integral."""

    def _quantile(self, p):
        return p * p


@pytest.mark.parametrize(
    "law", [ExpTransformed(Logistic(0.0, 0.5)), ExpTransformed(Weibull(1.0, 2.0)), _QuantileOnly()]
)
def test_a_law_without_exact_qi_refuses_means_but_keeps_its_quantiles(law):
    for first_moment in (law.mean, lambda: law.cell_means(10), lambda: law.quantile_integral(0.5)):
        with pytest.raises(UnsupportedOperationError) as err:
            first_moment()
        assert isinstance(err.value, QtcorrError)
    assert np.all(np.diff(law.quantile(np.linspace(0.01, 0.99, 9))) > 0.0)


def test_distributions_import_nothing_of_the_package_but_errors():
    # a law never calls the integrator: its means come from its own partial integrals
    tree = ast.parse(Path(distributions.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    package = [name for name in names if name.startswith(".") or name.split(".")[0] == "qtcorr"]
    assert package == [".errors"]


def test_the_library_has_no_cdf_side():
    # every number is reached through quantiles and ranks; an excess is kept only by the
    # copulas whose dependence integral runs on the 2-D route
    import qtcorr
    from qtcorr import bivariate

    assert not hasattr(qtcorr, "q_transform") and not hasattr(distributions, "q_transform")
    classes = [
        c
        for module in (distributions, bivariate)
        for c in vars(module).values()
        if isinstance(c, type) and c.__module__ == module.__name__
    ]
    for cls in classes:
        assert not {"cdf", "_cdf", "joint_cdf", "symmetry_center"} & set(vars(cls)), cls
    with_excess = {c.__name__ for c in classes if "excess" in vars(c)}
    assert with_excess == {"Copula", "GumbelBarnett", "AMH", "GaussianCopula"}


# -- the special-function kernels against scipy.special (and mpmath where scipy rounds off) --


def test_ndtri_kernel_matches_scipy():
    edges = np.array([0.0, 0.5, 1.0, -0.1, 1.1, np.nan])  # -inf, 0, inf, then NaN outside [0, 1]
    np.testing.assert_array_equal(distributions.ndtri(edges), special.ndtri(edges))
    tails = 10.0 ** -np.linspace(0.5, 300.0, 300)
    inner = np.linspace(1e-4, 1.0 - 1e-4, 999)
    p = np.concatenate([[5e-324, 1e-300, 1.0 - 2.0**-53], inner, tails, 1.0 - tails])
    # AS241 (PPND16) is good to about 1e-16; 2e-15 leaves room for scipy's own rounding
    np.testing.assert_allclose(distributions.ndtri(p), special.ndtri(p), rtol=2e-15, atol=0.0)


def test_ndtr_kernel_matches_scipy_and_mpmath():
    edges = np.array([-np.inf, np.inf, np.nan, 0.0])
    np.testing.assert_array_equal(distributions.ndtr(edges), special.ndtr(edges))
    x = np.concatenate([[-1.4, 1.4, -np.sqrt(2.0), np.sqrt(2.0)], np.linspace(-10.0, 8.5, 1851)])
    # the rationals are good to about 1e-15; scipy's e^(-x^2 / 2) rounds to about 1e-14 at x = -10
    np.testing.assert_allclose(distributions.ndtr(x), special.ndtr(x), rtol=5e-14, atol=0.0)
    # deeper, scipy's error grows to 2e-13, so mpmath is the oracle; the kernel keeps 5e-14
    deep = np.linspace(-37.5, -10.0, 56)
    want = np.array([float(mpmath.ncdf(v)) for v in deep])
    np.testing.assert_allclose(distributions.ndtr(deep), want, rtol=5e-14, atol=0.0)
    # scipy flushes Phi(-38) = 2.885e-316 to 0; the kernel keeps the subnormal to a few of its ulps
    assert distributions.ndtr(-38.0) == pytest.approx(float(mpmath.ncdf(-38)), rel=1e-7)
    assert distributions.ndtr(-40.0) == 0.0


@pytest.mark.parametrize("a", [1.01, 1.5, 3.0, 21.0, 51.0])
def test_incomplete_gamma_kernel_matches_scipy(a):
    seam = a + 1.0  # power series below, continued fraction from here on
    x = np.concatenate(
        [[0.0, seam, np.nextafter(seam, 0.0), np.nextafter(seam, np.inf), 800.0, np.inf],
         np.linspace(0.0, 3.0 * a + 30.0, 401)]
    )
    for upper, oracle in ((False, special.gammainc), (True, special.gammaincc)):
        got, want = distributions._gamma_inc(a, x, upper), oracle(a, x)
        # x^a e^-x / Gamma(a) rounds its exponent, about a log x, to 1e-16 each: 1e-13 up to a = 51
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert got[0] == (1.0 if upper else 0.0) and got[5] == (0.0 if upper else 1.0)


def test_incomplete_gamma_kernel_keeps_its_series_in_range_for_large_a():
    # the series runs in x / max x, so its coefficients neither underflow nor overflow;
    # the error then grows like the exponent a log x of x^a e^-x / Gamma(a)
    a = 1001.0
    x = np.concatenate([[a + 1.0], np.linspace(800.0, 1200.0, 401)])
    for upper, oracle in ((False, special.gammainc), (True, special.gammaincc)):
        np.testing.assert_allclose(distributions._gamma_inc(a, x, upper), oracle(a, x), rtol=5e-12)


def test_exp1_kernel_matches_scipy():
    x = np.concatenate(
        [[0.0, 1.0, 700.0, np.inf], np.linspace(1e-3, 2.0, 400), np.linspace(2.0, 700.0, 400)]
    )
    got, want = distributions._exp1(x), special.exp1(x)
    assert got[0] == np.inf and got[3] == 0.0
    # series and fraction are good to a few 1e-15; 5e-14 bounds them with scipy's rounding
    np.testing.assert_allclose(got, want, rtol=5e-14, atol=0.0)


def test_kernel_values_do_not_depend_on_the_rest_of_the_array():
    # every kernel is elementwise, so a value computed alone equals it inside a large array
    p = np.random.default_rng(5).random((3, 2 * distributions._BLOCK + 7))
    kernels = (
        distributions.ndtri,
        distributions.ndtr,
        lambda v: distributions._gamma_inc(3.0, 8.0 * v, True),
        lambda v: distributions._exp1(3.0 * v),
    )
    for kernel in kernels:
        whole = kernel(p)
        assert whole.shape == p.shape
        picks = p.ravel()[::997]
        assert np.array_equal(whole.ravel()[::997], [float(kernel(v)) for v in picks])
    assert distributions.ndtri(0.5).shape == ()


def test_empirical_repr_names_its_values_not_its_address():
    assert repr(Empirical([4, 1, 2])) == "Empirical(values=[1., 2., 4.])"
    assert repr(Empirical(np.arange(20.0))) == "Empirical(values=[ 0.,  1.,  2., ..., 17., 18., 19.])"
