"""Copula families: boundary behavior, closed forms, samplers."""

import math

import numpy as np
import pytest

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
    _ReflectedU,
    _ReflectedV,
    child_rng,
    parse_copula,
    reflect_x,
    reflect_y,
)
from qtcorr.distributions import Exponential, Logistic, Power, Uniform, Weibull
from qtcorr.errors import DomainError, NumericalError, UnsupportedOperationError
from test_distributions import _cdf

CDF_FAMILIES = [
    Independence(),
    FGM(1.0),
    FGM(-0.7),
    GumbelBarnett(1.0),
    GumbelBarnett(0.4),
    AMH(1.0),
    AMH(-1.0),
    AMH(0.5),
    FrechetUpper(),
    FrechetLower(),
    GaussianCopula(-0.999),
    GaussianCopula(-0.6),
    GaussianCopula(0.6),
    GaussianCopula(0.999),
]

GRID = np.linspace(0.0, 1.0, 21)


def _copula_cdf(cop, u, v):
    """Oracle: C(u, v).  The copulas of the 2-D route give u v plus their excess; the others
    carry their textbook forms, and a reflection maps its base's."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if isinstance(cop, _ReflectedU):  # the copula of (1 - U, V)
        out = v - _copula_cdf(cop.base, 1.0 - u, v)
    elif isinstance(cop, _ReflectedV):  # of (U, 1 - V); FrechetLower is one
        out = u - _copula_cdf(cop.base, u, 1.0 - v)
    elif isinstance(cop, FrechetUpper):
        out = np.minimum(u, v)
    elif isinstance(cop, Independence):
        out = u * v
    elif isinstance(cop, FGM):
        out = u * v * (1.0 + cop.gamma * (1.0 - u) * (1.0 - v))
    else:
        out = u * v + cop.excess(u, 1.0 - u, v, 1.0 - v)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("cop", CDF_FAMILIES, ids=lambda c: repr(c))
def test_boundary_conditions(cop):
    u = GRID
    assert np.allclose(_copula_cdf(cop, u, np.zeros_like(u)), 0.0, atol=1e-14)
    assert np.allclose(_copula_cdf(cop, np.zeros_like(u), u), 0.0, atol=1e-14)
    assert np.allclose(_copula_cdf(cop, u, np.ones_like(u)), u, atol=1e-14)
    assert np.allclose(_copula_cdf(cop, np.ones_like(u), u), u, atol=1e-14)


@pytest.mark.parametrize("cop", CDF_FAMILIES, ids=lambda c: repr(c))
def test_two_increasing_and_frechet_bracket(cop):
    uu, vv = np.meshgrid(GRID, GRID, indexing="ij")
    c = _copula_cdf(cop, uu, vv)
    volume = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    assert volume.min() >= -1e-12
    lower = np.maximum(uu + vv - 1.0, 0.0)
    upper = np.minimum(uu, vv)
    assert np.all(c >= lower - 1e-12)
    assert np.all(c <= upper + 1e-12)


def test_parameter_ranges():
    for bad in (lambda: FGM(1.2), lambda: GumbelBarnett(-0.1), lambda: GumbelBarnett(1.5),
                lambda: AMH(-1.01), lambda: GaussianCopula(1.0), lambda: GaussianCopula(-1.0)):
        with pytest.raises(DomainError):
            bad()


def test_copula_cdf_examples():
    assert _copula_cdf(FGM(1.0), 0.5, 0.5) == pytest.approx(0.3125, abs=1e-15)
    assert _copula_cdf(FrechetLower(), 0.3, 0.4) == pytest.approx(0.0, abs=1e-15)
    for cop in CDF_FAMILIES:
        assert _copula_cdf(cop, 0.4, 1.0) == pytest.approx(0.4, abs=1e-14)


def test_zero_parameter_families_collapse_to_independence():
    indep = Independence()
    uu, vv = np.meshgrid(GRID, GRID, indexing="ij")
    for cop in (FGM(0.0), GumbelBarnett(0.0), AMH(0.0), GaussianCopula(0.0)):
        assert np.allclose(_copula_cdf(cop, uu, vv), _copula_cdf(indep, uu, vv), atol=1e-15)


def _joint_cdf(cop, u, v):
    # C(F(x), G(y)) = u v + excess(u, 1 - u, v, 1 - v) at hand-computed u = F(x), v = G(y)
    return u * v + cop.excess(u, 1.0 - u, v, 1.0 - v)


def test_gumbel_barnett_exponential_closed_form():
    theta = 1.0
    cop = GumbelBarnett(theta)
    xs = np.array([0.05, 0.3, 1.0, 2.5, 6.0])
    for x in xs:
        for y in xs:
            want = 1 - math.exp(-x) - math.exp(-y) + math.exp(-x - y - theta * x * y)
            got = _joint_cdf(cop, 1 - math.exp(-x), 1 - math.exp(-y))
            assert got == pytest.approx(want, abs=1e-12)
    assert _joint_cdf(cop, 1 - math.exp(-1), 1 - math.exp(-1)) == pytest.approx(
        1 - 2 * math.exp(-1) + math.exp(-3), abs=1e-12
    )


@pytest.mark.parametrize("theta", [-1.0, -0.3, 0.5, 1.0])
def test_amh_logistic_closed_form(theta):
    cop = AMH(theta)
    xs = np.array([-3.0, -0.7, 0.0, 1.2, 4.0])
    for x in xs:
        for y in xs:
            want = 1.0 / (
                1 + math.exp(-x) + math.exp(-y) + (1 - theta) * math.exp(-x - y)
            )
            got = _joint_cdf(cop, 1 / (1 + math.exp(-x)), 1 / (1 + math.exp(-y)))
            assert got == pytest.approx(want, abs=1e-12)
    assert _joint_cdf(cop, 0.5, 0.5) == pytest.approx(1.0 / (4.0 - theta), abs=1e-14)


@pytest.mark.parametrize("theta", [-1.0, 0.6, 1.0])
def test_amh_power_closed_form(theta):
    # margins x(2-x) and y(y^2 - 3y + 3) on the unit interval: Power(1.5) and Power(4/3)
    cop = AMH(theta)
    xs = np.linspace(0.05, 0.95, 7)
    for x in xs:
        for y in xs:
            num = x * (2 - x) * y * (y**2 - 3 * y + 3)
            den = 1 + theta * (y - 1) ** 3 * (x - 1) ** 2
            got = _joint_cdf(cop, 1 - (1 - x) ** 2, 1 - (1 - y) ** 3)
            assert got == pytest.approx(num / den, abs=1e-12)


def test_joint_cdf_margin_recovery():
    # the joint CDF of the draws at (x0, inf) and (inf, y0) is each margin's CDF
    model = BivariateModel(GumbelBarnett(0.8), Weibull(1, 2), Exponential(1))
    s = model.sample(10**6, seed=4)
    for y0 in (0.2, 1.0, 3.0):
        assert np.mean(s.y <= y0) == pytest.approx(_cdf(model.margin_y, y0), abs=5e-3)
    for x0 in (0.2, 1.0, 3.0):
        assert np.mean(s.x <= x0) == pytest.approx(_cdf(model.margin_x, x0), abs=5e-3)


def test_gaussian_copula_median_orthant_oracle():
    # C(1/2, 1/2) = P(Z1 <= 0, Z2 <= 0) = 1/4 + arcsin(rho) / (2 pi) (Sheppard)
    for rho in (-0.999, -0.9, -0.5, 0.0, 0.3, 0.6, 0.9, 0.999):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert _copula_cdf(GaussianCopula(rho), 0.5, 0.5) == pytest.approx(want, abs=1e-15)


# -- sampling -----------------------------------------------------------------


def test_sampling_is_deterministic():
    model = BivariateModel(AMH(0.8), Exponential(1), Uniform(0, 1))
    s1 = model.sample(500, seed=11)
    s2 = model.sample(500, seed=11)
    s3 = model.sample(500, seed=12)
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    assert not np.array_equal(s1.x, s3.x)


def test_frechet_samples_are_exact_transforms():
    f, g = Weibull(1, 2), Exponential(1)
    up = BivariateModel(FrechetUpper(), f, g).sample(2000, seed=3)
    want = g.quantile(_cdf(f, up.x))
    assert np.allclose(up.y, want, rtol=1e-12, atol=1e-12)
    lo = BivariateModel(FrechetLower(), f, g).sample(2000, seed=3)
    want = g.quantile(1.0 - _cdf(f, lo.x))
    assert np.allclose(lo.y, want, rtol=1e-9, atol=1e-12)


REFLECTIONS = [
    reflect_x(BivariateModel(FGM(0.8), Exponential(1), Uniform(0, 1))).copula,
    reflect_y(BivariateModel(GaussianCopula(0.6), Exponential(1), Uniform(0, 1))).copula,
    reflect_x(BivariateModel(FrechetUpper(), Exponential(1), Uniform(0, 1))).copula,
]


@pytest.mark.parametrize("cop", CDF_FAMILIES + REFLECTIONS, ids=lambda c: repr(c))
@pytest.mark.parametrize("n", [0, -1])
def test_every_sampler_refuses_a_sample_size_below_one(cop, n):
    with pytest.raises(DomainError, match="at least 1"):
        cop.sample(n, child_rng(1, "test.size"))


def test_independence_sample_correlation():
    model = BivariateModel(Independence(), Uniform(0, 1), Uniform(0, 1))
    s = model.sample(10**6, seed=5)
    r = np.corrcoef(s.x, s.y)[0, 1]
    assert abs(r) <= 4.0 / math.sqrt(10**6)


@pytest.mark.parametrize(
    "cop",
    [FGM(0.9), GumbelBarnett(1.0), AMH(1.0), AMH(-1.0)],
    ids=lambda c: repr(c),
)
def test_conditional_inversion_matches_cdf(cop):
    # empirical copula of 1e6 draws within 5e-3 of the cdf on a 10x10 grid
    rng = child_rng(99, f"test.{cop!r}")
    u, v = cop.sample(10**6, rng)
    grid = np.linspace(0.1, 1.0, 10)
    for gu in grid:
        inside_u = u <= gu
        for gv in grid:
            emp = np.mean(inside_u & (v <= gv))
            assert abs(emp - _copula_cdf(cop, gu, gv)) <= 5e-3


INVERSE_FAMILIES = [
    FGM(1.0),
    FGM(-1.0),
    FGM(0.9),
    AMH(1.0),
    AMH(-1.0),
    AMH(0.5),
    GumbelBarnett(1.0),
    GumbelBarnett(0.3),
    GumbelBarnett(1e-6),
]

# probabilities within 1e-12 of both ends of the unit interval, and between
EDGE_GRID = np.concatenate(
    [[1e-15, 1e-12, 1e-6], np.linspace(0.01, 0.99, 49), [1 - 1e-6, 1 - 1e-12]]
)


def _cond_cdf(cop, u, v):
    # oracle: the conditional CDF of V given U = u, the partial derivative of C in u
    if isinstance(cop, Independence):
        return np.broadcast_to(v, np.broadcast_shapes(np.shape(u), np.shape(v)))
    if isinstance(cop, FGM):
        return v * (1.0 + cop.gamma * (1.0 - 2.0 * u) * (1.0 - v))
    if isinstance(cop, GumbelBarnett):
        lv = np.log1p(-v)
        core = np.exp(-cop.theta * np.log1p(-u) * lv)
        return 1.0 - (1.0 - v) * core * (1.0 - cop.theta * lv)
    if isinstance(cop, AMH):
        d = (1.0 - cop.theta) + cop.theta * (u + v - u * v)
        return v * ((1.0 - cop.theta) + cop.theta * v) / (d * d)
    raise TypeError(f"no conditional CDF oracle for {cop!r}")


def _bisection_inverse(cop, u, w, iters=48):
    # reference conditional inversion: 2**-48 brackets on the conditional CDF
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = _cond_cdf(cop, u, mid) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.maximum(0.5 * (lo + hi), 1e-300)


@pytest.mark.parametrize("cop", INVERSE_FAMILIES, ids=lambda c: repr(c))
def test_cond_inverse_solves_cond_cdf(cop):
    u, w = (a.ravel() for a in np.meshgrid(EDGE_GRID, EDGE_GRID, indexing="ij"))
    v = cop.cond_inverse(u, w)
    assert np.all((v > 0.0) & (v < 1.0))
    assert np.max(np.abs(_cond_cdf(cop, u, v) - w)) <= 1e-12


@pytest.mark.parametrize("cop", INVERSE_FAMILIES + [Independence()], ids=lambda c: repr(c))
def test_sample_matches_bisection_oracle(cop):
    n = 20_000
    u, v = cop.sample(n, child_rng(17, "test.oracle"))
    rng = child_rng(17, "test.oracle")
    u_ref = np.maximum(rng.random(n), 1e-300)
    w_ref = np.maximum(rng.random(n), 1e-300)
    assert np.array_equal(u, u_ref)
    assert np.max(np.abs(v - _bisection_inverse(cop, u_ref, w_ref))) <= 1e-12


class _FixedDraws:
    """Stand-in generator that hands out the given uniform columns in turn."""

    def __init__(self, *columns):
        self.columns = list(columns)

    def random(self, n):
        return self.columns.pop(0)


@pytest.mark.parametrize("cop", INVERSE_FAMILIES, ids=lambda c: repr(c))
def test_sample_stays_inside_the_open_square(cop):
    # the largest uniform draw rounds the exact root to 1 for every family;
    # v = 1 would send unbounded margins' quantiles to infinity
    top = 1.0 - 2.0**-53
    u = np.array([1e-300, 1e-16, 0.3, 0.5, 0.7, 1.0 - 1e-16, top])
    _, v = cop.sample(u.size, _FixedDraws(u, np.full(u.size, top)))
    assert v.min() >= 1e-300 and v.max() < 1.0


def test_cond_inverse_unsupported_and_unconverged():
    with pytest.raises(UnsupportedOperationError):
        Copula().cond_inverse(0.5, 0.5)
    with pytest.raises(UnsupportedOperationError):
        GaussianCopula(0.5).cond_inverse(0.5, 0.5)
    # w = 1 has no finite root in s = -log(1 - v): Newton must fail loudly
    with pytest.raises(NumericalError), np.errstate(divide="ignore", invalid="ignore"):
        GumbelBarnett(0.5).cond_inverse(np.array([0.5, 0.5]), np.array([0.5, 1.0]))


def test_gaussian_sampler_margins_and_sign():
    cop = GaussianCopula(0.7)
    rng = child_rng(1, "test.gauss")
    u, v = cop.sample(200_000, rng)
    assert abs(np.mean(u) - 0.5) < 5e-3
    assert abs(np.mean(v) - 0.5) < 5e-3
    assert np.corrcoef(u, v)[0, 1] > 0.6


# -- reflections --------------------------------------------------------------


def test_reflection_excess_identities():
    # the draws of a reflection follow v - C(1 - u, v) and u - C(u, 1 - v) of its base
    grid = np.linspace(0.1, 0.9, 5)
    for copula in (GumbelBarnett(0.9), GaussianCopula(0.7)):
        base = BivariateModel(copula, Exponential(1), Weibull(1, 2))
        for reflected in (reflect_x(base).copula, reflect_y(base).copula):
            u, v = reflected.sample(10**6, child_rng(7, f"test.{reflected!r}"))
            for gu in grid:
                for gv in grid:
                    emp = np.mean((u <= gu) & (v <= gv))
                    assert abs(emp - _copula_cdf(reflected, gu, gv)) <= 5e-3


def test_reflection_samples_mirror_margins():
    base = BivariateModel(FGM(0.8), Exponential(1), Uniform(0, 1))
    s = base.sample(4000, seed=21)
    sx = reflect_x(base).sample(4000, seed=21)
    assert np.allclose(np.sort(sx.x), np.sort(-s.x), atol=1e-9)
    assert np.allclose(np.sort(sx.y), np.sort(s.y), atol=1e-12)


# -- grammar ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("independence", Independence()),
        ("fgm:0.5", FGM(0.5)),
        ("GB:1", GumbelBarnett(1.0)),
        ("gumbel-barnett:0.3", GumbelBarnett(0.3)),
        ("amh:-1", AMH(-1.0)),
        ("gaussian:0.7", GaussianCopula(0.7)),
        ("frechet-upper", FrechetUpper()),
        ("frechet-lower", FrechetLower()),
    ],
)
def test_parse_copula(text, expected):
    assert parse_copula(text) == expected


@pytest.mark.parametrize("text", ["fgm", "fgm:2", "independence:1", "clayton:1", "gb:a"])
def test_parse_copula_rejects(text):
    with pytest.raises(DomainError):
        parse_copula(text)



def test_gaussian_scores_map_a_standard_normal_shape_by_its_location_and_scale():
    from qtcorr.distributions import Affine, Normal, ndtr

    z = np.random.default_rng(6).standard_normal(1000)
    for law in (Affine(Normal(), 2.0, 3.0), Normal(2.0, 3.0), Affine(Normal(1.0, 1.5), 0.0, 2.0)):
        assert GaussianCopula.score_quantile(law, z).tobytes() == (2.0 + 3.0 * z).tobytes()
    law = Affine(Logistic(0.0, 1.0), 2.0, 3.0)  # any other shape reads its quantile at Phi(z)
    assert np.array_equal(GaussianCopula.score_quantile(law, z), law.quantile(ndtr(z)))
