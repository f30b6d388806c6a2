"""Engine-level checks for the adaptive Gauss-Kronrod quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from qtcorr import quadrature
from qtcorr.errors import NumericalError
from qtcorr.quadrature import (
    WG7,
    WGK,
    XGK,
    integrate,
    integrate_2d,
    unit_integral,
    unit_integral_2d,
)


def test_node_weight_tables_are_consistent():
    assert XGK.shape == WGK.shape == (15,)
    assert WG7.shape == (7,)
    assert np.all(np.diff(XGK) > 0)
    assert abs(WGK.sum() - 2.0) < 1e-15
    assert abs(WG7.sum() - 2.0) < 1e-15
    # Gauss nodes are the odd-indexed Kronrod nodes
    gauss = np.polynomial.legendre.leggauss(7)[0]
    assert np.allclose(np.sort(gauss), XGK[1::2], atol=1e-13)


@pytest.mark.parametrize(
    "dim, degree",
    [pytest.param(1, k, id=str(k)) for k in range(23)]
    + [pytest.param(2, k, id=f"2d-{k}") for k in range(23)],
)
def test_kronrod_polynomial_exactness(dim, degree):
    # one initial cell; in 2-D the integrand is x^degree * y^(22 - degree)
    if dim == 1:
        value, _ = integrate(lambda x: x**degree, 0.0, 1.0, 1e-13, init=1)
        want = 1.0 / (degree + 1)
    else:
        f = lambda x, y: x**degree * y ** (22 - degree)
        value, _ = integrate_2d(f, 0.0, 1.0, 0.0, 1.0, 1e-13, init=1)
        want = 1.0 / ((degree + 1) * (23 - degree))
    assert abs(value - want) < 1e-13


def test_known_integrals():
    value, err = integrate(np.sin, 0.0, math.pi, 1e-12)
    assert abs(value - 2.0) < 1e-12
    assert err < 1e-10
    value, _ = integrate(np.log, 1e-16, 1.0, 1e-9)
    assert abs(value + 1.0) < 1e-8


def test_unit_integral_plain():
    got = unit_integral(lambda p, upper: (1.0 - p) if upper else p, 1e-10)
    assert abs(got - 0.5) < 1e-12


def test_unit_integral_algebraic_singularity():
    # integral of (1-u)^(-1/2) over (0,1) is 2; the tail substitution must
    # capture the full mass, not stop at the truncation point
    def g(p, upper):
        return p**-0.5 if upper else (1.0 - p) ** -0.5

    assert abs(unit_integral(g, 1e-10) - 2.0) < 1e-9


def test_unit_integral_log_times_singularity():
    # integral of (-log(1-u))^2 (1-u)^(-1/2) du = 2! / (1/2)^3 = 16
    def g(p, upper):
        if upper:
            return (-np.log(p)) ** 2 * p**-0.5
        return (-np.log1p(-p)) ** 2 * (1.0 - p) ** -0.5

    assert abs(unit_integral(g, 1e-9) - 16.0) < 1e-8


def test_unit_integral_detects_divergence(monkeypatch):
    def g(p, upper):
        return 1.0 / p if upper else 1.0 / (1.0 - p)

    with pytest.raises(NumericalError, match="tail-sensitive"):
        unit_integral(g, 1e-9)
    # the same singularity along u, flat along v; a coarse truncation keeps the
    # main boxes cheap, since they are split across their longest side
    monkeypatch.setattr(quadrature, "_TAIL_EPS", 1e-3)
    with pytest.raises(NumericalError, match="tail-sensitive"):
        unit_integral_2d(lambda pu, uu, pv, vv: g(pu, uu) + 0.0 * pv, 1e-6)


def test_unit_integral_rejects_nan():
    def g(p, upper):
        return np.full_like(p, np.nan)

    with pytest.raises(NumericalError, match="non-finite"):
        unit_integral(g, 1e-9)
    with pytest.raises(NumericalError, match="non-finite"):
        unit_integral_2d(lambda pu, uu, pv, vv: g(pu, uu), 1e-9)


def test_integrate_2d_product():
    value, _ = integrate_2d(lambda x, y: x * y, 0, 1, 0, 1, 1e-12)
    assert abs(value - 0.25) < 1e-12


def test_integrate_2d_matches_scipy_on_smooth_integrand():
    f = lambda x, y: np.exp(-x * y) * np.sin(3 * x + y)
    value, _ = integrate_2d(f, 0, 2, 0, 1, 1e-10)
    want, _ = dblquad(lambda y, x: f(x, y), 0, 2, 0, 1, epsabs=1e-12)
    assert abs(value - want) < 1e-9


def test_unit_integral_2d_separable_singular():
    # product of two independently integrable singular factors
    def g2(pu, uu, pv, vv):
        a = pu**-0.25 if uu else (1.0 - pu) ** -0.25
        b = pv**-0.5 if vv else (1.0 - pv) ** -0.5
        return a * b

    want = (1.0 / 0.75) * 2.0
    assert abs(unit_integral_2d(g2, 1e-8) - want) < 1e-7


def test_unit_integral_2d_kinked_integrand():
    # min(u, v) has a derivative kink along the diagonal
    def g2(pu, uu, pv, vv):
        u = 1.0 - pu if uu else pu
        v = 1.0 - pv if vv else pv
        return np.minimum(u, v)

    want = quad(lambda u: u * (1 - u) + u * u / 2.0, 0, 1)[0]  # = 1/3
    assert abs(unit_integral_2d(g2, 1e-9) - want) < 1e-8


def test_integrate_budget_exhaustion_raises():
    # highly oscillatory with a hopeless budget
    with pytest.raises(NumericalError, match="budget"):
        integrate(lambda x: np.sin(1e4 * x), 0, 1, 1e-14, max_panels=8, init=1)
    with pytest.raises(NumericalError, match="budget"):
        integrate_2d(lambda x, y: np.sin(1e4 * x * y), 0, 1, 0, 1, 1e-14, max_panels=8, init=1)
