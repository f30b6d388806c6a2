"""Standby-system decomposition and subadditivity reporting."""

import math

import pytest
from scipy.integrate import quad

from qtcorr.decomposition import StandbySystem, decompose, subadditivity_report
from qtcorr.distributions import Exponential, Normal, Pareto, Uniform, Weibull
from qtcorr.errors import DomainError
from qtcorr.measures import cre, g_covariance, gmd

N_MC = 200_000  # module-level runs stay light; the full 1e6 lives in acceptance


def test_system_validation():
    with pytest.raises(DomainError):
        StandbySystem(())
    with pytest.raises(DomainError):
        StandbySystem((Normal(0, 1),))  # support extends below zero
    sys2 = StandbySystem((Exponential(1), Weibull(1, 2)))
    assert sys2.n == 2


def test_single_component_is_exact():
    comp = Weibull(1, 2)
    g = Uniform(0, 1)
    result = decompose(StandbySystem((comp,)), g, N_MC, seed=1)
    assert result.terms == ((1.0, pytest.approx(g_covariance(comp, g))),)
    assert result.total == pytest.approx(g_covariance(comp, g))
    assert result.mc_estimate == result.total
    assert result.mc_se == 0.0
    rows = subadditivity_report(StandbySystem((comp,)), N_MC, seed=1)
    assert {r.measure for r in rows} == {
        "var-bound",
        "cre",
        "gcre2",
        "gmd",
        "egini0.5",
        "egini3",
    }
    for row in rows:
        assert row.slack == 0.0 and row.se == 0.0
        assert row.lhs == pytest.approx(row.rhs)


def gamma2_gmd_oracle():
    # T = Exp(1) + Exp(1) has survival (1 + x) exp(-x)
    sf = lambda x: (1.0 + x) * math.exp(-x)
    return 2.0 * quad(lambda x: (1.0 - sf(x)) * sf(x), 0.0, 60.0, limit=300)[0]


def test_two_exponentials_uniform_target():
    system = StandbySystem((Exponential(1), Exponential(1)))
    result = decompose(system, Uniform(0, 1), 10**6, seed=42)
    want_total = gamma2_gmd_oracle() / 4.0
    assert want_total == pytest.approx(0.375, abs=1e-9)
    assert result.total == pytest.approx(want_total, abs=3e-3)
    assert abs(result.total - result.mc_estimate) <= 3.0 * result.mc_se + 1e-4
    for beta, c in result.terms:
        assert -1e-3 <= beta <= 1.0 + 1e-3
        assert c == pytest.approx(0.25, abs=1e-6)


def test_two_exponentials_exponential_target():
    system = StandbySystem((Exponential(1), Exponential(1)))
    result = decompose(system, Exponential(1), N_MC, seed=7)
    # system uncertainty is below the component total
    assert result.total <= cre(Exponential(1)) * 2.0 + 1e-3
    assert abs(result.total - result.mc_estimate) <= 3.0 * result.mc_se + 2e-3


def test_identity_across_configurations():
    systems = [
        StandbySystem((Exponential(1),)),
        StandbySystem((Exponential(1), Weibull(1, 2))),
        StandbySystem((Weibull(1, 2),) * 3),
    ]
    targets = [Uniform(0, 1), Exponential(1)]
    for system in systems:
        for g in targets:
            result = decompose(system, g, N_MC, seed=9)
            assert abs(result.total - result.mc_estimate) <= 3.0 * result.mc_se + 2e-3
            for beta, _ in result.terms:
                assert -1e-2 <= beta <= 1.0 + 1e-2


def test_subadditivity_rows():
    system = StandbySystem((Exponential(1), Exponential(1)))
    rows = subadditivity_report(system, N_MC, seed=11)
    by_name = {r.measure: r for r in rows}
    gmd_row = by_name["gmd"]
    assert gmd_row.rhs == pytest.approx(2.0, abs=1e-6)
    assert gmd_row.lhs == pytest.approx(1.5, abs=0.02)
    assert gmd_row.slack == pytest.approx(0.5, abs=0.02)
    for row in rows:
        assert row.slack >= -3.0 * row.se


def test_weibull_triplet_cre_bound():
    system = StandbySystem((Weibull(1, 2),) * 3)
    rows = subadditivity_report(system, N_MC, seed=13)
    cre_row = next(r for r in rows if r.measure == "cre")
    assert cre_row.rhs == pytest.approx(3.0 * cre(Weibull(1, 2)), abs=1e-6)
    assert cre_row.lhs <= cre_row.rhs + 3.0 * cre_row.se


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heavy_tailed_target_identity(seed):
    # pointwise G^{-1}(rank / (n + 1)) missed this identity by 3.6-4.6 SE;
    # exact rank-cell means keep it within the batch-means error
    system = StandbySystem((Exponential(1), Exponential(1)))
    result = decompose(system, Pareto(0.55), 10**5, seed=seed)
    assert abs(result.total - result.mc_estimate) <= 3.0 * result.mc_se
