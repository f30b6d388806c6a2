"""Standby-system decomposition and subadditivity reporting."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qtcorr.decomposition import StandbySystem, _system_sample, decompose, subadditivity_report
from qtcorr.distributions import Empirical, Exponential, Normal, Pareto, Uniform, Weibull
from qtcorr.errors import DomainError
from qtcorr.measures import cre, extended_gini, g_covariance, gcre, gmd

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


def test_subadditivity_report_computes_each_cell_grid_once(monkeypatch):
    # one pass of each distinct weight law's cells per column size: the full sample and
    # the ten equal-size batches; the components Exp(1) and cre's Exp(1) share theirs
    import qtcorr.estimation as estimation
    from qtcorr.distributions import Distribution, Power

    def refuse(self, n):
        raise AssertionError("the report built an n-cell grid")

    passes, blocks = [], estimation._cell_blocks
    monkeypatch.setattr(Distribution, "cell_means", refuse)
    monkeypatch.setattr(
        estimation, "_cell_blocks", lambda h, n, *a: passes.append((h, n)) or blocks(h, n, *a)
    )
    system = StandbySystem((Exponential(1), Exponential(1)))
    rows = subadditivity_report(system, 5_000, seed=3)
    weights = [Exponential(1.0), Weibull(1.0, 0.5), Weibull(1.0, 1.0), Uniform(0.0, 1.0)]
    weights += [Pareto(0.5), Power(3.0)]
    assert passes == [(w, n) for w in weights for n in (5_000, 500)]
    monkeypatch.undo()
    assert subadditivity_report(system, 5_000, seed=3) == rows


def test_both_reports_refuse_too_few_samples_for_batch_means():
    system = StandbySystem((Exponential(1), Weibull(1, 2)))
    reports = lambda n: decompose(system, Uniform(0, 1), n), lambda n: subadditivity_report(system, n)
    for report in reports:
        with pytest.raises(DomainError, match="too small for batch-means errors"):
            report(999)
    single = StandbySystem((Weibull(1, 2),))  # the exact path samples nothing
    assert decompose(single, Uniform(0, 1), 5).mc_se == 0.0
    assert all(row.se == 0.0 for row in subadditivity_report(single, 5))


def test_one_component_rows_are_the_measures_of_the_component():
    comp = Weibull(1, 2)
    rows = {r.measure: r.lhs for r in subadditivity_report(StandbySystem((comp,)), 5)}
    want = {
        "var-bound": g_covariance(comp, comp),
        "cre": cre(comp),
        "gcre2": gcre(comp, 2),
        "gmd": gmd(comp),
        "egini0.5": extended_gini(comp, 0.5),
        "egini3": extended_gini(comp, 3.0),
    }
    assert rows.keys() == want.keys()
    for name, value in want.items():
        assert rows[name] == pytest.approx(value, rel=1e-15, abs=0.0), name


def _batch_oracle(t, value_of):
    """value_of on T's empirical law and on each batch's own Empirical law."""
    return value_of(Empirical(t)), [value_of(Empirical(b)) for b in np.array_split(t, 10)]


def _batch_se(per_batch):
    return float(np.std(per_batch, ddof=1) / math.sqrt(10))


def test_two_batch_sizes_match_a_per_batch_empirical_oracle():
    # 5,003 draws: batches of 501 and of 500 cells, one pass of each law per size
    system = StandbySystem((Exponential(1), Weibull(1, 2), Exponential(0.5)))
    n, seed, g = 5_003, 6, Pareto(0.5)
    t = _system_sample(system, n, seed)[1]
    result = decompose(system, g, n, seed)
    full, per = _batch_oracle(t, lambda d: g_covariance(d, g) * d.n / (d.n - 1))
    assert result.mc_estimate == pytest.approx(full, rel=1e-12, abs=0.0)
    assert result.mc_se == pytest.approx(_batch_se(per), rel=1e-12, abs=0.0)

    measures = {
        "cre": cre,
        "gcre2": lambda d: gcre(d, 2),
        "gmd": gmd,
        "egini0.5": lambda d: extended_gini(d, 0.5),
        "egini3": lambda d: extended_gini(d, 3.0),
    }
    rows = {r.measure: r for r in subadditivity_report(system, n, seed)}
    var, var_b = _batch_oracle(t, lambda d: g_covariance(d, d))
    comps = system.components
    shares, shares_b = _batch_oracle(t, lambda d: sum(g_covariance(c, d) for c in comps))
    want = {"var-bound": (var, shares, shares - var, _batch_se(np.subtract(shares_b, var_b)))}
    for name, fn in measures.items():
        lhs, lhs_b = _batch_oracle(t, fn)
        rhs = sum(fn(c) for c in comps)
        want[name] = lhs, rhs, rhs - lhs, _batch_se(lhs_b)
    assert rows.keys() == want.keys()
    for name, values in want.items():
        got = rows[name]
        assert (got.lhs, got.rhs, got.slack, got.se) == pytest.approx(values, rel=1e-12, abs=0.0)
