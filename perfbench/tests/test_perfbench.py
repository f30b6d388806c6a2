"""Tests of the benchmark itself: tracer hygiene, determinism, seeds, counts.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Each measured run happens in a fresh interpreter, as in the benchmark, so a
process-wide cache in qtcorr cannot turn a second run into cache hits.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# A reduced pass: every table, the Monte Carlo indices at 2,000 samples and
# the estimators on 5,000 generated pairs; prints values and layer counts.
_SMALL_PASS = """
import json, sys
import qtcorr
import workloads
from tracer import Tracer

tracer = Tracer().install() if sys.argv[1] == "1" else None
p = workloads.Pass()
x, y = workloads.gb_weibull_pairs(5000, 3)
workloads.run_tables(p, {})
workloads.run_montecarlo(p, {"seed": 3, "mc_samples": 2000})
workloads.run_estimate(p, {"samples": {"clean": qtcorr.PairedSample(x, y)}})
if tracer is not None:
    tracer.uninstall()
p.check_all()
layers = tracer.metrics() if tracer is not None else {}
print(json.dumps({
    "values": [(op["name"], op["values"]) for op in p.ops],
    "failed": [op["error"] for op in p.ops if not op["ok"]],
    "counts": {k: v for k, v in layers.items() if not k.endswith("_s")},
}))
"""

# Layer counts of one quadrature beta_h and one g_covariance.
_PINNED = """
import json
import qtcorr
from qtcorr import BivariateModel, Exponential, GumbelBarnett, Logistic
from tracer import Tracer

def counts(thunk):
    tracer = Tracer().install()
    thunk()
    tracer.uninstall()
    m = tracer.metrics()
    return [m[k] for k in ("quadrature.calls_1d", "quadrature.points_1d",
                           "quadrature.calls_2d", "quadrature.points_2d")]

gb_exp = BivariateModel(GumbelBarnett(1.0), Exponential(1.0), Exponential(1.0))
print(json.dumps({
    "beta_h": counts(lambda: qtcorr.beta_h(gb_exp, qtcorr.named_transform("cre_based"))),
    "g_covariance": counts(lambda: qtcorr.g_covariance(Exponential(1.0), Logistic(0.0, 1.0))),
}))
"""


def _fresh(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def small_runs():
    return {
        "untraced": _fresh(_SMALL_PASS, "0"),
        "traced": _fresh(_SMALL_PASS, "1"),
        "traced_again": _fresh(_SMALL_PASS, "1"),
    }


def test_small_pass_is_correct(small_runs):
    for run in small_runs.values():
        assert run["failed"] == []
        assert len(run["values"]) == 225 + 30 + 7


def test_traced_and_untraced_values_are_bit_identical(small_runs):
    assert small_runs["traced"]["values"] == small_runs["untraced"]["values"]


def test_two_traced_runs_give_identical_counts(small_runs):
    counts = small_runs["traced"]["counts"]
    assert counts == small_runs["traced_again"]["counts"]
    assert counts["quadrature.points_2d"] > 0
    assert counts["bivariate.sample_calls"] > 0
    assert counts["estimation.estimate_calls"] == 7


def test_seed_changes_generated_inputs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    for workload in ("estimate", "cli"):
        workloads.write_inputs(workload, 1, a)
        workloads.write_inputs(workload, 1, b)
        workloads.write_inputs(workload, 2, c)
    for name in ("x.npy", "y.npy", "pairs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()


def test_seed_changes_montecarlo_inputs():
    def values(seed):
        p = workloads.Pass()
        workloads.run_montecarlo(p, {"seed": seed, "mc_samples": 2000})
        p.check_all()
        return [op["values"] for op in p.ops]

    assert values(5) == values(5)
    assert values(5) != values(6)


def test_integrand_point_counts_are_pinned():
    counts = _fresh(_PINNED)
    # [calls_1d, points_1d, calls_2d, points_2d]
    assert counts["beta_h"] == [4, 390, 16, 18900]
    assert counts["g_covariance"] == [4, 390, 0, 0]


def test_tracer_patches_every_binding_and_restores_it():
    import qtcorr
    import qtcorr.correlation
    import qtcorr.decomposition
    import qtcorr.measures

    namespaces = (qtcorr, qtcorr.measures, qtcorr.correlation, qtcorr.decomposition)
    original = qtcorr.measures.g_covariance
    tracer = Tracer().install()
    try:
        wrapped = {ns.g_covariance for ns in namespaces}
        assert len(wrapped) == 1 and original not in wrapped
    finally:
        tracer.uninstall()
    assert all(ns.g_covariance is original for ns in namespaces)


def test_missing_hook_is_reported_absent(monkeypatch):
    import qtcorr.quadrature

    original = qtcorr.quadrature.integrate
    monkeypatch.delattr(qtcorr.quadrature, "integrate_2d")
    tracer = Tracer().install()
    tracer.uninstall()
    assert tracer.hooks["quadrature.integrate_2d"] == "absent"
    assert tracer.hooks["quadrature.integrate"] == "ok"
    assert qtcorr.quadrature.integrate is original
    assert set(tracer.metrics()) >= {"quadrature.calls_2d", "quadrature.points_2d"}


def test_tail_percentile_keeps_ten_samples_beyond():
    import run

    assert run.tail_pct(225) == 95  # tables: 11.25 cells beyond p95
    assert run.tail_pct(30) == 66  # montecarlo: 10.2 values beyond p66
    assert run.tail_pct(1000) == 99
    assert run.tail_pct(20) is None  # p50 is not a tail
    assert run.tail_pct(14) is None and run.tail_pct(6) is None


def test_harrell_davis_quantile():
    import run

    x = np.random.default_rng(1).normal(size=20001)
    assert abs(run.quantile(x, 0.5) - np.median(x)) < 0.01
    assert abs(run.quantile(x, 0.99) - np.percentile(x, 99)) < 0.02
    assert run.quantile([5.0], 0.5) == 5.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
