"""Command-line front end: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qtcorr
from qtcorr.cli import main
from qtcorr.errors import NumericalError
from qtcorr.tables import _cell


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corr_plain_output(capsys):
    code, out, _ = run_cli(
        capsys, "corr", "--copula", "gb:1", "--fx", "exp:1", "--gy", "exp:1", "--h", "exp:1"
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["beta_xy"]) == pytest.approx(-0.40365, abs=5e-4)
    assert float(lines["beta_yx"]) == pytest.approx(-0.40365, abs=5e-4)


def test_corr_json_roundtrip_and_all(capsys):
    code, out, _ = run_cli(
        capsys,
        "corr",
        "--copula",
        "gb:1",
        "--fx",
        "weibull:1:2",
        "--gy",
        "weibull:1:0.5",
        "--h",
        "uniform:0:1",
        "--all",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"beta_xy", "beta_yx", "pearson", "rho_t", "tau", "nu", "nu_bar"}
    assert data["nu_bar"] == pytest.approx(1.0 - data["nu"], abs=1e-12)
    assert data["beta_xy"] == pytest.approx(-0.53692, abs=5e-4)


def test_corr_independence_is_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "corr", "--copula", "independence",
        "--fx", "uniform:0:1", "--gy", "exp:1", "--h", "uniform:0:1",
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["beta_xy"]) == pytest.approx(0.0, abs=1e-6)


def test_corr_frechet_upper(capsys):
    code, out, _ = run_cli(
        capsys,
        "corr", "--copula", "frechet-upper",
        "--fx", "weibull:1:2", "--gy", "exp:1", "--h", "logistic:0:1",
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["beta_xy"]) == pytest.approx(1.0, abs=5e-4)


def test_corr_gaussian_defaults_to_monte_carlo(capsys):
    code, out, _ = run_cli(
        capsys,
        "corr", "--copula", "gaussian:0.6",
        "--fx", "normal:0:1", "--gy", "normal:2:3", "--h", "logistic:0:1",
        "--samples", "200000",
    )
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["beta_xy"]) == pytest.approx(0.6, abs=0.01)


def test_corr_all_monte_carlo_draws_once(capsys, monkeypatch):
    from qtcorr.bivariate import GaussianCopula
    from qtcorr.correlation import _evaluator

    draws = []
    sample = GaussianCopula.sample
    monkeypatch.setattr(
        GaussianCopula, "sample", lambda self, n, rng: draws.append(n) or sample(self, n, rng)
    )
    _evaluator.cache_clear()
    code, out, _ = run_cli(
        capsys,
        "corr", "--copula", "gaussian:0.6",
        "--fx", "normal:0:1", "--gy", "normal:0:1", "--h", "exp:1",
        "--all", "--samples", "20000",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    assert draws == [20_000]


def test_corr_all_quadrature_integrates_each_dependence_covariance_once(capsys, monkeypatch):
    import qtcorr.correlation as correlation

    calls = []
    integral = correlation.dependence_integral
    monkeypatch.setattr(
        correlation, "dependence_integral", lambda *a: calls.append(a[1:3]) or integral(*a)
    )
    correlation._evaluator.cache_clear()
    code, out, _ = run_cli(
        capsys,
        "corr", "--copula", "gb:1", "--fx", "weibull:1:2", "--gy", "weibull:1:0.5",
        "--h", "exp:1", "--all",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    # (F, H) for beta_xy, (H, G) for beta_yx and (F, G) for pearson and rho_t
    assert len(calls) == 3 == len(set(calls))


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "corr", "--copula", "gb:oops", "--fx", "exp:1", "--gy", "exp:1", "--h", "exp:1"
    )
    assert code == 1
    assert "oops" in err


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "table", "no-such-table")[0] == 1
    assert run_cli(capsys, "nosuchcommand")[0] == 1


def test_tol_is_only_the_table_comparison_tolerance(capsys):
    corr = ("corr", "--copula", "fgm:0.5", "--fx", "exp:1", "--gy", "exp:1", "--h", "exp:1")
    code, out, err = run_cli(capsys, *corr, "--tol", "1e-6")
    assert (code, out) == (1, "")
    assert "--tol" in err
    assert run_cli(capsys, *corr, "--quad-tol", "1e-6")[0] == 0
    assert run_cli(capsys, "decompose", "--components", "exp:1", "--g", "exp:1",
                   "--tol", "1e-6")[0] == 1


def test_table_spec_takes_the_tolerance_second():
    import dataclasses

    from qtcorr.tables import DEFAULT_TABLE_TOL, TableSpec

    assert TableSpec("fgm-beta", 1e-3).tol == 1e-3
    assert TableSpec("fgm-beta").tol == DEFAULT_TABLE_TOL
    assert [f.name for f in dataclasses.fields(TableSpec)] == ["table_id", "tol", "cfg"]


def test_table_csv_and_exit_codes(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code = main(["table", "fgm-beta", "--output", str(out_path)])
    assert code == 0
    rows = list(csv.reader(out_path.open()))
    assert rows[0] == ["row", "col", "computed", "reference", "abs_diff", "error"]
    assert len(rows) == 1 + 48
    assert all(float(r[4]) <= 5e-4 for r in rows[1:])
    # an absurd tolerance must breach -> exit 3
    code = main(["table", "fgm-beta", "--tol", "1e-9", "--output", str(out_path)])
    assert code == 3


def test_table_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "table", "symmetric", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_within_tolerance"] is True
    assert len(data["cells"]) == 25
    nu_bar = {c["row"]: c["computed"] for c in data["cells"] if c["col"] == "nu-bar"}
    nu = {c["row"]: c["computed"] for c in data["cells"] if c["col"] == "nu"}
    for key in nu:
        assert nu_bar[key] == pytest.approx(1.0 - nu[key], abs=1e-12)


def test_byte_identical_reruns(capsys):
    args = ["table", "fgm-beta", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_comonotone(capsys, tmp_path):
    path = tmp_path / "mono.csv"
    x = np.linspace(0, 1, 100)
    path.write_text("".join(f"{a},{a**3}\n" for a in x))
    code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--h", "logistic:0:1")
    assert code == 0
    lines = dict(line.split() for line in out.strip().splitlines())
    assert float(lines["estimate"]) == 1.0
    assert int(lines["n"]) == 100


def test_estimate_named_and_errors(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    y = -x + 0.1 * rng.normal(size=500)
    path.write_text("".join(f"{a},{b}\n" for a, b in zip(x, y)))
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--named", "pearson", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["estimate"] < -0.9
    # exactly one of --h/--named
    assert run_cli(capsys, "estimate", "--input", str(path))[0] == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnope,4.0\n")
    code, _, err = run_cli(capsys, "estimate", "--input", str(bad), "--named", "pearson")
    assert code == 1
    assert "2" in err


def test_decompose_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--components", "exp:1,exp:1", "--g", "uniform:0:1",
        "--samples", "100000", "--seed", "3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["record", "label", "a", "b", "c", "d"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("term") == 2
    assert kinds.count("summary") == 1
    assert kinds.count("subadditivity") == 6
    summary = next(r for r in rows[1:] if r[0] == "summary")
    total, mc_estimate, mc_se, residual = map(float, summary[2:])
    assert residual <= 3.0 * mc_se + 5e-3
    gmd_row = next(r for r in rows[1:] if r[1] == "gmd")
    assert float(gmd_row[4]) == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize(
    "argv",
    [
        ("corr", "--copula", "fgm:0.5", "--fx", "exp:1", "--gy", "exp:1",
         "--h", "exp:1", "--method", "mc", "--samples", "0"),
        ("decompose", "--components", "exp:1,exp:1", "--g", "exp:1", "--samples", "0"),
    ],
)
def test_zero_samples_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "mc_samples" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(qtcorr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qtcorr.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_numerical_failure_exit_code(capsys):
    # a transform law whose coupled-quantile integral is tail-divergent
    code, _, err = run_cli(
        capsys,
        "corr", "--copula", "fgm:0.5",
        "--fx", "pareto:0.9", "--gy", "exp:1", "--h", "pareto:0.2",
    )
    assert code == 2
    assert "tail" in err


def test_numerical_failure_is_flagged_not_fatal():
    def boom():
        raise NumericalError("synthetic failure")

    cell = _cell("r", "c", 0.5, boom)
    assert cell.computed is None
    assert cell.error == "synthetic failure"
    assert cell.diff == math.inf


def test_decompose_single_component_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--components", "exp:1", "--g", "exp:1",
        "--samples", "10000", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0]["beta"] == 1.0
    assert data["identity_residual"] == 0.0
    assert all(r["slack"] == 0.0 for r in data["subadditivity"])
