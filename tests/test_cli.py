"""Command-line front end: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qtcorr
from qtcorr.cli import main
from qtcorr.errors import DomainError, NumericalError
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


def test_corr_gaussian_defaults_to_quadrature(capsys):
    outs = []
    for seed in ("1", "2"):
        code, out, _ = run_cli(
            capsys,
            "corr", "--copula", "gaussian:0.6",
            "--fx", "normal:0:1", "--gy", "normal:2:3", "--h", "logistic:0:1",
            "--seed", seed,
        )
        assert code == 0
        outs.append(out)
    lines = dict(line.split() for line in outs[0].strip().splitlines())
    assert lines["beta_xy"] == "0.6"
    assert outs[0] == outs[1]


def test_corr_all_monte_carlo_draws_once(capsys, monkeypatch):
    from qtcorr.bivariate import GaussianCopula
    from qtcorr.correlation import _evaluator

    draws = []
    scores = GaussianCopula.scores  # the Monte Carlo draw: normal scores, never Phi of them
    monkeypatch.setattr(
        GaussianCopula, "scores", lambda self, n, rng: draws.append(n) or scores(self, n, rng)
    )
    _evaluator.cache_clear()
    code, out, _ = run_cli(
        capsys,
        "corr", "--copula", "gaussian:0.6",
        "--fx", "normal:0:1", "--gy", "normal:0:1", "--h", "exp:1",
        "--all", "--method", "mc", "--samples", "20000",
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


def test_run_table_refuses_a_bad_tolerance_or_id(capsys):
    from qtcorr.tables import run_table

    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="tolerance"):
            run_table("fgm-beta", tol=tol)
    with pytest.raises(DomainError, match="no-such-table"):
        run_table("no-such-table")
    code, out, err = run_cli(capsys, "table", "fgm-beta", "--tol", "0")
    assert (code, out) == (1, "") and "tolerance must be positive" in err


def test_decompose_has_no_method_flag(capsys):
    # its shares are always sampled and its terms always integrated
    code, out, err = run_cli(capsys, "decompose", "--components", "exp:1", "--g", "exp:1",
                             "--method", "mc")
    assert (code, out) == (1, "") and "unrecognized arguments: --method mc" in err
    for command in ("table", "corr"):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and "--method" in out


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
    # the plug-in estimators take no integration flags
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--named", "pearson", "--samples", "0"
    )
    assert (code, out) == (1, "")
    assert "--samples" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nnope,4.0\n")
    code, _, err = run_cli(capsys, "estimate", "--input", str(bad), "--named", "pearson")
    assert code == 1
    assert "2" in err
    # float() accepts nan: the row is still reported by its line
    bad.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\nnan,3\n7.0,8.0\n")
    code, out, err = run_cli(capsys, "estimate", "--input", str(bad), "--named", "gini")
    assert (code, out) == (1, "")
    assert "non-numeric or malformed rows at line(s): 4" in err


def test_estimate_nu_is_only_the_egini_weight(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    x, noise = np.random.default_rng(2).normal(size=(2, 200))
    path.write_text("".join(f"{a},{a + b}\n" for a, b in zip(x, noise)))
    for flags in (["--named", "gini"], ["--named", "pearson"], ["--h", "exp:1"]):
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), *flags, "--nu", "3")
        assert (code, out) == (1, "")
        assert err.startswith("qtcorr: error: --nu ")
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--named", "egini", "--nu", "3"
    )
    assert code == 0
    assert 0.0 < float(dict(line.split() for line in out.splitlines())["estimate"]) < 1.0
    code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--named", "egini")
    assert code == 1 and "nu" in err


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


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(qtcorr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


_WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"the import of {name} is refused")


sys.meta_path.insert(0, RefuseScipy())
from qtcorr import ExpTransformed, Normal, Weibull
from qtcorr.cli import main

GAUSSIAN = ["corr", "--copula", "gaussian:0.6", "--fx", "normal:0:1", "--gy", "logistic:0:1",
            "--h", "exp:1", "--all"]
for argv in (
    ["table", "fgm-rhot"],
    GAUSSIAN,
    GAUSSIAN + ["--method", "mc", "--samples", "20000", "--seed", "1"],
    ["corr", "--copula", "fgm:0.5", "--fx", "gumbel:0:1", "--gy", "weibull:1:0.5",
     "--h", "normal:0:1", "--all"],
    ["decompose", "--components", "exp:1,exp:1", "--g", "exp:1", "--samples", "20000",
     "--seed", "1"],
):
    print("$", *argv, flush=True)
    print("exit", main(argv), flush=True)
cells = ExpTransformed(Normal(0.3, 0.8)).cell_means(1000)
print(*(f"{c:.10g}" for c in cells[[0, 1, 499, 500, 998, 999]]), f"{cells.mean():.10g}")
cells = Weibull(1.0, 0.05).cell_means(1000)
print(*(f"{c:.10g}" for c in cells[[0, 1, 499, 998, 999]]), f"{Weibull(1.0, 0.05).mean():.10g}")
"""


def test_qtcorr_runs_without_scipy():
    # The expected text is what the commands printed when the laws took their special
    # functions from scipy.special, except the abs_diff of fgm-rhot's four normal/normal
    # rows: 1.13816208e-07 then, 1.138162079e-07 now, the computed value one ulp apart; and
    # the Monte Carlo rho_t, 0.5996755092 when it read G^{-1}(U) pointwise, 0.5997329686
    # as the plug-in on the sorted columns.
    done = _run_python(_WITHOUT_SCIPY)
    assert done.returncode == 0, done.stderr
    want = (Path(__file__).parent / "without_scipy.txt").read_text()
    assert done.stdout == want


def test_no_command_imports_a_module(tmp_path):
    # scipy used to import numpy.random and numpy.ma at start-up; without it, the first
    # command to need one would pay its import inside its own time.  argparse imports
    # locale on its first parse (for gettext), so one parse comes before the snapshot.
    path = tmp_path / "pairs.csv"
    x, noise = np.random.default_rng(2).normal(size=(2, 300))
    path.write_text("x,y\n" + "".join(f"{a},{a + b}\n" for a, b in zip(x, noise)))
    code = f"""
import contextlib, io, sys
from qtcorr.cli import build_parser, main
build_parser().parse_args(["table", "symmetric"])
before = set(sys.modules)
for argv in (
    ["corr", "--copula", "amh:0.5", "--fx", "logistic:0:1", "--gy", "normal:0:1",
     "--h", "exp:1", "--all", "--method", "mc", "--samples", "2000", "--seed", "1"],
    ["decompose", "--components", "exp:1,weibull:1:2", "--g", "exp:1", "--samples", "2000",
     "--seed", "1"],
    ["table", "symmetric"],
    ["estimate", "--input", {str(path)!r}, "--named", "gini"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(set(sys.modules) - before))
"""
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--input", "{tmp}/missing.csv", "--named", "gini"),
        ("corr", "--copula", "fgm:0.5", "--fx", "exp:1", "--gy", "exp:1", "--h", "exp:1",
         "--output", "{tmp}/no-such-dir/x"),
    ],
    ids=["input", "output"],
)
def test_a_file_error_is_a_usage_error_without_a_traceback(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("qtcorr: error: ") and "No such file or directory" in err
    assert err.count("\n") == 1


def test_an_input_that_is_not_utf8_is_a_usage_error_without_a_traceback(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_bytes(b"x,y\n1,2\ncaf\xe9,3\n4,5\n6,7\n")
    code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--named", "gini")
    assert code == 1 and out == ""
    assert err == f"qtcorr: error: {path} is not UTF-8 text at byte offset 11\n"


def test_a_nul_byte_is_a_usage_error_naming_its_line(capsys, tmp_path):
    # Python 3.10's csv refuses the byte, later versions read a malformed row
    path = tmp_path / "pairs.csv"
    path.write_bytes(b"x,y\n1,2\n3,4\n5,6\nbad\0,1\n")
    code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--named", "gini")
    assert code == 1 and out == ""
    assert err.startswith("qtcorr: error: ") and err.count("\n") == 1
    assert re.search(r"\bline(\(s\):)? 5\b", err)


def test_a_library_warning_prints_as_one_line(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1,1\n2,1\n3,2\n4,3\n")
    shown = warnings.showwarning
    for _ in range(2):  # and again on the next command in the same process
        code, out, err = run_cli(capsys, "estimate", "--input", str(path), "--named", "gini")
        assert code == 0 and out.startswith("estimate ")
        assert err == "qtcorr: warning: ties in the y column resolved by average ranks\n"
    assert warnings.showwarning is shown  # library callers keep Python's display


def test_numerical_failure_exit_code(capsys):
    # g(Pareto(0.9), Pareto(0.05)) integrates (1 - u)^-0.1 (1 - u)^-0.95, which diverges
    code, _, err = run_cli(
        capsys,
        "corr", "--copula", "fgm:0.5",
        "--fx", "pareto:0.9", "--gy", "exp:1", "--h", "pareto:0.05",
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
