"""The four benchmark workloads: inputs, timed operations and their checks.

Input generation uses numpy only, so the driver can make the inputs without
importing qtcorr.  Everything else runs inside a worker process that has
imported qtcorr.  Each workload records one entry per operation ("op") with
its wall time; checks run after the timed region, with any tracer removed.

Why these workloads:

- ``tables``: the five reference tables, all quadrature (1-D and 2-D
  Gauss-Kronrod, law evaluation, index assembly).  Sampling stays idle.
- ``montecarlo``: the seven ``corr --all`` indices on four models plus the
  standby decomposition, all by Monte Carlo.  Copula sampling dominates;
  quadrature is idle apart from the decomposition's component integrals.
- ``estimate``: the named rank plug-in estimators on about 10**6 generated
  pairs, once as drawn and once rounded so that ties occur.  Only the
  ranking layer works: no sampling, no quadrature.
- ``cli``: cold ``python -m qtcorr.cli`` commands, the only workload that
  covers the command-line front end, import time and CSV ingestion.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE_TOL = 5e-4  # the reference-table tolerance of the package

MC_SAMPLES = 50_000  # Monte Carlo sample size per index (montecarlo workload)
ESTIMATE_PAIRS = 1_000_000  # pairs in the estimate workload's sample
TIE_DECIMALS = 2  # rounding of the tied copy
CLI_CSV_ROWS = 100_000  # rows of the CSV read by `qtcorr estimate`
CLI_MC_SAMPLES = 20_000  # --samples of the Monte Carlo CLI commands

# Monte Carlo checks: |value - reference| <= Z * unit / sqrt(n).  ``unit`` is
# sqrt(n) times the standard deviation of the statistic, measured across
# seeds (24 seeds at n = 10**4 and 8 at 5 * 10**4 for the Monte Carlo values,
# 16 seeds at 10**5 pairs for the estimators), taking the larger of the two
# and adding 30 %.  With Z = 6 a chance failure is rarer than one in 10**6
# checks; a bias of about eight standard errors fails.
Z = 6.0
MC_UNIT = {
    # montecarlo indices, by model
    "gb-weibull.beta_h": 0.8,
    "gb-weibull.beta_h_reversed": 0.7,
    "gb-weibull.pearson": 1.6,
    "gb-weibull.rho_t": 1.4,
    "gb-weibull.symmetric_tau": 0.7,
    "gb-weibull.symmetric_nu": 0.8,
    "gb-weibull.symmetric_nu_bar": 0.8,
    "amh-logistic.beta_h": 1.2,
    "amh-logistic.beta_h_reversed": 1.3,
    "amh-logistic.pearson": 1.5,
    "amh-logistic.rho_t": 1.1,
    "amh-logistic.symmetric_tau": 1.1,
    "amh-logistic.symmetric_nu": 1.1,
    "amh-logistic.symmetric_nu_bar": 1.1,
    "fgm-exp-normal.beta_h": 1.3,
    "fgm-exp-normal.beta_h_reversed": 1.3,
    "fgm-exp-normal.pearson": 1.4,
    "fgm-exp-normal.rho_t": 1.6,
    "fgm-exp-normal.symmetric_tau": 1.3,
    "fgm-exp-normal.symmetric_nu": 1.3,
    "fgm-exp-normal.symmetric_nu_bar": 1.3,
    "gaussian-normal.beta_h": 1.1,
    "gaussian-normal.beta_h_reversed": 1.0,
    "gaussian-normal.pearson": 1.0,
    "gaussian-normal.rho_t": 1.0,
    "gaussian-normal.symmetric_tau": 1.1,
    "gaussian-normal.symmetric_nu": 1.1,
    "gaussian-normal.symmetric_nu_bar": 1.1,
    # decomposition of exp:1 + exp:1 against exp:1
    "decompose.total": 1.5,
    "decompose.mc_estimate": 2.3,
    # subadditivity slacks (one-sided: slack >= -bound)
    "slack.var-bound": 1.6,
    "slack.cre": 2.3,
    "slack.gcre2": 4.0,
    "slack.gmd": 2.0,
    "slack.egini0.5": 3.8,
    "slack.egini3": 1.4,
}
ESTIMATE_UNIT = {
    "pearson": 1.2,
    "gini": 0.8,
    "or_based": 1.0,
    "cre_based": 0.9,
    "rho_t": 0.9,
    "egini0.5": 1.5,
    "egini3": 1.0,
}

# Estimators of the estimate workload: (label, name, nu, reference key), checked
# against the gb-weibull row of the non-exchangeable reference table.
ESTIMATORS = (
    ("pearson", "pearson", None, "pearson"),
    ("gini", "gini", None, "gini"),
    ("or_based", "or_based", None, "or-based"),
    ("cre_based", "cre_based", None, "cre-based"),
    ("rho_t", "rho_t", None, "rho-t"),
    ("egini0.5", "egini", 0.5, "egini0.5"),
    ("egini3", "egini", 3.0, "egini3"),
)

# CRE of Gamma(2, 1), the law of a sum of two unit exponentials: the
# integral of S(t) (t - log(1 + t)) over t > 0 with S(t) = (1 + t) e^-t,
# evaluated once with scipy.integrate.quad (error estimate 3e-14).
GAMMA2_CRE = 1.4036526376768057


def input_sizes(workload: str) -> dict:
    """Input sizes of a workload, with its op count per pass."""
    return {
        "tables": {"tables": 5, "ops": 225},
        "montecarlo": {"models": 4, "indices": 7, "mc_samples": MC_SAMPLES, "ops": 30},
        "estimate": {"pairs": ESTIMATE_PAIRS, "tie_decimals": TIE_DECIMALS, "ops": 14},
        "cli": {"csv_rows": CLI_CSV_ROWS, "samples": CLI_MC_SAMPLES, "ops": 6},
    }[workload]


# ---------------------------------------------------------------------------
# Inputs (numpy only)
# ---------------------------------------------------------------------------


def gb_weibull_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs from Gumbel-Barnett(1) with Weibull(1,2) x Weibull(1,0.5) margins.

    Exact sampler, independent of the package's: with E = -log(1 - U) the
    pair (E1, E2) has joint survival exp(-x - y - theta x y), so given E1 = x
    the second is Exp(r) or Gamma(2, r), r = 1 + theta x, the latter with
    probability theta / r.  Weibull(1, k) is E ** (1 / k).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=(1,)))
    theta = 1.0
    e1 = rng.standard_exponential(n)
    rate = 1.0 + theta * e1
    shape = np.where(rng.random(n) < theta / rate, 2.0, 1.0)
    e2 = rng.gamma(shape) / rate
    return np.sqrt(e1), e2 * e2


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the workload's generated inputs into ``directory``."""
    if workload == "estimate":
        x, y = gb_weibull_pairs(ESTIMATE_PAIRS, seed)
        np.save(directory / "x.npy", x)
        np.save(directory / "y.npy", y)
    elif workload == "cli":
        x, y = gb_weibull_pairs(CLI_CSV_ROWS, seed)
        with open(directory / "pairs.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("x", "y"))
            writer.writerows(zip(x.tolist(), y.tolist()))


# ---------------------------------------------------------------------------
# Timed operations
# ---------------------------------------------------------------------------


class Pass:
    """Op records of one pass; checks are deferred until after timing."""

    def __init__(self):
        self.ops: list[dict] = []
        self._pending: list[tuple[dict, object, object]] = []

    def time(self, name: str, thunk, check):
        """Run thunk as one op.

        ``check(result)`` runs later and yields (label, value, lo, hi)
        comparisons; the op passes when every value is finite and lies in
        its [lo, hi].
        """
        op = {"name": name, "ms": 0.0, "ok": False, "error": None, "values": []}
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # any failure of an op counts against it
            op["ms"] = (time.perf_counter() - t0) * 1e3
            op["error"] = f"{type(exc).__name__}: {exc}"
            self.ops.append(op)
            raise
        op["ms"] = (time.perf_counter() - t0) * 1e3
        self.ops.append(op)
        self._pending.append((op, result, check))
        return result

    def attempt(self, name: str, thunk, check) -> None:
        """Like time(), but a failing op is recorded and the pass goes on."""
        try:
            self.time(name, thunk, check)
        except Exception:  # recorded in the op by time()
            pass

    def check_all(self) -> None:
        """Compare every result with its reference; failures mark the op."""
        for op, result, check in self._pending:
            try:
                comparisons = list(check(result))
            except Exception as exc:  # a check that cannot run is a failure
                op["error"] = f"check failed: {type(exc).__name__}: {exc}"
                continue
            bad = []
            for label, value, lo, hi in comparisons:
                op["values"].append(value)
                if not (math.isfinite(value) and lo <= value <= hi):
                    bad.append(f"{label}={value!r} outside [{lo!r}, {hi!r}]")
            op["ok"] = not bad
            if bad:
                op["error"] = "; ".join(bad)
        self._pending.clear()


def _near(label, value, ref, bound):
    return (label, value, ref - bound, ref + bound)


def _se_bound(unit: float, n: int) -> float:
    return Z * unit / math.sqrt(n)


# -- tables -----------------------------------------------------------------


def run_tables(p: Pass, _ctx) -> None:
    """Every cell of the five reference tables; op = one cell."""
    import qtcorr.tables as tables

    def cell_check(cell):
        if cell.error is not None or cell.computed is None:
            raise ValueError(cell.error or "no value")
        return [_near(cell.col, cell.computed, cell.reference, TABLE_TOL)]

    original = tables._cell  # the per-cell entry point of run_table
    table_id = None

    def timed_cell(row, col, reference, thunk):
        try:
            return p.time(
                f"{table_id}:{row}:{col}",
                lambda: original(row, col, reference, thunk),
                cell_check,
            )
        except Exception as exc:  # keep the table going; the op is failed
            return tables.TableCell(row, col, None, reference, error=str(exc))

    tables._cell = timed_cell
    try:
        for table_id in tables.TABLE_IDS:
            tables.run_table(table_id)
    finally:
        tables._cell = original


# -- montecarlo -------------------------------------------------------------

_MC_INDICES = (
    "beta_h",
    "beta_h_reversed",
    "pearson",
    "rho_t",
    "symmetric_tau",
    "symmetric_nu",
    "symmetric_nu_bar",
)


def mc_models():
    from qtcorr import (
        AMH,
        FGM,
        BivariateModel,
        Exponential,
        GaussianCopula,
        GumbelBarnett,
        Logistic,
        Normal,
        Weibull,
    )

    return {
        "gb-weibull": BivariateModel(GumbelBarnett(1.0), Weibull(1.0, 2.0), Weibull(1.0, 0.5)),
        "amh-logistic": BivariateModel(AMH(-1.0), Logistic(0.0, 1.0), Logistic(0.0, 1.0)),
        "fgm-exp-normal": BivariateModel(FGM(1.0), Exponential(1.0), Normal(0.0, 1.0)),
        "gaussian-normal": BivariateModel(GaussianCopula(0.6), Normal(0.0, 1.0), Normal(0.0, 1.0)),
    }


@functools.lru_cache(maxsize=None)
def mc_references(model_name: str) -> dict[str, float]:
    """Population values of the seven indices with H = exp:1."""
    from qtcorr import Exponential, Normal, fgm_beta_closed_form, g_covariance
    from qtcorr.correlation import CorrelationSpec
    from qtcorr.tables import (
        EXCHANGEABLE_REF,
        FGM_RHOT_REF,
        NONEXCHANGEABLE_REF,
        SYMMETRIC_REF,
    )

    if model_name == "gb-weibull":
        b_xy, b_yx, tau, nu, nu_bar = SYMMETRIC_REF["cre-based"]
        pearson = NONEXCHANGEABLE_REF[("gb-weibull", "pearson")][0]
        rho_t = NONEXCHANGEABLE_REF[("gb-weibull", "rho-t")][0]
    elif model_name == "amh-logistic":
        # exchangeable with equal margins: both directions agree, rho_t = rho
        b = EXCHANGEABLE_REF[("bivariate-logistic", "cre-based")][0]
        b_xy = b_yx = tau = nu = b
        nu_bar = 1.0 - b
        pearson = rho_t = EXCHANGEABLE_REF[("bivariate-logistic", "pearson")][0]
    elif model_name == "fgm-exp-normal":
        h = Exponential(1.0)
        spec = CorrelationSpec(h)
        b_xy = fgm_beta_closed_form(Exponential(1.0), spec, 1.0)
        b_yx = fgm_beta_closed_form(Normal(0.0, 1.0), spec, 1.0)
        eta_x = g_covariance(Exponential(1.0), h)
        eta_y = g_covariance(Normal(0.0, 1.0), h)
        tau = 0.5 * (b_xy + b_yx)
        nu = (eta_x * b_xy + eta_y * b_yx) / (eta_x + eta_y)
        nu_bar = 1.0 - nu
        pearson, rho_t = FGM_RHOT_REF[("exponential", "normal")]
    else:
        # bivariate normal: E[X | Y] = rho Y, so every index equals rho
        b_xy = b_yx = tau = nu = pearson = rho_t = 0.6
        nu_bar = 0.4
    return {
        "beta_h": b_xy,
        "beta_h_reversed": b_yx,
        "pearson": pearson,
        "rho_t": rho_t,
        "symmetric_tau": tau,
        "symmetric_nu": nu,
        "symmetric_nu_bar": nu_bar,
    }


def _decompose_checks(total, mc_estimate, n):
    return [
        _near("total", total, GAMMA2_CRE, _se_bound(MC_UNIT["decompose.total"], n)),
        _near(
            "mc_estimate",
            mc_estimate,
            GAMMA2_CRE,
            _se_bound(MC_UNIT["decompose.mc_estimate"], n),
        ),
    ]


def _subadditivity_checks(rows, n):
    # slack = components' total - system value; nonnegative up to MC error
    return [
        (f"{m}.slack", slack, -_se_bound(MC_UNIT[f"slack.{m}"], n), math.inf)
        for m, slack in rows
    ]


def run_montecarlo(p: Pass, ctx) -> None:
    """Seven indices on four models, then decompose and subadditivity."""
    import qtcorr

    n = ctx["mc_samples"]
    cfg = qtcorr.IntegrationConfig(method="monte_carlo", mc_samples=n, seed=ctx["seed"])
    spec = qtcorr.CorrelationSpec(qtcorr.Exponential(1.0))
    for model_name, model in mc_models().items():
        for index in _MC_INDICES:
            fn = getattr(qtcorr, index)
            args = (model, cfg) if index in ("pearson", "rho_t") else (model, spec, cfg)

            def check(value, model_name=model_name, index=index):
                ref = mc_references(model_name)[index]
                unit = MC_UNIT[f"{model_name}.{index}"]
                return [_near(index, value, ref, _se_bound(unit, n))]

            p.attempt(f"{model_name}:{index}", lambda fn=fn, args=args: fn(*args), check)

    system = qtcorr.StandbySystem((qtcorr.Exponential(1.0), qtcorr.Exponential(1.0)))
    p.attempt(
        "decompose",
        lambda: qtcorr.decompose(system, qtcorr.Exponential(1.0), n, ctx["seed"]),
        lambda r: _decompose_checks(r.total, r.mc_estimate, n),
    )
    p.attempt(
        "subadditivity_report",
        lambda: qtcorr.subadditivity_report(system, n, ctx["seed"]),
        lambda rows: _subadditivity_checks([(r.measure, r.slack) for r in rows], n),
    )


# -- estimate ---------------------------------------------------------------


def estimate_samples(directory: Path):
    """The drawn sample and its rounded (tied) copy."""
    from qtcorr import PairedSample

    x = np.load(directory / "x.npy")
    y = np.load(directory / "y.npy")
    return {
        "clean": PairedSample(x, y),
        "tied": PairedSample(np.round(x, TIE_DECIMALS), np.round(y, TIE_DECIMALS)),
    }


def _estimate_check(label, ref_key, n):
    from qtcorr.tables import NONEXCHANGEABLE_REF

    ref = NONEXCHANGEABLE_REF[("gb-weibull", ref_key)][0]
    bound = _se_bound(ESTIMATE_UNIT[label], n)
    return lambda value: [_near(label, value, ref, bound)]


def run_estimate(p: Pass, ctx) -> None:
    """Every named estimator on the clean sample, then on the tied copy."""
    import warnings

    import qtcorr

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tie warning is expected here
        for variant, sample in ctx["samples"].items():
            for label, which, nu, ref_key in ESTIMATORS:
                p.attempt(
                    f"{variant}:{label}",
                    lambda s=sample, w=which, v=nu: qtcorr.estimate_named(s, w, v),
                    _estimate_check(label, ref_key, sample.n),
                )


# -- cli --------------------------------------------------------------------


def cli_commands(seed: int, csv_path: Path) -> list[tuple[str, list[str]]]:
    samples = str(CLI_MC_SAMPLES)
    return [
        ("table-fgm-beta", ["table", "fgm-beta"]),
        ("table-symmetric", ["table", "symmetric"]),
        (
            "corr-gb-weibull",
            ["corr", "--copula", "gb:1", "--fx", "weibull:1:2", "--gy", "weibull:1:0.5",
             "--h", "exp:1", "--all"],
        ),
        (
            "corr-gaussian-mc",
            ["corr", "--copula", "gaussian:0.6", "--fx", "normal:0:1", "--gy", "normal:0:1",
             "--h", "exp:1", "--all", "--samples", samples, "--seed", str(seed)],
        ),
        ("estimate-csv", ["estimate", "--input", str(csv_path), "--named", "gini"]),
        (
            "decompose",
            ["decompose", "--components", "exp:1,exp:1", "--g", "exp:1",
             "--samples", samples, "--seed", str(seed)],
        ),
    ]


_CORR_KEYS = {
    "beta_xy": "beta_h",
    "beta_yx": "beta_h_reversed",
    "pearson": "pearson",
    "rho_t": "rho_t",
    "tau": "symmetric_tau",
    "nu": "symmetric_nu",
    "nu_bar": "symmetric_nu_bar",
}


def _cli_check(name: str):
    def parse_pairs(text):
        return {k: float(v) for k, v in (line.split() for line in text.splitlines())}

    def check(text):
        if name.startswith("table-"):
            rows = list(csv.DictReader(text.splitlines()))
            if not rows:
                raise ValueError("empty table")
            return [
                _near(f"{r['row']}/{r['col']}", float(r["computed"] or "nan"),
                      float(r["reference"]), TABLE_TOL)
                for r in rows
            ]
        if name == "corr-gb-weibull":
            refs = mc_references("gb-weibull")
            values = parse_pairs(text)
            return [_near(k, values[k], refs[i], TABLE_TOL) for k, i in _CORR_KEYS.items()]
        if name == "corr-gaussian-mc":
            refs = mc_references("gaussian-normal")
            values = parse_pairs(text)
            return [
                _near(k, values[k], refs[i],
                      _se_bound(MC_UNIT[f"gaussian-normal.{i}"], CLI_MC_SAMPLES))
                for k, i in _CORR_KEYS.items()
            ]
        if name == "estimate-csv":
            values = parse_pairs(text)
            if int(values["n"]) != CLI_CSV_ROWS:
                raise ValueError(f"read {values['n']} rows, wrote {CLI_CSV_ROWS}")
            return _estimate_check("gini", "gini", CLI_CSV_ROWS)(values["estimate"])
        rows = list(csv.reader(text.splitlines()))[1:]
        identity = next(r for r in rows if r[0] == "summary")
        slacks = [(r[1], float(r[4])) for r in rows if r[0] == "subadditivity"]
        return _decompose_checks(
            float(identity[2]), float(identity[3]), CLI_MC_SAMPLES
        ) + _subadditivity_checks(slacks, CLI_MC_SAMPLES)

    return check


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so cleanup code runs and children stop."""

    def handler(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def child_env() -> dict:
    """Environment for a child interpreter that imports qtcorr from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_cli(p: Pass, ctx) -> None:
    """Each command as a cold subprocess, one at a time; op = one command."""
    env = child_env()
    for i, (name, args) in enumerate(cli_commands(ctx["seed"], ctx["inputs"] / "pairs.csv")):
        if ctx["trace_dir"] is None:
            cmd = [sys.executable, "-m", "qtcorr.cli", *args]
        else:
            out = ctx["trace_dir"] / f"cli-{i}.json"
            out.unlink(missing_ok=True)  # left by an earlier pass
            ctx["trace_files"].append(out)
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")),
                   str(out), *args]

        def run(cmd=cmd):
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout

        p.attempt(name, run, _cli_check(name))


RUNNERS = {
    "tables": run_tables,
    "montecarlo": run_montecarlo,
    "estimate": run_estimate,
    "cli": run_cli,
}
