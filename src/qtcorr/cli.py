"""Command-line front end: reference tables, ad-hoc correlations,
estimation from CSV data, and standby-system decomposition.

Exit codes: 0 success (tables: all cells within tolerance), 1 usage, parse
or file error, 2 numerical failure, 3 tolerance breach in table mode.
Output is byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bivariate import BivariateModel, parse_copula
from .correlation import (
    CorrelationSpec,
    beta_h,
    beta_h_reversed,
    pearson,
    rho_t,
    symmetric_nu,
    symmetric_nu_bar,
    symmetric_tau,
)
from .decomposition import StandbySystem, decompose, subadditivity_report
from .distributions import parse_distribution
from .errors import DomainError, NumericalError
from .estimation import _NAMED_ESTIMATORS, estimate_beta_h, estimate_named, load_pairs_csv
from .measures import IntegrationConfig
from .tables import DEFAULT_TABLE_TOL, TABLE_IDS, run_table


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _config(args) -> IntegrationConfig:
    # only the flags given: the defaults live in IntegrationConfig alone
    method = getattr(args, "method", None)  # decompose has no --method
    given = {
        "method": "monte_carlo" if method == "mc" else method,
        "abs_tol": args.quad_tol,
        "mc_samples": args.samples,
        "seed": args.seed,
    }
    return IntegrationConfig(**{k: v for k, v in given.items() if v is not None})


def _cmd_table(args) -> int:
    tol = args.tol if args.tol is not None else DEFAULT_TABLE_TOL
    cells, ok = run_table(args.table_id, _config(args), tol)
    if args.format == "json":
        payload = {
            "table": args.table_id,
            "tolerance": tol,
            "cells": [
                {
                    "row": c.row,
                    "col": c.col,
                    "computed": c.computed,
                    "reference": c.reference,
                    "abs_diff": None if c.computed is None else c.diff,
                    "error": c.error,
                }
                for c in cells
            ],
            "all_within_tolerance": ok,
        }
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        rows = [
            (
                c.row,
                c.col,
                "" if c.computed is None else _fmt(c.computed),
                _fmt(c.reference),
                "" if c.computed is None else _fmt(c.diff),
                c.error or "",
            )
            for c in cells
        ]
        _write(
            _csv_text(("row", "col", "computed", "reference", "abs_diff", "error"), rows),
            args.output,
        )
    if any(c.error for c in cells):
        return 2
    return 0 if ok else 3


def _cmd_corr(args) -> int:
    copula = parse_copula(args.copula)
    fx = parse_distribution(args.fx)
    gy = parse_distribution(args.gy)
    h = parse_distribution(args.h)
    model = BivariateModel(copula, fx, gy)
    spec = CorrelationSpec(h)
    cfg = _config(args)
    values = {
        "beta_xy": beta_h(model, spec, cfg),
        "beta_yx": beta_h_reversed(model, spec, cfg),
    }
    if args.all:
        values["pearson"] = pearson(model, cfg)
        values["rho_t"] = rho_t(model, cfg)
        values["tau"] = symmetric_tau(model, spec, cfg)
        values["nu"] = symmetric_nu(model, spec, cfg)
        values["nu_bar"] = symmetric_nu_bar(model, spec, cfg)
    if args.format == "json":
        _write(json.dumps(values, indent=2) + "\n", args.output)
    else:
        lines = [f"{k} {_fmt(v)}" for k, v in values.items()]
        _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_estimate(args) -> int:
    if (args.h is None) == (args.named is None):
        raise DomainError("provide exactly one of --h or --named")
    if args.nu is not None and args.named != "egini":
        raise DomainError("--nu is the extended Gini weight; it applies only to --named egini")
    sample = load_pairs_csv(args.input)
    if args.h is not None:
        value = estimate_beta_h(sample, parse_distribution(args.h))
    else:
        value = estimate_named(sample, args.named, args.nu)
    if args.format == "json":
        _write(json.dumps({"estimate": value, "n": sample.n}, indent=2) + "\n", args.output)
    else:
        _write(f"estimate {_fmt(value)}\nn {sample.n}\n", args.output)
    return 0


def _cmd_decompose(args) -> int:
    specs = [tok for tok in args.components.split(",") if tok.strip()]
    if not specs:
        raise DomainError("--components needs at least one distribution spec")
    system = StandbySystem(tuple(parse_distribution(tok) for tok in specs))
    g = parse_distribution(args.g)
    cfg = _config(args)
    result = decompose(system, g, cfg.mc_samples, cfg.seed, cfg)
    report = subadditivity_report(system, cfg.mc_samples, cfg.seed, cfg)
    residual = abs(result.total - result.mc_estimate)
    if args.format == "json":
        payload = {
            "terms": [{"beta": b, "c": c} for b, c in result.terms],
            "total": result.total,
            "mc_estimate": result.mc_estimate,
            "mc_se": result.mc_se,
            "identity_residual": residual,
            "subadditivity": [
                {
                    "measure": r.measure,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "slack": r.slack,
                    "se": r.se,
                }
                for r in report
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        rows = [
            ("term", f"component-{i}", _fmt(b), _fmt(c), "", "")
            for i, (b, c) in enumerate(result.terms)
        ]
        rows.append(
            (
                "summary",
                "identity",
                _fmt(result.total),
                _fmt(result.mc_estimate),
                _fmt(result.mc_se),
                _fmt(residual),
            )
        )
        rows += [
            ("subadditivity", r.measure, _fmt(r.lhs), _fmt(r.rhs), _fmt(r.slack), _fmt(r.se))
            for r in report
        ]
        _write(_csv_text(("record", "label", "a", "b", "c", "d"), rows), args.output)
    return 0


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def _add_common(parser: argparse.ArgumentParser, method: bool = True) -> None:
    _add_output(parser)
    if method:  # decompose always samples its shares and integrates its terms
        parser.add_argument("--method", choices=("quadrature", "mc"))
    parser.add_argument(
        "--quad-tol", type=float, default=None, help="quadrature absolute tolerance"
    )
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtcorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_table = sub.add_parser("table", help="reproduce a reference table")
    p_table.add_argument("table_id", choices=TABLE_IDS)
    p_table.add_argument(
        "--tol", type=float, default=None, help="table comparison tolerance"
    )
    _add_common(p_table)
    p_table.set_defaults(fn=_cmd_table)

    p_corr = sub.add_parser("corr", help="transformed correlation of a model")
    p_corr.add_argument("--copula", required=True)
    p_corr.add_argument("--fx", required=True, help="X margin spec, e.g. exp:1")
    p_corr.add_argument("--gy", required=True, help="Y margin spec")
    p_corr.add_argument("--h", required=True, help="transform law spec")
    p_corr.add_argument("--all", action="store_true", help="also print the derived indices")
    _add_common(p_corr)
    p_corr.set_defaults(fn=_cmd_corr)

    p_est = sub.add_parser("estimate", help="plug-in estimate from a two-column CSV")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--h", default=None, help="transform law spec")
    p_est.add_argument("--named", choices=_NAMED_ESTIMATORS, default=None)
    p_est.add_argument("--nu", type=float, default=None, help="weight of --named egini")
    _add_output(p_est)
    p_est.set_defaults(fn=_cmd_estimate)

    p_dec = sub.add_parser("decompose", help="standby-system variability decomposition")
    p_dec.add_argument("--components", required=True, help="comma-separated margin specs")
    p_dec.add_argument("--g", required=True, help="target law spec")
    _add_common(p_dec, method=False)
    p_dec.set_defaults(fn=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:  # OSError: an --input or --output path that fails
        print(f"qtcorr: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"qtcorr: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
