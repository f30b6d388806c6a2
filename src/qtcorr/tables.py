"""Versioned reference tables and the cell-by-cell table runner.

The constants below are the published reference values this tool
reproduces, keyed by table id and cell layout.  They are frozen here so
the diff column of ``run_table`` never depends on external sources.  FGM
entries are magnitudes: the dependence parameter at -1/+1 flips the sign
of every index, so each magnitude expands into a cell pair.

Table ids:
  fgm-rhot         5x5 margin grid, Pearson and coupled-rank Pearson
  fgm-beta         margin x transform grid of transformed correlations
  exchangeable     two equal-margin models, index bounds over the
                   dependence parameter range
  nonexchangeable  the same two copulas with unequal margins
  symmetric        directed and symmetric indices for the strongest
                   negative-dependence model of the nonexchangeable grid
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivariate import AMH, BivariateModel, FGM, GumbelBarnett
from .correlation import (
    beta_h,
    beta_h_reversed,
    named_transform,
    pearson,
    rho_t,
    symmetric_nu,
    symmetric_nu_bar,
    symmetric_tau,
)
from .distributions import (
    Distribution,
    Exponential,
    Gumbel,
    Laplace,
    Logistic,
    Normal,
    Power,
    Uniform,
    Weibull,
)
from .errors import DomainError, NumericalError
from .measures import DEFAULT_CONFIG, IntegrationConfig

TABLE_IDS = ("fgm-rhot", "fgm-beta", "exchangeable", "nonexchangeable", "symmetric")

DEFAULT_TABLE_TOL = 5e-4


@dataclass(frozen=True)
class TableSpec:
    """A table request: fixed cell layout id plus comparison/numeric policy."""

    table_id: str
    tol: float = DEFAULT_TABLE_TOL
    cfg: IntegrationConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.table_id not in TABLE_IDS:
            raise DomainError(
                f"unknown table id {self.table_id!r}; expected one of {TABLE_IDS}"
            )
        if not self.tol > 0.0:
            raise DomainError("table tolerance must be positive")

    def run(self) -> tuple[list["TableCell"], bool]:
        return run_table(self.table_id, self.cfg, self.tol)

# Margins are location-scale normalized representatives; both indices in
# the fgm-rhot grid are location-scale invariant so the choice is free.
_RHOT_MARGINS: dict[str, Distribution] = {
    "uniform": Uniform(0.0, 1.0),
    "exponential": Exponential(1.0),
    "rayleigh": Weibull(1.0, 2.0),
    "logistic": Logistic(0.0, 1.0),
    "normal": Normal(0.0, 1.0),
}
_RHOT_ORDER = ("uniform", "exponential", "rayleigh", "logistic", "normal")

# fgm-rhot magnitudes: (row margin, column margin) -> (rho, rho_t)
FGM_RHOT_REF: dict[tuple[str, str], tuple[float, float]] = {
    ("uniform", "uniform"): (0.33333, 0.33333),
    ("uniform", "exponential"): (0.28867, 0.33333),
    ("uniform", "rayleigh"): (0.32352, 0.33333),
    ("uniform", "logistic"): (0.31831, 0.33333),
    ("uniform", "normal"): (0.32573, 0.33333),
    ("exponential", "uniform"): (0.28867, 0.33333),
    ("exponential", "exponential"): (0.25000, 0.25000),
    ("exponential", "rayleigh"): (0.28016, 0.29289),
    ("exponential", "logistic"): (0.27566, 0.30396),
    ("exponential", "normal"): (0.28209, 0.31233),
    ("rayleigh", "uniform"): (0.32352, 0.33333),
    ("rayleigh", "exponential"): (0.28016, 0.29289),
    ("rayleigh", "rayleigh"): (0.31396, 0.31396),
    ("rayleigh", "logistic"): (0.30892, 0.31549),
    ("rayleigh", "normal"): (0.31613, 0.32057),
    ("logistic", "uniform"): (0.31831, 0.33333),
    ("logistic", "exponential"): (0.27566, 0.30396),
    ("logistic", "rayleigh"): (0.30892, 0.31549),
    ("logistic", "logistic"): (0.30396, 0.30396),
    ("logistic", "normal"): (0.31105, 0.31233),
    ("normal", "uniform"): (0.32573, 0.33333),
    ("normal", "exponential"): (0.28209, 0.31233),
    ("normal", "rayleigh"): (0.31613, 0.32057),
    ("normal", "logistic"): (0.31105, 0.31233),
    ("normal", "normal"): (0.31831, 0.31831),
}

_BETA_MARGINS: dict[str, Distribution] = {
    "weibull(1,0.5)": Weibull(1.0, 0.5),
    "exponential(1)": Exponential(1.0),
    "weibull(1,2)": Weibull(1.0, 2.0),
    "logistic(0,1)": Logistic(0.0, 1.0),
    "extreme-value(0,1)": Gumbel(0.0, 1.0),
    "laplace(0,1)": Laplace(0.0, 1.0),
}
_BETA_MARGIN_ORDER = tuple(_BETA_MARGINS)

_INDEX_ORDER = ("cre-based", "or-based", "egini0.5", "gini", "egini3")
_INDEX_SPECS = {
    "cre-based": named_transform("cre_based"),
    "or-based": named_transform("or_based"),
    "egini0.5": named_transform("egini", 0.5),
    "gini": named_transform("gini"),
    "egini3": named_transform("egini", 3.0),
}

# fgm-beta magnitudes: (margin, transform) -> |beta|
FGM_BETA_REF: dict[tuple[str, str], float] = {
    ("weibull(1,0.5)", "cre-based"): 0.18750,
    ("weibull(1,0.5)", "or-based"): 0.26344,
    ("weibull(1,0.5)", "egini0.5"): 0.08333,
    ("weibull(1,0.5)", "egini3"): 0.42187,
    ("exponential(1)", "cre-based"): 0.25000,
    ("exponential(1)", "or-based"): 0.30396,
    ("exponential(1)", "egini0.5"): 0.16667,
    ("exponential(1)", "egini3"): 0.37500,
    ("weibull(1,2)", "cre-based"): 0.29289,
    ("weibull(1,2)", "or-based"): 0.31549,
    ("weibull(1,2)", "egini0.5"): 0.23570,
    ("weibull(1,2)", "egini3"): 0.34650,
    ("logistic(0,1)", "cre-based"): 0.30396,
    ("logistic(0,1)", "or-based"): 0.30396,
    ("logistic(0,1)", "egini0.5"): 0.24045,
    ("logistic(0,1)", "egini3"): 0.33333,
    ("extreme-value(0,1)", "cre-based"): 0.27555,
    ("extreme-value(0,1)", "or-based"): 0.30701,
    ("extreme-value(0,1)", "egini0.5"): 0.19951,
    ("extreme-value(0,1)", "egini3"): 0.35335,
    ("laplace(0,1)", "cre-based"): 0.29403,
    ("laplace(0,1)", "or-based"): 0.29403,
    ("laplace(0,1)", "egini0.5"): 0.21832,
    ("laplace(0,1)", "egini3"): 0.33333,
}
_FGM_BETA_COLS = ("cre-based", "or-based", "egini0.5", "egini3")


def _gb_exp_model(theta: float) -> BivariateModel:
    return BivariateModel(GumbelBarnett(theta), Exponential(1.0), Exponential(1.0))


def _amh_logistic_model(theta: float) -> BivariateModel:
    return BivariateModel(AMH(theta), Logistic(0.0, 1.0), Logistic(0.0, 1.0))


def _gb_weibull_model(theta: float) -> BivariateModel:
    return BivariateModel(GumbelBarnett(theta), Weibull(1.0, 2.0), Weibull(1.0, 0.5))


def _amh_power_model(theta: float) -> BivariateModel:
    return BivariateModel(AMH(theta), Power(1.5), Power(4.0 / 3.0))


# Bound tables: panel -> index -> (lower, upper); the dependence-parameter
# values realizing each bound sit alongside the model factory.
EXCHANGEABLE_PANELS = (
    ("gumbel-exponential", _gb_exp_model, (1.0, 0.0)),
    ("bivariate-logistic", _amh_logistic_model, (-1.0, 1.0)),
)
EXCHANGEABLE_REF: dict[tuple[str, str], tuple[float, float]] = {
    ("gumbel-exponential", "pearson"): (-0.40365, 0.0),
    ("gumbel-exponential", "cre-based"): (-0.40365, 0.0),
    ("gumbel-exponential", "or-based"): (-0.51267, 0.0),
    ("gumbel-exponential", "egini0.5"): (-0.26927, 0.0),
    ("gumbel-exponential", "gini"): (-0.55469, 0.0),
    ("gumbel-exponential", "egini3"): (-0.64125, 0.0),
    ("bivariate-logistic", "pearson"): (-0.25000, 0.50000),
    ("bivariate-logistic", "cre-based"): (-0.26516, 0.39207),
    ("bivariate-logistic", "or-based"): (-0.25000, 0.50000),
    ("bivariate-logistic", "egini0.5"): (-0.22135, 0.27865),
    ("bivariate-logistic", "gini"): (-0.27259, 0.50000),
    ("bivariate-logistic", "egini3"): (-0.26272, 0.55556),
}

NONEXCHANGEABLE_PANELS = (
    ("gb-weibull", _gb_weibull_model, (1.0, 0.0)),
    ("amh-power", _amh_power_model, (-1.0, 1.0)),
)
NONEXCHANGEABLE_REF: dict[tuple[str, str], tuple[float, float]] = {
    ("gb-weibull", "pearson"): (-0.32420, 0.0),
    ("gb-weibull", "rho-t"): (-0.43307, 0.0),
    ("gb-weibull", "cre-based"): (-0.48426, 0.0),
    ("gb-weibull", "or-based"): (-0.51759, 0.0),
    ("gb-weibull", "egini0.5"): (-0.41563, 0.0),
    ("gb-weibull", "gini"): (-0.53692, 0.0),
    ("gb-weibull", "egini3"): (-0.55776, 0.0),
    ("amh-power", "pearson"): (-0.27099, 0.39668),
    ("amh-power", "rho-t"): (-0.27212, 0.39833),
    ("amh-power", "cre-based"): (-0.26589, 0.36447),
    ("amh-power", "or-based"): (-0.27387, 0.45685),
    ("amh-power", "egini0.5"): (-0.24790, 0.29890),
    ("amh-power", "gini"): (-0.27887, 0.45177),
    ("amh-power", "egini3"): (-0.28324, 0.51025),
}

# symmetric table: index -> (beta_xy, beta_yx, tau, nu, nu_bar) for the
# gb-weibull model at full dependence strength.
SYMMETRIC_REF: dict[str, tuple[float, float, float, float, float]] = {
    "cre-based": (-0.48426, -0.29817, -0.39121, -0.31673, 1.31673),
    "or-based": (-0.51759, -0.47762, -0.49761, -0.48267, 1.48267),
    "egini0.5": (-0.41563, -0.12179, -0.26871, -0.13873, 1.13873),
    "gini": (-0.53692, -0.59375, -0.56534, -0.58537, 1.58537),
    "egini3": (-0.55776, -0.80720, -0.68248, -0.76379, 1.76379),
}
_SYMMETRIC_COLS = ("beta-xy", "beta-yx", "tau", "nu", "nu-bar")


@dataclass(frozen=True)
class TableCell:
    """One computed table cell next to its reference value."""

    row: str
    col: str
    computed: float | None
    reference: float
    error: str | None = None

    @property
    def diff(self) -> float:
        if self.computed is None:
            return float("inf")
        return abs(self.computed - self.reference)


def _cell(row: str, col: str, reference: float, thunk) -> TableCell:
    try:
        return TableCell(row, col, float(thunk()), reference)
    except NumericalError as exc:
        return TableCell(row, col, None, reference, error=str(exc))


def _index_value(model: BivariateModel, index: str, cfg: IntegrationConfig) -> float:
    if index == "pearson":
        return pearson(model, cfg)
    if index == "rho-t":
        return rho_t(model, cfg)
    return beta_h(model, _INDEX_SPECS[index], cfg)


def _fgm_rhot_cells(cfg):
    cells = []
    for row in _RHOT_ORDER:
        for col in _RHOT_ORDER:
            rho_mag, rhot_mag = FGM_RHOT_REF[(row, col)]
            for gamma in (-1.0, 1.0):
                model = BivariateModel(
                    FGM(gamma), _RHOT_MARGINS[row], _RHOT_MARGINS[col]
                )
                tag = f"{col}/gamma={gamma:+.0f}"
                cells.append(
                    _cell(row, f"{tag}/rho", gamma * rho_mag, lambda m=model: pearson(m, cfg))
                )
                cells.append(
                    _cell(row, f"{tag}/rho-t", gamma * rhot_mag, lambda m=model: rho_t(m, cfg))
                )
    return cells


def _fgm_beta_cells(cfg):
    from .correlation import fgm_beta_closed_form

    cells = []
    for row in _BETA_MARGIN_ORDER:
        for col in _FGM_BETA_COLS:
            mag = FGM_BETA_REF[(row, col)]
            for gamma in (-1.0, 1.0):
                cells.append(
                    _cell(
                        row,
                        f"{col}/gamma={gamma:+.0f}",
                        gamma * mag,
                        lambda r=row, c=col, g=gamma: fgm_beta_closed_form(
                            _BETA_MARGINS[r], _INDEX_SPECS[c], g, cfg
                        ),
                    )
                )
    return cells


def _bound_cells(panels, ref, indices, cfg):
    cells = []
    for panel, factory, thetas in panels:
        models = {side: factory(theta) for side, theta in zip(("lower", "upper"), thetas)}
        for index in indices:
            lower_ref, upper_ref = ref[(panel, index)]
            for side, reference in (("lower", lower_ref), ("upper", upper_ref)):
                cells.append(
                    _cell(
                        f"{panel}/{index}",
                        side,
                        reference,
                        lambda m=models[side], i=index: _index_value(m, i, cfg),
                    )
                )
    return cells


def _symmetric_cells(cfg):
    model = _gb_weibull_model(1.0)
    fns = (
        beta_h,
        beta_h_reversed,
        symmetric_tau,
        symmetric_nu,
        symmetric_nu_bar,
    )
    cells = []
    for index in _INDEX_ORDER:
        spec = _INDEX_SPECS[index]
        for col, fn, reference in zip(_SYMMETRIC_COLS, fns, SYMMETRIC_REF[index]):
            cells.append(
                _cell(index, col, reference, lambda f=fn, s=spec: f(model, s, cfg))
            )
    return cells


def run_table(
    table_id: str,
    cfg: IntegrationConfig = DEFAULT_CONFIG,
    tol: float = DEFAULT_TABLE_TOL,
) -> tuple[list[TableCell], bool]:
    """Compute every cell of a reference table.

    Returns the cells in fixed layout order together with a flag that is
    True when every |computed - reference| is within ``tol``.
    """
    if table_id == "fgm-rhot":
        cells = _fgm_rhot_cells(cfg)
    elif table_id == "fgm-beta":
        cells = _fgm_beta_cells(cfg)
    elif table_id == "exchangeable":
        cells = _bound_cells(
            EXCHANGEABLE_PANELS,
            EXCHANGEABLE_REF,
            ("pearson",) + _INDEX_ORDER,
            cfg,
        )
    elif table_id == "nonexchangeable":
        cells = _bound_cells(
            NONEXCHANGEABLE_PANELS,
            NONEXCHANGEABLE_REF,
            ("pearson", "rho-t") + _INDEX_ORDER,
            cfg,
        )
    elif table_id == "symmetric":
        cells = _symmetric_cells(cfg)
    else:
        raise DomainError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    ok = all(cell.diff <= tol for cell in cells)
    return cells, ok
