"""qtcorr: transformed correlation coefficients and the covariance-based
variability measures they unify, for analytic bivariate models and data.

Highlights
----------
- a catalog of univariate laws with quantile machinery (`distributions`)
- the coupled-quantile covariance and its special cases: variance, Gini
  mean difference, cumulative residual entropy, extended Gini, log-odds
  covariance, record-value gaps (`measures`)
- copula families with seeded conditional-inversion sampling (`bivariate`)
- the unified transformed correlation, its named special cases, symmetric
  versions and the FGM closed form (`correlation`)
- rank plug-in estimators for paired data (`estimation`)
- the standby-system decomposition with subadditivity reporting
  (`decomposition`)
- reference-table reproduction and a CLI (`tables`, `cli`)
"""

from .bivariate import (
    AMH,
    BivariateModel,
    Copula,
    FGM,
    FrechetLower,
    FrechetUpper,
    GaussianCopula,
    GumbelBarnett,
    Independence,
    child_rng,
    parse_copula,
    reflect_x,
    reflect_y,
)
from .correlation import (
    CorrelationSpec,
    beta_h,
    beta_h_reversed,
    dependence_integral,
    fgm_beta_closed_form,
    named_transform,
    pearson,
    rho_t,
    rho_t_scale,
    symmetric_nu,
    symmetric_nu_bar,
    symmetric_tau,
)
from .decomposition import (
    DecompositionResult,
    StandbySystem,
    SubadditivityRow,
    decompose,
    subadditivity_report,
)
from .distributions import (
    Affine,
    Distribution,
    Empirical,
    ExpTransformed,
    Exponential,
    Gumbel,
    Laplace,
    Logistic,
    Normal,
    Pareto,
    Power,
    Reflected,
    Uniform,
    Weibull,
    parse_distribution,
    q_transform,
)
from .errors import (
    DegenerateError,
    DomainError,
    NumericalError,
    QtcorrError,
    UnsupportedOperationError,
)
from .estimation import PairedSample, estimate_beta_h, estimate_named, load_pairs_csv
from .measures import (
    IntegrationConfig,
    cre,
    equilibrium_entropy,
    extended_gini,
    g_covariance,
    gcre,
    gmd,
    log_odds_covariance,
    record_mean_gap,
)
from .tables import TABLE_IDS, TableCell, run_table

__version__ = "0.1.0"
