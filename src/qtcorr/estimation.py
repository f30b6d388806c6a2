"""Rank-based plug-in estimation of the transformed correlations.

The estimators replace the population marginal CDFs by ranks and the
population covariances by sample covariances.  Transform-law quantiles
are evaluated as exact averages over each rank's probability cell when
the law provides closed-form partial quantile integrals; this keeps the
values finite for unbounded laws and, unlike the bare rank / (n + 1)
plug-in, stays unbiased enough for heavy-tailed transforms whose
pointwise quantiles have infinite variance.  Laws without partial
integrals fall back to H^{-1}(rank / (n + 1)).

Ties get average ranks (cell averages pooled over the tied block) and
emit a warning; the underlying theory assumes continuous laws, so ties
carry zero probability under any model but do occur in real data.

No bias correction or interval machinery is attempted here: this is the
straight plug-in, one defensible choice among several (jackknifed or
U-statistic variants would be equally natural).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import DegenerateError, DomainError, UnsupportedOperationError


@dataclass(frozen=True)
class PairedSample:
    """Finite sequence of paired observations."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise DomainError("PairedSample requires two equal-length 1-d columns")
        if x.size < 3:
            raise DomainError("PairedSample requires at least 3 pairs")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("PairedSample requires finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.size)


def _warn_on_ties(column: np.ndarray, label: str) -> None:
    if np.unique(column).size < column.size:
        warnings.warn(
            f"ties in the {label} column resolved by average ranks", stacklevel=4
        )


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a nonempty array; each tied run gets its mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    bounds = np.append(np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]), values.size)
    ranks = np.empty(values.size)
    # the run over sorted positions [i, j) holds the ranks i + 1 .. j
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), np.diff(bounds))
    return ranks


def _cov(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.cov(a, b, ddof=1)[0, 1])


def _transformed_ranks(h: Distribution, column: np.ndarray, label: str) -> np.ndarray:
    """H^{-1} evaluated at the plug-in ranks of a column.

    Preferred route: the exact average of H^{-1} over each rank's
    probability cell (tied blocks share their pooled average).  Falls back
    to pointwise H^{-1}(rank / (n + 1)) when the law has no closed-form
    partial quantile integral.
    """
    _warn_on_ties(column, label)
    n = column.size
    try:
        half = n // 2
        lower = np.diff(h.quantile_integral(np.arange(half + 1) / n))
        upper = np.diff(h.quantile_integral_comp(np.arange(n - half + 1) / n))[::-1]
        cell_means = np.concatenate([lower, upper]) * n
    except UnsupportedOperationError:
        return h.quantile(average_ranks(column) / (n + 1.0))
    order = np.empty(n, dtype=np.int64)
    order[np.argsort(column, kind="stable")] = np.arange(n)
    values = cell_means[order]
    _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    if counts.max() > 1:
        sums = np.zeros(counts.size)
        np.add.at(sums, inverse, values)
        values = (sums / counts)[inverse]
    return values


def estimate_beta_h(sample: PairedSample, h: Distribution) -> float:
    """Plug-in transformed correlation of the sample under transform law h.

    Ratio of the sample covariance of (x, H^{-1}(G_hat(y))) to that of
    (x, H^{-1}(F_hat(x))); exactly 1 on comonotone data and invariant
    under strictly increasing transforms of the y column.
    """
    tx = _transformed_ranks(h, sample.x, "x")
    ty = _transformed_ranks(h, sample.y, "y")
    den = _cov(sample.x, tx)
    if not den > 0.0:
        raise DegenerateError("degenerate plug-in denominator")
    return _cov(sample.x, ty) / den


def _rho_t_hat(sample: PairedSample) -> float:
    # Q-transform plug-in: empirical quantiles paired through ranks.
    n = sample.n
    xs = np.sort(sample.x)
    ys = np.sort(sample.y)
    rx = average_ranks(sample.x)
    ry = average_ranks(sample.y)
    # G_hat^{-1}(F_hat(x_i)) pairs each x with the y order statistic at x's rank.
    gyx = np.interp(rx, np.arange(1, n + 1), ys)
    fxy = np.interp(ry, np.arange(1, n + 1), xs)
    den = _cov(sample.x, gyx) * _cov(sample.y, fxy)
    if not den > 0.0:
        raise DegenerateError("degenerate plug-in denominator")
    return _cov(sample.x, sample.y) / np.sqrt(den)


def estimate_named(sample: PairedSample, which: str, nu: float | None = None) -> float:
    """Sample analogue of a named correlation index.

    which: pearson | gini | egini (requires nu) | or_based | cre_based | rho_t
    """
    from .correlation import named_transform  # deferred: avoids an import cycle

    if which == "pearson":
        sx = float(np.std(sample.x, ddof=1))
        sy = float(np.std(sample.y, ddof=1))
        if not (sx > 0.0 and sy > 0.0):
            raise DegenerateError("zero sample variance")
        return _cov(sample.x, sample.y) / (sx * sy)
    if which == "rho_t":
        return _rho_t_hat(sample)
    spec = named_transform(which, nu)
    return estimate_beta_h(sample, spec.h)


def load_pairs_csv(path: str) -> PairedSample:
    """Read a two-column numeric CSV; optional header; strict about rows.

    Raises DomainError listing the 1-based line numbers of every malformed
    row (wrong arity or non-numeric fields).
    """
    xs: list[float] = []
    ys: list[float] = []
    bad: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != 2:
                bad.append(lineno)
                continue
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError:
                if lineno == 1:  # header row
                    continue
                bad.append(lineno)
    if bad:
        raise DomainError(
            f"non-numeric or malformed rows at line(s): {', '.join(map(str, bad))}"
        )
    return PairedSample(np.array(xs), np.array(ys))
