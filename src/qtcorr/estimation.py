"""Rank-based plug-in estimation of the transformed correlations.

The estimators replace the population marginal CDFs by ranks and the
population covariances by sample covariances.  Each column is sorted
once, and its order and runs of tied values serve every rank it needs.

Transform-law quantiles are exact averages over each rank's probability
cell when the law has closed-form partial quantile integrals; this keeps
the values finite for unbounded laws and, unlike the bare rank / (n + 1)
plug-in, stays unbiased enough for heavy-tailed transforms whose
pointwise quantiles have infinite variance.  Laws without partial
integrals fall back to H^{-1}(rank / (n + 1)).  The Monte Carlo indices
and the standby decomposition use the same rank-cell means.

Ties have zero probability under continuous laws but occur in real data:
a tied run shares one value (the mean of its cells, or the value at its
average rank), and each plug-in warns once per tied column at the caller.

No bias correction or interval machinery is attempted here: this is the
straight plug-in, one defensible choice among several (jackknifed or
U-statistic variants would be equally natural).
"""

from __future__ import annotations

import csv
import sys
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


def _warn_ties(label: str) -> None:
    # attribute the warning to the first frame outside this module
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(f"ties in the {label} column resolved by average ranks", stacklevel=level)


def _sorted_runs(column: np.ndarray, label: str | None = None):
    """One sort of a column: (order, sorted values, tied-run bounds or None).

    Tied runs are the sorted positions [bounds[k], bounds[k + 1]); the sort
    need not be stable, since a tied run shares one value.  Ties in a
    column named by a label warn.
    """
    order = np.argsort(column)
    ordered = column[order]
    distinct = ordered[1:] != ordered[:-1]
    bounds = None
    if not distinct.all():
        bounds = np.append(np.flatnonzero(np.r_[True, distinct]), column.size)
        if label is not None:
            _warn_ties(label)
    return order, ordered, bounds


def _pooled(sorted_values: np.ndarray, bounds: np.ndarray | None) -> np.ndarray:
    """Sorted-order values with each tied run replaced by its mean."""
    if bounds is None:
        return sorted_values
    sizes = np.diff(bounds)
    return np.repeat(np.add.reduceat(sorted_values, bounds[:-1]) / sizes, sizes)


def _unsorted(order: np.ndarray, sorted_values: np.ndarray) -> np.ndarray:
    out = np.empty(order.size)
    out[order] = sorted_values
    return out


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a nonempty array; each tied run gets its mean rank."""
    order, _, bounds = _sorted_runs(values)
    return _unsorted(order, _pooled(np.arange(1.0, values.size + 1.0), bounds))


def _cov(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.cov(a, b, ddof=1)[0, 1])


def _rank_cell_means(h: Distribution, column: np.ndarray, label: str | None = None):
    """H^{-1} at the plug-in ranks of a column, as exact rank-cell means.

    Element i gets the mean of H^{-1} over the rank(i)-th of n equal
    probability cells; a tied run shares the mean of its cells.  Exact tail
    cells bound the kernel for heavy-tailed H (pointwise: infinite variance).
    """
    order, _, bounds = _sorted_runs(column, label)
    n = column.size
    try:
        cell_means = h.cell_means(n)
    except UnsupportedOperationError:
        return _unsorted(order, h.quantile(_pooled(np.arange(1.0, n + 1.0), bounds) / (n + 1.0)))
    return _unsorted(order, _pooled(cell_means, bounds))


def estimate_beta_h(sample: PairedSample, h: Distribution) -> float:
    """Plug-in transformed correlation of the sample under transform law h.

    Ratio of the sample covariance of (x, H^{-1}(G_hat(y))) to that of
    (x, H^{-1}(F_hat(x))); exactly 1 on comonotone data and invariant
    under strictly increasing transforms of the y column.
    """
    tx = _rank_cell_means(h, sample.x, "x")
    ty = _rank_cell_means(h, sample.y, "y")
    den = _cov(sample.x, tx)
    if not den > 0.0:
        raise DegenerateError("degenerate plug-in denominator")
    return _cov(sample.x, ty) / den


def _at_average_ranks(order, bounds, other_sorted: np.ndarray) -> np.ndarray:
    """other_sorted[rank - 1] per element; a tied run reads np.interp at its average rank."""
    if bounds is not None:
        twice_mid = bounds[:-1] + bounds[1:] - 1
        mid = 0.5 * (other_sorted[twice_mid // 2] + other_sorted[(twice_mid + 1) // 2])
        other_sorted = np.repeat(mid, np.diff(bounds))
    return _unsorted(order, other_sorted)


def _rho_t_hat(sample: PairedSample) -> float:
    # Q-transform plug-in: empirical quantiles paired through ranks.
    ox, xs, bx = _sorted_runs(sample.x, "x")
    oy, ys, by = _sorted_runs(sample.y, "y")
    # G_hat^{-1}(F_hat(x_i)) pairs each x with the y order statistic at x's rank.
    gyx = _at_average_ranks(ox, bx, ys)
    fxy = _at_average_ranks(oy, by, xs)
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
