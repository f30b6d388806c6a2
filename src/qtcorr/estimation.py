"""Rank-based plug-in estimation of the transformed correlations.

The estimators replace the population marginal CDFs by ranks and the
population covariances by sample covariances.  A sample is sorted and
centred once for all estimators: the last sample's sorted view (3n floats,
centred in place) is kept, and every rank covariance is a blocked dot
product in sorted order that allocates nothing of the sample's size.

Transform-law quantiles are exact averages over each rank's probability
cell, from the law's partial quantile integrals; this keeps the values
finite for unbounded laws and, unlike the bare rank / (n + 1) plug-in,
stays unbiased enough for heavy-tailed transforms whose pointwise
quantiles have infinite variance.  A law without exact partial integrals
raises ``UnsupportedOperationError``.  The Monte Carlo indices and the
standby decomposition use the same rank-cell means.

Ties have zero probability under continuous laws but occur in real data:
a tied run shares one value (the mean of its cells), and each plug-in
call warns once per tied column at the caller.

No bias correction or interval machinery is attempted here: this is the
straight plug-in, one defensible choice among several (jackknifed or
U-statistic variants would be equally natural).
"""

from __future__ import annotations

import csv
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import DegenerateError, DomainError


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Finite sequence of paired observations: read-only copies, compared by identity."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise DomainError("PairedSample requires two equal-length 1-d columns")
        if x.size < 3:
            raise DomainError("PairedSample requires at least 3 pairs")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("PairedSample requires finite values")
        for name, column in (("x", x), ("y", y)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n(self) -> int:
        return int(self.x.size)


def _warn_ties(bx, by) -> None:
    """Warn once per column with tied runs, at the first frame outside this module."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    for label, bounds in (("x", bx), ("y", by)):
        if bounds is not None:
            warnings.warn(f"ties in the {label} column resolved by average ranks", stacklevel=level)


def _runs(ordered: np.ndarray) -> np.ndarray | None:
    """Tied-run bounds of sorted values, or None: runs are positions [bounds[k], bounds[k + 1])."""
    distinct = ordered[1:] != ordered[:-1]
    if distinct.all():
        return None
    return np.append(np.flatnonzero(np.r_[True, distinct]), ordered.size)


def _sorted_runs(column: np.ndarray):
    """One sort of a column: (order, sorted values, tied-run bounds or None).

    The sort need not be stable, since a tied run shares one value; callers
    that discard the order sort with ``np.sort`` and call ``_runs``.
    """
    order = np.argsort(column)
    ordered = column[order]
    return order, ordered, _runs(ordered)


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # no n-sized temporary; dots of 128 terms summed pairwise: in sorted order the products
    # share one sign over long stretches, where one running sum over 10**6 terms loses digits
    m = a.size - a.size % 128
    blocks = np.matmul(a[:m].reshape(-1, 1, 128), b[:m].reshape(-1, 128, 1))  # row-wise dots
    return float(np.sum(blocks) + np.dot(a[m:], b[m:]))


def _cov(a: np.ndarray, b: np.ndarray) -> float:
    return _dot(a - a.mean(), b - b.mean()) / (a.size - 1)


def _sorted_cells(h: Distribution, n: int, *bounds_per_column, centred=False) -> list:
    """H^{-1} rank-cell means in sorted order, one array per column's tied-run bounds.

    Position k gets the mean over the k-th of n equal cells; a tied run, its cells' mean.
    ``centred`` subtracts the grid's mean in place before pooling, which keeps it at zero.
    """
    cells = h.cell_means(n)
    if centred:
        cells -= cells.mean()
    return [_pooled(cells, b) for b in bounds_per_column]


def _rank_cell_means(h: Distribution, column: np.ndarray) -> np.ndarray:
    """H^{-1} rank-cell means at the plug-in ranks of a column, in data order."""
    order, _, bounds = _sorted_runs(column)
    return _unsorted(order, _sorted_cells(h, column.size, bounds)[0])


def _coupled_cov(h: Distribution, column: np.ndarray) -> float:
    """Cov(column, its H^{-1} rank-cell means), taken in sorted order."""
    ordered = np.sort(column)
    return _cov(ordered, _sorted_cells(h, column.size, _runs(ordered))[0])


@functools.lru_cache(maxsize=1)  # keyed on the sample's identity; holds the last sample
def _ranked(sample: PairedSample):
    """(sorted x, its tied-run bounds, sorted y, its bounds, x in the order of y), centred."""
    xs = np.sort(sample.x)
    oy, ys, by = _sorted_runs(sample.y)
    ranked = xs, _runs(xs), ys, by, sample.x[oy]
    for column in ranked[::2]:  # after finding runs: centring can merge distinct values
        column -= column.mean()
    return ranked


def estimate_beta_h(sample: PairedSample, h: Distribution) -> float:
    """Plug-in transformed correlation of the sample under transform law h.

    Ratio of the sample covariance of (x, H^{-1}(G_hat(y))) to that of
    (x, H^{-1}(F_hat(x))); exactly 1 on comonotone data and invariant
    under strictly increasing transforms of the y column.
    """
    xs, bx, _, by, x_by_y = _ranked(sample)
    _warn_ties(bx, by)
    tx, ty = _sorted_cells(h, sample.n, bx, by, centred=True)
    den = _dot(xs, tx)
    if not den > 0.0:
        raise DegenerateError("degenerate plug-in denominator")
    return _dot(x_by_y, ty) / den


def _at_average_ranks(bounds, other_sorted: np.ndarray) -> np.ndarray:
    """other_sorted at each sorted position's rank; a tied run reads np.interp at its average rank."""
    if bounds is None:
        return other_sorted
    twice_mid = bounds[:-1] + bounds[1:] - 1
    mid = 0.5 * (other_sorted[twice_mid // 2] + other_sorted[(twice_mid + 1) // 2])
    return np.repeat(mid, np.diff(bounds))


def _rho_t_hat(sample: PairedSample) -> float:
    # Q-transform plug-in: empirical quantiles paired through ranks.
    xs, bx, ys, by, x_by_y = _ranked(sample)
    _warn_ties(bx, by)
    # G_hat^{-1}(F_hat(x_i)) pairs each x with the y order statistic at x's rank;
    # against a centred column, a dot product is already n - 1 times the covariance.
    den = _dot(xs, _at_average_ranks(bx, ys)) * _dot(ys, _at_average_ranks(by, xs))
    if not den > 0.0:
        raise DegenerateError("degenerate plug-in denominator")
    return _dot(x_by_y, ys) / np.sqrt(den)


def estimate_named(sample: PairedSample, which: str, nu: float | None = None) -> float:
    """Sample analogue of a named correlation index.

    which: pearson | gini | egini (requires nu, which no other index takes) | or_based |
    cre_based | rho_t
    """
    from .correlation import named_transform  # deferred: avoids an import cycle

    if nu is not None and which != "egini":
        raise DomainError(f"the weight nu applies only to egini, not to {which!r}")
    if which == "pearson":
        x, y = sample.x - sample.x.mean(), sample.y - sample.y.mean()  # no ranks needed
        vx, vy = _dot(x, x), _dot(y, y)
        if not (vx > 0.0 and vy > 0.0):
            raise DegenerateError("zero sample variance")
        return _dot(x, y) / np.sqrt(vx * vy)
    if which == "rho_t":
        return _rho_t_hat(sample)
    spec = named_transform(which, nu)
    return estimate_beta_h(sample, spec.h)


def load_pairs_csv(path: str) -> PairedSample:
    """Read a two-column numeric CSV; optional header; strict about rows.

    Raises DomainError listing the 1-based line numbers of every malformed
    row (wrong arity, non-numeric or non-finite fields such as ``nan`` or
    ``inf``, which ``float`` accepts).
    """
    xs: list[float] = []
    ys: list[float] = []
    bad: list[int] = []
    isfinite = math.isfinite  # bound once: the check runs on every row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            try:  # parse first; a row that fails is blank, a header or bad
                x, y = row
                x, y = float(x), float(y)
            except ValueError:
                if "".join(row).strip() and not (lineno == 1 and len(row) == 2):
                    bad.append(lineno)
                continue
            if not (isfinite(x) and isfinite(y)):
                bad.append(lineno)
            xs.append(x)
            ys.append(y)
    if bad:
        raise DomainError(
            f"non-numeric or malformed rows at line(s): {', '.join(map(str, bad))}"
        )
    return PairedSample(xs, ys)
