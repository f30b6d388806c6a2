"""Rank-based plug-in estimation of the transformed correlations.

The estimators replace the population marginal CDFs by ranks and the
population covariances by sample covariances.  A sample is sorted and
centred once for all estimators: one sample's sorted view (3n floats,
centred in place) is kept at a time, with x summed over each tied run, and
it is released before the next sample's view is built.  Every rank
covariance is a blocked dot product in sorted order that allocates nothing
of the sample's size; the tied denominators of the Q-transform plug-in
rho_t are dots of run sums with each run's average-rank values.

Transform-law quantiles are exact averages over each rank's probability
cell, from the law's partial quantile integrals QI; this keeps the values
finite for unbounded laws and, unlike the bare rank / (n + 1) plug-in,
stays unbiased enough for heavy-tailed transforms whose pointwise
quantiles have infinite variance.  A law without exact partial integrals
raises ``UnsupportedOperationError``.  A plug-in covariance is a sum over
the tied runs of the sorted column: the partner summed over the run times
the run's mean cell, n * dQI / size, less the mean over all cells.  The cells
are those of H's standard shape H0, since the centring cancels H's location:
``_cell_dots(h)`` is scale times ``_cell_dots(h0)``.  Each
column takes its own route, also when only one of the two is tied: the
tied columns read QI at their run edges only, and the untied ones share
one stream of the cells in blocks of 16,384; no estimator builds the
n-cell grid.  It is the one route of every step law: the Monte Carlo indices
are these estimators on their drawn samples, and ``g_covariance`` of a step law
and the standby reports read sorted, centred columns the same way.

Ties have zero probability under continuous laws but occur in real data:
a tied run shares one value (the mean of its cells), and each plug-in
call warns once per tied column at the caller.

No bias correction or interval machinery is attempted here: this is the
straight plug-in, one defensible choice among several (jackknifed or
U-statistic variants would be equally natural).
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _BLOCK, Distribution, Empirical, _cell_blocks
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


def _run_sums(values: np.ndarray, bounds: np.ndarray | None) -> np.ndarray:
    """Sorted-order values summed over each tied run (the values themselves without ties)."""
    return values if bounds is None else np.add.reduceat(values, bounds[:-1])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # no n-sized temporary; dots of 128 terms summed pairwise: in sorted order the products
    # share one sign over long stretches, where one running sum over 10**6 terms loses digits
    m = a.size - a.size % 128
    blocks = np.matmul(a[:m].reshape(-1, 1, 128), b[:m].reshape(-1, 128, 1))  # row-wise dots
    return float(np.sum(blocks) + np.dot(a[m:], b[m:]))


def _cell_dots(h: Distribution, n: int, *columns) -> list:
    """sum_r w_r (m_r - c) for each column (bounds, w): w is the partner column summed over
    each tied run of the sorted column (bounds None: one run per cell), m_r the H^{-1} mean
    over run r's cells and c the mean over all n cells.

    The untied columns share one streamed pass of the cells; the tied ones read QI at the
    union of their run edges only, joined by the untied ones when H is Empirical.  The cells
    are H's standard shape's: the centring cancels loc, and each dot is scaled once.
    """
    h, _, scale = h.standard_form
    dots = [0.0] * len(columns)
    if isinstance(h, Empirical) and any(b is not None for b, _ in columns):
        columns = [(np.arange(n + 1) if b is None else b, w) for b, w in columns]
    untied = [i for i, (b, _) in enumerate(columns) if b is None]
    tied = [i for i, (b, _) in enumerate(columns) if b is not None]
    if untied:
        blocks = _cell_blocks(h, n)
        c = next(blocks)
        for k, cells in blocks:
            cells -= c
            for i in untied:
                dots[i] += _dot(columns[i][1][k : k + cells.size], cells)
    if tied:  # one QI call per half, at the union of the run edges
        edges = np.concatenate([*(columns[i][0] for i in tied), [n // 2]])
        edges.sort()
        edges = edges[np.append(True, edges[1:] != edges[:-1])]
        blocks = _cell_blocks(h, n, edges)
        c, masses = next(blocks), np.concatenate([m for _, m in blocks])
        for i in tied:
            b, w = columns[i]
            means = np.add.reduceat(masses, np.searchsorted(edges, b[:-1])) / np.diff(b)
            dots[i] = _dot(w, means - c)
    return [scale * d for d in dots]


def _sorted_column(column: np.ndarray):
    """A column of ``_cell_dots`` from its values: sorted once, centred, summed over tied runs."""
    ordered = np.sort(column)
    bounds = _runs(ordered)
    ordered -= ordered.mean()  # after finding runs: centring can merge distinct values
    return bounds, _run_sums(ordered, bounds)


def _coupled_dots(h: Distribution, columns) -> list:
    """``_cell_dots`` of H for columns of any sizes (bounds' end, or untied, length), one pass
    of H's cells per distinct size: n times a step law's g with H, n - 1 times a plug-in."""
    sizes = [w.size if b is None else int(b[-1]) for b, w in columns]
    dots = [0.0] * len(columns)
    for n in dict.fromkeys(sizes):
        picked = [i for i, size in enumerate(sizes) if size == n]
        for i, dot in zip(picked, _cell_dots(h, n, *(columns[i] for i in picked))):
            dots[i] = dot
    return dots


_ranked_memo: dict = {}  # the last ranked sample (keyed on its identity) and its view


def _ranked(sample: PairedSample):
    """(sorted x, its tied-run bounds, sorted y, its bounds, x in the order of y), centred,
    then x summed over each run of sorted x and of sorted y.

    One sample's view is held at a time: the last one is released before the next is built.
    """
    if sample not in _ranked_memo:
        _ranked_memo.clear()
        xs = np.sort(sample.x)
        oy, ys, by = _sorted_runs(sample.y)
        bx, x_by_y = _runs(xs), sample.x[oy]
        for column in (xs, ys, x_by_y):  # after finding runs: centring can merge distinct values
            column -= column.mean()
        _ranked_memo[sample] = xs, bx, ys, by, x_by_y, _run_sums(xs, bx), _run_sums(x_by_y, by)
    return _ranked_memo[sample]


def estimate_beta_h(sample: PairedSample, h: Distribution) -> float:
    """Plug-in transformed correlation of the sample under transform law h.

    Ratio of the sample covariance of (x, H^{-1}(G_hat(y))) to that of
    (x, H^{-1}(F_hat(x))); exactly 1 on comonotone data and invariant
    under strictly increasing transforms of the y column.
    """
    _, bx, _, by, _, wx, wy = _ranked(sample)
    _warn_ties(bx, by)
    den, num = _cell_dots(h, sample.n, (bx, wx), (by, wy))
    if not den > 0.0 or (bx is not None and bx.size == 2):  # or x is one tied run
        raise DegenerateError("degenerate plug-in denominator")
    return num / den


def _dot_at_average_ranks(bounds, run_sums: np.ndarray, other_sorted: np.ndarray) -> float:
    """Dot of a sorted column with other_sorted at each position's rank, from the column
    summed over its tied runs: a run reads other_sorted by np.interp at its average rank."""
    if bounds is None:
        return _dot(run_sums, other_sorted)
    twice_mid = bounds[:-1] + bounds[1:] - 1
    mid = 0.5 * (other_sorted[twice_mid // 2] + other_sorted[(twice_mid + 1) // 2])
    return _dot(run_sums, mid)


def _rho_t_hat(sample: PairedSample) -> float:
    # Q-transform plug-in: empirical quantiles paired through ranks.
    xs, bx, ys, by, x_by_y, wx, _ = _ranked(sample)
    _warn_ties(bx, by)
    # G_hat^{-1}(F_hat(x_i)) pairs each x with the y order statistic at x's rank;
    # against a centred column, a dot product is already n - 1 times the covariance.
    den = _dot_at_average_ranks(bx, wx, ys) * _dot_at_average_ranks(by, _run_sums(ys, by), xs)
    if not den > 0.0:
        raise DegenerateError("degenerate plug-in denominator")
    return _dot(x_by_y, ys) / np.sqrt(den)


def _no_spread(column: np.ndarray, mean: float, squares: float) -> bool:
    """Whether a column has zero sample variance, from its sum of squares about its mean.

    A constant column centres to equal residues of a few ulps of its mean, not to zeros;
    only a sum of squares that small pays for the exact test.
    """
    if not squares > 0.0:
        return True
    return squares <= column.size * (1e-12 * mean) ** 2 and column.min() == column.max()


def estimate_named(sample: PairedSample, which: str, nu: float | None = None) -> float:
    """Sample analogue of a named correlation index.

    which: pearson | gini | egini (requires nu, which no other index takes) | or_based |
    cre_based | rho_t
    """
    from .correlation import named_transform  # deferred: avoids an import cycle

    if nu is not None and which != "egini":
        raise DomainError(f"the weight nu applies only to egini, not to {which!r}")
    if which == "pearson":
        mx, my, vx, vy, vxy = sample.x.mean(), sample.y.mean(), 0.0, 0.0, 0.0
        for k in range(0, sample.n, _BLOCK):  # no ranks needed; centred block by block
            x, y = sample.x[k : k + _BLOCK] - mx, sample.y[k : k + _BLOCK] - my
            vx, vy, vxy = vx + _dot(x, x), vy + _dot(y, y), vxy + _dot(x, y)
            del x, y  # before the next block's pair is made
        if _no_spread(sample.x, mx, vx) or _no_spread(sample.y, my, vy):
            raise DegenerateError("zero sample variance")
        return vxy / np.sqrt(vx * vy)
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
