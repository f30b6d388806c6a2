"""Rank-based plug-in estimation of the transformed correlations.

The estimators replace the population marginal CDFs by ranks and the
population covariances by sample covariances.  Every rank plug-in in qtcorr
reads one ranked view (``_Ranked``) of value columns in the order of score
columns: these estimators, whose scores are the sample's own columns, the
Monte Carlo indices, ranked by the copula's scores, and the standby
decomposition, ranked by the system lifetime.  A sample's view is sorted x,
sorted y and x in the order of y, centred (3n floats); its ratios stream H's
cells against the two x columns only, as sorted y serves rho_t and the tie
warning alone.  Variances and Cov(x, y) come from one rank-free blocked scan,
so Pearson sorts nothing.  Every covariance of a column without spread is 0,
so a ratio over it raises ``DegenerateError``.

Transform-law quantiles are exact averages over each rank's probability
cell, from the law's partial quantile integrals QI; this keeps the values
finite for unbounded laws and, unlike the bare rank / (n + 1) plug-in,
stays unbiased enough for heavy-tailed transforms whose pointwise
quantiles have infinite variance.  A law without exact partial integrals
raises ``UnsupportedOperationError``.  A rank covariance is a blocked dot
product over the score's tied runs: the value column summed over a run
times the run's mean cell of H's standard shape, less the mean of all
cells.  Tied columns read QI at their run edges only and untied ones share
one stream of the cells, so nothing builds the n-cell grid; rho_t's tied
denominators read each run at its average rank.  A tied run shares one
value (the mean of its cells), and each plug-in call warns once per tied
data column at the caller.

No bias correction or interval machinery is attempted here: this is the
straight plug-in, one defensible choice among several (jackknifed or
U-statistic variants would be equally natural).
"""

from __future__ import annotations

import csv
import encodings.utf_8_sig  # noqa: F401  (the CSV codec, loaded before any command's first open)
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _BLOCK, Distribution, Empirical, _cell_blocks
from .errors import DomainError


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


def _runs(ordered: np.ndarray) -> np.ndarray | None:
    """Tied-run bounds of sorted values, or None: runs are positions [bounds[k], bounds[k + 1])."""
    distinct = ordered[1:] != ordered[:-1]
    if distinct.all():
        return None
    return np.append(np.flatnonzero(np.r_[True, distinct]), ordered.size)


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


def _no_spread(column: np.ndarray, mean: float, squares: float) -> bool:
    """Whether a column has zero sample variance, from its sum of squares about its mean.

    A constant column centres to equal residues of a few ulps of its mean, not to zeros;
    only a sum of squares that small pays for the exact test.
    """
    if not squares > 0.0:
        return True
    return squares <= column.size * (1e-12 * mean) ** 2 and column.min() == column.max()


class _Ranked:
    """Value columns in the order of score columns, each pair built on first read.

    ``scores[s]`` is (score, the value columns it ranks): a score given as an index is that
    value column, each column past those listed is its own, and score s always ranks column
    s.  A score is sorted once: a column that is its own only partner by ``np.sort``, the
    partners of any other score by one ``argsort``, after which a drawn score is released.
    Every covariance is a dot product, n - 1 times the sample one, and 0 for a column
    without spread (``_no_spread``).
    """

    def __init__(self, values: tuple, scores: tuple = ()):
        self.values = values
        self.scores = [*scores, *((i, (i,)) for i in range(len(scores), len(values)))]
        self.keys = [(s, i) for s, (_, ranked) in enumerate(self.scores) for i in ranked]
        self.pairs: dict = {}  # (score, value) -> (bounds, run sums, centred column)

    def pair(self, s: int, i: int):
        """(score s's tied-run bounds or None, column i in its order centred and summed over
        each run, that centred column), ranking the score on first use."""
        if self.scores[s] is not None:
            score, ranked = self.scores[s]
            own = isinstance(score, int)
            if own and ranked == (score,):
                columns = [np.sort(self.values[score])]
                bounds = _runs(columns[0])
            else:
                order = np.argsort(self.values[score] if own else score)
                columns = [self.values[k][order] for k in ranked]
                bounds = _runs(columns[ranked.index(score)] if own else score[order])
            self.scores[s] = None
            for k, column in zip(ranked, columns):
                column -= column.mean()  # after finding runs: centring can merge distinct values
                column.flags.writeable = False
                self.pairs[s, k] = bounds, _run_sums(column, bounds), column
        return self.pairs[s, i]

    @functools.cached_property
    def _moments(self):
        """Each column's sum of squares about its mean, the cross sum of a pair's two columns
        and which columns have no spread: one rank-free scan, block by block."""
        values = self.values
        means = [c.mean() for c in values]
        squares, cross = [0.0] * len(values), 0.0
        for k in range(0, max(c.size for c in values), _BLOCK):
            blocks = {i: c[k : k + _BLOCK] - means[i] for i, c in enumerate(values) if k < c.size}
            for i, b in blocks.items():
                squares[i] += _dot(b, b)
            if len(values) == 2:
                cross += _dot(*blocks.values())
            del blocks, b  # before the next block's columns are made
        return squares, cross, [_no_spread(*m) for m in zip(values, means, squares)]

    def moment(self, i: int, j: int) -> float:
        """Column i's sum of squares (j == i), or a pair's cross sum."""
        squares, cross, flat = self._moments
        if flat[i] or flat[j]:
            return 0.0
        return squares[i] if i == j else cross

    def average_rank_dot(self, i: int) -> float:
        """rho_t's Cov(X, G^{-1}F(X)): column i sorted against the other column sorted, which
        a tied run of column i reads at its average rank."""
        if self._moments[2][i]:
            return 0.0
        bounds, sums, _ = self.pair(i, i)
        other = self.pair(1 - i, 1 - i)[2]
        if bounds is None:
            return _dot(sums, other)
        twice_mid = bounds[:-1] + bounds[1:] - 1
        return _dot(sums, 0.5 * (other[twice_mid // 2] + other[(twice_mid + 1) // 2]))

    def cell_dots(self, h: Distribution, columns=None) -> np.ndarray:
        """dots[s, i]: column i in score s's order against H's centred cells at those ranks,
        for every pair of the given columns (all by default): one ``_cell_dots`` pass of H's
        cells per column size."""
        keys = [k for k in self.keys if columns is None or k[1] in columns]
        dots = np.zeros((len(self.scores), len(self.values)))
        for n in dict.fromkeys(self.values[i].size for _, i in keys):
            sized = [k for k in keys if self.values[k[1]].size == n]
            dots[tuple(zip(*sized))] = _cell_dots(h, n, *(self.pair(*k)[:2] for k in sized))
        dots[:, self._moments[2]] = 0.0
        return dots


_COLUMNS = ("x", "y")  # a paired sample's columns, standing for its margins
_NAMED_ESTIMATORS = ("pearson", "gini", "egini", "or_based", "cre_based", "rho_t")
_ranked_memo: dict = {}  # the last sample (keyed on its identity) and its view


def _sample_view(sample: PairedSample) -> _Ranked:
    """A paired sample's view, x and y their own scores and y also ranking x.  One view is
    held at a time: the last sample's is released before the next one is built."""
    if sample not in _ranked_memo:
        _ranked_memo.clear()
        _ranked_memo[sample] = _Ranked((sample.x, sample.y), ((0, (0,)), (1, (1, 0))))
    return _ranked_memo[sample]


def _warn_ties(view: _Ranked) -> None:
    """Warn once per tied column, at the first frame outside this module."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    for s, label in enumerate(_COLUMNS):
        if view.pair(s, s)[0] is not None:
            warnings.warn(f"ties in the {label} column resolved by average ranks", stacklevel=level)


def estimate_beta_h(sample: PairedSample, h: Distribution) -> float:
    """Plug-in transformed correlation of the sample under transform law h.

    Ratio of the sample covariance of (x, H^{-1}(G_hat(y))) to that of
    (x, H^{-1}(F_hat(x))); exactly 1 on comonotone data and invariant
    under strictly increasing transforms of the y column.
    """
    from .correlation import CorrelationSpec, _Sampled  # deferred: avoids an import cycle

    view = _sample_view(sample)
    _warn_ties(view)
    return _Sampled(view, _COLUMNS).beta(CorrelationSpec(h))


def estimate_named(sample: PairedSample, which: str, nu: float | None = None) -> float:
    """Sample analogue of a named correlation index.

    which: pearson | gini | egini (requires nu, which no other index takes) | or_based |
    cre_based | rho_t
    """
    from .correlation import _Sampled, named_transform  # deferred: avoids an import cycle

    if (which := which.strip().lower()) not in _NAMED_ESTIMATORS:  # as named_transform reads it
        raise DomainError(f"unknown index label {which!r}; expected one of {_NAMED_ESTIMATORS}")
    if nu is not None and which != "egini":
        raise DomainError(f"the weight nu applies only to egini, not to {which!r}")
    if which not in ("pearson", "rho_t"):
        return estimate_beta_h(sample, named_transform(which, nu).h)
    ev = _Sampled(_sample_view(sample), _COLUMNS)
    if which == "pearson":  # no ranks
        return ev.pearson()
    _warn_ties(ev.view)
    return ev.rho_t()


def _parsed(fh) -> np.ndarray | None:
    """The (n, 2) pairs by numpy's C reader, or None: then the row loop decides."""
    line = fh.readline()
    row = line.rstrip("\r\n").split(",")  # as csv.reader splits one without quotes or NUL
    try:
        x, y = map(float, row)
        fh.seek(0)  # line 1 is data
    except ValueError:  # a blank line 1 or a header is skipped; the loop names any other
        if '"' in line or "\0" in line or ("".join(row).strip() and len(row) != 2):
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" among them
            pairs = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return pairs if pairs.shape[1] == 2 and np.isfinite(pairs).all() else None


def load_pairs_csv(path: str) -> PairedSample:
    """Read a two-column CSV in UTF-8 (a BOM is allowed): rows of two finite numbers that
    ``float`` reads, blank rows, and on line 1 an optional header of two fields.  A valid file
    takes numpy's C reader, which reads a subset of what ``float`` reads and rounds alike; the
    row loop raises DomainError naming the first byte that is not UTF-8, or the line each bad
    row starts on (wrong arity, non-numeric, non-finite such as ``nan``, or refused by csv).
    """
    xs, ys, bad = [], [], []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            pairs = _parsed(fh)
            if pairs is not None:
                return PairedSample(*pairs.T)
            fh.seek(0)
            reader, start = csv.reader(fh), 1
            for row in reader:  # a record is named by the line it starts on
                lineno, start = start, reader.line_num + 1
                try:  # parse first; a row that fails is blank, a header or bad
                    x, y = row
                    x, y = float(x), float(y)
                except ValueError:
                    if "".join(row).strip() and not (lineno == 1 and len(row) == 2):
                        bad.append(lineno)
                    continue
                if not (math.isfinite(x) and math.isfinite(y)):
                    bad.append(lineno)
                xs.append(x)
                ys.append(y)
        except csv.Error as exc:  # a field over csv's size limit; on Python 3.10, a NUL byte
            raise DomainError(f"malformed row at line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # exc.object ends at the file's read position
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise DomainError(f"{path} is not UTF-8 text at byte offset {at}") from None
    if bad:
        raise DomainError(
            f"non-numeric or malformed rows at line(s): {', '.join(map(str, bad))}"
        )
    return PairedSample(xs, ys)
