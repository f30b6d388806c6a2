"""Adaptive Gauss-Kronrod quadrature over boxes in one or two dimensions.

One driver, :func:`_adapt`, computes every production integral in this
package; :func:`integrate` and :func:`integrate_2d` are its 1-D and 2-D
entry points.  It is a global-adaptive (7, 15)-point Gauss-Kronrod scheme
over d-dimensional boxes: the tensor K15**d rule gives a box's value and
|K15**d - G7**d| its (conservative) error estimate.  Each round bisects the
worst boxes (up to a batch, each within a factor 8 of the worst) across
their longest side, the first axis on a tie, until the summed error
estimate meets the absolute tolerance; a box narrower than a floor on every
axis is retired.  Batch size, floor, and the budget and initial grid of
main and collar boxes are per-dimension constants, not options.  Integrands
get one flat node array per axis, so callers must accept numpy arrays.

:func:`_unit_cube` integrates quantile-style integrands over (0, 1)**d.
Each axis splits at 1/2 and both tails are mapped through u = s**4 (resp.
1 - u = s**4), which flattens every algebraic endpoint singularity here
(the worst is (1-u)**(-3/2) from heavy-tailed quantile densities) into a
bounded integrand.  Each of the 2**d orthants runs the main box
[s0, s_half]**d, with s0 = ``_TAIL_EPS`` = 1e-9 (an engine constant, like the
budgets) and s_half = 2**(-1/4), at
abs_tol / 2**d.  Its collar, the region that halving the truncation adds,
is every product of per-axis sides {[s0 s_half, s0], [s0, s_half]} but the
all-main one, each run at abs_tol / 2**(d+1).  A collar contribution at or
above ``abs_tol`` signals a divergent or tail-dominated integral and raises.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Callable

import numpy as np

from .errors import NumericalError

# (7, 15) Gauss-Kronrod nodes and weights on [-1, 1]; the Gauss-7 nodes are
# the odd-indexed Kronrod nodes.
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG7_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])  # 15 ascending nodes
WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
WG7 = np.concatenate([_WG7_HALF[:-1], _WG7_HALF[::-1]])  # weights of nodes 1,3,..,13


# Per-dimension constants, keyed by d: boxes bisected per round, the width
# (relative to the span) below which a box is retired, and the (budget,
# initial grid per side) of a main box and of a collar box.
_BATCH = {1: 32, 2: 64}
_FLOOR = {1: 1e-15, 2: 1e-14}
_MAIN = {1: (4096, 8), 2: (150_000, 4)}
_COLLAR = {1: (64, 2), 2: (128, 1)}

# Kronrod node of each axis at each point of the flattened 15**d tensor grid,
# and the rule's contraction of a (n, 15, ..., 15) block of node values with
# the same per-axis weights on every axis, keyed by d.
_GRID = {d: XGK[np.indices((15,) * d).reshape(d, -1)] for d in (1, 2)}
_CONTRACT = {1: lambda y, w: y @ w, 2: lambda y, w: np.einsum("cij,i,j->c", y, w, w)}


def _eval_boxes(f, lo: np.ndarray, hi: np.ndarray):
    """Tensor K15**d value and |K15**d - G7**d| error for (n, d) boxes."""
    n, d = lo.shape
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi)).T[:, :, None] + half.T[:, :, None] * _GRID[d][:, None, :]
    y = np.asarray(f(*x.reshape(d, -1)), dtype=float).reshape((n,) + (15,) * d)
    if not np.isfinite(y).all():
        raise NumericalError("integrand returned a non-finite value")
    vol = math.prod(half.T)
    kron = vol * _CONTRACT[d](y, WGK)
    gauss = vol * _CONTRACT[d](y[(slice(None),) + (slice(1, None, 2),) * d], WG7)
    return kron, np.abs(kron - gauss)


@functools.lru_cache(maxsize=64)
def _geometric_edges(a: float, b: float, n: int) -> tuple[float, ...]:
    """Panel edges for [a, b]; geometric when the interval spans decades.

    Memoised: the intervals are few and ``np.geomspace`` is slow.
    """
    if a > 0.0 and b / a > 100.0:
        return tuple(np.geomspace(a, b, n + 1).tolist())
    return tuple(np.linspace(a, b, n + 1).tolist())


def _adapt(f, lo: tuple, hi: tuple, abs_tol: float, max_boxes: int, init: int, strict: bool):
    """Integrate ``f`` over the box [lo, hi] (d-tuples); see the module docstring."""
    d = len(lo)
    if not all(b > a for a, b in zip(lo, hi)):
        return 0.0, 0.0
    edges = [_geometric_edges(a, b, min(init, max_boxes)) for a, b in zip(lo, hi)]
    los = list(itertools.product(*(e[:-1] for e in edges)))
    his = list(itertools.product(*(e[1:] for e in edges)))
    vals, errs = (v.tolist() for v in _eval_boxes(f, np.array(los), np.array(his)))
    heap = [(-e, i) for i, e in enumerate(errs)]
    heapq.heapify(heap)
    floor = [_FLOOR[d] * (b - a) for a, b in zip(lo, hi)]

    while sum(errs) > abs_tol:
        batch = []
        worst = None
        while heap and len(batch) < _BATCH[d]:
            negerr, i = heapq.heappop(heap)
            if worst is None:
                worst = -negerr
            elif -negerr < worst / 8.0:
                heapq.heappush(heap, (negerr, i))
                break
            if any(b - a > w for a, b, w in zip(los[i], his[i], floor)):
                batch.append(i)
        if not batch or len(los) + 2 * len(batch) > max_boxes:
            if strict:
                why = "box budget" if batch else "width floor"
                raise NumericalError(f"quadrature did not converge ({why})")
            break
        # Halve each box across its longest side (first on a tie): left halves, then right.
        left_hi, right_lo = [], []
        for i in batch:
            a, b = los[i], his[i]
            widths = [q - p for p, q in zip(a, b)]
            k = widths.index(max(widths))
            mid = 0.5 * (a[k] + b[k])
            left_hi.append(b[:k] + (mid,) + b[k + 1 :])
            right_lo.append(a[:k] + (mid,) + a[k + 1 :])
        new_lo = [los[i] for i in batch] + right_lo
        new_hi = left_hi + [his[i] for i in batch]
        nv, ne = (v.tolist() for v in _eval_boxes(f, np.array(new_lo), np.array(new_hi)))
        for i in batch:
            vals[i] = errs[i] = 0.0
        for j, e in enumerate(ne, len(los)):
            heapq.heappush(heap, (-e, j))
        los += new_lo
        his += new_hi
        vals += nv
        errs += ne
    return float(sum(vals)), float(sum(errs))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float,
    *,
    max_panels: int = _MAIN[1][0],
    init: int = _MAIN[1][1],
    strict: bool = True,
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    Returns (value, error_estimate).  With ``strict`` (default) a panel
    budget overrun raises :class:`NumericalError`; otherwise the best
    available estimate is returned.
    """
    return _adapt(f, (a,), (b,), abs_tol, max_panels, init, strict)


def integrate_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ax: float,
    bx: float,
    ay: float,
    by: float,
    abs_tol: float,
    *,
    max_panels: int = _MAIN[2][0],
    init: int = _MAIN[2][1],
    strict: bool = True,
) -> tuple[float, float]:
    """Integrate ``f(x, y)`` over [ax, bx] x [ay, by] like :func:`integrate`.

    ``f`` receives flat arrays; ``init`` is the initial grid per side.
    """
    return _adapt(f, (ax, ay), (bx, by), abs_tol, max_panels, init, strict)


_TAIL_POWER = 4
_TAIL_EPS = 1e-9  # s0: the truncation is u in [s0**4, 1 - s0**4]
_S_HALF = 0.5 ** (1.0 / _TAIL_POWER)  # s value mapping to u = 1/2


def _orthant_integrand(g, uppers: tuple):
    jac = float(_TAIL_POWER ** len(uppers))

    def f(*s: np.ndarray) -> np.ndarray:
        w = jac
        args = []
        for sk, upper in zip(s, uppers):
            w = w * sk ** (_TAIL_POWER - 1)
            args += [sk**_TAIL_POWER, upper]
        return g(*args) * w

    return f


def _unit_cube(g, d: int, abs_tol: float) -> float:
    """Integrate ``g`` over (0, 1)**d with per-axis tail substitution."""
    engine = (integrate, integrate_2d)[d - 1]  # looked up per call: tracers patch them
    budget, init = _COLLAR[d]
    main = (_TAIL_EPS, _S_HALF)
    collar_side = (_TAIL_EPS * _S_HALF, _TAIL_EPS)
    total = collar = collar_err = 0.0
    for uppers in itertools.product((False, True), repeat=d):
        f = _orthant_integrand(g, uppers)
        val, _ = engine(f, *main * d, abs_tol / 2**d)
        total += val
        for mask in range(1, 2**d):
            box = [x for k in range(d) for x in (collar_side if mask >> k & 1 else main)]
            cval, cerr = engine(
                f, *box, abs_tol / 2 ** (d + 1), max_panels=budget, init=init, strict=False
            )
            collar += cval
            collar_err += cerr
    if abs(collar) + collar_err >= abs_tol:
        raise NumericalError(
            "integral is tail-sensitive: halving the tail truncation moved "
            f"the result by ~{abs(collar) + collar_err:.3e} (>= abs_tol)"
        )
    return total + collar


def unit_integral(g: Callable[[np.ndarray, bool], np.ndarray], abs_tol: float) -> float:
    """Integrate ``g`` over the unit interval with tail substitution.

    ``g(p, upper)`` must return the integrand at u = p when ``upper`` is
    False and at u = 1 - p when True, so callers can evaluate both tails
    without forming 1 - u in floating point.  The effective truncation is
    u within [_TAIL_EPS**4, 1 - _TAIL_EPS**4]; a collar that halving it adds
    at or above ``abs_tol`` raises (the integral is tail-sensitive).
    """
    return _unit_cube(g, 1, abs_tol)


def unit_integral_2d(
    g2: Callable[[np.ndarray, bool, np.ndarray, bool], np.ndarray],
    abs_tol: float,
) -> float:
    """Integrate ``g2`` over the unit square with per-axis tail substitution.

    ``g2(pu, upper_u, pv, upper_v)`` mirrors :func:`unit_integral` on each
    axis, and the same collar check applies.
    """
    return _unit_cube(g2, 2, abs_tol)
