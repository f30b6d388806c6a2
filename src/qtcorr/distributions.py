"""Catalog of univariate continuous laws with CDF/quantile machinery.

Every law exposes the same small surface: ``cdf``, ``quantile`` (the
left-continuous generalized inverse), ``quantile_density`` (derivative of
the quantile function), ``quantile_integral`` (the partial mass
QI(p) = integral of the quantile over [0, p]), ``mean`` and ``cell_means``,
and the rank-preserving map :func:`q_transform`.  Quantile-side evaluation
is tail-aware: the ``*_comp`` variants take the distance to 1 directly, so
integrators can work at depths where ``1 - p`` is no longer representable.

QI is the one source of first moments: ``mean`` is QI(1) and ``cell_means``
its increments; a law without an exact QI raises ``UnsupportedOperationError``.

All instances are immutable; operations are pure and vectorized over
numpy arrays (scalars in, scalars out).  The quantile-side methods pass a
nonempty float64 array strictly inside (0, 1) straight to the law's hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, NumericalError, UnsupportedOperationError

_EULER_GAMMA = 0.5772156649015329


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("NaN is not a valid argument")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


class Distribution:
    """Base class; subclasses implement the law-specific pieces."""

    # (lower, upper) support ends; math.inf sentinels for unbounded laws.
    support: tuple[float, float] = (-math.inf, math.inf)
    symmetry_center: float | None = None

    @property
    def name(self) -> str:
        return type(self).__name__.lower()

    def cdf(self, x):
        arr, scalar = _as_array(x)
        lo, hi = self.support
        out = np.empty_like(arr)
        below = arr <= lo
        above = arr >= hi
        inside = ~(below | above)
        out[below] = 0.0
        out[above] = 1.0
        out[inside] = self._cdf(arr[inside])
        return _ret(np.clip(out, 0.0, 1.0), scalar)

    def quantile(self, p):
        message = "quantile requires p in [0, 1], got {!r}"
        return self._at(p, self._quantile, message, self.support)

    def quantile_comp(self, q):
        """quantile(1 - q), accurate for very small q."""
        message = "quantile_comp requires q in [0, 1], got {!r}"
        return self._at(q, self._quantile_comp, message, self.support[::-1])

    def quantile_density(self, p):
        message = "quantile_density is defined on the open interval (0, 1)"
        return self._at(p, self._quantile_density, message, open_interval=True)

    def quantile_density_comp(self, q):
        """quantile_density(1 - q), accurate for very small q."""
        message = "quantile_density_comp is defined on (0, 1)"
        return self._at(q, self._quantile_density_comp, message, open_interval=True)

    def _at(self, p, hook, message: str, ends=None, open_interval: bool = False):
        """hook(p) behind the domain check; ``message`` formats p when p is outside.

        A nonempty float64 array strictly inside (0, 1) goes to the hook as it
        is.  Anything else is validated; with ``ends``, points at 0 and 1 read
        those values and only the interior reaches the hook.
        """
        if type(p) is np.ndarray and p.dtype == np.float64 and p.ndim and p.size:
            if p.min() > 0.0 and p.max() < 1.0:  # NaN fails both tests
                return hook(p)
        arr, scalar = _as_array(p)
        outside = (arr <= 0.0) | (arr >= 1.0) if open_interval else (arr < 0.0) | (arr > 1.0)
        if np.any(outside):
            raise DomainError(message.format(p))
        if ends is None:
            return _ret(hook(arr), scalar)
        out = np.where(arr == 0.0, float(ends[0]), float(ends[1]))
        inside = (arr > 0.0) & (arr < 1.0)
        out[inside] = hook(arr[inside])
        return _ret(out, scalar)

    def mean(self) -> float:
        return float(self.quantile_integral(1.0))

    def quantile_integral(self, p):
        """Partial quantile mass: integral of quantile(v) dv over [0, p]."""
        message = "quantile_integral requires p in [0, 1], got {!r}"
        return self._at(p, self._quantile_integral, message)

    def quantile_integral_comp(self, q):
        """Tail quantile mass: integral of quantile(v) dv over [1 - q, 1]."""
        message = "quantile_integral_comp requires q in [0, 1], got {!r}"
        return self._at(q, self._quantile_integral_comp, message)

    def cell_means(self, n: int) -> np.ndarray:
        """Mean quantile over each of n equal probability cells, n * dQI(k / n)."""
        half = n // 2  # interior nodes only (QI(0) = 0), so the hooks take them unmasked
        lower = np.diff(self.quantile_integral(np.arange(1.0, half + 1) / n), prepend=0.0)
        upper = np.diff(self.quantile_integral_comp(np.arange(1.0, n - half + 1) / n), prepend=0.0)
        return np.concatenate([lower, upper[::-1]]) * n

    # -- law-specific hooks (arrays in, arrays out, interior points only) --

    def _cdf(self, x):
        raise NotImplementedError

    def _quantile(self, p):
        raise NotImplementedError

    def _quantile_comp(self, q):
        return self._quantile(1.0 - q)

    def _quantile_density(self, p):
        raise NotImplementedError

    def _quantile_density_comp(self, q):
        return self._quantile_density(1.0 - q)

    def _quantile_integral(self, p):
        raise UnsupportedOperationError(
            f"{self.name} has no exact quantile integral, so no exact mean or cell means"
        )

    _quantile_integral_comp = _quantile_integral


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise DomainError(f"Uniform requires a < b, got ({self.a}, {self.b})")
        object.__setattr__(self, "support", (self.a, self.b))
        object.__setattr__(self, "symmetry_center", 0.5 * (self.a + self.b))

    def _cdf(self, x):
        return (x - self.a) / (self.b - self.a)

    def _quantile(self, p):
        return self.a + (self.b - self.a) * p

    def _quantile_comp(self, q):
        return self.b - (self.b - self.a) * q

    def _quantile_density(self, p):
        return np.full_like(p, self.b - self.a)

    _quantile_density_comp = _quantile_density

    def _quantile_integral(self, p):
        return self.a * p + 0.5 * (self.b - self.a) * p * p

    def _quantile_integral_comp(self, q):
        return self.b * q - 0.5 * (self.b - self.a) * q * q


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError(f"Exponential requires rate > 0, got {self.rate}")
        object.__setattr__(self, "support", (0.0, math.inf))

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _quantile(self, p):
        return -np.log1p(-p) / self.rate

    def _quantile_comp(self, q):
        return -np.log(q) / self.rate

    def _quantile_density(self, p):
        return 1.0 / (self.rate * (1.0 - p))

    def _quantile_density_comp(self, q):
        return 1.0 / (self.rate * q)

    def _quantile_integral(self, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = (p + (1.0 - p) * np.log1p(-p)) / self.rate
        return np.where(p >= 1.0, 1.0 / self.rate, raw)

    def _quantile_integral_comp(self, q):
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = q * (1.0 - np.log(q)) / self.rate
        return np.where(q <= 0.0, 0.0, raw)


@dataclass(frozen=True)
class Logistic(Distribution):
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"Logistic requires scale > 0, got {self.scale}")
        object.__setattr__(self, "symmetry_center", self.loc)

    def _cdf(self, x):
        return sp.expit((x - self.loc) / self.scale)

    def _quantile(self, p):
        return self.loc + self.scale * (np.log(p) - np.log1p(-p))

    def _quantile_comp(self, q):
        return self.loc + self.scale * (np.log1p(-q) - np.log(q))

    def _quantile_density(self, p):
        return self.scale / (p * (1.0 - p))

    def _quantile_density_comp(self, q):
        return self.scale / (q * (1.0 - q))

    @staticmethod
    def _xlogx_pair(p):
        # p log p + (1 - p) log1p(-p) in two buffers; it is negative inside (0, 1),
        # so fmin takes the NaN of 0 log 0 at p in {0, 1} to its limit 0
        out, tmp = np.empty_like(p), np.empty_like(p)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.log1p(np.negative(p, out=out), out=out)
            out *= np.subtract(1.0, p, out=tmp)
            np.log(p, out=tmp)
            tmp *= p
            out += tmp
        return np.fmin(out, 0.0, out=out)

    def _quantile_integral(self, p):
        return self.loc * p + self.scale * self._xlogx_pair(p)

    def _quantile_integral_comp(self, q):
        return self.loc * q - self.scale * self._xlogx_pair(q)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"Normal requires sigma > 0, got {self.sigma}")
        object.__setattr__(self, "symmetry_center", self.mu)

    def _cdf(self, x):
        return sp.ndtr((x - self.mu) / self.sigma)

    def _quantile(self, p):
        return self.mu + self.sigma * sp.ndtri(p)

    def _quantile_comp(self, q):
        return self.mu - self.sigma * sp.ndtri(q)

    @staticmethod
    def _std_qd(z):
        return np.sqrt(2.0 * np.pi) * np.exp(0.5 * z * z)

    def _quantile_density(self, p):
        return self.sigma * self._std_qd(sp.ndtri(p))

    def _quantile_density_comp(self, q):
        return self.sigma * self._std_qd(sp.ndtri(q))

    @staticmethod
    def _std_pdf_at_quantile(p):
        with np.errstate(invalid="ignore", over="ignore"):
            z = sp.ndtri(p)
            raw = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        return np.where((p <= 0.0) | (p >= 1.0), 0.0, raw)

    def _quantile_integral(self, p):
        return self.mu * p - self.sigma * self._std_pdf_at_quantile(p)

    def _quantile_integral_comp(self, q):
        return self.mu * q + self.sigma * self._std_pdf_at_quantile(q)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull with CDF 1 - exp(-(x / scale) ** shape)."""

    scale: float = 1.0
    shape: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"Weibull requires scale > 0, got {self.scale}")
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"Weibull requires shape > 0, got {self.shape}")
        object.__setattr__(self, "support", (0.0, math.inf))

    def _cdf(self, x):
        return -np.expm1(-((x / self.scale) ** self.shape))

    def _quantile(self, p):
        return self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)

    def _quantile_comp(self, q):
        return self.scale * (-np.log(q)) ** (1.0 / self.shape)

    def _quantile_density(self, p):
        lam = -np.log1p(-p)
        return self.scale / self.shape * lam ** (1.0 / self.shape - 1.0) / (1.0 - p)

    def _quantile_density_comp(self, q):
        lam = -np.log(q)
        return self.scale / self.shape * lam ** (1.0 / self.shape - 1.0) / q

    def _quantile_integral(self, p):
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            x = -np.log1p(-p)
        return self.mean() * sp.gammainc(a, x)

    def _quantile_integral_comp(self, q):
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            x = -np.log(q)
        return self.mean() * sp.gammaincc(a, x)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class Laplace(Distribution):
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"Laplace requires scale > 0, got {self.scale}")
        object.__setattr__(self, "symmetry_center", self.loc)

    def _cdf(self, x):
        z = (x - self.loc) / self.scale
        return np.where(z < 0.0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))

    def _quantile(self, p):
        low = np.log(2.0 * np.minimum(p, 0.5))
        high = -np.log(2.0 * np.minimum(1.0 - p, 0.5))
        return self.loc + self.scale * np.where(p < 0.5, low, high)

    def _quantile_comp(self, q):
        low = np.log(2.0 * np.minimum(q, 0.5))
        high = -np.log(2.0 * np.minimum(1.0 - q, 0.5))
        return self.loc - self.scale * np.where(q < 0.5, low, high)

    def _quantile_density(self, p):
        return self.scale / np.minimum(p, 1.0 - p)

    _quantile_density_comp = _quantile_density

    def _quantile_integral(self, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            low = p * (np.log(2.0 * p) - 1.0)
            high = (1.0 - p) * (np.log(2.0 * (1.0 - p)) - 1.0)
        low = np.where(p <= 0.0, 0.0, low)
        high = np.where(p >= 1.0, 0.0, high)
        return self.loc * p + self.scale * np.where(p <= 0.5, low, high)

    def _quantile_integral_comp(self, q):
        with np.errstate(invalid="ignore", divide="ignore"):
            low = q * (1.0 - np.log(2.0 * q))
            high = -(1.0 - q) * (np.log(2.0 * (1.0 - q)) - 1.0)
        low = np.where(q <= 0.0, 0.0, low)
        high = np.where(q >= 1.0, 0.0, high)
        return self.loc * q + self.scale * np.where(q <= 0.5, low, high)


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Extreme-value law with CDF exp(-exp(-(x - loc) / scale))."""

    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"Gumbel requires scale > 0, got {self.scale}")

    def _cdf(self, x):
        return np.exp(-np.exp(-(x - self.loc) / self.scale))

    def _quantile(self, p):
        return self.loc - self.scale * np.log(-np.log(p))

    def _quantile_comp(self, q):
        return self.loc - self.scale * np.log(-np.log1p(-q))

    def _quantile_density(self, p):
        return self.scale / (p * (-np.log(p)))

    def _quantile_density_comp(self, q):
        return self.scale / ((1.0 - q) * (-np.log1p(-q)))

    def _quantile_integral(self, p):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = -np.log(p)
            raw = -p * np.log(x) - sp.exp1(x)
        raw = np.where(p <= 0.0, 0.0, raw)
        raw = np.where(p >= 1.0, _EULER_GAMMA, raw)
        return self.loc * p + self.scale * raw

    def _quantile_integral_comp(self, q):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = -np.log1p(-q)
            raw = _EULER_GAMMA + (1.0 - q) * np.log(x) + sp.exp1(x)
        raw = np.where(q <= 0.0, 0.0, raw)
        raw = np.where(q >= 1.0, _EULER_GAMMA, raw)
        return self.loc * q + self.scale * raw


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto on (1, inf) with CDF 1 - x ** (-1 / (1 - nu)), 0 < nu < 1.

    The single weight parameter matches the extended-Gini convention: the
    tail index is 1 / (1 - nu), so the mean is 1 / nu and the variance is
    finite only for nu > 1/2.
    """

    nu: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.nu) and 0.0 < self.nu < 1.0):
            raise DomainError(f"Pareto requires 0 < nu < 1, got {self.nu}")
        object.__setattr__(self, "support", (1.0, math.inf))

    def _cdf(self, x):
        return -np.expm1(np.log(x) / (self.nu - 1.0))

    def _quantile(self, p):
        return (1.0 - p) ** (self.nu - 1.0)

    def _quantile_comp(self, q):
        return q ** (self.nu - 1.0)

    def _quantile_density(self, p):
        return (1.0 - self.nu) * (1.0 - p) ** (self.nu - 2.0)

    def _quantile_density_comp(self, q):
        return (1.0 - self.nu) * q ** (self.nu - 2.0)

    def _quantile_integral(self, p):
        with np.errstate(divide="ignore"):
            return -np.expm1(self.nu * np.log1p(-p)) / self.nu

    def _quantile_integral_comp(self, q):
        return q**self.nu / self.nu


@dataclass(frozen=True)
class Power(Distribution):
    """Power law on (0, 1) with CDF 1 - (1 - x) ** (1 / (nu - 1)), nu > 1."""

    nu: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 1.0):
            raise DomainError(f"Power requires nu > 1, got {self.nu}")
        object.__setattr__(self, "support", (0.0, 1.0))

    def _cdf(self, x):
        return -np.expm1(np.log1p(-x) / (self.nu - 1.0))

    def _quantile(self, p):
        return -np.expm1((self.nu - 1.0) * np.log1p(-p))

    def _quantile_comp(self, q):
        return -np.expm1((self.nu - 1.0) * np.log(q))

    def _quantile_density(self, p):
        return (self.nu - 1.0) * (1.0 - p) ** (self.nu - 2.0)

    def _quantile_density_comp(self, q):
        return (self.nu - 1.0) * q ** (self.nu - 2.0)

    def _quantile_integral(self, p):
        with np.errstate(divide="ignore"):
            return p + np.expm1(self.nu * np.log1p(-p)) / self.nu

    def _quantile_integral_comp(self, q):
        return q - q**self.nu / self.nu


class Empirical(Distribution):
    """Step CDF of a finite sample; quantiles land on order statistics."""

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size < 1:
            raise DomainError("Empirical requires at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DomainError("Empirical requires finite observations")
        self._values = arr
        self.support = (float(arr[0]), float(arr[-1]))

    @property
    def name(self) -> str:
        return "empirical"

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return int(self._values.size)

    def is_degenerate(self) -> bool:
        return bool(self._values[0] == self._values[-1])

    def cdf(self, x):
        arr, scalar = _as_array(x)
        out = np.searchsorted(self._values, arr, side="right") / self.n
        return _ret(out.astype(float), scalar)

    def _quantile(self, p):
        # inf{x : F(x) >= p}: the ceil(p * n)-th order statistic, ties to the
        # smallest index.
        return self._values[np.clip(np.ceil(p * self.n).astype(int), 1, self.n) - 1]

    def quantile_density(self, p):
        raise DomainError("Empirical has a step CDF; quantile_density is undefined")

    quantile_density_comp = quantile_density

    @staticmethod
    def _step_integral(values: np.ndarray, p):
        # Integral over [0, p] of the steps values[k] on (k / n, (k + 1) / n]: j whole cells by
        # a cumulative sum (not kept: laws reach 10**6 values), then a fraction of cell j.
        n = values.size
        sums = np.zeros(n + 1)
        np.cumsum(values, out=sums[1:])
        cells = p * n
        j = np.minimum(cells.astype(int), n - 1)
        return (sums[j] + (cells - j) * values[j]) / n

    def _quantile_integral(self, p):
        return self._step_integral(self._values, p)

    def _quantile_integral_comp(self, q):
        return self._step_integral(self._values[::-1], q)

    def mean(self) -> float:
        return float(np.mean(self._values))


# ---------------------------------------------------------------------------
# Derived laws (monotone images of a base law)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine(Distribution):
    """Law of shift + scale * X for scale > 0."""

    base: Distribution = None  # type: ignore[assignment]
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"Affine requires scale > 0, got {self.scale}")
        lo, hi = self.base.support
        object.__setattr__(
            self, "support", (self.shift + self.scale * lo, self.shift + self.scale * hi)
        )
        c = self.base.symmetry_center
        if c is not None:
            object.__setattr__(self, "symmetry_center", self.shift + self.scale * c)

    def _cdf(self, x):
        return self.base.cdf((x - self.shift) / self.scale)

    def _quantile(self, p):
        return self.shift + self.scale * self.base.quantile(p)

    def _quantile_comp(self, q):
        return self.shift + self.scale * self.base.quantile_comp(q)

    def _quantile_density(self, p):
        return self.scale * self.base.quantile_density(p)

    def _quantile_density_comp(self, q):
        return self.scale * self.base.quantile_density_comp(q)

    def _quantile_integral(self, p):
        return self.shift * p + self.scale * self.base.quantile_integral(p)

    def _quantile_integral_comp(self, q):
        return self.shift * q + self.scale * self.base.quantile_integral_comp(q)


@dataclass(frozen=True)
class Reflected(Distribution):
    """Law of -X."""

    base: Distribution = None  # type: ignore[assignment]

    def __post_init__(self):
        lo, hi = self.base.support
        object.__setattr__(self, "support", (-hi, -lo))
        c = self.base.symmetry_center
        if c is not None:
            object.__setattr__(self, "symmetry_center", -c)

    def _cdf(self, x):
        # P(-X <= x) = 1 - F(-x) for continuous X.
        return 1.0 - self.base.cdf(-x)

    def _quantile(self, p):
        return -self.base.quantile_comp(p)

    def _quantile_comp(self, q):
        return -self.base.quantile(q)

    def _quantile_density(self, p):
        return self.base.quantile_density_comp(p)

    def _quantile_density_comp(self, q):
        return self.base.quantile_density(q)

    def _quantile_integral(self, p):
        return -self.base.quantile_integral_comp(p)

    def _quantile_integral_comp(self, q):
        return -self.base.quantile_integral(q)


@dataclass(frozen=True)
class ExpTransformed(Distribution):
    """Law of exp(X); strictly increasing image of the base law."""

    base: Distribution = None  # type: ignore[assignment]

    def __post_init__(self):
        lo, hi = self.base.support
        object.__setattr__(
            self,
            "support",
            (
                math.exp(lo) if lo > -math.inf else 0.0,
                math.exp(hi) if hi < 709.0 else math.inf,
            ),
        )

    def _cdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = self.base.cdf(np.log(x[pos]))
        return out

    def _quantile(self, p):
        return np.exp(self.base.quantile(p))

    def _quantile_comp(self, q):
        return np.exp(self.base.quantile_comp(q))

    def _quantile_density(self, p):
        return np.exp(self.base.quantile(p)) * self.base.quantile_density(p)

    def _quantile_density_comp(self, q):
        return np.exp(self.base.quantile_comp(q)) * self.base.quantile_density_comp(q)

    def _lognormal(self) -> tuple[float, float]:
        """(E exp(X), sigma) for a Normal(mu, sigma) base, the one base with an exact QI."""
        if not isinstance(self.base, Normal):
            raise UnsupportedOperationError(f"exp({self.base.name}) has no exact quantile integral")
        log_mean = self.base.mu + 0.5 * self.base.sigma**2
        if log_mean > 709.0:
            raise NumericalError(f"the mean of exp({self.base}) overflows")
        return math.exp(log_mean), self.base.sigma

    # exp(mu + sigma Z) below Z = z has mass E exp(X) Phi(z - sigma); Phi(+-inf) closes the ends
    def _quantile_integral(self, p):
        mean, sigma = self._lognormal()
        return mean * sp.ndtr(sp.ndtri(p) - sigma)

    def _quantile_integral_comp(self, q):
        mean, sigma = self._lognormal()
        return mean * sp.ndtr(sp.ndtri(q) + sigma)


def q_transform(f: Distribution, g: Distribution, x):
    """Rank-preserving map G^{-1}(F(x)); sends the law F onto the law G."""
    return g.quantile(f.cdf(x))


# ---------------------------------------------------------------------------
# CLI spec grammar: name:param1:param2, case-insensitive
# ---------------------------------------------------------------------------

_FACTORIES = {
    "uniform": (Uniform, 2),
    "exponential": (Exponential, 1),
    "exp": (Exponential, 1),
    "logistic": (Logistic, 2),
    "normal": (Normal, 2),
    "weibull": (Weibull, 2),
    "rayleigh": (lambda scale=1.0: Weibull(scale, 2.0), 1),
    "laplace": (Laplace, 2),
    "gumbel": (Gumbel, 2),
    "extreme-value": (Gumbel, 2),
    "pareto": (Pareto, 1),
    "power": (Power, 1),
}


def parse_distribution(text: str) -> Distribution:
    """Parse a ``name:param1:param2`` spec string into a Distribution."""
    parts = [p.strip() for p in text.strip().lower().split(":")]
    name = parts[0]
    if name not in _FACTORIES:
        raise DomainError(
            f"unknown distribution {name!r}; expected one of {sorted(set(_FACTORIES))}"
        )
    factory, max_args = _FACTORIES[name]
    raw = [p for p in parts[1:] if p != ""]
    if len(raw) > max_args:
        raise DomainError(f"too many parameters for {name!r}: {text!r}")
    args = []
    for tok in raw:
        try:
            args.append(float(tok))
        except ValueError as exc:
            raise DomainError(f"non-numeric parameter {tok!r} in {text!r}") from exc
    return factory(*args)
