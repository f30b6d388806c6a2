"""Catalog of univariate continuous laws, each given by its quantile function.

Every law exposes the same small surface: ``quantile`` (the left-continuous
generalized inverse of its CDF), ``quantile_density`` (derivative of the
quantile function), ``quantile_integral`` (the partial mass QI(p) = integral
of the quantile over [0, p]), ``mean`` and ``cell_means``.  No law evaluates
its CDF: quadrature, sampling and estimation read only these methods.  They
are tail-aware: the ``*_comp`` variants take the distance to 1 directly, so
integrators can work at depths where ``1 - p`` is no longer representable.

A location-scale law is X = loc + scale Z for a standard shape Z.  Its hooks
compute Z alone, and ``Distribution`` applies (loc, scale) in one place, after
any differencing: quantile loc + s Q0, quantile density s qd0, QI loc p + s QI0,
cell means loc + s cells0, and the support mapped the same way.
``standard_form`` is (Z, loc, scale), so consumers read Z and factor the scale
out of a covariance, which location leaves alone.  A law at (0, 1), and a law
that is not location-scale, is its own standard shape and pays no map.
``Affine`` is its base's standard shape under the composed map.

QI is the one source of first moments: ``mean`` is QI(1), and ``_cell_blocks``
streams the cell means, its increments, splitting QI from QI_comp at n // 2 in that
one place.  A law without an exact QI raises ``UnsupportedOperationError``.

The special functions the laws need (Phi and its inverse, the regularised
incomplete gamma function and E1) are numpy kernels at the end of this module.

All instances are immutable; operations are pure and vectorized over
numpy arrays (scalars in, scalars out).  The methods pass a nonempty float64
array strictly inside (0, 1) straight to the law's hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    _map: tuple[Distribution, float, float] | None = None  # (Z, loc, scale) of a located law

    def _locate(self, loc: float, scale: float, standard) -> None:
        """Make this the law of loc + scale * Z, after the one check of (loc, scale).

        ``standard`` is Z itself, or the family's factory of its (0, 1) member: a family law
        at (0, 1) is its own standard shape and keeps no map.
        """
        if not (math.isfinite(loc) and math.isfinite(scale) and scale > 0.0):
            bad = f"{self!r} requires a finite location and a finite scale > 0"
            raise DomainError(f"{bad}, got ({loc!r}, {scale!r})")
        if isinstance(standard, Distribution) or (loc, scale) != (0.0, 1.0):
            z = standard if isinstance(standard, Distribution) else standard()
            lo, hi = z.support
            object.__setattr__(self, "_map", (z, loc, scale))
            object.__setattr__(self, "support", (loc + scale * lo, loc + scale * hi))

    @property
    def standard_form(self) -> tuple[Distribution, float, float]:
        """The law as loc + scale * Z: (Z, loc, scale), or (self, 0, 1) for a standard shape."""
        return self._map or (self, 0.0, 1.0)

    @property
    def name(self) -> str:
        return type(self).__name__.lower()

    def quantile(self, p):
        message = "quantile requires p in [0, 1], got {!r}"
        return self._at(p, self._mapped("_quantile"), message, self.support)

    def quantile_comp(self, q):
        """quantile(1 - q), accurate for very small q."""
        message = "quantile_comp requires q in [0, 1], got {!r}"
        return self._at(q, self._mapped("_quantile_comp"), message, self.support[::-1])

    def quantile_density(self, p):
        message = "quantile_density is defined on the open interval (0, 1)"
        return self._at(p, self._mapped("_quantile_density", ""), message, open_interval=True)

    def quantile_density_comp(self, q):
        """quantile_density(1 - q), accurate for very small q."""
        message = "quantile_density_comp is defined on (0, 1)"
        hook = self._mapped("_quantile_density_comp", "")
        return self._at(q, hook, message, open_interval=True)

    def _mapped(self, name: str, shift: str = "loc"):
        """The standard shape's hook ``name``; for a located law, followed by the map
        v -> shift + scale * v, the shift "loc" for a quantile, "loc*p" for a partial
        integral and "" for a density, which location leaves alone."""
        if not self._map:
            return getattr(self, name)
        z, loc, scale = self._map
        hook = getattr(z, name)
        if shift == "loc*p":
            return lambda p: loc * p + scale * hook(p)
        if shift == "loc":
            return lambda p: loc + scale * hook(p)
        return lambda p: scale * hook(p)

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
        return self._at(p, self._mapped("_quantile_integral", "loc*p"), message)

    def quantile_integral_comp(self, q):
        """Tail quantile mass: integral of quantile(v) dv over [1 - q, 1]."""
        message = "quantile_integral_comp requires q in [0, 1], got {!r}"
        return self._at(q, self._mapped("_quantile_integral_comp", "loc*p"), message)

    def cell_means(self, n: int) -> np.ndarray:
        """Mean quantile over each of n equal probability cells, n * dQI(k / n)."""
        z, loc, scale = self.standard_form
        if z is not self:  # the standard shape's cells, mapped after the differencing
            return loc + scale * z.cell_means(n)
        cells = np.empty(n)
        blocks = _cell_blocks(self, n)
        next(blocks)  # the mean over all cells
        for k, masses in blocks:
            cells[k : k + masses.size] = masses
        return cells

    # -- law-specific hooks of the standard shape (arrays in, arrays out, interior points only) --

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


class _Symmetric(Distribution):
    """A standard shape symmetric about 0, whose upper-tail hooks mirror the lower ones:
    Z_comp(q) = -Z(q), qd_comp = qd and QI_comp(q) = -QI(q)."""

    def _quantile_comp(self, q):
        return -self._quantile(q)

    def _quantile_density_comp(self, q):
        return self._quantile_density(q)

    def _quantile_integral_comp(self, q):
        return -self._quantile_integral(q)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on (a, b): a + (b - a) Z for Z uniform on (0, 1)."""

    a: float = 0.0
    b: float = 1.0
    support = (0.0, 1.0)

    def __post_init__(self):
        self._locate(self.a, self.b - self.a, Uniform)

    def _quantile(self, p):
        return p.copy()

    def _quantile_density(self, p):
        return np.ones_like(p)

    def _quantile_integral(self, p):
        return 0.5 * p * p

    def _quantile_integral_comp(self, q):
        return q - 0.5 * q * q


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with rate ``rate``: Z / rate for Z of unit rate."""

    rate: float = 1.0
    support = (0.0, math.inf)

    def __post_init__(self):
        self._locate(0.0, 1.0 / self.rate if self.rate else math.inf, Exponential)

    def _quantile(self, p):
        return -np.log1p(-p)

    def _quantile_comp(self, q):
        return -np.log(q)

    def _quantile_density(self, p):
        return 1.0 / (1.0 - p)

    def _quantile_density_comp(self, q):
        return 1.0 / q

    def _quantile_integral(self, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = p + (1.0 - p) * np.log1p(-p)
        return np.where(p >= 1.0, 1.0, raw)

    def _quantile_integral_comp(self, q):
        with np.errstate(invalid="ignore", divide="ignore"):
            raw = q * (1.0 - np.log(q))
        return np.where(q <= 0.0, 0.0, raw)


@dataclass(frozen=True)
class Logistic(_Symmetric):
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        self._locate(self.loc, self.scale, Logistic)

    def _quantile(self, p):
        return np.log(p) - np.log1p(-p)

    def _quantile_density(self, p):
        return 1.0 / (p * (1.0 - p))

    def _quantile_integral(self, p):
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


@dataclass(frozen=True)
class Normal(_Symmetric):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        self._locate(self.mu, self.sigma, Normal)

    def _quantile(self, p):
        return ndtri(p)

    def _quantile_density(self, p):
        z = ndtri(p)
        return np.sqrt(2.0 * np.pi) * np.exp(0.5 * z * z)

    def _quantile_integral(self, p):  # -phi(Phi^-1(p)), closed by 0 at p in {0, 1}
        with np.errstate(invalid="ignore", over="ignore"):
            z = ndtri(p)
            raw = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        return np.where((p <= 0.0) | (p >= 1.0), 0.0, -raw)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull with CDF 1 - exp(-(x / scale) ** shape): scale Z for Z = Weibull(1, shape)."""

    scale: float = 1.0
    shape: float = 1.0
    support = (0.0, math.inf)

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"Weibull requires shape > 0, got {self.shape}")
        self._locate(0.0, self.scale, lambda: Weibull(1.0, self.shape))

    def _quantile(self, p):
        return (-np.log1p(-p)) ** (1.0 / self.shape)

    def _quantile_comp(self, q):
        return (-np.log(q)) ** (1.0 / self.shape)

    def _quantile_density(self, p):
        lam = -np.log1p(-p)
        return 1.0 / self.shape * lam ** (1.0 / self.shape - 1.0) / (1.0 - p)

    def _quantile_density_comp(self, q):
        lam = -np.log(q)
        return 1.0 / self.shape * lam ** (1.0 / self.shape - 1.0) / q

    def _quantile_integral(self, p):
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            x = -np.log1p(-p)
        return math.gamma(a) * _gamma_inc(a, x, upper=False)

    def _quantile_integral_comp(self, q):
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            x = -np.log(q)
        return math.gamma(a) * _gamma_inc(a, x, upper=True)


@dataclass(frozen=True)
class Laplace(_Symmetric):
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        self._locate(self.loc, self.scale, Laplace)

    def _quantile(self, p):
        low = np.log(2.0 * np.minimum(p, 0.5))
        high = -np.log(2.0 * np.minimum(1.0 - p, 0.5))
        return np.where(p < 0.5, low, high)

    def _quantile_density(self, p):
        return 1.0 / np.minimum(p, 1.0 - p)

    def _quantile_integral(self, p):
        with np.errstate(invalid="ignore", divide="ignore"):
            low = p * (np.log(2.0 * p) - 1.0)
            high = (1.0 - p) * (np.log(2.0 * (1.0 - p)) - 1.0)
        low = np.where(p <= 0.0, 0.0, low)
        high = np.where(p >= 1.0, 0.0, high)
        return np.where(p <= 0.5, low, high)


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Extreme-value law with CDF exp(-exp(-(x - loc) / scale))."""

    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        self._locate(self.loc, self.scale, Gumbel)

    def _quantile(self, p):
        return -np.log(-np.log(p))

    def _quantile_comp(self, q):
        return -np.log(-np.log1p(-q))

    def _quantile_density(self, p):
        return 1.0 / (p * (-np.log(p)))

    def _quantile_density_comp(self, q):
        return 1.0 / ((1.0 - q) * (-np.log1p(-q)))

    def _quantile_integral(self, p):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = -np.log(p)
            raw = -p * np.log(x) - _exp1(x)
        raw = np.where(p <= 0.0, 0.0, raw)
        return np.where(p >= 1.0, _EULER_GAMMA, raw)

    def _quantile_integral_comp(self, q):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = -np.log1p(-q)
            raw = _EULER_GAMMA + (1.0 - q) * np.log(x) + _exp1(x)
        raw = np.where(q <= 0.0, 0.0, raw)
        return np.where(q >= 1.0, _EULER_GAMMA, raw)


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto on (1, inf) with CDF 1 - x ** (-1 / (1 - nu)), 0 < nu < 1.

    The single weight parameter matches the extended-Gini convention: the
    tail index is 1 / (1 - nu), so the mean is 1 / nu and the variance is
    finite only for nu > 1/2.
    """

    nu: float = 0.5
    support = (1.0, math.inf)

    def __post_init__(self):
        if not (math.isfinite(self.nu) and 0.0 < self.nu < 1.0):
            raise DomainError(f"Pareto requires 0 < nu < 1, got {self.nu}")

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
    support = (0.0, 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 1.0):
            raise DomainError(f"Power requires nu > 1, got {self.nu}")

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
    """Step CDF of a finite sample; quantiles land on order statistics.

    Its standard shape is the law of the values less their mean, so its QI and cells
    difference a sum that carries no location; its own quantiles stay the stored values.
    """

    _standard = None  # (the centred law, mean, 1.0), built once

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size < 1:
            raise DomainError("Empirical requires at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DomainError("Empirical requires finite observations")
        self._values = arr
        self.support = (float(arr[0]), float(arr[-1]))

    @property
    def standard_form(self) -> tuple[Distribution, float, float]:
        if self._standard is None:  # sorted values less a constant stay sorted
            z = object.__new__(Empirical)
            z._values = self._values - self.mean()
            z.support, z._standard = (float(z._values[0]), float(z._values[-1])), (z, 0.0, 1.0)
            self._standard = (z, self.mean(), 1.0)
        return self._standard

    def __repr__(self) -> str:
        # like the dataclass laws, a repr that names the law and not its address
        shown = np.array2string(self._values, separator=", ", threshold=8, edgeitems=3)
        return f"Empirical(values={shown})"

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

    def _quantile(self, p):
        # inf{x : F(x) >= p}: the ceil(p * n)-th order statistic, ties to the
        # smallest index.
        return self._values[np.clip(np.ceil(p * self.n).astype(int), 1, self.n) - 1]

    def _quantile_density(self, p):
        raise DomainError("Empirical has a step CDF; quantile_density is undefined")

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
    """Law of shift + scale * X for scale > 0: X's standard shape under the composed map."""

    base: Distribution = None  # type: ignore[assignment]
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        z, loc, scale = self.base.standard_form
        self._locate(self.shift + self.scale * loc, self.scale * scale, z)


@dataclass(frozen=True)
class Reflected(Distribution):
    """Law of -X; of a located X = loc + s Z, the located reflection -loc + s (-Z)."""

    base: Distribution = None  # type: ignore[assignment]

    def __post_init__(self):
        z, loc, scale = self.base.standard_form
        if z is not self.base:  # Z is a standard shape, so Reflected(z) keeps no map
            self._locate(-loc, scale, Reflected(z))
            return
        lo, hi = self.base.support
        object.__setattr__(self, "support", (-hi, -lo))

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

    def _quantile(self, p):
        return np.exp(self.base.quantile(p))

    def _quantile_comp(self, q):
        return np.exp(self.base.quantile_comp(q))

    def _quantile_density(self, p):
        return np.exp(self.base.quantile(p)) * self.base.quantile_density(p)

    def _quantile_density_comp(self, q):
        return np.exp(self.base.quantile_comp(q)) * self.base.quantile_density_comp(q)

    def _lognormal(self) -> tuple[float, float]:
        """(E exp(X), sigma) for a base mu + sigma Z with Z standard normal, the one base
        with an exact QI."""
        z, mu, sigma = self.base.standard_form
        if type(z) is not Normal:
            raise UnsupportedOperationError(f"exp({self.base.name}) has no exact quantile integral")
        log_mean = mu + 0.5 * sigma**2
        if log_mean > 709.0:
            raise NumericalError(f"the mean of exp({self.base}) overflows")
        return math.exp(log_mean), sigma

    # exp(mu + sigma Z) below Z = z has mass E exp(X) Phi(z - sigma); Phi(+-inf) closes the ends
    def _quantile_integral(self, p):
        mean, sigma = self._lognormal()
        return mean * ndtr(ndtri(p) - sigma)

    def _quantile_integral_comp(self, q):
        mean, sigma = self._lognormal()
        return mean * ndtr(ndtri(q) + sigma)


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


# ---------------------------------------------------------------------------
# Special functions of the catalogue laws, in numpy alone: Phi and its inverse
# (normal), the regularised incomplete gamma function (Weibull) and the
# exponential integral E1 (Gumbel).  Each maps float64 arrays elementwise,
# NaN to NaN, without floating-point warnings.
# ---------------------------------------------------------------------------

_BLOCK = 16384  # elements per kernel pass: larger temporaries leave the cache


def _cell_blocks(h: Distribution, n: int, edges: np.ndarray | None = None):
    """Yield the mean over all n cells, then blocks (k, masses): n times the H^{-1} mass
    between consecutive edges, for pieces k, k + 1, ...

    Edges are sorted ints from 0 to n that include n // 2: QI reads them up to it and QI_comp
    from it (never mu - QI_comp), one call per half.  Without edges each cell is a piece, in
    blocks of _BLOCK cells, each half's top block first; ``cell_means`` is their assembly.
    """
    half, pieces = n // 2, n if edges is None else edges.size - 1
    hooks = (h.quantile_integral, half), (h.quantile_integral_comp, n - half)
    # an Empirical law re-sums all its values on every QI call: one block per half
    step = _BLOCK if edges is None and not isinstance(h, Empirical) else n
    if edges is not None:
        cut = np.searchsorted(edges, half)
        tied = edges[1 : cut + 1], n - edges[cut:-1][::-1]

    def values(side, k):  # QI or QI_comp at the nodes of the block from piece k
        qi, top = hooks[side]
        return qi((np.arange(k + 1.0, min(k + step, top) + 1) if edges is None else tied[side]) / n)

    # each half's top block; a single cell has no lower half, whose top is QI(0) = 0
    tops = [values(s, (t - 1) // step * step) if t else [0.0] for s, (_, t) in enumerate(hooks)]
    yield tops[0][-1] + tops[1][-1]  # QI(half / n) + QI_comp((n - half) / n)
    for side, (_, top) in enumerate(hooks):  # the upper side runs down from cell n - 1
        carry, done = 0.0, 0
        for k in range(0, top, step):
            q = tops[side] if k + step >= top else values(side, k)
            masses = np.empty(q.size)
            piece = masses[::-1] if side else masses
            piece[0] = q[0] - carry
            np.subtract(q[1:], q[:-1], out=piece[1:])
            masses *= n
            carry, done = q[-1], done + q.size
            yield pieces - done if side else done - q.size, masses


def _blockwise(kernel, x, *args):
    """kernel(block, *args) over 1-D blocks of x, reassembled in x's shape."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(all="ignore"):
        if flat.size <= _BLOCK:
            return kernel(flat, *args).reshape(x.shape)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):
            out[start : start + _BLOCK] = kernel(flat[start : start + _BLOCK], *args)
    return out.reshape(x.shape)


def _horner(coeffs, x):
    """The polynomial with coefficients ``coeffs`` (highest power first) at x."""
    out = coeffs[0] * x
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


# Wichura, AS241 PPND16 (1988): Phi^-1(p) = q A(r) / B(r) with q = p - 1/2, r = 0.180625 - q^2
# for |q| <= 0.425; beyond, s = sqrt(-log min(p, 1 - p)) gives |Phi^-1| = C(s - 1.6) / D(s - 1.6)
# for s <= 5 and E(s - 5) / F(s - 5) past it.  Highest power first.
_AS241_A = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_AS241_B = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_AS241_C = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_AS241_D = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_AS241_E = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_AS241_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


def _ndtri_block(p):
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _horner(_AS241_A, r)
    x *= q
    x /= _horner(_AS241_B, r)
    tail = np.flatnonzero(r < 0.0)  # |q| > 0.425; NaN stays central and comes out NaN
    if tail.size:
        pt = p[tail]
        s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))  # inf at p in {0, 1}, NaN outside [0, 1]
        z = _horner(_AS241_C, s - 1.6) / _horner(_AS241_D, s - 1.6)
        deep = np.flatnonzero(s > 5.0)
        if deep.size:
            sd = s[deep] - 5.0
            z[deep] = np.where(sd == np.inf, np.inf, _horner(_AS241_E, sd) / _horner(_AS241_F, sd))
        x[tail] = np.copysign(z, q[tail])
    return x


def ndtri(p):
    """Phi^-1(p), the standard normal quantile: -inf at 0, inf at 1, NaN outside [0, 1]."""
    return _blockwise(_ndtri_block, p)


# Phi(x) = 1/2 + erf(y) / 2 with y = x / sqrt 2 < 1, where erf(y) = y T(y^2) / U(y^2)
# (Cody 1969, as in Cephes ndtr.c), rescaled here to a rational in x^2.  Beyond,
# Phi(-t) = erfc(y) / 2 = e^(-t^2 / 2) R(y) / 2 with R a rational fit to e^(y^2) erfc(y):
# mpmath's P/Q (math2._erfc_mid) on [1, 8) and Cephes' R/S past 8.  Highest power first.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_PHI_T = tuple(c * 0.5 ** (4 - k) * (0.5 * math.sqrt(0.5)) for k, c in enumerate(_ERF_T))
_PHI_U = tuple(c * 0.5 ** (5 - k) for k, c in enumerate(_ERF_U))
_ERFC_P = (
    0.00044560259661560421715, 0.0063065951710717791934, 0.045459713768411264339,
    0.20924776504163751585, 0.66275911699770787537, 1.4695509105618423961,
    2.2280433377390253297, 2.1275306946297962644, 1.0000000161203922312,
)
_ERFC_Q = (
    0.00078981003831980423513, 0.011178148899483545902, 0.080970149639040548613,
    0.37647108453729465912, 1.2146026030046904138, 2.7845640601891186528,
    4.4971472894498014205, 4.9019435608903239131, 3.2559100272784894318, 1.0,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)


def _ndtr_block(x):
    w = x * x
    out = _horner(_PHI_T, w)
    out *= x
    out /= _horner(_PHI_U, w)
    out += 0.5
    tail = np.flatnonzero(w >= 2.0)  # |x| >= sqrt 2; NaN stays central and comes out NaN
    if tail.size:
        xt = x[tail]
        t = np.minimum(np.abs(xt), 40.0)  # Phi(-40) underflows to 0
        y = t * math.sqrt(0.5)
        ratio = _horner(_ERFC_P, y) / _horner(_ERFC_Q, y)
        far = np.flatnonzero(y >= 8.0)
        if far.size:
            ratio[far] = _horner(_ERFC_R, y[far]) / _horner(_ERFC_S, y[far])
        # t = hi + lo with hi^2 exact, so e^(-t^2 / 2) takes no rounding error of t^2
        hi = np.trunc(t * 16.0) / 16.0
        half = 0.5 * ratio * np.exp(-0.5 * (t - hi) * (t + hi)) * np.exp(-0.5 * hi * hi)
        out[tail] = np.where(xt < 0.0, half, 1.0 - half)
    return out


def ndtr(x):
    """Phi(x), the standard normal CDF."""
    return _blockwise(_ndtr_block, x)


_CF_TOL = 4e-16  # a step within two ulps of 1 leaves the fraction unchanged in float64
_CF_MAX_TERMS = 2000


def _legendre_cf(x, a):
    """h(x) with Gamma(a, x) = x^a e^-x h(x), by Legendre's continued fraction.

    Modified Lentz, for x >= a + 1 > 1 or a = 0 < 1 < x, where the fraction
    converges fast; every element leaves as soon as its step converges.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    b = x + (1.0 - a)
    d = 1.0 / b
    h = d.copy()
    c = np.full_like(x, np.inf)
    for i in range(1, _CF_MAX_TERMS):
        if not live.size:
            return out
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        np.reciprocal(d, out=d)
        np.divide(an, c, out=c)
        c += b
        step = c * d
        h *= step
        step -= 1.0
        done = np.abs(step, out=step) <= _CF_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
    raise NumericalError(f"incomplete gamma fraction unconverged after {_CF_MAX_TERMS} terms")


def _gamma_inc_block(x, a, upper):
    # The side that converges is computed and the other is 1 minus it: the power series
    # for P below x = a + 1 and the fraction for Q from there on.  Neither exceeds
    # P(1, 2) = 1 - e^-2 on its side for a >= 1, so 1 minus it keeps its digits.
    lead = np.exp(a * np.log(x) - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    out = np.where(np.isnan(x), np.nan, 0.0 if upper else 1.0)  # lead underflows: Q = 0
    low = np.flatnonzero(x < a + 1.0)
    if low.size:
        # P = lead sum_n x^n / (a (a+1) ... (a+n)), in t = x / (a+1) < 1: the coefficients
        # (a+1)^n / (a ... (a+n)) stay in (2^-56 / a, 1 / a] for any a, and the depth is
        # the seam's, so each value is independent of the others in the array
        coeffs, term = [1.0 / a], 1.0
        while term > 2.0**-56:
            term *= (a + 1.0) / (a + len(coeffs))
            coeffs.append(term / a)
        p = lead[low] * _horner(coeffs[::-1], x[low] * (1.0 / (a + 1.0)))
        out[low] = 1.0 - p if upper else p
    high = np.flatnonzero((x >= a + 1.0) & (lead > 0.0))
    if high.size:
        q = lead[high] * _legendre_cf(x[high], a)
        out[high] = q if upper else 1.0 - q
    return out


def _gamma_inc(a: float, x, upper: bool):
    """The regularised incomplete gamma function, Q(a, x) if upper else P(a, x), a >= 1, x >= 0.

    The relative error is about 1e-15 a, from the rounding of the exponent of x^a e^-x / Gamma(a).
    """
    return _blockwise(_gamma_inc_block, x, a, upper)


# E1(x) = -gamma - log x + sum_n (-1)^(n+1) x^n / (n n!) for x <= 1; the terms past
# n = 18 are below 5e-19.  Highest power first, without the constant term.
_E1_SERIES = tuple((-1.0) ** (n + 1) / (n * math.factorial(n)) for n in range(18, 0, -1)) + (0.0,)


def _exp1_block(x):
    lead = np.exp(-x)
    out = np.where(np.isnan(x), np.nan, 0.0)  # e^-x underflows, x = inf included: E1 = 0
    low = np.flatnonzero(x <= 1.0)
    if low.size:
        xs = x[low]
        out[low] = _horner(_E1_SERIES, xs) - _EULER_GAMMA - np.log(xs)
    high = np.flatnonzero((x > 1.0) & (lead > 0.0))
    if high.size:
        out[high] = lead[high] * _legendre_cf(x[high], 0.0)
    return out


def _exp1(x):
    """The exponential integral E1(x) for x >= 0: inf at 0, 0 at inf."""
    return _blockwise(_exp1_block, x)
