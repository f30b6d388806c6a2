"""Copula families, joint bivariate models, and seeded sampling.

A copula is its sampler and its ``dependence_integral``, the integral of
its excess C(u, v) - u v against two quantile densities qd_A and qd_B; no
copula evaluates C itself.  Gumbel-Barnett, AMH and the Gaussian run the 2-D
quadrature on ``excess(u, uc, v, vc)``, where ``uc = 1 - u`` and ``vc = 1 - v``
are supplied exactly.  The excess vanishes linearly at the square's edges,
so the tail-exact form keeps deep-tail quadrature nodes meaningful where
``1 - u`` is no longer representable in floating point.  Independence
integrates to 0, and three forms reduce the integral to memoised 1-D
coupled-quantile covariances g:

- FGM's excess factorises as gamma u(1-u) v(1-v), so its integral is
  4 gamma g(A, U(0, 1)) g(B, U(0, 1));
- the comonotone bound couples A^{-1}(U) with B^{-1}(U) (Hoeffding's
  identity), so its integral is g(A, B);
- a reflection substitutes s = 1 - u, under which qd_A(1 - s) is the
  quantile density of Reflected(A), so its integral is minus the base's with
  A reflected (likewise in v).  The countermonotone bound is the comonotone
  one reflected in v, with integral -g(A, Reflected(B)).

Sampling uses conditional inversion: U and W uniform, then V is the
W-quantile of V given U through each family's exact ``cond_inverse``.  FGM
and AMH invert a quadratic in V, taking the root in the form that avoids
cancellation; Gumbel-Barnett solves a convex scalar equation in
-log(1 - V) by a few vectorized Newton steps; the comonotone bound sets
V = U, and a reflection maps its base's draw.  The Gaussian family draws
correlated normal scores Z, which a margin loc + scale N(0, 1) maps to
loc + scale Z, never through Phi and back.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .distributions import Distribution, Normal, Reflected, Uniform, ndtr, ndtri
from .errors import DomainError, NumericalError, UnsupportedOperationError
from .estimation import PairedSample
from .measures import IntegrationConfig, g_covariance
from .quadrature import WGK, XGK, unit_integral_2d

_UNIFORM_FLOOR = 1e-300  # keeps quantile transforms finite at u == 0
_UNIFORM_CEIL = 1.0 - 2.0**-53  # largest uniform draw; keeps v < 1 likewise
_NEWTON_MAX_ITERS = 50  # Gumbel-Barnett took at most 5 steps over 10**6 draws


def _tail_aware(w: Distribution, p, upper: bool):
    # (point, its complement, quantile density) at a tail-aware coordinate
    if upper:
        return 1.0 - p, p, w.quantile_density_comp(p)
    return p, 1.0 - p, w.quantile_density(p)


def child_rng(seed: int, tag: str) -> Generator:
    """Deterministic child stream derived from (seed, operation tag)."""
    key = zlib.crc32(tag.encode("utf-8"))
    entropy = int(seed) & ((1 << 64) - 1)
    return default_rng(SeedSequence(entropy, spawn_key=(key,)))


class Copula:
    """Bivariate dependence function on the unit square."""

    @property
    def family(self) -> str:
        return type(self).__name__.lower()

    @property
    def independent(self) -> bool:
        """True for a family's independence member, whose excess is identically 0."""
        return False

    def excess(self, u, uc, v, vc):
        """C(u, v) - u v with exact complements uc = 1-u, vc = 1-v."""
        raise NotImplementedError

    def dependence_integral(self, weight_u, weight_v, abs_tol: float) -> float:
        """integral of excess(u, v) qd_wu(u) qd_wv(v) over the unit square, in 2-D."""
        if self.independent:
            return 0.0

        def g2(pu, upper_u, pv, upper_v):
            u, uc, wu = _tail_aware(weight_u, pu, upper_u)
            v, vc, wv = _tail_aware(weight_v, pv, upper_v)
            return self.excess(u, uc, v, vc) * wu * wv

        return unit_integral_2d(g2, abs_tol)

    def cond_inverse(self, u, w):
        """The w-quantile of V given U = u, elementwise."""
        raise UnsupportedOperationError(
            f"{self.family} copula does not expose a conditional inverse"
        )

    def sample(self, n: int, rng: Generator):
        """n dependent uniform pairs via conditional inversion."""
        if n < 1:
            raise DomainError("sample size must be at least 1")
        u = np.maximum(rng.random(n), _UNIFORM_FLOOR)
        w = np.maximum(rng.random(n), _UNIFORM_FLOOR)
        return u, np.clip(self.cond_inverse(u, w), _UNIFORM_FLOOR, _UNIFORM_CEIL)

    def scores(self, n: int, rng: Generator):
        """n dependent pairs increasing in (U, V), mapped to a law by ``score_quantile``."""
        return self.sample(n, rng)

    score_quantile = staticmethod(lambda law, s: law.quantile(s))


@dataclass(frozen=True)
class Independence(Copula):
    independent = True

    def cond_inverse(self, u, w):
        return w


@dataclass(frozen=True)
class FGM(Copula):
    """Farlie-Gumbel-Morgenstern family, C = uv (1 + gamma (1-u)(1-v))."""

    gamma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and -1.0 <= self.gamma <= 1.0):
            raise DomainError(f"FGM requires gamma in [-1, 1], got {self.gamma}")

    def dependence_integral(self, weight_u, weight_v, abs_tol):
        # integral u(1-u) qd_A(u) du = GMD(A) / 2 = 2 Cov(A, U): two memoised 1-D integrals
        cfg = IntegrationConfig(abs_tol=abs_tol)
        unit = Uniform(0.0, 1.0)
        cov_u, cov_v = g_covariance(weight_u, unit, cfg), g_covariance(weight_v, unit, cfg)
        return 4.0 * self.gamma * cov_u * cov_v

    def cond_inverse(self, u, w):
        # root of a v^2 - (1 + a) v + w = 0, a = gamma (1 - 2u); the discriminant
        # (1 + a)^2 - 4aw = (1 - a)^2 + 4a(1 - w) sums like-signed terms either way
        g = self.gamma
        a = g * (1.0 - 2.0 * u)
        ap = (1.0 + g) - 2.0 * g * u  # 1 + a
        am = (1.0 - g) + 2.0 * g * u  # 1 - a
        disc = np.where(a > 0.0, am * am + 4.0 * a * (1.0 - w), ap * ap - 4.0 * a * w)
        return 2.0 * w / (ap + np.sqrt(disc))


@dataclass(frozen=True)
class GumbelBarnett(Copula):
    """C = u + v - 1 + (1-u)(1-v) exp(-theta log(1-u) log(1-v)), theta in [0, 1]."""

    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= 1.0):
            raise DomainError(f"Gumbel-Barnett requires theta in [0, 1], got {self.theta}")

    @property
    def independent(self):
        return self.theta == 0.0

    def excess(self, u, uc, v, vc):
        # the excess vanishes on the whole boundary; guard the log corners
        boundary = (u <= 0.0) | (v <= 0.0) | (uc <= 0.0) | (vc <= 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            core = uc * vc * np.expm1(-self.theta * np.log(uc) * np.log(vc))
        return np.where(boundary, 0.0, core)

    def cond_inverse(self, u, w):
        # f(s) = r s - log1p(theta s) - e = 0 in s = -log(1 - v); f is increasing
        # and convex, f <= 0 at e / r and at the root of its quadratic lower bound
        # (log1p(x) >= x - x^2/2), so Newton from the larger overshoots once at most
        t = self.theta
        lu = np.log1p(-u)
        r = 1.0 - t * lu
        slope0 = (1.0 - t) - t * lu  # f'(0) = r - theta, without cancellation
        e = -np.log1p(-w)
        s = np.maximum(
            e / r, 2.0 * e / (slope0 + np.sqrt(slope0 * slope0 + 2.0 * t * t * e))
        )
        for _ in range(_NEWTON_MAX_ITERS):
            ts = t * s
            step = (r * s - np.log1p(ts) - e) / ((1.0 - t + ts) / (1.0 + ts) - t * lu)
            s = s - step
            if np.all(np.abs(step) <= 1e-14 * (1.0 + s)):
                return -np.expm1(-s)
        raise NumericalError(
            f"Gumbel-Barnett inverse unconverged after {_NEWTON_MAX_ITERS} Newton steps"
        )


@dataclass(frozen=True)
class AMH(Copula):
    """Ali-Mikhail-Haq family, C = uv / (1 - theta (1-u)(1-v)), theta in [-1, 1]."""

    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and -1.0 <= self.theta <= 1.0):
            raise DomainError(f"AMH requires theta in [-1, 1], got {self.theta}")

    @property
    def independent(self):
        return self.theta == 0.0

    def _denom(self, u, v):
        # 1 - theta (1-u)(1-v), grouped to stay exact for tiny u, v
        return (1.0 - self.theta) + self.theta * (u + v - u * v)

    def excess(self, u, uc, v, vc):
        boundary = (u <= 0.0) | (v <= 0.0) | (uc <= 0.0) | (vc <= 0.0)
        with np.errstate(invalid="ignore"):
            core = self.theta * u * v * uc * vc / self._denom(u, v)
        return np.where(boundary, 0.0, core)

    def cond_inverse(self, u, w):
        # c2 v^2 + p v - w A^2 = 0 with A = 1 - theta (1-u), B = theta (1-u),
        # c2 = theta - w B^2, p = (1 - theta) - 2 w A B; q = p / A and root =
        # sqrt(disc) / A avoid underflow near (theta, u) = (1, 0); c2 > 0 when
        # q < 0, so each branch is the cancellation-free root for its sign of q
        t = self.theta
        uc = 1.0 - u
        a = (1.0 - t) + t * u
        if t >= 0.0:
            disc = ((1.0 - t) / a) ** 2 + 4.0 * t * u * w / a
        else:
            disc = (((1.0 - t) + 2.0 * t * u) / a) ** 2 - 4.0 * t * u * (1.0 - w) / a
        root = np.sqrt(disc)
        q = (1.0 - t) / a - 2.0 * w * t * uc
        c2 = t * ((1.0 - w) + w * ((1.0 - t) + t * u * (1.0 + uc)))
        with np.errstate(divide="ignore", invalid="ignore"):
            return a * np.where(q >= 0.0, 2.0 * w / (q + root), (root - q) / (2.0 * c2))


@dataclass(frozen=True)
class GaussianCopula(Copula):
    """Copula of a correlated bivariate normal."""

    rho: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rho) and -1.0 < self.rho < 1.0):
            raise DomainError(f"Gaussian copula requires rho in (-1, 1), got {self.rho}")

    @property
    def independent(self):
        return self.rho == 0.0

    def excess(self, u, uc, v, vc):
        # dC/drho is the bivariate normal density (Plackett 1954); with r = sin(th),
        #   C - uv = 1/(2 pi) int_0^asin(rho) exp(-(x^2 - 2xy sin th + y^2) / (2 cos^2 th)) dth
        # (Drezner & Wesolowsky 1990), which has no C - uv cancellation.  In
        # phi = pi/2 - |th| the exponent is -((x - sy)^2 + 4 x sy sin^2(phi/2)) / (2 sin^2 phi),
        # s = sign(rho), exact as |rho| -> 1 peaks it at phi -> 0; the rule is K15
        # on ceil(-log10(1 - |rho|)) equal panels in t = log(phi).
        x = ndtri(np.minimum(u, uc))
        x = np.where(u < 0.5, x, -x)
        y = ndtri(np.minimum(v, vc))
        y = np.where(v < 0.5, y, -y)
        finite = np.isfinite(x) & np.isfinite(y)  # u or v at 0 or 1: the excess is 0
        x = np.where(finite, x, 0.0)[..., None]
        y = np.where(finite, math.copysign(1.0, self.rho) * y, 0.0)[..., None]
        r = abs(self.rho)
        panels = max(1, math.ceil(-math.log10(1.0 - r)))
        edges = np.linspace(math.log(math.acos(r)), math.log(0.5 * math.pi), panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        phi = np.exp((edges[:-1, None] + half) + half * XGK).ravel()
        weights = np.tile(WGK, panels) * phi * (math.copysign(half, self.rho) / (2.0 * math.pi))
        e = (4.0 * x * y) * np.sin(0.5 * phi) ** 2
        e += (x - y) ** 2
        e *= -0.5 / np.sin(phi) ** 2
        return np.where(finite, np.exp(e, out=e) @ weights, 0.0)

    def scores(self, n, rng):  # normal scores Z1, Z2: U = Phi(Z1), V = Phi(Z2)
        if n < 1:
            raise DomainError("sample size must be at least 1")
        z1 = rng.standard_normal(n)
        return z1, self.rho * z1 + math.sqrt(1.0 - self.rho**2) * rng.standard_normal(n)

    def sample(self, n, rng):
        return tuple(map(ndtr, self.scores(n, rng)))

    @staticmethod
    def score_quantile(law, z):  # a law of standard shape Normal(0, 1) is loc + scale Z
        shape, loc, scale = law.standard_form
        return loc + scale * z if type(shape) is Normal else law.quantile(ndtr(z))


@dataclass(frozen=True)
class FrechetUpper(Copula):
    """Comonotone bound C = min(u, v), the copula of (U, U)."""

    def dependence_integral(self, weight_u, weight_v, abs_tol):
        # Cov(A^{-1}(U), B^{-1}(U)) is the coupled-quantile covariance, memoised
        return g_covariance(weight_u, weight_v, IntegrationConfig(abs_tol=abs_tol))

    def cond_inverse(self, u, w):  # V given U = u is the point mass at u
        return u


@dataclass(frozen=True)
class _ReflectedU(Copula):
    """Copula of (1 - U, V); realizes the margin reflection x -> -x."""

    base: Copula = None  # type: ignore[assignment]

    def dependence_integral(self, weight_u, weight_v, abs_tol):
        # A^{-1}(1 - U) = -Reflected(A)^{-1}(U); 0.0 - keeps a zero integral +0.0
        return 0.0 - self.base.dependence_integral(Reflected(weight_u), weight_v, abs_tol)

    def sample(self, n, rng):
        u, v = self.base.sample(n, rng)
        return np.maximum(1.0 - u, _UNIFORM_FLOOR), v


@dataclass(frozen=True)
class _ReflectedV(Copula):
    """Copula of (U, 1 - V)."""

    base: Copula = None  # type: ignore[assignment]

    def dependence_integral(self, weight_u, weight_v, abs_tol):
        return 0.0 - self.base.dependence_integral(weight_u, Reflected(weight_v), abs_tol)

    def sample(self, n, rng):
        u, v = self.base.sample(n, rng)
        return u, np.maximum(1.0 - v, _UNIFORM_FLOOR)


@dataclass(frozen=True)
class FrechetLower(_ReflectedV):
    """Countermonotone bound C = max(u + v - 1, 0), the copula of (U, 1 - U)."""

    base: Copula = field(default=FrechetUpper(), init=False, repr=False)


@dataclass(frozen=True)
class BivariateModel:
    """A copula with two marginal laws: the law of (F^{-1}(U), G^{-1}(V)) for (U, V) ~ C."""

    copula: Copula
    margin_x: Distribution
    margin_y: Distribution

    def sample(self, n: int, seed: int) -> PairedSample:
        """n paired observations; deterministic for a given seed."""
        s, t = self.copula.scores(n, child_rng(seed, "bivariate.sample"))
        image = self.copula.score_quantile
        return PairedSample(image(self.margin_x, s), image(self.margin_y, t))


def reflect_x(model: BivariateModel) -> BivariateModel:
    """Model of (-X, Y)."""
    return BivariateModel(
        _ReflectedU(model.copula), Reflected(model.margin_x), model.margin_y
    )


def reflect_y(model: BivariateModel) -> BivariateModel:
    """Model of (X, -Y)."""
    return BivariateModel(
        _ReflectedV(model.copula), model.margin_x, Reflected(model.margin_y)
    )


# CLI copula grammar: independence | fgm:g | gb:t | amh:t | gaussian:r |
# frechet-upper | frechet-lower
_SIMPLE = {
    "independence": Independence,
    "frechet-upper": FrechetUpper,
    "frechet-lower": FrechetLower,
}
_PARAMETRIC = {
    "fgm": FGM,
    "gb": GumbelBarnett,
    "gumbel-barnett": GumbelBarnett,
    "amh": AMH,
    "gaussian": GaussianCopula,
}


def parse_copula(text: str) -> Copula:
    """Parse a copula spec string (case-insensitive)."""
    parts = [p.strip() for p in text.strip().lower().split(":")]
    name = parts[0]
    if name in _SIMPLE:
        if len(parts) > 1 and any(p != "" for p in parts[1:]):
            raise DomainError(f"{name!r} takes no parameter: {text!r}")
        return _SIMPLE[name]()
    if name in _PARAMETRIC:
        if len(parts) != 2:
            raise DomainError(f"{name!r} requires exactly one parameter: {text!r}")
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise DomainError(f"non-numeric parameter {parts[1]!r} in {text!r}") from exc
        return _PARAMETRIC[name](value)
    raise DomainError(
        f"unknown copula {name!r}; expected one of "
        f"{sorted(set(_SIMPLE) | set(_PARAMETRIC))}"
    )
