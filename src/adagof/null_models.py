"""Fixed null densities with exact samplers and the analytic quantities the
statistics need: pdf, cdf, inverse cdf, and the squared L2 norm.

Three families are provided: uniform on [0, 1], Gaussian, and the unit
exponential.  All sampling is by inverse transform so that one uniform draw
maps to exactly one output value, keeping replicate streams aligned across
test variants.  The transform is elementwise, so ``sample`` takes a
generator or a lane block of replicate streams (:mod:`adagof.streams`) alike:
a block's ``(rows, n)`` uniforms map in one pass.  The Gaussian cdf/quantile pair is backed by
``scipy.special.ndtr`` / ``ndtri`` (Cephes rational approximations, well
below the 1e-12 absolute error this package requires), imported on first
use: ``scipy.special`` adds about 20 MB of RSS, and the uniform and
exponential paths never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_TINY = np.nextafter(0.0, 1.0)


def check_sample_size(n) -> None:
    """A sampler's size must be an integer >= 1 (a bool is not one)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidInputError(f"sample size must be an integer >= 1, got {n!r}")


def _unit_uniforms(stream, n) -> np.ndarray:
    # random() yields [0, 1); nudge exact zeros so strict (0, 1) quantile
    # preconditions hold along the sampling path.  The alternatives' samplers
    # use it too, as alternatives._unit.
    u = stream.random(n)
    u[u == 0.0] = _TINY
    return u


@dataclass(frozen=True)
class NullDensity:
    """Base interface; use the concrete subclasses below."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def l2_norm_sq(self) -> float:
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        ua = np.asarray(u, dtype=float)
        if np.any(ua <= 0.0) or np.any(ua >= 1.0):
            raise InvalidInputError("quantile argument must lie strictly inside (0, 1)")
        out = self._quantile(ua)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, stream) -> np.ndarray:
        """n i.i.d. draws by inverse transform; deterministic given the stream.
        From a lane block, n per lane, one row each."""
        check_sample_size(n)
        return self._quantile(_unit_uniforms(stream, n))

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform01(NullDensity):
    @property
    def name(self) -> str:
        return "uniform"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    @property
    def l2_norm_sq(self) -> float:
        return 1.0

    def pdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.where((xa >= 0.0) & (xa <= 1.0), 1.0, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        out = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        return u.copy()

    def sample(self, n: int, stream) -> np.ndarray:
        check_sample_size(n)
        return stream.random(n)

    def to_json(self) -> dict:
        return {"family": "uniform"}


@dataclass(frozen=True)
class Gaussian(NullDensity):
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self) -> None:
        if not self.sd > 0.0:
            raise InvalidInputError(f"sd must be positive, got {self.sd}")

    @property
    def name(self) -> str:
        return f"gaussian({self.mean:g},{self.sd:g})"

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def l2_norm_sq(self) -> float:
        return 1.0 / (2.0 * self.sd * math.sqrt(math.pi))

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        out = np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def cdf(self, x):
        from scipy import special

        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        out = special.ndtr(z)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        from scipy import special

        return self.mean + self.sd * special.ndtri(u)

    def to_json(self) -> dict:
        return {"family": "gaussian", "mean": self.mean, "sd": self.sd}


@dataclass(frozen=True)
class Exponential(NullDensity):
    """Unit exponential, density ``exp(-x)`` on [0, infinity)."""

    @property
    def name(self) -> str:
        return "exponential"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    @property
    def l2_norm_sq(self) -> float:
        return 0.5

    def pdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0.0, np.exp(-np.maximum(xa, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0.0, -np.expm1(-np.maximum(xa, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u)

    def to_json(self) -> dict:
        return {"family": "exponential"}


def transform_to_uniform(d: NullDensity, sample: np.ndarray) -> np.ndarray:
    """Map each observation through the null cdf.

    Under the null the transformed values are uniform on [0, 1]; the map is
    monotone, so the order of the observations is preserved.
    """
    return np.asarray(d.cdf(np.asarray(sample, dtype=float)))


def null_from_spec(spec: str) -> NullDensity:
    """Parse ``uniform``, ``exponential``, or ``gaussian:MEAN,SD``."""
    s = spec.strip().lower()
    if s == "uniform":
        return Uniform01()
    if s == "exponential":
        return Exponential()
    if s.startswith("gaussian"):
        if s == "gaussian":
            return Gaussian()
        _, _, params = s.partition(":")
        try:
            mean_s, sd_s = params.split(",")
            return Gaussian(mean=float(mean_s), sd=float(sd_s))
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse gaussian spec {spec!r}") from exc
    raise InvalidInputError(f"unknown null density spec {spec!r}")


def null_from_json(doc: dict) -> NullDensity:
    family = doc.get("family")
    if family == "uniform":
        return Uniform01()
    if family == "exponential":
        return Exponential()
    if family == "gaussian":
        return Gaussian(mean=float(doc["mean"]), sd=float(doc["sd"]))
    raise InvalidInputError(f"unknown null density document {doc!r}")
