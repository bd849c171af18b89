"""Fixed null densities with exact samplers and the analytic quantities the
statistics need: pdf, cdf, inverse cdf, and the squared L2 norm.

The families are uniform on [0, 1], Gaussian and the unit exponential.  Each
is a class, named by ``family``, with its parameters as dataclass fields; the
spec parser, the JSON reader and writer and ``name`` all read these.  Sampling
is by inverse transform, one uniform draw to one value, keeping replicate
streams aligned across test variants.  It is elementwise, so ``sample`` takes
a generator or a lane block of replicate streams (:mod:`adagof.streams`)
alike: a block's ``(rows, n)`` uniforms map in one pass.

The Gaussian quantile is :func:`ndtri`, Moshier's Cephes rational
approximation ported to numpy with the same coefficients and operations, so
it equals ``scipy.special.ndtri`` bit for bit.  The Gaussian cdf is
``scipy.special.ndtr``, imported on first use: ``scipy.special`` adds about
18 MB of RSS, and only the Gaussian cdf needs it here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _json_field, parse_fields

_TINY = np.nextafter(0.0, 1.0)

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), as scipy.special has it.  P0/Q0 approximate the centre,
# exp(-2) < y <= 1 - exp(-2), in (y - 1/2)^2; P1/Q1 and P2/Q2 the lower tail
# in 1/x, x = sqrt(-2 log y), for x below and from 8 (y above and from
# exp(-32)).  Every Q is monic; its leading 1 is not stored.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _rational(x: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """Cephes' ``x * polevl(x, p) / p1evl(x, q)``, Horner in place, in its
    order of operations."""
    num = np.multiply(x, p[0])
    for c in p[1:]:
        num += c
        num *= x
    den = np.add(x, q[0])
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, as in Cephes; numpy's own vectorised
    # log differs from it in the last bit on a few inputs in 10^4
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def ndtri(y):
    """The standard normal quantile of ``y``, elementwise: Cephes ``ndtri``,
    equal to ``scipy.special.ndtri`` bit for bit.  0 maps to -inf, 1 to
    +inf, and NaN or a value outside [0, 1] to NaN."""
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    # Cephes reflects y above 1 - exp(-2) to 1 - y, which then lies below
    # exp(-2), so the centre is exp(-2) < y <= 1 - exp(-2) unreflected
    tail = np.flatnonzero(~((flat > _EXP_M2) & (flat <= 1.0 - _EXP_M2)))
    w = flat - 0.5
    # the centre rational runs over every element; at 0 a tail element (an
    # infinite y included) stays finite there, and its result is replaced below
    w[tail] = 0.0
    out = _rational(w * w, _P0, _Q0)
    out *= w
    out += w
    out *= _S2PI
    v = flat[tail]
    upper = v > 1.0 - _EXP_M2  # reflected to the lower tail, and not negated
    np.subtract(1.0, v, out=v, where=upper)
    bad = ~(v > 0.0)  # 0, 1, NaN and values outside [0, 1]: no logs of them
    v[bad] = 0.5
    x = np.sqrt(-2.0 * _libm_log(v))
    z = 1.0 / x
    x0 = x - _libm_log(x) / x
    far = x >= 8.0
    x1 = _rational(z, _P1, _Q1)
    if far.any():
        x1[far] = _rational(z[far], _P2, _Q2)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper)
    edge = flat[tail[bad]]
    x0[bad] = np.where(edge == 0.0, -np.inf, np.where(edge == 1.0, np.inf, np.nan))
    out[tail] = x0
    return out.reshape(y.shape)


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
    """Base interface; use the concrete subclasses below.  A subclass sets the
    class attributes ``family``, ``support`` and ``l2_norm_sq`` (a property
    where it depends on the parameters, which are its fields in spec order)."""

    @property
    def name(self) -> str:
        """The family, then any parameters by ``g``: ``gaussian(0,1)``."""
        params = ",".join(format(v, "g") for v in dataclasses.astuple(self))
        return f"{self.family}({params})" if params else self.family

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
        return {"family": self.family, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class Uniform01(NullDensity):
    family = "uniform"
    support = (0.0, 1.0)
    l2_norm_sq = 1.0

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


@dataclass(frozen=True)
class Gaussian(NullDensity):
    family = "gaussian"
    support = (-math.inf, math.inf)
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and 0.0 < self.sd < math.inf):
            raise InvalidInputError(f"gaussian needs a finite mean and a finite sd > 0, got {self}")
        # below about 1.6e-309 the L2 norm overflows, and each statistic with it
        if not math.isfinite(self.l2_norm_sq):
            raise InvalidInputError(f"gaussian sd {self.sd!r} is too small: its L2 norm is not finite")

    @property
    def l2_norm_sq(self) -> float:
        return 1.0 / (2.0 * self.sd * math.sqrt(math.pi))

    def pdf(self, x):
        # far out, z or z * z overflows to inf and the density is exactly 0
        with np.errstate(over="ignore"):
            z = (np.asarray(x, dtype=float) - self.mean) / self.sd
            out = np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def cdf(self, x):
        from scipy import special

        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        out = special.ndtr(z)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        return self.mean + self.sd * ndtri(u)


@dataclass(frozen=True)
class Exponential(NullDensity):
    """Unit exponential, density ``exp(-x)`` on [0, infinity)."""

    family = "exponential"
    support = (0.0, math.inf)
    l2_norm_sq = 0.5

    def pdf(self, x):
        xa = np.asarray(x, dtype=float)
        # exp(-max(x, 0)) in one buffer, then 0 off the support (NaN included)
        out = np.maximum(xa, 0.0, out=np.empty_like(xa))
        np.exp(np.negative(out, out=out), out=out)
        np.copyto(out, 0.0, where=~(xa >= 0.0))
        return out if out.ndim else float(out)

    def cdf(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0.0, -np.expm1(-np.maximum(xa, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u)


_FAMILIES = {cls.family: cls for cls in (Uniform01, Gaussian, Exponential)}


def transform_to_uniform(d: NullDensity, sample: np.ndarray) -> np.ndarray:
    """Map each observation through the null cdf.

    Under the null the transformed values are uniform on [0, 1]; the map is
    monotone, so the order of the observations is preserved.
    """
    return np.asarray(d.cdf(np.asarray(sample, dtype=float)))


def null_from_spec(spec: str) -> NullDensity:
    """Parse ``FAMILY[:P1,P2,...]``: a family, then none or one number per
    parameter, in field order; omitted parameters take their defaults."""
    family, colon, params = spec.lower().partition(":")
    cls = _FAMILIES.get(family := family.strip())
    types = (float,) * len(dataclasses.fields(cls)) if cls else ()
    if cls is None or (colon and not types):
        raise InvalidInputError(f"unknown null density spec {spec!r}")
    return cls(*parse_fields(params, types, f"null density {family!r}")) if colon else cls()


def null_from_json(doc: dict) -> NullDensity:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"null must be a JSON object, got {doc!r}")
    family = doc.get("family")
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise InvalidInputError(f"unknown null density document {doc!r}")
    fields = (f.name for f in dataclasses.fields(cls))
    return cls(**{f: _json_field(doc, f, float, name=f"null.{f}") for f in fields})
