"""Alternative densities for the power studies, with exact samplers.

Each spec carries the exact pdf and a sampler that draws from it without
discretization error: mixtures select a component with a Bernoulli draw,
bounded perturbations of the uniform use rejection with a constant envelope,
Beta comes from two Gamma draws, Gamma from the accept-reject scheme of
Marsaglia and Tsang (with the standard shape-boost identity below one), and
the remaining families use inverse transforms.

Specs are addressable by string id, e.g. ``f:0.5,2``, ``g:10,20,0.25``,
``norm:g:1,1``, ``exp:k:10,20,0.25``.

``scipy.special`` is imported inside the samplers and densities that use it,
once per call: it adds about 20 MB of RSS to every process importing adagof,
and the uniform and exponential nulls never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError, parse_fields
from .null_models import NullDensity

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = np.nextafter(0.0, 1.0)


def _unit(stream: np.random.Generator, n: int) -> np.ndarray:
    u = stream.random(n)
    u[u == 0.0] = _TINY
    return u


@dataclass(frozen=True)
class AlternativeSpec:
    id: str
    pdf: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    support: tuple[float, float]
    params: dict = field(default_factory=dict)
    #: finite window holding all but < 1e-8 of the mass, for quadrature
    quad_window: tuple[float, float] = (0.0, 1.0)


def alt_pdf(spec: AlternativeSpec, x) -> np.ndarray:
    """Density of the alternative at ``x`` (zero off support)."""
    return spec.pdf(np.asarray(x, dtype=float))


def alt_sample(spec: AlternativeSpec, stream: np.random.Generator, n: int) -> np.ndarray:
    """n exact i.i.d. draws from the alternative."""
    if n < 1:
        raise InvalidInputError(f"sample size must be >= 1, got {n}")
    return spec.sampler(stream, n)


def alt_l2_distance_sq(spec: AlternativeSpec, d: NullDensity) -> float:
    """Squared L2 distance between the alternative and the null density.

    Adaptive quadrature over the union of both quad windows; used to order
    alternatives by difficulty in reports.
    """
    from scipy import integrate  # deferred: it adds ~26 MB RSS to every process importing adagof
    lo = min(spec.quad_window[0], max(d.support[0], -60.0))
    hi = max(spec.quad_window[1], min(d.support[1], 60.0))

    def integrand(x):
        return (spec.pdf(np.asarray(x)) - d.pdf(x)) ** 2

    value, err = integrate.quad(integrand, lo, hi, limit=400)
    if err > 1e-6:
        raise InvalidInputError(f"quadrature failed to reach 1e-6 (error {err:.2e})")
    return float(value)


# ---------------------------------------------------------------------------
# Gamma / Beta primitives
# ---------------------------------------------------------------------------


def gamma_sample(stream: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Gamma(shape, scale=1) draws by Marsaglia-Tsang accept-reject.

    Normal proposals come from the Gaussian quantile of a uniform draw, so
    the sampler consumes only the uniform stream.  For shape < 1 a draw with
    shape + 1 is scaled by U^(1/shape).
    """
    if shape <= 0.0:
        raise InvalidInputError(f"gamma shape must be positive, got {shape}")
    if shape < 1.0:
        boost = _unit(stream, n) ** (1.0 / shape)
        return gamma_sample(stream, shape + 1.0, n) * boost
    from scipy import special  # once per call, not per rejection pass

    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        k = n - filled
        z = special.ndtri(_unit(stream, k))
        u = _unit(stream, k)
        v = (1.0 + c * z) ** 3
        ok = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(np.maximum(v, _TINY)))
        m = int(ok.sum())
        if m:
            out[filled : filled + m] = d * v[ok]
            filled += m
    return out


def beta_sample(stream: np.random.Generator, p: float, q: float, n: int) -> np.ndarray:
    g1 = gamma_sample(stream, p, n)
    g2 = gamma_sample(stream, q, n)
    return g1 / (g1 + g2)


def beta_pdf(x: np.ndarray, p: float, q: float) -> np.ndarray:
    from scipy import special

    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xv = np.where(inside, x, 0.5)
    log_norm = special.gammaln(p) + special.gammaln(q) - special.gammaln(p + q)
    vals = np.exp((p - 1.0) * np.log(xv) + (q - 1.0) * np.log1p(-xv) - log_norm)
    return np.where(inside, vals, 0.0)


def gamma_pdf(x: np.ndarray, shape: float, rate: float) -> np.ndarray:
    from scipy import special

    x = np.asarray(x, dtype=float)
    inside = x > 0.0
    xv = np.where(inside, x, 1.0)
    vals = np.exp(
        shape * math.log(rate) + (shape - 1.0) * np.log(xv) - rate * xv - special.gammaln(shape)
    )
    return np.where(inside, vals, 0.0)


def _rejection_unit_counted(
    stream: np.random.Generator,
    n: int,
    pdf: Callable[[np.ndarray], np.ndarray],
    envelope: float,
) -> tuple[np.ndarray, int]:
    """Rejection sampling on [0, 1) under a constant envelope; returns
    (draws, number of proposals) so acceptance rates can be audited."""
    out = np.empty(n)
    filled = 0
    proposals = 0
    while filled < n:
        k = n - filled
        x = _unit(stream, k)
        v = stream.random(k)
        proposals += k
        ok = v * envelope <= pdf(x)
        m = int(ok.sum())
        if m:
            out[filled : filled + m] = x[ok]
            filled += m
    return out, proposals


def _legendre_poly(j: int, x: np.ndarray) -> np.ndarray:
    t = 2.0 * np.asarray(x, dtype=float) - 1.0
    p_prev = np.ones_like(t)
    if j == 0:
        return p_prev
    p_cur = t
    for k in range(1, j):
        p_prev, p_cur = p_cur, ((2 * k + 1) * t * p_cur - k * p_prev) / (k + 1)
    return p_cur


# ---------------------------------------------------------------------------
# Uniformity alternatives on [0, 1]
# ---------------------------------------------------------------------------


def cosine_contamination(rho: float, j: int) -> AlternativeSpec:
    """``1 + rho cos(j pi x)`` on [0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise InvalidInputError("rho must lie in (0, 1] for a nonnegative density")
    if j < 1:
        raise InvalidInputError("frequency j must be >= 1")

    def pdf(x):
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 1.0 + rho * np.cos(j * np.pi * x), 0.0)

    def sampler(stream, n):
        draws, _ = _rejection_unit_counted(
            stream, n, lambda x: 1.0 + rho * np.cos(j * np.pi * x), 1.0 + rho
        )
        return draws

    return AlternativeSpec(
        id=f"f:{rho:g},{j:d}",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, 1.0),
        params={"rho": rho, "j": j},
    )


def beta_mixture(p: float, q: float, eps: float) -> AlternativeSpec:
    """``(1 - eps) + eps * beta_{p,q}(x)`` on [0, 1]."""
    if not (p > 0.0 and q > 0.0):
        raise InvalidInputError("beta parameters must be positive")
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError("mixture weight must lie in [0, 1]")

    def pdf(x):
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, (1.0 - eps) + eps * beta_pdf(x, p, q), 0.0)

    def sampler(stream, n):
        out = np.empty(n)
        pick = stream.random(n) < eps
        n_beta = int(pick.sum())
        out[~pick] = stream.random(n - n_beta)
        if n_beta:
            out[pick] = beta_sample(stream, p, q, n_beta)
        return out

    return AlternativeSpec(
        id=f"g:{p:g},{q:g},{eps:g}",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, 1.0),
        params={"p": p, "q": q, "eps": eps},
    )


def legendre_contamination(rho: float, j: int) -> AlternativeSpec:
    """``1 + rho phi_j(x)`` with the unit-norm shifted Legendre polynomial."""
    if j < 1:
        raise InvalidInputError("degree j must be >= 1")
    amp = math.sqrt(2 * j + 1)
    if not 0.0 < rho * amp <= 1.0:
        raise InvalidInputError("rho * sqrt(2 j + 1) must lie in (0, 1] for a density")

    def raw(x):
        return 1.0 + rho * amp * _legendre_poly(j, x)

    def pdf(x):
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, raw(np.where(inside, x, 0.5)), 0.0)

    def sampler(stream, n):
        draws, _ = _rejection_unit_counted(stream, n, raw, 1.0 + rho * amp)
        return draws

    return AlternativeSpec(
        id=f"h:{rho:g},{j:d}",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, 1.0),
        params={"rho": rho, "j": j},
    )


# ---------------------------------------------------------------------------
# Normality alternatives
# ---------------------------------------------------------------------------


def uniform_box(m: float) -> AlternativeSpec:
    """Uniform on [-m, m]."""
    if not m > 0.0:
        raise InvalidInputError("half-width must be positive")

    def pdf(x):
        return np.where(np.abs(x) <= m, 1.0 / (2.0 * m), 0.0)

    def sampler(stream, n):
        return -m + 2.0 * m * stream.random(n)

    return AlternativeSpec(
        id=f"norm:f:{m:g}",
        pdf=pdf,
        sampler=sampler,
        support=(-m, m),
        params={"m": m},
        quad_window=(-m, m),
    )


def gaussian_location_mixture(m: float, var: float) -> AlternativeSpec:
    """Equal mixture of Gaussians centred at +-m with common variance."""
    if not var > 0.0:
        raise InvalidInputError("variance must be positive")
    sd = math.sqrt(var)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        a = np.exp(-((x - m) ** 2) / (2.0 * var))
        b = np.exp(-((x + m) ** 2) / (2.0 * var))
        return (a + b) / (2.0 * _SQRT_2PI * sd)

    def sampler(stream, n):
        from scipy import special

        centre = np.where(stream.random(n) < 0.5, m, -m)
        return centre + sd * special.ndtri(_unit(stream, n))

    w = abs(m) + 8.0 * sd
    return AlternativeSpec(
        id=f"norm:g:{m:g},{var:g}",
        pdf=pdf,
        sampler=sampler,
        support=(-math.inf, math.inf),
        params={"m": m, "var": var},
        quad_window=(-w, w),
    )


def double_exponential(p: float) -> AlternativeSpec:
    """Density ``(p/2) exp(-p |x|)``."""
    if not p > 0.0:
        raise InvalidInputError("rate must be positive")

    def pdf(x):
        return 0.5 * p * np.exp(-p * np.abs(np.asarray(x, dtype=float)))

    def sampler(stream, n):
        u = _unit(stream, n)
        left = u < 0.5
        out = np.empty(n)
        out[left] = np.log(2.0 * u[left]) / p
        out[~left] = -np.log(2.0 * (1.0 - u[~left])) / p
        return out

    w = 40.0 / p
    return AlternativeSpec(
        id=f"norm:h:{p:g}",
        pdf=pdf,
        sampler=sampler,
        support=(-math.inf, math.inf),
        params={"p": p},
        quad_window=(-w, w),
    )


# ---------------------------------------------------------------------------
# Exponentiality alternatives on (0, infinity)
# ---------------------------------------------------------------------------


def _exp_part_sampler(stream: np.random.Generator, n: int) -> np.ndarray:
    return -np.log1p(-_unit(stream, n))


def _half_exp_half_unit(label: str, bump: Callable, params: dict) -> AlternativeSpec:
    """``(exp(-x) + (1 + bump(x)) 1_(0,1))/2`` where the bump integrates to 0."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        base = np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0)), 0.0)
        unit = np.where((x > 0.0) & (x < 1.0), 1.0 + bump(x), 0.0)
        return 0.5 * (base + unit)

    def sampler(stream, n):
        out = np.empty(n)
        pick = stream.random(n) < 0.5
        n_exp = int(pick.sum())
        if n_exp:
            out[pick] = _exp_part_sampler(stream, n_exp)
        if n - n_exp:
            draws, _ = _rejection_unit_counted(
                stream, n - n_exp, lambda x: 1.0 + bump(x), 2.0
            )
            out[~pick] = draws
        return out

    return AlternativeSpec(
        id=label,
        pdf=pdf,
        sampler=sampler,
        support=(0.0, math.inf),
        params=params,
        quad_window=(0.0, 40.0),
    )


def exp_sine_bump(p: int) -> AlternativeSpec:
    if p < 2 or p % 2 != 0:
        raise InvalidInputError("sine bump frequency must be a positive even integer")
    return _half_exp_half_unit(
        f"exp:g:{p:d}", lambda x: np.sin(p * np.pi * x), {"p": p}
    )


def exp_cosine_bump(p: int) -> AlternativeSpec:
    if p < 1:
        raise InvalidInputError("cosine bump frequency must be a positive integer")
    return _half_exp_half_unit(
        f"exp:h:{p:d}", lambda x: np.cos(p * np.pi * x), {"p": p}
    )


def exp_beta_mixture(p: float, q: float, eps: float) -> AlternativeSpec:
    """``(1 - eps) exp(-x) + eps beta_{p,q}(x)``."""
    if not (p > 0.0 and q > 0.0):
        raise InvalidInputError("beta parameters must be positive")
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError("mixture weight must lie in [0, 1]")

    def pdf(x):
        x = np.asarray(x, dtype=float)
        base = np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0)), 0.0)
        return (1.0 - eps) * base + eps * beta_pdf(x, p, q)

    def sampler(stream, n):
        out = np.empty(n)
        pick = stream.random(n) < eps
        n_beta = int(pick.sum())
        if n - n_beta:
            out[~pick] = _exp_part_sampler(stream, n - n_beta)
        if n_beta:
            out[pick] = beta_sample(stream, p, q, n_beta)
        return out

    return AlternativeSpec(
        id=f"exp:k:{p:g},{q:g},{eps:g}",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, math.inf),
        params={"p": p, "q": q, "eps": eps},
        quad_window=(0.0, 40.0),
    )


def exp_gamma_mixture(p: float, q: float, eps: float) -> AlternativeSpec:
    """``(1 - eps) exp(-x) + eps gamma_{p,q}(x)`` with shape p and rate q."""
    if not (p > 0.0 and q > 0.0):
        raise InvalidInputError("gamma parameters must be positive")
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError("mixture weight must lie in [0, 1]")

    def pdf(x):
        x = np.asarray(x, dtype=float)
        base = np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0)), 0.0)
        return (1.0 - eps) * base + eps * gamma_pdf(x, p, q)

    def sampler(stream, n):
        out = np.empty(n)
        pick = stream.random(n) < eps
        n_gamma = int(pick.sum())
        if n - n_gamma:
            out[~pick] = _exp_part_sampler(stream, n - n_gamma)
        if n_gamma:
            out[pick] = gamma_sample(stream, p, n_gamma) / q
        return out

    return AlternativeSpec(
        id=f"exp:l:{p:g},{q:g},{eps:g}",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, math.inf),
        params={"p": p, "q": q, "eps": eps},
        quad_window=(0.0, max(40.0, 30.0 * p / q)),
    )


def lognormal_alt() -> AlternativeSpec:
    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xv = np.where(inside, x, 1.0)
        vals = np.exp(-0.5 * np.log(xv) ** 2) / (xv * _SQRT_2PI)
        return np.where(inside, vals, 0.0)

    def sampler(stream, n):
        from scipy import special

        return np.exp(special.ndtri(_unit(stream, n)))

    return AlternativeSpec(
        id="exp:t",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, math.inf),
        params={},
        quad_window=(0.0, 1200.0),
    )


def chi2_three_alt() -> AlternativeSpec:
    """Density ``sqrt(x) exp(-x/2) / (2^{3/2} Gamma(3/2))``."""

    def pdf(x):
        return gamma_pdf(x, 1.5, 0.5)

    def sampler(stream, n):
        return 2.0 * gamma_sample(stream, 1.5, n)

    return AlternativeSpec(
        id="exp:v",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, math.inf),
        params={},
        quad_window=(0.0, 80.0),
    )


def weibull_alt() -> AlternativeSpec:
    """Weibull with shape 1.5: ``1.5 x^0.5 exp(-x^1.5)``."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xv = np.where(inside, x, 1.0)
        return np.where(inside, 1.5 * np.sqrt(xv) * np.exp(-(xv**1.5)), 0.0)

    def sampler(stream, n):
        return (-np.log1p(-_unit(stream, n))) ** (2.0 / 3.0)

    return AlternativeSpec(
        id="exp:w",
        pdf=pdf,
        sampler=sampler,
        support=(0.0, math.inf),
        params={},
        quad_window=(0.0, 20.0),
    )


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


# Id prefix -> (constructor, parameter types).  Integer parameters take
# integer literals only.
_CATALOG = {
    "f": (cosine_contamination, (float, int)),
    "g": (beta_mixture, (float, float, float)),
    "h": (legendre_contamination, (float, int)),
    "norm:f": (uniform_box, (float,)),
    "norm:g": (gaussian_location_mixture, (float, float)),
    "norm:h": (double_exponential, (float,)),
    "exp:g": (exp_sine_bump, (int,)),
    "exp:h": (exp_cosine_bump, (int,)),
    "exp:k": (exp_beta_mixture, (float, float, float)),
    "exp:l": (exp_gamma_mixture, (float, float, float)),
    "exp:t": (lognormal_alt, ()),
    "exp:v": (chi2_three_alt, ()),
    "exp:w": (weibull_alt, ()),
}


def from_id(alt_id: str) -> AlternativeSpec:
    """Resolve a catalog id like ``f:0.5,2`` or ``exp:l:2,5,0.75``."""
    s = str(alt_id).strip()
    prefix, params = (s, "") if s in _CATALOG else s.rpartition(":")[::2]
    if prefix not in _CATALOG:
        raise InvalidInputError(f"unknown alternative id {alt_id!r}")
    make, types = _CATALOG[prefix]
    return make(*parse_fields(params, types, f"alternative {prefix!r}"))
