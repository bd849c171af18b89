"""Alternative densities for the power studies, with exact samplers.

Each spec carries the exact pdf and a sampler that draws from it without
discretization error: mixtures select a component with a Bernoulli draw,
bounded perturbations of the uniform use rejection with a constant envelope,
Beta comes from two Gamma draws, Gamma from the accept-reject scheme of
Marsaglia and Tsang (with the standard shape-boost identity below one), and
the remaining families use inverse transforms.

Specs are addressable by string id, e.g. ``f:0.5,2``, ``g:10,20,0.25``,
``norm:g:1,1``, ``exp:k:10,20,0.25``.

A sampler draws from a generator or from a lane block of replicate streams
(:mod:`adagof.streams`), with one implementation for both: a generator is a
one-lane block.  Inverse transforms are elementwise and take a block's
``(rows, n)`` uniforms at once.  The rejection, Marsaglia-Tsang and
pick-then-fill samplers owe each lane its own number of draws; every pass
advances all unfinished lanes together, on rows padded to the widest lane,
and appends each lane's accepted values in order, so each lane consumes
exactly the uniforms a one-lane call on its generator would.  Their inner
steps return the draws of all lanes as one flat array, lane after lane.

``scipy.special`` is imported inside the samplers and densities that use it,
once per call and before a sampler's first lane draw: it adds about 20 MB of
RSS to every process importing adagof, and the uniform and exponential nulls
never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError, parse_fields
from .null_models import NullDensity, check_sample_size
from .null_models import _unit_uniforms as _unit
from .streams import LaneBlock, as_lanes

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = np.nextafter(0.0, 1.0)


def _lanes(stream, n):
    """The lane block of ``stream`` and the draws each lane owes: ``n`` on
    every lane, or one count per lane."""
    lanes = as_lanes(stream)
    return lanes, np.broadcast_to(np.asarray(n, dtype=np.intp), (lanes.rows,))


def _flat(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[i]`` entries of each row ``i``, row after row: a
    pass's draws without the padding."""
    return values[np.arange(values.shape[1]) < counts[:, None]]


def _append(out: np.ndarray, filled: np.ndarray, values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Write each row's ``values[ok]``, in order, into its row of ``out`` after
    its ``filled`` entries; returns the new fill."""
    rows, cols = np.nonzero(ok)
    taken = np.bincount(rows, minlength=filled.size)
    first = np.cumsum(taken) - taken
    out[rows, filled[rows] + np.arange(rows.size) - first[rows]] = values[rows, cols]
    return filled + taken


def _import_special() -> None:
    """Import ``scipy.special`` ahead of a mixture sampler's first lane draw,
    for ``_gamma`` to use later.  Its first import allocates a few MB for a
    moment, which would otherwise add to the block's drawn lanes."""
    from scipy import special  # noqa: F401


def _lanewise(draw):
    """A spec sampler from ``draw(lanes, n)``, which returns a ``(rows, n)``
    array: a lane block gets every row, a generator its one row."""

    def sampler(stream, n):
        out = draw(as_lanes(stream), n)
        return out if isinstance(stream, LaneBlock) else out[0]

    return sampler


@dataclass(frozen=True)
class AlternativeSpec:
    id: str
    pdf: Callable[[np.ndarray], np.ndarray]
    #: ``sampler(stream, n)``: n draws from a generator, or ``(rows, n)``
    #: from a lane block
    sampler: Callable[[object, int], np.ndarray]
    support: tuple[float, float]
    params: dict = field(default_factory=dict)
    #: finite window holding all but < 1e-8 of the mass, for quadrature
    quad_window: tuple[float, float] = (0.0, 1.0)


def alt_pdf(spec: AlternativeSpec, x) -> np.ndarray:
    """Density of the alternative at ``x`` (zero off support)."""
    return spec.pdf(np.asarray(x, dtype=float))


def alt_sample(spec: AlternativeSpec, stream, n: int) -> np.ndarray:
    """n exact i.i.d. draws from the alternative; from a lane block, n per
    lane, one row each."""
    check_sample_size(n)
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


def gamma_sample(stream, shape: float, n) -> np.ndarray:
    """Gamma(shape, scale=1) draws by Marsaglia-Tsang accept-reject.

    Normal proposals come from the Gaussian quantile of a uniform draw, so
    the sampler consumes only the uniform stream.  For shape < 1 a draw with
    shape + 1 is scaled by U^(1/shape).  ``n`` draws, or on a lane block ``n``
    per lane (one count per lane allowed), lane after lane.
    """
    if shape <= 0.0:
        raise InvalidInputError(f"gamma shape must be positive, got {shape}")
    lanes, want = _lanes(stream, n)
    if shape < 1.0:
        boost = _flat(_unit(lanes, want), want) ** (1.0 / shape)
        return _gamma(lanes, shape + 1.0, want) * boost
    from scipy import special  # once per call, not per rejection pass

    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty((lanes.rows, want.max(initial=0)))
    filled = np.zeros(lanes.rows, dtype=np.intp)
    while (k := want - filled).any():
        z = special.ndtri(_unit(lanes, k))
        u = _unit(lanes, k)
        v = (1.0 + c * z) ** 3
        ok = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(np.maximum(v, _TINY)))
        ok &= np.arange(ok.shape[1]) < k[:, None]
        filled = _append(out, filled, d * v, ok)
    return _flat(out, want)


# The samplers call gamma_sample under this name: perfbench/tracing.py wraps
# the module's gamma_sample and adds the sizes of its _unit calls as numbers,
# which a lane block's per-lane counts are not.
_gamma = gamma_sample


def beta_sample(stream, p: float, q: float, n) -> np.ndarray:
    """Beta(p, q) draws as G1 / (G1 + G2), shaped like ``gamma_sample``'s."""
    g1 = _gamma(stream, p, n)
    g2 = _gamma(stream, q, n)
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


def _rejection_unit_counted(stream, n, pdf: Callable[[np.ndarray], np.ndarray], envelope: float):
    """Rejection sampling on [0, 1) under a constant envelope: ``n`` draws, or
    on a lane block ``n`` per lane (one count per lane allowed), lane after
    lane.  Returns (draws, number of proposals) so acceptance rates can be
    audited."""
    lanes, want = _lanes(stream, n)
    out = np.empty((lanes.rows, want.max(initial=0)))
    filled = np.zeros(lanes.rows, dtype=np.intp)
    proposals = 0
    while (k := want - filled).any():
        x = _unit(lanes, k)
        v = lanes.random(k)
        proposals += int(k.sum())
        ok = (v * envelope <= pdf(x)) & (np.arange(x.shape[1]) < k[:, None])
        filled = _append(out, filled, x, ok)
    return _flat(out, want), proposals


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

    @_lanewise
    def sampler(lanes, n):
        draws, _ = _rejection_unit_counted(
            lanes, n, lambda x: 1.0 + rho * np.cos(j * np.pi * x), 1.0 + rho
        )
        return draws.reshape(lanes.rows, n)

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

    @_lanewise
    def sampler(lanes, n):
        _import_special()
        pick = lanes.random(n) < eps
        n_beta = pick.sum(axis=1)
        out = np.empty(pick.shape)
        out[~pick] = _flat(lanes.random(n - n_beta), n - n_beta)
        out[pick] = beta_sample(lanes, p, q, n_beta)
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

    @_lanewise
    def sampler(lanes, n):
        draws, _ = _rejection_unit_counted(lanes, n, raw, 1.0 + rho * amp)
        return draws.reshape(lanes.rows, n)

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
        out = np.empty(u.shape)
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


def _exp_part(lanes, counts: np.ndarray) -> np.ndarray:
    """Unit exponential draws by inversion, ``counts[i]`` on lane ``i``, lane
    after lane."""
    return _flat(-np.log1p(-_unit(lanes, counts)), counts)


def _half_exp_half_unit(label: str, bump: Callable, params: dict) -> AlternativeSpec:
    """``(exp(-x) + (1 + bump(x)) 1_(0,1))/2`` where the bump integrates to 0."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        base = np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0)), 0.0)
        unit = np.where((x > 0.0) & (x < 1.0), 1.0 + bump(x), 0.0)
        return 0.5 * (base + unit)

    @_lanewise
    def sampler(lanes, n):
        pick = lanes.random(n) < 0.5
        n_exp = pick.sum(axis=1)
        out = np.empty(pick.shape)
        out[pick] = _exp_part(lanes, n_exp)
        draws, _ = _rejection_unit_counted(lanes, n - n_exp, lambda x: 1.0 + bump(x), 2.0)
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

    @_lanewise
    def sampler(lanes, n):
        _import_special()
        pick = lanes.random(n) < eps
        n_beta = pick.sum(axis=1)
        out = np.empty(pick.shape)
        out[~pick] = _exp_part(lanes, n - n_beta)
        out[pick] = beta_sample(lanes, p, q, n_beta)
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

    @_lanewise
    def sampler(lanes, n):
        _import_special()
        pick = lanes.random(n) < eps
        n_gamma = pick.sum(axis=1)
        out = np.empty(pick.shape)
        out[~pick] = _exp_part(lanes, n - n_gamma)
        out[pick] = _gamma(lanes, p, n_gamma) / q
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

    @_lanewise
    def sampler(lanes, n):
        return 2.0 * _gamma(lanes, 1.5, n).reshape(lanes.rows, n)

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
