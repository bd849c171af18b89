"""Alternative densities for the power studies, with exact samplers.

Each spec carries the exact pdf and a sampler that draws from it without
discretization error: mixtures select a component with a Bernoulli draw,
bounded perturbations of the uniform use rejection with a constant envelope,
Beta comes from two Gamma draws, Gamma from the accept-reject scheme of
Marsaglia and Tsang (with the standard shape-boost identity below one), and
the remaining families use inverse transforms.

Specs are addressable by string id, e.g. ``f:0.5,2``, ``g:10,20,0.25``,
``norm:g:1,1``, ``exp:k:10,20,0.25``.

The catalog holds one copy of each sampling step: one accept-reject loop
(``_accept_reject``, behind the constant-envelope rejection and
Marsaglia-Tsang), one ``1 + bump`` density on [0, 1] (``_contaminated_unit``:
``f:``, ``h:`` and the unit half of ``exp:g:``/``exp:h:``), one two-part
mixture fill (``_fill``), the exponential null's own pdf and quantile, the
Legendre recurrence of :func:`adagof.bases.legendre_polys`, and one id
format (``_spec``), from the parameter types ``from_id`` parses.

A sampler draws from a generator or from a lane block of replicate streams
(:mod:`adagof.streams`), with one implementation for both: a generator is a
one-lane block.  Inverse transforms are elementwise and take a block's
``(rows, n)`` uniforms at once.  The rejection, Marsaglia-Tsang and
pick-then-fill samplers owe each lane its own number of draws; every pass
advances all unfinished lanes together, on rows padded to the widest lane,
and appends each lane's accepted values in order, so each lane consumes
exactly the uniforms a one-lane call on its generator would.  Their inner
steps return the draws of all lanes as one flat array, lane after lane.

A multi-pass sampler reserves each fresh lane's prefix before its first
draw (``LaneBlock.reserve``), so a lane is drawn once, not once for the first
request and again, longer, for the next.

Normal variates (the Marsaglia-Tsang proposals, ``norm:g`` and ``exp:t``) come
from :func:`adagof.null_models.ndtri`, a numpy port of the Cephes quantile
that ``scipy.special.ndtri`` computes, equal to it bit for bit.  Sampling
never loads ``scipy.special``: it adds about 18 MB of RSS to a process.  The
Beta and Gamma pdfs (``gammaln``) import it on first use, and
``alt_l2_distance_sq`` imports ``scipy.integrate``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bases import legendre_polys
from .errors import InvalidInputError, parse_fields
from .null_models import _TINY, Exponential, NullDensity, Uniform01, check_sample_size, ndtri
from .null_models import _unit_uniforms as _unit
from .streams import LaneBlock, as_lanes

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EXP = Exponential()


def _lanes(stream, n):
    """The lane block of ``stream`` and the draws each lane owes: ``n`` on
    every lane, or one count per lane.  Only the multi-pass samplers call
    it, so it reserves the prefix of each lane that has drawn nothing yet."""
    lanes = as_lanes(stream)
    want = np.broadcast_to(np.asarray(n, dtype=np.intp), (lanes.rows,))
    lanes.reserve(want)
    return lanes, want


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


def _lanewise(draw):
    """A spec sampler from ``draw(lanes, n)``, which returns the ``rows * n``
    draws of a block, flat or as rows: a lane block gets every row, a
    generator its one row."""

    def sampler(stream, n):
        lanes = as_lanes(stream)
        out = draw(lanes, n).reshape(lanes.rows, n)
        return out if isinstance(stream, LaneBlock) else out[0]

    return sampler


def _accept_reject(stream, n, propose):
    """Accept-reject over lanes: ``n`` draws, or on a lane block ``n`` per lane
    (one count per lane allowed), lane after lane.  ``propose(lanes, k)``
    draws ``k[i]`` candidates on lane ``i``, on rows padded to the widest
    lane, and returns them with their acceptance mask; each lane keeps its
    accepted candidates in order until it has its draws.  Returns (draws,
    number of proposals)."""
    lanes, want = _lanes(stream, n)
    out = np.empty((lanes.rows, want.max(initial=0)))
    filled = np.zeros(lanes.rows, dtype=np.intp)
    proposals = 0
    while (k := want - filled).any():
        x, ok = propose(lanes, k)
        proposals += int(k.sum())
        filled = _append(out, filled, x, ok & (np.arange(ok.shape[1]) < k[:, None]))
    return _flat(out, want), proposals


def _fill(lanes, mask: np.ndarray, first, second) -> np.ndarray:
    """The ``(rows, n)`` draws of a two-part mixture: the entries ``mask``
    marks from ``first(lanes, counts)``, then the others from
    ``second(lanes, counts)``.  Each part takes one count per lane and
    returns its draws flat, lane after lane."""
    counts = mask.sum(axis=1)
    out = np.empty(mask.shape)
    out[mask] = first(lanes, counts)
    out[~mask] = second(lanes, mask.shape[1] - counts)
    return out


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
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    def propose(lanes, k):
        z = ndtri(_unit(lanes, k))
        u = _unit(lanes, k)
        v = (1.0 + c * z) ** 3
        ok = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(np.maximum(v, _TINY)))
        return d * v, ok

    return _accept_reject(lanes, want, propose)[0]


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

    def propose(lanes, k):
        x = _unit(lanes, k)
        return x, lanes.random(k) * envelope <= pdf(x)

    return _accept_reject(stream, n, propose)


def _contaminated_unit(bump: Callable, envelope: float, closed: bool = True):
    """``(pdf, draw)`` of the density ``1 + bump(x)`` on [0, 1], where the
    bump integrates to 0 and ``1 + bump <= envelope``: ``draw(lanes,
    counts)`` samples it by rejection, flat, lane after lane.  The pdf
    includes the edges 0 and 1 when ``closed``, and excludes them
    otherwise."""

    def pdf(x):
        inside = (x >= 0.0) & (x <= 1.0) if closed else (x > 0.0) & (x < 1.0)
        return np.where(inside, 1.0 + bump(np.where(inside, x, 0.5)), 0.0)

    def draw(lanes, counts):
        return _rejection_unit_counted(lanes, counts, lambda x: 1.0 + bump(x), envelope)[0]

    return pdf, draw


def _beta_part(p: float, q: float):
    """``(pdf, draw)`` of Beta(p, q), a mixture part."""
    if not (p > 0.0 and q > 0.0):
        raise InvalidInputError("beta parameters must be positive")
    return (lambda x: beta_pdf(x, p, q)), (lambda lanes, counts: beta_sample(lanes, p, q, counts))


_UNIFORM_PART = (Uniform01().pdf, lambda lanes, counts: _flat(lanes.random(counts), counts))


def _exp_part(lanes, counts: np.ndarray) -> np.ndarray:
    """Unit exponential draws by inversion, ``counts[i]`` on lane ``i``, lane
    after lane."""
    return _flat(_EXP._quantile(_unit(lanes, counts)), counts)


_EXP_PART = (_EXP.pdf, _exp_part)


def _mixture(prefix: str, params: dict, base, part, eps: float, support, quad_window) -> AlternativeSpec:
    """``(1 - eps) base + eps part`` for ``(pdf, draw)`` pairs: an entry is
    from ``part`` where its lane's uniform falls below ``eps``, and the base
    entries are drawn first."""
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError("mixture weight must lie in [0, 1]")
    (base_pdf, base_draw), (part_pdf, part_draw) = base, part

    def pdf(x):
        return (1.0 - eps) * base_pdf(x) + eps * part_pdf(x)

    @_lanewise
    def sampler(lanes, n):
        lanes.reserve(n)
        return _fill(lanes, lanes.random(n) >= eps, base_draw, part_draw)

    return _spec(prefix, params, pdf, sampler, support, quad_window)


# ---------------------------------------------------------------------------
# Uniformity alternatives on [0, 1]
# ---------------------------------------------------------------------------


def cosine_contamination(rho: float, j: int) -> AlternativeSpec:
    """``1 + rho cos(j pi x)`` on [0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise InvalidInputError("rho must lie in (0, 1] for a nonnegative density")
    if j < 1:
        raise InvalidInputError("frequency j must be >= 1")
    pdf, draw = _contaminated_unit(lambda x: rho * np.cos(j * np.pi * x), 1.0 + rho)
    return _spec("f", {"rho": rho, "j": j}, pdf, _lanewise(draw), (0.0, 1.0))


def beta_mixture(p: float, q: float, eps: float) -> AlternativeSpec:
    """``(1 - eps) + eps * beta_{p,q}(x)`` on [0, 1]."""
    return _mixture(
        "g", {"p": p, "q": q, "eps": eps}, _UNIFORM_PART, _beta_part(p, q), eps, (0.0, 1.0), (0.0, 1.0)
    )


def legendre_contamination(rho: float, j: int) -> AlternativeSpec:
    """``1 + rho phi_j(x)`` with the unit-norm shifted Legendre polynomial."""
    if j < 1:
        raise InvalidInputError("degree j must be >= 1")
    amp = math.sqrt(2 * j + 1)
    if not 0.0 < rho * amp <= 1.0:
        raise InvalidInputError("rho * sqrt(2 j + 1) must lie in (0, 1] for a density")

    def bump(x):
        return rho * amp * deque(legendre_polys(x, j), maxlen=1)[0]

    pdf, draw = _contaminated_unit(bump, 1.0 + rho * amp)
    return _spec("h", {"rho": rho, "j": j}, pdf, _lanewise(draw), (0.0, 1.0))


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

    return _spec("norm:f", {"m": m}, pdf, sampler, (-m, m), (-m, m))


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
        centre = np.where(stream.random(n) < 0.5, m, -m)
        return centre + sd * ndtri(_unit(stream, n))

    w = abs(m) + 8.0 * sd
    return _spec("norm:g", {"m": m, "var": var}, pdf, sampler, (-math.inf, math.inf), (-w, w))


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
    return _spec("norm:h", {"p": p}, pdf, sampler, (-math.inf, math.inf), (-w, w))


# ---------------------------------------------------------------------------
# Exponentiality alternatives on (0, infinity)
# ---------------------------------------------------------------------------


def _half_exp_half_unit(prefix: str, params: dict, bump: Callable) -> AlternativeSpec:
    """``(exp(-x) + (1 + bump(x)) 1_(0,1))/2`` where the bump integrates to 0."""
    unit_pdf, unit_draw = _contaminated_unit(bump, 2.0, closed=False)

    def pdf(x):
        return 0.5 * (_EXP.pdf(x) + unit_pdf(x))

    @_lanewise
    def sampler(lanes, n):
        lanes.reserve(n)
        return _fill(lanes, lanes.random(n) < 0.5, _exp_part, unit_draw)

    return _spec(prefix, params, pdf, sampler, (0.0, math.inf), (0.0, 40.0))


def exp_sine_bump(p: int) -> AlternativeSpec:
    if p < 2 or p % 2 != 0:
        raise InvalidInputError("sine bump frequency must be a positive even integer")
    return _half_exp_half_unit("exp:g", {"p": p}, lambda x: np.sin(p * np.pi * x))


def exp_cosine_bump(p: int) -> AlternativeSpec:
    if p < 1:
        raise InvalidInputError("cosine bump frequency must be a positive integer")
    return _half_exp_half_unit("exp:h", {"p": p}, lambda x: np.cos(p * np.pi * x))


def exp_beta_mixture(p: float, q: float, eps: float) -> AlternativeSpec:
    """``(1 - eps) exp(-x) + eps beta_{p,q}(x)``."""
    return _mixture(
        "exp:k", {"p": p, "q": q, "eps": eps}, _EXP_PART, _beta_part(p, q), eps,
        (0.0, math.inf), (0.0, 40.0),
    )


def exp_gamma_mixture(p: float, q: float, eps: float) -> AlternativeSpec:
    """``(1 - eps) exp(-x) + eps gamma_{p,q}(x)`` with shape p and rate q."""
    if not (p > 0.0 and q > 0.0):
        raise InvalidInputError("gamma parameters must be positive")
    gamma_part = (lambda x: gamma_pdf(x, p, q)), (lambda lanes, counts: _gamma(lanes, p, counts) / q)
    return _mixture(
        "exp:l", {"p": p, "q": q, "eps": eps}, _EXP_PART, gamma_part, eps,
        (0.0, math.inf), (0.0, max(40.0, 30.0 * p / q)),
    )


def lognormal_alt() -> AlternativeSpec:
    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xv = np.where(inside, x, 1.0)
        vals = np.exp(-0.5 * np.log(xv) ** 2) / (xv * _SQRT_2PI)
        return np.where(inside, vals, 0.0)

    def sampler(stream, n):
        return np.exp(ndtri(_unit(stream, n)))

    return _spec("exp:t", {}, pdf, sampler, (0.0, math.inf), (0.0, 1200.0))


def chi2_three_alt() -> AlternativeSpec:
    """Density ``sqrt(x) exp(-x/2) / (2^{3/2} Gamma(3/2))``."""

    def pdf(x):
        return gamma_pdf(x, 1.5, 0.5)

    @_lanewise
    def sampler(lanes, n):
        return 2.0 * _gamma(lanes, 1.5, n)

    return _spec("exp:v", {}, pdf, sampler, (0.0, math.inf), (0.0, 80.0))


def weibull_alt() -> AlternativeSpec:
    """Weibull with shape 1.5: ``1.5 x^0.5 exp(-x^1.5)``."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = x > 0.0
        xv = np.where(inside, x, 1.0)
        return np.where(inside, 1.5 * np.sqrt(xv) * _EXP.pdf(xv**1.5), 0.0)

    def sampler(stream, n):
        return _EXP._quantile(_unit(stream, n)) ** (2.0 / 3.0)

    return _spec("exp:w", {}, pdf, sampler, (0.0, math.inf), (0.0, 20.0))


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


def _id_value(v, kind: type) -> str:
    """A parameter as ``from_id`` parses it back: integers with ``d``, floats
    with ``g`` when its six significant digits hold the value, else ``repr``."""
    if kind is int:
        return format(v, "d")
    short = format(v, "g")
    return short if float(short) == v else repr(float(v))


def _spec(prefix, params, pdf, sampler, support, quad_window=(0.0, 1.0)) -> AlternativeSpec:
    """The catalog entry with id ``prefix:v1,...``, the parameters in the
    order ``from_id`` parses them."""
    types = _CATALOG[prefix][1]
    values = ",".join(_id_value(v, t) for v, t in zip(params.values(), types))
    alt_id = f"{prefix}:{values}" if types else prefix
    return AlternativeSpec(alt_id, pdf, sampler, support, params, quad_window)


def from_id(alt_id: str) -> AlternativeSpec:
    """Resolve a catalog id like ``f:0.5,2`` or ``exp:l:2,5,0.75``."""
    s = str(alt_id).strip()
    prefix, colon, params = (s, "", "") if s in _CATALOG else s.rpartition(":")
    make, types = _CATALOG.get(prefix, (None, ()))
    if make is None or (colon and not types):
        raise InvalidInputError(f"unknown alternative id {alt_id!r}")
    return make(*parse_fields(params, types, f"alternative {prefix!r}"))
