"""Core statistics: the unbiased projected-norm estimator, the simple-null
statistic, and the composite statistics with their parameter-infimum search.

The estimator of the squared norm of the projection of the data density onto
a model space is the pair-sum U-statistic

    theta_hat = (1 / (n (n-1))) * sum_l sum_{i != j} p_l(X_i) p_l(X_j),

computed through the identity ``sum_{i != j} p_l(X_i) p_l(X_j) = S_l^2 - Q_l``
with ``S_l = sum_i p_l(X_i)`` and ``Q_l = sum_i p_l(X_i)^2``; for the
piecewise family the sum is ``D`` times the number of ordered same-bin pairs.
The simple-null statistic adds the plug-in cross terms:

    t_hat = theta_hat + ||f0||_2^2 - (2/n) sum_i f0(X_i).

Composite statistics take the infimum of ``t_hat`` over standardizations
``(x - mu) / sigma``.  The scale-only search runs on a log-spaced grid that
rescales with the sample mean, which makes the statistic exactly scale
invariant (see :func:`scale_free_ratios`).

Each statistic has one kernel, working on a batch with one row per sample:
:func:`simple_stats_batch` and the scale search behind
:func:`composite_scale_stats_batch`.  The single-sample functions evaluate a
one-row batch, so a decision computes bit for bit the statistic that was
simulated to calibrate its thresholds.

The piecewise kernels count same-bin pairs from run lengths in one flat pass
over a stacked array -- all degrees of a block of rows, or every (row,
candidate ratio) pair of the scale search -- read as one C-ordered vector:
one contiguous compare of neighbours marks the run starts, each row's first
element starts a run too, and each row sums ``L (L - 1)`` over its run
lengths ``L`` in one ``reduceat``.  The Fourier part stacks every function
of a block of rows from one ``cos`` and one ``sin`` call of ``2 pi x``: the
further harmonics come from the Chebyshev recurrence of
:func:`~adagof.bases.multiple_angles`, bit for bit the values of
:func:`~adagof.bases.fourier_eval`, so they depend on libm only through
``cos(2 pi x)`` and ``sin(2 pi x)`` and stay within about 4e-14 of
``np.cos``/``np.sin`` of each multiple angle up to degree 24.  Blocks hold
about ``_BLOCK_ELEMENTS`` stacked elements, so temporaries do not grow with
the batch.

Power counts and calibration thresholds and levels do not need every
infimum.  They first score each (row, degree) pair at the coarse ratios
nearest r = 1 (:func:`_near_unit_bound`).  Each such value is one of the
search's own candidates, computed with its arithmetic, so their minimum is
an upper bound on the search's result.  A pair is then searched exactly,
one degree at a time through :func:`composite_scale_stats_batch`, only
where a count or a threshold can depend on it: its bound exceeds its
threshold, or it may be among the largest values that a threshold quantile
reads.  A pair's exact value does not depend on the other rows or degrees,
so every count, threshold and level curve keeps its bits.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import _SQRT2, BasisFamily, bin_index, fourier_eval, multiple_angles
# Imported only so that perfbench/tracing.py can wrap it at this import site.
from .bases import basis_sums  # noqa: F401
from .errors import (
    InsufficientSampleError,
    InvalidInputError,
    SupportViolationError,
    _json_field,
)
from .null_models import NullDensity


#: Largest model degree; a Fourier degree stacks that many functions per observation.
_MAX_DEGREE = 1 << 16


@dataclass(frozen=True)
class ModelIndex:
    """One projection space: a basis family at a degree in 1.._MAX_DEGREE."""

    family: BasisFamily
    degree: int

    def __post_init__(self) -> None:
        if self.family not in (BasisFamily.PIECEWISE_CONSTANT, BasisFamily.FOURIER):
            raise InvalidInputError(
                f"model spaces use the piecewise or fourier family, got {self.family}"
            )
        if not 1 <= self.degree <= _MAX_DEGREE:
            raise InvalidInputError(f"degree must lie in 1..{_MAX_DEGREE}, got {self.degree}")

    @property
    def label(self) -> str:
        return f"{self.family.value}:{self.degree}"


def pinned_order(models) -> list[ModelIndex]:
    """Canonical model ordering: piecewise ascending degree, then fourier.

    All max-reductions and reported witnesses use this ordering, so outputs
    are stable regardless of how a collection was assembled.  A collection
    must be nonempty and list each model once.
    """
    key = {BasisFamily.PIECEWISE_CONSTANT: 0, BasisFamily.FOURIER: 1}
    ordered = sorted(models, key=lambda m: (key[m.family], m.degree))
    if not ordered or len(set(ordered)) < len(ordered):
        labels = ",".join(m.label for m in ordered)
        raise InvalidInputError(f"a model collection must be nonempty and list each model once: [{labels}]")
    return ordered


def _union_columns(collections) -> tuple[list[ModelIndex], list[list[int]]]:
    """The pinned-order union of model collections, and each collection's
    column indices into it, in the collection's own order."""
    union = pinned_order(set().union(*collections))
    column = {m: j for j, m in enumerate(union)}
    return union, [[column[m] for m in models] for models in collections]


@dataclass(frozen=True)
class ScaleSearchPolicy:
    """Search domain standing in for the infimum over all scales.

    The candidate scales are ``mean(x) * r`` for ``r`` log-spaced on
    ``[1/relative_span, relative_span]``; the grid therefore rescales
    linearly with the data.  ``coarse_points`` odd keeps the sample mean
    itself on the grid.  Each refinement round evaluates ``2 *
    refine_factor + 1`` log-spaced ratios on a window centred on the running
    argmin: one coarse cell either side in the first round, then one spacing
    of the previous round either side, so each round is ``refine_factor``
    times finer.  No window leaves the first one.

    The search scores a block of rows at once: the whole coarse grid at every
    degree, then each round's candidates of every (row, degree) pair.  Its
    memory is fixed: at most about ``_BLOCK_ELEMENTS`` scaled observations,
    or one row's ``n * max(coarse_points, degrees * (2 * refine_factor + 1))``.
    A search whose one row would stack more than ``_MAX_SEARCH_ELEMENTS``
    (2**24) is refused before it allocates.
    """

    relative_span: float = 10.0
    coarse_points: int = 257
    refine_rounds: int = 1
    refine_factor: int = 8

    def __post_init__(self) -> None:
        if not 1.0 < self.relative_span < math.inf:
            raise InvalidInputError(f"relative_span must exceed 1 and be finite, got {self.relative_span!r}")
        # At factor >= 2 a round at least halves the window, so past about 50
        # rounds it is below float64 resolution.
        caps = {"coarse_points": (3, _MAX_DEGREE), "refine_rounds": (0, 64), "refine_factor": (1, _MAX_DEGREE)}
        for name, (lo, hi) in caps.items():
            if not lo <= (value := getattr(self, name)) <= hi:
                raise InvalidInputError(f"{name} must lie in {lo}..{hi}, got {value!r}")

    def ratios(self) -> np.ndarray:
        span = math.log(self.relative_span)
        return np.exp(np.linspace(-span, span, self.coarse_points))

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "ScaleSearchPolicy":
        # each field of its default's JSON type
        return cls(**{
            k: _json_field(doc, k, type(v), name=f"policy.{k}")
            for k, v in dataclasses.asdict(cls()).items()
        })


class ScaleSearchResult(NamedTuple):
    value: float
    sigma: float
    sigma_ratio: float


class AffineSearchResult(NamedTuple):
    value: float
    mu: float
    sigma: float


def scale_free_ratios(x: np.ndarray) -> np.ndarray:
    """Canonical scale-free representation of positive samples, row-wise.

    Returns the ratios ``x / mean(x)`` along the last axis, rounded to
    float32 mantissa width (relative quantum 2^-24).  Rounding makes the
    representation -- and every statistic computed from it -- bit-identical
    under ``x -> c x`` for any c > 0: the per-element rounding noise of the
    scaled input (a few ulp) is orders of magnitude below the quantum, so
    both inputs land on the same canonical values outside a measure-zero set
    of boundary ties.  The 6e-8 relative perturbation is far below Monte
    Carlo resolution everywhere the statistic is consumed.  A row whose mean
    overflows the float range raises :class:`InvalidInputError`.
    """
    with np.errstate(over="ignore"):
        mean = np.mean(x, axis=-1, keepdims=True)
    if not np.isfinite(mean).all():
        raise InvalidInputError("sample mean overflows the float range")
    return np.float32(x / mean).astype(np.float64)


# ---------------------------------------------------------------------------
# Kernels.  One row per sample; row-local reductions only, so a row's values
# do not depend on the other rows or on how rows are chunked across workers.
# ---------------------------------------------------------------------------


#: Elements per block of the stacked kernels (256 KB of float64).  At twice
#: this, glibc returns each block's freed temporaries to the OS and the next
#: block faults them back in (a 300 x 100 search ran ~35% slower, x86-64).
_BLOCK_ELEMENTS = 1 << 15

#: Scaled observations one row of the composite scale search may stack: its
#: coarse grid or one refinement round at every degree.  Each float64
#: temporary of that size is 128 MiB; the default policy stays within it up
#: to n = 65,280.
_MAX_SEARCH_ELEMENTS = 1 << 24


def _checked_rows(samples, min_n: int = 2) -> np.ndarray:
    """The samples as a float (rows, n) matrix, checked finite with n >= min_n."""
    x = np.asarray(samples, dtype=float)
    if x.shape[-1] < min_n:
        raise InsufficientSampleError(f"need at least {min_n} observations, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("sample contains non-finite observations")
    return x


def _row(sample) -> np.ndarray:
    """One sample as a one-row batch."""
    return np.asarray(sample, dtype=float).reshape(1, -1)


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Row slices of about ``_BLOCK_ELEMENTS`` elements (at least one row)."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _piecewise_theta(bins: np.ndarray, degree) -> np.ndarray:
    """``theta_hat`` per row (last axis) of sorted bins ``floor(degree * z)``;
    ``degree`` broadcasts against ``bins.shape[:-1]``.

    A row's same-bin pairs are ``sum L (L - 1) / 2`` over its runs of equal
    bins.  The rows are read as one flat C-ordered vector (a non-contiguous
    input is copied): one compare of neighbours marks the run starts, every
    row's first element is marked too, so a row that opens on its
    predecessor's last bin still starts a run, and the run lengths are the
    gaps between consecutive starts.
    """
    n = bins.shape[-1]
    flat = bins.reshape(-1)
    new_run = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
    new_run[::n] = True
    starts = np.flatnonzero(new_run)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = flat.size - starts[-1:]
    lengths *= lengths - 1
    row_firsts = np.searchsorted(starts, np.arange(0, flat.size, n))
    pairs = (np.add.reduceat(lengths, row_firsts) // 2).reshape(bins.shape[:-1])
    return degree * (2.0 * pairs) / (n * (n - 1))


def _theta_batch(x: np.ndarray, models, upper: float | None) -> np.ndarray:
    """(rows, models) matrix of ``theta_hat`` on a checked, row-sorted batch."""
    b, n = x.shape
    out = np.empty((b, len(models)))
    piecewise, fourier = [], []
    for col, m in enumerate(models):
        (piecewise if m.family is BasisFamily.PIECEWISE_CONSTANT else fourier).append(col)
    if piecewise:
        # every piecewise degree in one stacked (degree, row, obs) pass per block
        degrees = np.array([models[c].degree for c in piecewise])[:, None, None]
        top = max(models[c].degree for c in piecewise)  # |x| peaks at a sorted row's ends
        if not math.isfinite(top * float(max(-x[:, 0].min(), x[:, -1].max()))):
            raise InvalidInputError(f"|x| times degree {top} overflows the float range")
        for blk in _row_blocks(b, n * len(piecewise)):
            bins = np.floor(degrees * x[blk])
            if upper is not None:
                np.copyto(bins, np.floor(degrees * upper) - 1, where=x[blk] == upper)
            out[blk, piecewise] = _piecewise_theta(bins, degrees[..., 0]).T
    if fourier:
        if not (np.all(x[:, 0] >= 0.0) and np.all(x[:, -1] <= 1.0)):  # rows are sorted
            raise InvalidInputError("fourier basis is defined on [0, 1]")
        # cols[l] = S_l^2 - Q_l for the functions l of fourier_eval: the
        # constant, then rows 2.. of multiple_angles(2 pi x), every function
        # of a block in one stacked (function, row, obs) pass
        degrees = np.array([models[c].degree for c in fourier])
        top = int(degrees.max())
        cols = np.empty((top + 1, b))
        cols[0] = n * n - n
        for blk in _row_blocks(b, n * (top + 2)):
            vals = multiple_angles(2.0 * np.pi * x[blk], top + 2, sines=True)[2:]
            vals *= _SQRT2
            S = vals.sum(axis=-1)
            cols[1:, blk] = S * S - (vals * vals).sum(axis=-1)
        out[:, fourier] = (np.cumsum(cols, axis=0)[degrees] / (n * (n - 1))).T
    return out


def _plug_in(z: np.ndarray, d: NullDensity) -> np.ndarray:
    """Per-row (last axis) plug-in term ``||f0||^2 - (2/n) sum_i f0(z_i)`` of ``t_hat``.

    A sum past the float range is ``inf``, which its callers refuse."""
    f = d.pdf(z)
    with np.errstate(over="ignore"):
        return d.l2_norm_sq - 2.0 * np.sum(f, axis=-1) / z.shape[-1]


def simple_stats_batch(samples: np.ndarray, models, d: NullDensity) -> np.ndarray:
    """Matrix of ``t_hat`` values, one row per replicate, one column per model.

    Rows are sorted before summation, so each value is exactly invariant
    under permutation of its sample.  A statistic past the float range raises.
    """
    x = np.sort(_checked_rows(samples), axis=1)
    upper = d.support[1] if math.isfinite(d.support[1]) else None
    stats = _theta_batch(x, models, upper) + _plug_in(x, d)[:, None]
    if not np.isfinite(stats).all():
        raise InvalidInputError(f"a statistic under {d.name} is not finite: its density overflows floats")
    return stats


def _check_scale_search(models, d: NullDensity) -> None:
    """Raise :class:`InvalidInputError` unless the composite scale search can
    run on ``models`` under ``d``: piecewise models and a null on [0, inf)."""
    for m in models:
        if m.family is not BasisFamily.PIECEWISE_CONSTANT:
            raise InvalidInputError("composite scale search expects piecewise models")
    if d.support[0] != 0.0:
        raise InvalidInputError(f"composite scale search needs a null on [0, inf), not {d.name}")


def _scale_search(
    samples: np.ndarray, models, d: NullDensity, policy: ScaleSearchPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of ``t_hat(x / (mean(x) r))`` over the policy's ratios ``r``,
    per row and piecewise model, and the ratio attaining it.

    Ties keep the candidate evaluated first: the smallest coarse ratio, and a
    refinement candidate only when it is strictly lower.
    """
    _check_scale_search(models, d)
    x = _checked_rows(samples)
    refined = len(models) * (2 * policy.refine_factor + 1) if policy.refine_rounds else 0
    if (stack := x.shape[1] * max(policy.coarse_points, refined)) > _MAX_SEARCH_ELEMENTS:
        raise InvalidInputError(
            f"the scale search would stack {stack} scaled observations per row, above its bound of"
            f" {_MAX_SEARCH_ELEMENTS}: use fewer coarse points, a smaller refine_factor or fewer models"
        )
    if np.any(x <= 0.0):
        raise SupportViolationError("all observations must be positive for this null family")
    y = np.sort(scale_free_ratios(x), axis=1)
    degrees = np.array([m.degree for m in models])
    grid = policy.ratios()
    log_grid = np.log(grid)
    steps = 2 * policy.refine_factor
    fractions = np.arange(steps + 1) / steps
    best = np.empty((y.shape[0], degrees.size))
    best_ratio = np.empty_like(best)
    candidates = max(grid.size, degrees.size * (steps + 1))
    for blk in _row_blocks(y.shape[0], y.shape[1] * candidates):
        # every (row, grid ratio) pair at every degree; the first minimum
        # along the grid is the first candidate evaluated
        z = y[blk, None, :] * (1.0 / grid)[:, None]
        plug = _plug_in(z, d)
        vals = np.empty(plug.shape + degrees.shape)
        bins = np.empty_like(z)
        for col, degree in enumerate(degrees.tolist()):
            np.floor(np.multiply(degree, z, out=bins), out=bins)
            np.add(plug, _piecewise_theta(bins, degree), out=vals[..., col])
        j = vals.argmin(axis=1)
        best[blk] = np.take_along_axis(vals, j[:, None, :], axis=1)[:, 0]
        best_ratio[blk] = grid[j]
        lo = log_grid[np.maximum(j - 1, 0)]
        hi = log_grid[np.minimum(j + 1, grid.size - 1)]
        cur_lo, cur_hi = lo, hi
        for _ in range(policy.refine_rounds):
            # every candidate of every (row, degree) pair, each at its degree
            r = np.exp(cur_lo[..., None] + (cur_hi - cur_lo)[..., None] * fractions)
            z = y[blk, None, None, :] / r[..., None]
            vals = _piecewise_theta(np.floor(degrees[:, None, None] * z), degrees[:, None])
            vals += _plug_in(z, d)
            t = vals.argmin(axis=2)[..., None]
            lowest = np.take_along_axis(vals, t, axis=2)[..., 0]
            better = lowest < best[blk]
            np.copyto(best[blk], lowest, where=better)
            np.copyto(best_ratio[blk], np.take_along_axis(r, t, axis=2)[..., 0], where=better)
            width = (cur_hi - cur_lo) / steps
            centre = np.log(best_ratio[blk])
            cur_lo = np.maximum(centre - width, lo)
            cur_hi = np.minimum(centre + width, hi)
    return best, best_ratio


def composite_scale_stats_batch(
    samples: np.ndarray, models, d: NullDensity, policy: ScaleSearchPolicy
) -> np.ndarray:
    """Matrix of ``t_tilde_scale`` values across replicates.

    Only piecewise models are supported (the composite search is used with
    bin-count statistics).
    """
    return _scale_search(samples, models, d, policy)[0]


#: Coarse ratios either side of r = 1 that :func:`_near_unit_bound` scores.
_NEAR_UNIT = 8


def _near_unit_bound(
    samples: np.ndarray, models, d: NullDensity, policy: ScaleSearchPolicy
) -> np.ndarray:
    """(rows, models) upper bounds on the values of :func:`_scale_search`.

    A bound is the least of the search's own coarse candidates at the
    ``2 * _NEAR_UNIT + 1`` grid ratios nearest r = 1, each computed with the
    search's arithmetic, so bit for bit the search's value of that candidate.
    The search keeps its coarse minimum and moves only to a strictly lower
    refinement value, so its value never exceeds the bound.  The input is
    checked as the search checks it, so a pair that the bound settles raises
    what its search would.
    """
    _check_scale_search(models, d)
    x = _checked_rows(samples)
    refined = len(models) * (2 * policy.refine_factor + 1) if policy.refine_rounds else 0
    if (stack := x.shape[1] * max(policy.coarse_points, refined)) > _MAX_SEARCH_ELEMENTS:
        raise InvalidInputError(
            f"the scale search would stack {stack} scaled observations per row, above its bound of"
            f" {_MAX_SEARCH_ELEMENTS}: use fewer coarse points, a smaller refine_factor or fewer models"
        )
    if np.any(x <= 0.0):
        raise SupportViolationError("all observations must be positive for this null family")
    y = np.sort(scale_free_ratios(x), axis=1)
    grid = policy.ratios()
    c = grid.size // 2
    scale = (1.0 / grid)[max(c - _NEAR_UNIT, 0):c + _NEAR_UNIT + 1, None]
    bound = np.empty((y.shape[0], len(models)))
    for blk in _row_blocks(y.shape[0], y.shape[1] * scale.size):
        z = y[blk, None, :] * scale
        plug = _plug_in(z, d)
        for col, m in enumerate(models):
            bound[blk, col] = (plug + _piecewise_theta(np.floor(m.degree * z), m.degree)).min(axis=1)
    return bound


# ---------------------------------------------------------------------------
# Single-sample entry points: one-row batches through the kernels above.
# ---------------------------------------------------------------------------


def theta_hat(sample: np.ndarray, m: ModelIndex, upper: float | None = None) -> float:
    """Unbiased estimator of the squared norm of the projected density.

    For the piecewise family this reduces to
    ``D * sum_k N_k (N_k - 1) / (n (n-1))`` over the sparse bin counts.

    ``upper`` activates the bounded-support convention: an observation
    exactly at that value is clamped into the last interior bin.
    """
    x = np.sort(_checked_rows(_row(sample)), axis=1)
    return float(_theta_batch(x, [m], upper)[0, 0])


def theta_hat_naive(sample: np.ndarray, m: ModelIndex, upper: float | None = None) -> float:
    """Literal double-sum evaluation of the pair estimator.

    Brute-force oracle for :func:`theta_hat`; intended for small samples.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    if n < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {n}")
    if m.family is BasisFamily.PIECEWISE_CONSTANT:
        ks = [bin_index(v, m.degree, upper=upper) for v in x]
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j and ks[i] == ks[j]:
                    total += m.degree
    else:
        vals = np.array([fourier_eval(l, x) for l in range(m.degree + 1)])
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += float(np.dot(vals[:, i], vals[:, j]))
    return total / (n * (n - 1))


def t_hat(sample: np.ndarray, m: ModelIndex, d: NullDensity) -> float:
    """Simple-null statistic ``theta_hat + ||f0||^2 - (2/n) sum f0(X_i)``.

    One row of :func:`simple_stats_batch`, so the value is exactly invariant
    under permutation of the observations.
    """
    return float(simple_stats_batch(_row(sample), [m], d)[0, 0])


def t_tilde_scale(
    sample: np.ndarray,
    m: ModelIndex,
    d: NullDensity,
    policy: ScaleSearchPolicy = ScaleSearchPolicy(),
) -> ScaleSearchResult:
    """Minimum of ``t_hat(x / sigma)`` over the policy's scale grid.

    One row of :func:`composite_scale_stats_batch`.  The statistic is
    evaluated on the canonical scale-free representation of the sample (see
    :func:`scale_free_ratios`), so the returned value and ratio are
    bit-identical under ``x -> c x``; only the reported absolute ``sigma``
    rescales.  Ties keep the candidate evaluated first: the smallest coarse
    ratio, and a refinement candidate only when it is strictly lower.
    """
    x = _row(sample)
    values, ratios = _scale_search(x, [m], d, policy)
    ratio = float(ratios[0, 0])
    return ScaleSearchResult(float(values[0, 0]), float(np.mean(x)) * ratio, ratio)


def t_tilde_affine(
    sample: np.ndarray,
    m: ModelIndex,
    d: NullDensity,
    K: tuple[tuple[float, float], tuple[float, float]],
    grid: tuple[int, int] = (17, 17),
    refine_rounds: int = 1,
    refine_factor: int = 8,
) -> AffineSearchResult:
    """Minimum of ``t_hat((x - mu) / sigma)`` over a product grid on ``K``.

    ``K = ((mu_lo, mu_hi), (sigma_lo, sigma_hi))``; a degenerate rectangle
    collapses the search to a single standardization.  Each round evaluates
    its whole grid as one :func:`simple_stats_batch` call.  Refinement
    subdivides the one-cell window around the running argmin on each axis.
    Ties break toward smaller sigma, then smaller mu.
    """
    (mu_lo, mu_hi), (sig_lo, sig_hi) = K
    if mu_lo > mu_hi or sig_lo > sig_hi:
        raise InvalidInputError("empty or inverted parameter rectangle")
    if not sig_lo > 0.0:
        raise InvalidInputError("sigma range must be strictly positive")
    n_mu, n_sig = grid
    if n_mu < 2 or n_sig < 2:
        raise InvalidInputError("grid must have at least 2 nodes per axis")
    x = _row(sample)[0]

    mus = np.linspace(mu_lo, mu_hi, n_mu)
    sigs = np.linspace(sig_lo, sig_hi, n_sig)
    best = None
    for _ in range(refine_rounds + 1):
        # sigma-major rows; argmin keeps the first minimum, which is the
        # (smaller sigma, then smaller mu) tie-break.
        z = (x[None, None, :] - mus[None, :, None]) / sigs[:, None, None]
        values = simple_stats_batch(z.reshape(-1, x.size), [m], d)[:, 0]
        j = int(np.argmin(values))
        si, mi = divmod(j, mus.size)
        if best is None or values[j] < best.value:
            best = AffineSearchResult(float(values[j]), float(mus[mi]), float(sigs[si]))
        mus = np.linspace(
            mus[max(mi - 1, 0)], mus[min(mi + 1, mus.size - 1)], 2 * refine_factor + 1
        )
        sigs = np.linspace(
            sigs[max(si - 1, 0)], sigs[min(si + 1, sigs.size - 1)], 2 * refine_factor + 1
        )
    return best
