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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import BasisFamily, bin_index, fourier_eval
# Imported only so that perfbench/tracing.py can wrap it at this import site.
from .bases import basis_sums  # noqa: F401
from .errors import (
    InsufficientSampleError,
    InvalidInputError,
    SupportViolationError,
)
from .null_models import NullDensity


@dataclass(frozen=True)
class ModelIndex:
    """One projection space: a basis family at a given resolution."""

    family: BasisFamily
    degree: int

    def __post_init__(self) -> None:
        if self.family not in (BasisFamily.PIECEWISE_CONSTANT, BasisFamily.FOURIER):
            raise InvalidInputError(
                f"model spaces use the piecewise or fourier family, got {self.family}"
            )
        if self.degree < 1:
            raise InvalidInputError(f"degree must be >= 1, got {self.degree}")

    @property
    def label(self) -> str:
        return f"{self.family.value}:{self.degree}"


def pinned_order(models) -> list[ModelIndex]:
    """Canonical model ordering: piecewise ascending degree, then fourier.

    All max-reductions and reported witnesses use this ordering, so outputs
    are stable regardless of how a collection was assembled.
    """
    key = {BasisFamily.PIECEWISE_CONSTANT: 0, BasisFamily.FOURIER: 1}
    return sorted(models, key=lambda m: (key[m.family], m.degree))


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
    """

    relative_span: float = 10.0
    coarse_points: int = 257
    refine_rounds: int = 1
    refine_factor: int = 8

    def __post_init__(self) -> None:
        if not self.relative_span > 1.0:
            raise InvalidInputError("relative_span must exceed 1")
        if self.coarse_points < 3:
            raise InvalidInputError("coarse_points must be >= 3")
        if self.refine_rounds < 0 or self.refine_factor < 1:
            raise InvalidInputError("refinement parameters must be nonnegative/positive")

    def ratios(self) -> np.ndarray:
        span = math.log(self.relative_span)
        return np.exp(np.linspace(-span, span, self.coarse_points))

    def to_json(self) -> dict:
        return {
            "relative_span": self.relative_span,
            "coarse_points": self.coarse_points,
            "refine_rounds": self.refine_rounds,
            "refine_factor": self.refine_factor,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ScaleSearchPolicy":
        return cls(
            relative_span=float(doc["relative_span"]),
            coarse_points=int(doc["coarse_points"]),
            refine_rounds=int(doc["refine_rounds"]),
            refine_factor=int(doc["refine_factor"]),
        )


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
    Carlo resolution everywhere the statistic is consumed.
    """
    ratios = x / np.mean(x, axis=-1, keepdims=True)
    return np.float32(ratios).astype(np.float64)


# ---------------------------------------------------------------------------
# Kernels.  One row per sample; row-local reductions only, so a row's values
# do not depend on the other rows or on how rows are chunked across workers.
# ---------------------------------------------------------------------------


def _checked_rows(samples) -> np.ndarray:
    """The samples as a float (rows, n) matrix, checked finite with n >= 2."""
    x = np.asarray(samples, dtype=float)
    if x.shape[-1] < 2:
        raise InsufficientSampleError(f"need at least 2 observations, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("sample contains non-finite observations")
    return x


def _row(sample) -> np.ndarray:
    """One sample as a one-row batch."""
    return np.asarray(sample, dtype=float).reshape(1, -1)


def _upper_edge(d: NullDensity) -> float | None:
    hi = d.support[1]
    return hi if math.isfinite(hi) else None


def _rowwise_pair_counts(k_sorted: np.ndarray) -> np.ndarray:
    """Same-bin unordered pairs per row of a row-sorted integer matrix.

    Works in place on one run-length buffer: a fresh temporary per step
    costs a page-faulting allocation per call at calibration batch sizes.
    """
    b, n = k_sorted.shape
    if n < 2:
        return np.zeros(b, dtype=np.int64)
    idx = np.arange(1, n)
    run = np.where(k_sorted[:, 1:] == k_sorted[:, :-1], 0, idx)
    np.maximum.accumulate(run, axis=1, out=run)  # where each element's run starts
    np.subtract(idx, run, out=run)  # earlier elements of the same run
    return run.sum(axis=1)


def _piecewise_theta(z: np.ndarray, degree: int, upper: float | None = None) -> np.ndarray:
    """``theta_hat`` of the piecewise model per row of a row-sorted matrix.

    ``upper`` activates the bounded-support convention: an observation
    exactly at that value is clamped into the last interior bin.
    """
    k = np.floor(degree * z).astype(np.int64)
    if upper is not None:
        k[z == upper] = int(math.floor(degree * upper)) - 1
    n = z.shape[1]
    return degree * (2.0 * _rowwise_pair_counts(k)) / (n * (n - 1))


def _theta_batch(x: np.ndarray, models, upper: float | None) -> np.ndarray:
    """(rows, models) matrix of ``theta_hat`` on a checked, row-sorted batch."""
    b, n = x.shape
    out = np.empty((b, len(models)))
    max_fourier = max(
        (m.degree for m in models if m.family is BasisFamily.FOURIER), default=-1
    )
    if max_fourier >= 0:
        cols = np.empty((max_fourier + 1, b))
        for l in range(max_fourier + 1):
            vals = fourier_eval(l, x)
            S = vals.sum(axis=1)
            Q = (vals * vals).sum(axis=1)
            cols[l] = S * S - Q
        fourier_cums = np.cumsum(cols, axis=0)
    for col, m in enumerate(models):
        if m.family is BasisFamily.PIECEWISE_CONSTANT:
            out[:, col] = _piecewise_theta(x, m.degree, upper)
        else:
            out[:, col] = fourier_cums[m.degree] / (n * (n - 1))
    return out


def _plug_in(z: np.ndarray, d: NullDensity) -> np.ndarray:
    """Per-row plug-in term ``||f0||^2 - (2/n) sum_i f0(z_i)`` of ``t_hat``."""
    return d.l2_norm_sq - 2.0 * np.sum(d.pdf(z), axis=1) / z.shape[1]


def simple_stats_batch(samples: np.ndarray, models, d: NullDensity) -> np.ndarray:
    """Matrix of ``t_hat`` values, one row per replicate, one column per model.

    Rows are sorted before summation, so each value is exactly invariant
    under permutation of its sample.
    """
    x = np.sort(_checked_rows(samples), axis=1)
    return _theta_batch(x, models, _upper_edge(d)) + _plug_in(x, d)[:, None]


def _scale_search(
    samples: np.ndarray, models, d: NullDensity, policy: ScaleSearchPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of ``t_hat(x / (mean(x) r))`` over the policy's ratios ``r``,
    per row and piecewise model, and the ratio attaining it.

    Ties keep the candidate evaluated first: the smallest coarse ratio, and a
    refinement candidate only when it is strictly lower.
    """
    for m in models:
        if m.family is not BasisFamily.PIECEWISE_CONSTANT:
            raise InvalidInputError("composite scale search expects piecewise models")
    x = _checked_rows(samples)
    if d.support[0] == 0.0 and np.any(x <= 0.0):
        raise SupportViolationError("all observations must be positive for this null family")
    y = np.sort(scale_free_ratios(x), axis=1)

    grid = policy.ratios()
    best = np.full((y.shape[0], len(models)), np.inf)
    best_idx = np.zeros(best.shape, dtype=np.int64)
    for j, r in enumerate(grid):
        z = y * (1.0 / r)
        offset = _plug_in(z, d)
        vals = _theta_batch(z, models, None) + offset[:, None]
        better = vals < best
        np.copyto(best, vals, where=better)
        np.copyto(best_idx, j, where=better)
    best_ratio = grid[best_idx]

    log_grid = np.log(grid)
    steps = 2 * policy.refine_factor
    for col, m in enumerate(models):
        lo = log_grid[np.maximum(best_idx[:, col] - 1, 0)]
        hi = log_grid[np.minimum(best_idx[:, col] + 1, grid.size - 1)]
        cur_lo, cur_hi = lo, hi
        for _ in range(policy.refine_rounds):
            for t in range(steps + 1):
                r = np.exp(cur_lo + (cur_hi - cur_lo) * (t / steps))
                z = y / r[:, None]
                vals = _piecewise_theta(z, m.degree) + _plug_in(z, d)
                better = vals < best[:, col]
                np.copyto(best[:, col], vals, where=better)
                np.copyto(best_ratio[:, col], r, where=better)
            width = (cur_hi - cur_lo) / steps
            centre = np.log(best_ratio[:, col])
            cur_lo = np.maximum(centre - width, lo)
            cur_hi = np.minimum(centre + width, hi)
    return best, best_ratio


def composite_scale_stats_batch(
    samples: np.ndarray,
    models,
    d: NullDensity,
    policy: ScaleSearchPolicy,
) -> np.ndarray:
    """Matrix of ``t_tilde_scale`` values across replicates.

    Only piecewise models are supported (the composite search is used with
    bin-count statistics).
    """
    return _scale_search(samples, models, d, policy)[0]


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
