"""Competitor tests: Kolmogorov-Smirnov against a fixed cdf, the
estimated-parameter KS test of exponentiality, the cosine-series maximum
test, and the data-driven smooth test with Schwarz selection over Legendre
polynomials.

Critical values are always estimated by Monte Carlo at the requested level
(rank ``ceil((1 - alpha) B)`` order statistic under the null), including for
the cosine-series test, whose published calibration is conservative.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .bases import legendre_polys, multiple_angles
from .calibration import sample_blocks, threshold_matrix
from .errors import BudgetTooSmallError, InvalidInputError, SupportViolationError
from .estimators import _checked_rows, _row, _row_blocks, scale_free_ratios
from .null_models import Exponential, NullDensity, Uniform01

# Imported only so that perfbench/tracing.py can wrap it at this import site.
from .streams import derive_stream  # noqa: F401


class BaselineKind(Enum):
    KS = "ks"
    KS_EXPONENTIAL = "ks_exponential"
    BICKEL_RITOV = "bickel_ritov"
    KALLENBERG_LEDWINA = "kallenberg_ledwina"


#: Series dimensions used at the two benchmark sample sizes.
DEFAULT_DIMENSION = {50: 10, 100: 12}


def default_dimension(n: int) -> int:
    try:
        return DEFAULT_DIMENSION[n]
    except KeyError:
        raise InvalidInputError(
            f"no default series dimension for n={n}; pass d_of_n explicitly"
        ) from None


@dataclass(frozen=True)
class BaselineConfig:
    """A calibrated baseline test, with calibration provenance."""

    kind: BaselineKind
    alpha: float
    critical_value: float
    n: int
    d_of_n: int | None = None
    budget: int = 0
    seed: int = 0

    def to_json(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}


def _sorted_cdf_ks(v: np.ndarray) -> np.ndarray:
    """KS distance per row given row-sorted null cdf values."""
    b, n = v.shape
    i = np.arange(1, n + 1)
    upper = (i / n - v).max(axis=1)
    lower = (v - (i - 1) / n).max(axis=1)
    return np.maximum(upper, lower)


def ks_statistic(sample: np.ndarray, d: NullDensity) -> float:
    """Kolmogorov-Smirnov distance between the empirical cdf and the null cdf."""
    return float(ks_statistic_batch(_row(sample), d)[0])


def ks_statistic_batch(samples: np.ndarray, d: NullDensity) -> np.ndarray:
    xs = np.sort(_checked_rows(samples, min_n=1), axis=1)
    return _sorted_cdf_ks(np.asarray(d.cdf(xs), dtype=float))


def ks_exponential_statistic(sample: np.ndarray) -> float:
    """KS distance to the exponential cdf with the mean plugged in as scale.

    Computed on the canonical mean-standardized ratios, so the value is
    bit-identical under ``x -> c x``; its null law is free of the true scale.
    """
    return float(ks_exponential_statistic_batch(_row(sample))[0])


def ks_exponential_statistic_batch(samples: np.ndarray) -> np.ndarray:
    x = _checked_rows(samples, min_n=1)
    if np.any(x <= 0.0):
        raise SupportViolationError("exponentiality statistic needs positive observations")
    r = np.sort(scale_free_ratios(x), axis=1)
    return _sorted_cdf_ks(-np.expm1(-r))


def _check_unit_interval(x: np.ndarray) -> None:
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise InvalidInputError("observations must lie in [0, 1]")


def _cosine_colsums(x: np.ndarray, dmax: int) -> np.ndarray:
    """(dmax, B) matrix of ``sum_i cos(l pi x_i)`` for l = 1..dmax.

    The cosines are rows 1..dmax of :func:`~adagof.bases.multiple_angles` at
    ``pi x``, so they depend on libm only through ``cos(pi x)``; the recurrence
    keeps them within about 3e-14 of ``np.cos`` for ``l <= 12``.  Row blocks
    of the stacked cosines hold about ``_BLOCK_ELEMENTS`` elements.
    """
    b, n = x.shape
    sums = np.empty((dmax, b))
    for blk in _row_blocks(b, n * (dmax + 1)):
        sums[:, blk] = multiple_angles(np.pi * x[blk], dmax + 1)[1:].sum(axis=-1)
    return sums


def bickel_ritov_statistic(sample: np.ndarray, d_of_n: int) -> float:
    """Maximum over dimensions of the centred, scaled cosine-series statistic.

    The inner double sum over observation pairs INCLUDES the diagonal, so the
    per-dimension statistic reduces to ``(2/n) sum_l (sum_i cos(l pi X_i))^2``.
    """
    return float(bickel_ritov_statistic_batch(_row(sample), d_of_n)[0])


def bickel_ritov_statistic_batch(samples: np.ndarray, d_of_n: int) -> np.ndarray:
    x = _checked_rows(samples, min_n=1)
    _check_unit_interval(x)
    if d_of_n < 1:
        raise InvalidInputError("series dimension must be >= 1")
    n = x.shape[1]
    sums = _cosine_colsums(x, d_of_n)
    t_nd = np.cumsum(2.0 * sums * sums / n, axis=0)  # (dmax, B)
    dims = np.arange(1, d_of_n + 1)[:, None]
    return ((t_nd - dims) / np.sqrt(2.0 * dims)).max(axis=0)


def _legendre_colsums(x: np.ndarray, dmax: int) -> np.ndarray:
    """(dmax, B) matrix of ``sum_i phi_l(x_i)`` for l = 1..dmax."""
    polys = legendre_polys(x, dmax)
    next(polys)  # P_0 = 1
    return np.array([math.sqrt(2 * l + 1) * p.sum(axis=1) for l, p in enumerate(polys, 1)])


def kallenberg_ledwina_statistic_batch(
    samples: np.ndarray, d_of_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Schwarz-selected dimension and smooth statistic per replicate.

    ``T_D`` accumulates squared normalized Legendre score sums; the selected
    dimension is the smallest maximizer of ``T_D - D log n``.
    """
    x = _checked_rows(samples, min_n=1)
    _check_unit_interval(x)
    if not 1 <= d_of_n <= 20:
        raise InvalidInputError("series dimension must lie in 1..20")
    n = x.shape[1]
    sums = _legendre_colsums(x, d_of_n)
    t_d = np.cumsum(sums * sums / n, axis=0)  # (dmax, B)
    penalized = t_d - np.arange(1, d_of_n + 1)[:, None] * math.log(n)
    selected = penalized.argmax(axis=0)  # first maximizer = smallest dimension
    stats = t_d[selected, np.arange(x.shape[0])]
    return selected + 1, stats


def kallenberg_ledwina_test(
    sample: np.ndarray, d_of_n: int, critical_value: float
) -> tuple[int, float, bool]:
    """Run the data-driven smooth test; returns (selected_D, statistic, reject)."""
    selected, stats = kallenberg_ledwina_statistic_batch(_row(sample), d_of_n)
    stat = float(stats[0])
    return int(selected[0]), stat, stat > critical_value


def baseline_statistics(kind: BaselineKind, samples: np.ndarray, d_of_n: int | None) -> np.ndarray:
    """One statistic per row of ``samples`` for the given baseline: the
    critical value is simulated through it and the harness decides with it."""
    if kind is BaselineKind.KS:
        return ks_statistic_batch(samples, Uniform01())
    if kind is BaselineKind.KS_EXPONENTIAL:
        return ks_exponential_statistic_batch(samples)
    if kind is BaselineKind.BICKEL_RITOV:
        return bickel_ritov_statistic_batch(samples, d_of_n)
    return kallenberg_ledwina_statistic_batch(samples, d_of_n)[1]


def calibrate_baseline(
    kind: BaselineKind,
    n: int,
    alpha: float = 0.05,
    B: int = 20_000,
    seed: int = 0,
    d_of_n: int | None = None,
) -> BaselineConfig:
    """Monte Carlo critical value: the (1-alpha) rank quantile under the null.

    The null generator is the unit exponential for the exponentiality test
    and uniform on [0, 1] otherwise.  Statistics are computed one lane block
    of ``sample_blocks`` at a time, serially.
    """
    if B < 1000:
        raise BudgetTooSmallError(f"baseline calibration budget must be >= 1000, got {B}")
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    if kind in (BaselineKind.BICKEL_RITOV, BaselineKind.KALLENBERG_LEDWINA) and d_of_n is None:
        d_of_n = default_dimension(n)
    null = Exponential() if kind is BaselineKind.KS_EXPONENTIAL else Uniform01()
    blocks = sample_blocks(null.sample, n, seed, f"baseline:{kind.value}", 0, B)
    stats = np.concatenate([baseline_statistics(kind, samples, d_of_n) for samples in blocks])
    crit = float(threshold_matrix(stats[:, None], np.array([alpha]))[0, 0])
    return BaselineConfig(
        kind=kind, alpha=alpha, critical_value=crit, n=n, d_of_n=d_of_n, budget=B, seed=seed
    )
