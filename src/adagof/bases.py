"""Orthonormal function systems of the projection statistics.

Two families:

* ``PIECEWISE_CONSTANT`` -- indicators ``sqrt(D) * 1_[k/D, (k+1)/D)`` for
  ``k`` ranging over all integers.  The index set is unbounded, so the family
  is realized lazily through bin indices rather than explicit function
  objects.
* ``FOURIER`` -- the trigonometric system on [0, 1]: the constant function,
  then ``sqrt(2) cos(2 pi p x)`` and ``sqrt(2) sin(2 pi p x)`` interleaved.
  Its values come from :func:`multiple_angles`, the one implementation of
  the multiple-angle rows that the statistic kernels share.

The statistic kernels in :mod:`adagof.estimators` evaluate these directly;
:func:`basis_sums` and :func:`bin_counts` expose the per-function sums of
one sample.

:func:`legendre_polys` is the one three-term recurrence for the shifted
Legendre polynomials on [0, 1]: the Kallenberg-Ledwina smooth test scores
with them (:mod:`adagof.baselines`) and the ``h:`` alternatives perturb the
uniform with one of them (:mod:`adagof.alternatives`).
"""

from __future__ import annotations

import enum
import math
from collections import Counter

import numpy as np

from .errors import InvalidInputError

_SQRT2 = math.sqrt(2.0)


class BasisFamily(enum.Enum):
    PIECEWISE_CONSTANT = "piecewise"
    FOURIER = "fourier"


def bin_index(x: float, D: int, upper: float | None = None) -> int:
    """Index ``k = floor(D * x)`` (float64 product) of the bin ``[k/D, (k+1)/D)`` holding ``x``.

    When ``upper`` is given (bounded-support convention, e.g. uniformity
    testing on [0, 1]), an observation exactly at the upper support edge is
    clamped into the last interior bin so no mass is silently dropped.
    """
    if D < 1:
        raise InvalidInputError(f"D must be a positive integer, got {D}")
    if not math.isfinite(x):
        raise InvalidInputError(f"observation must be finite, got {x}")
    if upper is not None and x == upper:
        return int(math.floor(D * upper)) - 1
    return int(math.floor(D * x))


def bin_counts(sample: np.ndarray, D: int, upper: float | None = None) -> dict[int, int]:
    """Sparse bin occupancy ``{k: N_k}`` of the sample at resolution ``D``.

    The keys range over all integers, so this also serves nulls supported on
    the whole real line.  ``sum(N_k) == len(sample)`` exactly.
    """
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise InvalidInputError("sample must be nonempty")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("sample contains non-finite observations")
    if D < 1:
        raise InvalidInputError(f"D must be a positive integer, got {D}")
    k = np.floor(D * x).astype(np.int64)
    if upper is not None:
        k[x == upper] = int(math.floor(D * upper)) - 1
    return dict(Counter(k.tolist()))


def multiple_angles(theta, rows: int, sines: bool = False) -> np.ndarray:
    """The first ``rows`` terms of ``cos(0), cos(theta), cos(2 theta), ...``,
    or with ``sines`` of ``cos(0), sin(0), cos(theta), sin(theta), cos(2
    theta), sin(2 theta), ...``, stacked along a new leading axis; ``rows``
    reaches ``cos(theta)`` at least.  With ``sines``, row ``l + 1`` is the
    l-th trigonometric function of :func:`fourier_eval` over ``sqrt(2)`` for
    ``l >= 1``.

    Only ``cos(theta)`` and ``sin(theta)`` are taken from libm; every further
    row comes from the Chebyshev recurrence ``v_p = 2 cos(theta) v_{p-1} -
    v_{p-2}``, which ``cos(p theta)`` and ``sin(p theta)`` both satisfy.  The
    rounding error grows with ``p``: against ``np.cos``/``np.sin`` of the
    angle ``p theta`` it stays below about 3e-14 absolute for ``p <= 12`` and
    3e-13 for ``p <= 64`` on [0, 2 pi].
    """
    theta = np.asarray(theta, dtype=float)
    step = 2 if sines else 1
    v = np.empty((rows,) + theta.shape)
    v[0] = 1.0
    np.cos(theta, out=v[step])
    if sines:
        v[1] = 0.0
        if rows > 3:
            np.sin(theta, out=v[3])
    two_cos = 2.0 * v[step]
    for k in range(2 * step, rows):
        np.multiply(two_cos, v[k - step], out=v[k])
        v[k] -= v[k - 2 * step]
    return v


def fourier_eval(l: int, x):
    """Value of the l-th trigonometric basis function at ``x`` in [0, 1].

    The row ``l + 1`` of :func:`multiple_angles` at ``2 pi x`` times
    ``sqrt(2)``, so these are bit for bit the values the statistic kernels
    sum; they depend on libm only through ``cos(2 pi x)`` and ``sin(2 pi x)``.
    """
    if l < 0:
        raise InvalidInputError(f"function index must be nonnegative, got {l}")
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):  # false for NaN too
        raise InvalidInputError("fourier basis is defined on [0, 1]")
    if l == 0:
        out = np.ones_like(xa)
    else:
        theta = 2.0 * np.pi * xa.reshape(-1)
        out = (_SQRT2 * multiple_angles(theta, l + 2, sines=True)[l + 1]).reshape(xa.shape)
    return out if out.ndim else float(out)


def legendre_polys(x, dmax: int):
    """Yield the shifted Legendre polynomials ``P_l(2x - 1)`` at ``x`` for
    ``l = 0, ..., dmax``, in order, by the recurrence ``l P_l(t) = (2l - 1) t
    P_{l-1}(t) - (l - 1) P_{l-2}(t)``.  They are orthogonal on [0, 1] with
    squared norm ``1 / (2l + 1)``, so ``sqrt(2l + 1) P_l`` has unit norm.  Only
    the last two are kept at a time."""
    t = 2.0 * np.asarray(x, dtype=float) - 1.0
    p_prev, p_cur = np.ones_like(t), t
    yield p_prev
    for l in range(1, dmax + 1):
        if l > 1:
            p_prev, p_cur = p_cur, ((2 * l - 1) * t * p_cur - (l - 1) * p_prev) / l
        yield p_cur


def basis_sums(
    sample: np.ndarray,
    family: BasisFamily,
    D: int,
    upper: float | None = None,
):
    """Per-function sums of the pair-sum identity for one sample.

    For the piecewise-constant family the return value is the sparse count
    map ``{k: N_k}`` (from which ``S_k = sqrt(D) N_k`` and ``Q_k = D N_k``);
    for the Fourier family it is the pair of length-(D+1) arrays
    ``(S_l, Q_l)`` with ``S_l = sum_i p_l(X_i)`` and ``Q_l = sum_i p_l(X_i)^2``.
    """
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise InvalidInputError("sample must be nonempty")
    if family is BasisFamily.PIECEWISE_CONSTANT:
        return bin_counts(x, D, upper=upper)
    vals = np.array([fourier_eval(l, x) for l in range(D + 1)])
    return vals.sum(axis=1), (vals * vals).sum(axis=1)
