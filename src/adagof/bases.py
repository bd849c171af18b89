"""Orthonormal function systems of the projection statistics.

Two families:

* ``PIECEWISE_CONSTANT`` -- indicators ``sqrt(D) * 1_[k/D, (k+1)/D)`` for
  ``k`` ranging over all integers.  The index set is unbounded, so the family
  is realized lazily through bin indices rather than explicit function
  objects.
* ``FOURIER`` -- the trigonometric system on [0, 1]: the constant function,
  then ``sqrt(2) cos(2 pi p x)`` and ``sqrt(2) sin(2 pi p x)`` interleaved.

The statistic kernels in :mod:`adagof.estimators` evaluate these directly;
:func:`basis_sums` and :func:`bin_counts` expose the per-function sums of
one sample.
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
    """Index ``k = floor(D * x)`` of the bin ``[k/D, (k+1)/D)`` holding ``x``.

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


def fourier_eval(l: int, x):
    """Value of the l-th trigonometric basis function at ``x`` in [0, 1]."""
    if l < 0:
        raise InvalidInputError(f"function index must be nonnegative, got {l}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise InvalidInputError("fourier basis is defined on [0, 1]")
    if l == 0:
        out = np.ones_like(xa)
    elif l % 2 == 1:
        p = (l + 1) // 2
        out = _SQRT2 * np.cos(2.0 * np.pi * p * xa)
    else:
        p = l // 2
        out = _SQRT2 * np.sin(2.0 * np.pi * p * xa)
    return out if out.ndim else float(out)


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
