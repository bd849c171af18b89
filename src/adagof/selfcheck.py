"""In-process oracle-equivalence checks, runnable from the CLI.

Each check pits a production code path against an independent brute-force
route: the pair-sum estimator against its literal double loop, the
cosine-series statistic against a triple loop, the smooth test's Legendre
recurrence against numpy's polynomial evaluation, the order-statistic KS
formula against a dense sup scan, and the bulk replicate streams against
``derive_stream``, that is numpy's own ``SeedSequence`` and ``PCG64``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg

from .baselines import _legendre_colsums, bickel_ritov_statistic, ks_statistic
from .bases import BasisFamily
from .estimators import ModelIndex, theta_hat, theta_hat_naive
from .null_models import Uniform01
from .streams import derive_stream, replicate_streams


def _check_theta_pairsum(rng: np.random.Generator, cases: int = 200) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 41))
        if rng.random() < 0.5:
            m = ModelIndex(BasisFamily.PIECEWISE_CONSTANT, int(rng.integers(1, 17)))
            x = rng.normal(size=n)
        else:
            m = ModelIndex(BasisFamily.FOURIER, int(rng.integers(1, 13)))
            x = rng.random(n)
        a, b = theta_hat(x, m), theta_hat_naive(x, m)
        worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return worst <= 1e-10, f"pair-sum estimator vs literal double loop: max rel err {worst:.2e}"


def _bickel_ritov_triple_loop(x: np.ndarray, d_of_n: int) -> float:
    n = x.size
    best = -np.inf
    for dim in range(1, d_of_n + 1):
        t_nd = 0.0
        for l in range(1, dim + 1):
            for i in range(n):
                for j in range(n):
                    t_nd += 2.0 * np.cos(l * np.pi * x[i]) * np.cos(l * np.pi * x[j])
        t_nd /= n
        best = max(best, (t_nd - dim) / np.sqrt(2.0 * dim))
    return best


def _check_bickel_ritov(rng: np.random.Generator, cases: int = 10) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 21))
        x = rng.random(n)
        a = bickel_ritov_statistic(x, 6)
        b = _bickel_ritov_triple_loop(x, 6)
        worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return worst <= 1e-10, f"cosine-series statistic vs triple loop: max rel err {worst:.2e}"


def _check_legendre(rng: np.random.Generator, dmax: int = 20) -> tuple[bool, str]:
    x = np.vstack([np.linspace(0.0, 1.0, 100), rng.random((4, 100))])
    sums = _legendre_colsums(x, dmax)
    worst = 0.0
    for l in range(1, dmax + 1):
        phi = np.sqrt(2 * l + 1) * npleg.legval(2.0 * x - 1.0, [0.0] * l + [1.0])
        worst = max(worst, float(np.max(np.abs(sums[l - 1] - phi.sum(axis=1)))))
    return worst <= 1e-10, f"legendre recurrence vs polynomial evaluation: max abs err {worst:.2e}"


def _ks_grid_oracle(x: np.ndarray, grid_size: int = 100_000) -> float:
    # the scan grid must include the jump locations; a blind grid caps the
    # achievable agreement at its own resolution
    xs = np.sort(x)
    t = np.union1d(np.linspace(0.0, 1.0, grid_size), xs)
    ecdf_right = np.searchsorted(xs, t, side="right") / x.size
    ecdf_left = np.searchsorted(xs, t, side="left") / x.size
    return float(np.max(np.maximum(np.abs(ecdf_right - t), np.abs(ecdf_left - t))))


def _check_ks(rng: np.random.Generator, cases: int = 20) -> tuple[bool, str]:
    worst = 0.0
    d = Uniform01()
    for _ in range(cases):
        x = rng.random(int(rng.integers(1, 60)))
        worst = max(worst, abs(ks_statistic(x, d) - _ks_grid_oracle(x)))
    return worst <= 1e-6, f"order-statistic KS vs dense sup scan: max abs err {worst:.2e}"


def _check_streams(rng: np.random.Generator, cases: int = 50) -> tuple[bool, str]:
    # (seed, first replicate): replicates 0 and 2**32 - 1 close the one-word
    # range, 2**32 opens the two-word one; the rest are random 64-bit pairs
    pairs = [(0, 0), (2**64 - 1, 2**32 - 1), (7, 2**32)]
    pairs += rng.integers(0, 2**64, (cases, 2), dtype=np.uint64).tolist()
    rows = mismatched = 0
    for i, (seed, start) in enumerate(pairs):
        label = f"selfcheck:{i}"
        for r, stream in enumerate(replicate_streams(seed, label, start, start + 2), start):
            rows += 1
            if not np.array_equal(stream.random(16), derive_stream(seed, label, r).random(16)):
                mismatched += 1
    return mismatched == 0, f"bulk replicate streams vs derive_stream: {mismatched} of {rows} rows differ"


def run_selfcheck(seed: int = 0) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    results = [
        _check_theta_pairsum(rng),
        _check_bickel_ritov(rng),
        _check_legendre(rng),
        _check_ks(rng),
        _check_streams(rng),
    ]
    lines = [("PASS " if ok else "FAIL ") + msg for ok, msg in results]
    return all(ok for ok, _ in results), lines
