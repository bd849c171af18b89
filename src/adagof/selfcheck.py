"""In-process oracle-equivalence checks, runnable from the CLI.

Each check pits a production code path against an independent brute-force
route: the pair-sum estimator against its literal double loop, the
cosine-series statistic against a triple loop, the smooth test's Legendre
recurrence against numpy's polynomial evaluation, the order-statistic KS
formula against a dense sup scan, the lane blocks of replicate streams
against ``derive_stream``, that is numpy's own ``SeedSequence`` and
``PCG64``, and the samplers run over lane blocks against one call per
replicate on ``derive_stream``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg

from .baselines import _legendre_colsums, bickel_ritov_statistic, ks_statistic
from .bases import BasisFamily
from .estimators import ModelIndex, theta_hat, theta_hat_naive
from .alternatives import from_id
from .calibration import draw_samples
from .null_models import Gaussian, Uniform01
from .streams import derive_stream, lane_blocks


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
        bulk = np.concatenate([block.random(16) for block in lane_blocks(seed, label, start, start + 2)])
        for r, row in enumerate(bulk, start):
            rows += 1
            if not np.array_equal(row, derive_stream(seed, label, r).random(16)):
                mismatched += 1
    return mismatched == 0, f"lane block streams vs derive_stream: {mismatched} of {rows} rows differ"


def _check_lane_samplers(n: int = 20) -> tuple[bool, str]:
    # a rejection id, a gamma mixture, a beta mixture and a Gaussian null, on
    # replicates 0.. and 2**32 - 2.. (one entropy word, then two)
    samplers = {
        alt_id: lambda size, stream, sampler=from_id(alt_id).sampler: sampler(stream, size)
        for alt_id in ("h:0.3,5", "exp:l:2,5,0.5", "g:2,2,0.8")
    }
    samplers["gaussian"] = Gaussian().sample
    rows = mismatched = 0
    for name, sample in samplers.items():
        for start in (0, 2**32 - 2):
            label = f"selfcheck:{name}"
            bulk = draw_samples(sample, n, 1, label, start, start + 4)
            for r, row in enumerate(bulk, start):
                rows += 1
                if not np.array_equal(row, sample(n, derive_stream(1, label, r))):
                    mismatched += 1
    return mismatched == 0, f"samplers on lane blocks vs one replicate at a time: {mismatched} of {rows} rows differ"


def run_selfcheck(seed: int = 0) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    results = [
        _check_theta_pairsum(rng),
        _check_bickel_ritov(rng),
        _check_legendre(rng),
        _check_ks(rng),
        _check_streams(rng),
        _check_lane_samplers(),
    ]
    lines = [("PASS " if ok else "FAIL ") + msg for ok, msg in results]
    return all(ok for ok, _ in results), lines
