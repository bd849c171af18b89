"""Two-stage Monte Carlo calibration of the multiple-testing thresholds.

Stage one estimates, for every model in the collection, the (1-u) quantile
of the statistic under the null for u on a regular grid.  Stage two draws a
fresh batch and picks the largest grid u whose sup-test exceeds its
thresholds with frequency at most alpha.  The same machinery calibrates the
composite scale-invariant statistic; only the statistic kind changes.

Quantiles are the order statistic of rank ``ceil((1 - u) B)`` (1-indexed,
ascending) -- no interpolation, which never understates a threshold.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BudgetTooSmallError,
    CalibrationFailureError,
    InvalidInputError,
    invalid_input,
)
from .estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    composite_scale_stats_batch,
    pinned_order,
    simple_stats_batch,
)
from .bases import BasisFamily
from .null_models import NullDensity, null_from_json
from .streams import lane_blocks

# Imported only so that perfbench/tracing.py can wrap it at this import site.
from .streams import derive_stream  # noqa: F401

SCHEMA_VERSION = 1


class StatisticKind(Enum):
    SIMPLE = "simple"
    COMPOSITE_INVARIANT = "composite_invariant"


def draw_samples(sample, n: int, seed: int, label: str, start: int, stop: int) -> np.ndarray:
    """Replicates ``start .. stop - 1`` of one labelled batch, one per row.

    Row ``i`` is ``sample(n, stream)`` on the stream ``derive_stream(seed,
    label, start + i)``, bit for bit.  ``sample`` is called once per lane
    block of ``lane_blocks`` and returns that block's rows.  This is the
    package's only draw loop: null thresholds, baseline critical values and
    power replicates all come through it.
    """
    samples = np.empty((max(stop - start, 0), n))
    row = 0
    for block in lane_blocks(seed, label, start, stop):
        samples[row : row + block.rows] = sample(n, block)
        row += block.rows
    return samples


def map_replicates(chunk, args: tuple, reps: int, workers: int = 1) -> list:
    """``chunk(*args, start, stop)`` on each of at most ``workers`` contiguous
    ranges splitting ``range(reps)``, results in range order.

    More than one range runs in a process pool.  A chunk's result depends
    only on its range, so any worker count gives the same parts once joined.
    """
    workers = max(1, workers)
    bounds = np.linspace(0, reps, workers + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(ranges) <= 1:
        return [chunk(*args, a, b) for a, b in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk, *args, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def _null_stats_chunk(d, models, n, kind, policy, seed, label, start, stop) -> np.ndarray:
    samples = draw_samples(d.sample, n, seed, label, start, stop)
    if kind is StatisticKind.SIMPLE:
        return simple_stats_batch(samples, models, d)
    return composite_scale_stats_batch(samples, models, d, policy)


def simulate_null_stats(
    d: NullDensity,
    models: list[ModelIndex],
    n: int,
    reps: int,
    kind: StatisticKind,
    seed: int,
    label: str,
    policy: ScaleSearchPolicy | None = None,
    workers: int = 1,
) -> np.ndarray:
    """(reps, n_models) matrix of null statistics, one derived stream per row.

    Rows depend only on ``(seed, label, row)``, so any worker count or chunking
    yields the same matrix.
    """
    if kind is StatisticKind.COMPOSITE_INVARIANT and policy is None:
        raise InvalidInputError("composite calibration requires a scale-search policy")
    args = (d, models, n, kind, policy, seed, label)
    return np.concatenate(map_replicates(_null_stats_chunk, args, reps, workers), axis=0)


def threshold_matrix(stats: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """Per-model thresholds ``t_m(u)``: rank ceil((1-u) B) order statistics."""
    reps = stats.shape[0]
    sorted_stats = np.sort(stats, axis=0)
    ranks = np.array([math.ceil((1.0 - u) * reps) for u in u_grid])
    if np.any(ranks < 1) or np.any(ranks > reps):
        raise InvalidInputError("u grid incompatible with the simulation budget")
    return sorted_stats[ranks - 1, :].T  # (n_models, n_u)


def _validate_u_grid(u_grid: np.ndarray) -> np.ndarray:
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise InvalidInputError("u grid must be a nonempty 1-d array")
    if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(np.diff(u) <= 0.0):
        raise InvalidInputError("u grid must be strictly increasing inside (0, 1)")
    return u


def estimate_thresholds(
    d: NullDensity,
    models: list[ModelIndex],
    n: int,
    B1: int,
    u_grid: np.ndarray,
    statistic_kind: StatisticKind = StatisticKind.SIMPLE,
    seed: int = 0,
    policy: ScaleSearchPolicy | None = None,
    workers: int = 1,
    label: str = "calib:thresholds",
) -> np.ndarray:
    """Simulate B1 null replicates and return the (model, u) threshold matrix."""
    if B1 < 100:
        raise BudgetTooSmallError(f"threshold budget must be >= 100, got {B1}")
    u = _validate_u_grid(u_grid)
    stats = simulate_null_stats(d, models, n, B1, statistic_kind, seed, label, policy, workers)
    thresholds = threshold_matrix(stats, u)
    # rank is nonincreasing in u, so each row must be nonincreasing
    assert np.all(np.diff(thresholds, axis=1) <= 0.0)
    return thresholds


def level_curve_from_stats(stats: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Fraction of replicates where some model exceeds its threshold, per u.

    One statistic vector per replicate is shared across the whole u grid;
    only the thresholds move.
    """
    exceed = stats[:, :, None] > thresholds[None, :, :]
    return exceed.any(axis=1).mean(axis=0)


def select_u_alpha(
    d: NullDensity,
    models: list[ModelIndex],
    n: int,
    B2: int,
    thresholds: np.ndarray,
    u_grid: np.ndarray,
    alpha: float,
    seed: int = 0,
    statistic_kind: StatisticKind = StatisticKind.SIMPLE,
    policy: ScaleSearchPolicy | None = None,
    workers: int = 1,
    label: str = "calib:level",
) -> tuple[float, np.ndarray]:
    """Pick the largest grid u whose estimated sup-test level is <= alpha.

    The fresh batch must come from a stream independent of the threshold
    batch (distinct label or seed).
    """
    if B2 < 100:
        raise BudgetTooSmallError(f"level budget must be >= 100, got {B2}")
    u = _validate_u_grid(u_grid)
    stats = simulate_null_stats(d, models, n, B2, statistic_kind, seed, label, policy, workers)
    levels = level_curve_from_stats(stats, thresholds)
    assert np.all(np.diff(levels) >= 0.0)
    ok = np.nonzero(levels <= alpha)[0]
    if ok.size == 0:
        raise CalibrationFailureError(
            f"estimated level exceeds {alpha} on the whole u grid; densify it downward",
            u,
            levels,
        )
    return float(u[ok[-1]]), levels


def _basis_family(name: str) -> BasisFamily:
    with invalid_input("unknown basis family"):
        return BasisFamily(name)


@dataclass(frozen=True)
class CalibrationTable:
    """Thresholds plus the selected u, with full provenance."""

    statistic_kind: StatisticKind
    null: NullDensity
    n: int
    alpha: float
    models: tuple[ModelIndex, ...]
    u_grid: np.ndarray
    thresholds: np.ndarray  # (n_models, n_u)
    u_alpha: float
    thresholds_at_u_alpha: np.ndarray
    level_curve: np.ndarray
    budgets: tuple[int, int]
    seed: int
    policy: ScaleSearchPolicy | None = None

    def __post_init__(self) -> None:
        u = _validate_u_grid(self.u_grid)
        if self.thresholds.shape != (len(self.models), u.size):
            raise InvalidInputError(
                f"thresholds must hold {len(self.models)} models x {u.size} grid points,"
                f" got shape {self.thresholds.shape}"
            )
        if np.any(np.diff(self.thresholds, axis=1) > 0.0):
            raise InvalidInputError("threshold rows must not increase in u")
        on_grid = np.nonzero(u == self.u_alpha)[0]
        if on_grid.size == 0:
            raise InvalidInputError(f"u_alpha {self.u_alpha!r} is not on the u grid")
        if not np.array_equal(self.thresholds_at_u_alpha, self.thresholds[:, on_grid[0]]):
            raise InvalidInputError("thresholds_at_u_alpha is not the u_alpha column of thresholds")

    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "statistic_kind": self.statistic_kind.value,
            "null": self.null.to_json(),
            "n": self.n,
            "alpha": self.alpha,
            "models": [{"family": m.family.value, "degree": m.degree} for m in self.models],
            "u_grid": self.u_grid.tolist(),
            "thresholds": self.thresholds.ravel().tolist(),
            "u_alpha": self.u_alpha,
            "thresholds_at_u_alpha": self.thresholds_at_u_alpha.tolist(),
            "level_curve": self.level_curve.tolist(),
            "budgets": list(self.budgets),
            "seed": self.seed,
        }
        if self.policy is not None:
            doc["policy"] = self.policy.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "CalibrationTable":
        with invalid_input("calibration table"):
            if doc["schema_version"] != SCHEMA_VERSION:
                raise InvalidInputError(f"unsupported schema {doc['schema_version']!r}")
            models = tuple(
                ModelIndex(_basis_family(m["family"]), int(m["degree"])) for m in doc["models"]
            )
            return cls(
                statistic_kind=StatisticKind(doc["statistic_kind"]),
                null=null_from_json(doc["null"]),
                n=int(doc["n"]),
                alpha=float(doc["alpha"]),
                models=models,
                u_grid=np.asarray(doc["u_grid"], dtype=float),
                thresholds=np.asarray(doc["thresholds"], dtype=float).reshape(len(models), -1),
                u_alpha=float(doc["u_alpha"]),
                thresholds_at_u_alpha=np.asarray(doc["thresholds_at_u_alpha"], dtype=float),
                level_curve=np.asarray(doc["level_curve"], dtype=float),
                budgets=(int(doc["budgets"][0]), int(doc["budgets"][1])),
                seed=int(doc["seed"]),
                policy=ScaleSearchPolicy.from_json(doc["policy"]) if "policy" in doc else None,
            )

    def save(self, path: str | Path) -> None:
        with invalid_input(f"cannot write calibration table {str(path)!r}"):
            Path(path).write_text(json.dumps(self.to_json(), indent=1), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationTable":
        with invalid_input(f"cannot read calibration table {str(path)!r}"):
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_json(doc)


def calibrate(
    d: NullDensity,
    models,
    n: int,
    alpha: float = 0.05,
    B1: int = 20_000,
    B2: int = 20_000,
    u_grid_size: int = 100,
    statistic_kind: StatisticKind = StatisticKind.SIMPLE,
    seed: int = 0,
    policy: ScaleSearchPolicy | None = None,
    workers: int = 1,
) -> CalibrationTable:
    """Full two-stage calibration on the regular u grid ``{j alpha / size}``."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    if u_grid_size < 1:
        raise InvalidInputError("u grid size must be >= 1")
    ordered = pinned_order(models)
    if statistic_kind is StatisticKind.COMPOSITE_INVARIANT and policy is None:
        policy = ScaleSearchPolicy()
    u_grid = alpha * np.arange(1, u_grid_size + 1) / u_grid_size
    thresholds = estimate_thresholds(
        d, ordered, n, B1, u_grid, statistic_kind, seed, policy, workers
    )
    u_alpha, levels = select_u_alpha(
        d, ordered, n, B2, thresholds, u_grid, alpha, seed, statistic_kind, policy, workers
    )
    idx = int(np.nonzero(u_grid == u_alpha)[0][0])
    return CalibrationTable(
        statistic_kind=statistic_kind,
        null=d,
        n=n,
        alpha=alpha,
        models=tuple(ordered),
        u_grid=u_grid,
        thresholds=thresholds,
        u_alpha=u_alpha,
        thresholds_at_u_alpha=thresholds[:, idx].copy(),
        level_curve=levels,
        budgets=(B1, B2),
        seed=seed,
        policy=policy if statistic_kind is StatisticKind.COMPOSITE_INVARIANT else None,
    )
