"""Two-stage Monte Carlo calibration of the multiple-testing thresholds.

Stage one estimates, for every model in the collection, the (1-u) quantile
of the statistic under the null for u on a regular grid.  Stage two draws a
fresh batch and picks the largest grid u whose sup-test exceeds its
thresholds with frequency at most alpha.  The same machinery calibrates the
composite scale-invariant statistic; only the statistic kind changes.

:func:`calibrate_collections` is the one path from null simulations to a
table; :func:`calibrate` is its one-collection case.  Collections calibrated
under the same null, sample size, budgets, seed and statistic draw the same
null samples, so it simulates each stage once on the union of their models
and hands every table its own columns.  A statistic column depends only on
its own model, so each table is bit for bit the one a separate
:func:`calibrate` builds.  The stage computations stay public for callers
that run the stages on their own: :func:`simulate_null_stats`,
:func:`threshold_matrix` and :func:`level_curve_from_stats`.

Quantiles are the order statistic of rank ``ceil((1 - u) B)`` (1-indexed,
ascending) -- no interpolation, which never understates a threshold.

A composite stage scores each (replicate, model) pair from its near-r = 1
bound first and searches exactly only the values that the stage reads
(:func:`simulate_null_stats` with ``settle``): the top ``B1 - i0`` values of
each model, where ``i0 + 1`` is the lowest threshold rank, and the values
above a model's lowest threshold.  Thresholds and level curves keep their
bits for any worker count.

Samples are drawn, transformed and scored one lane block (at most
``streams._BLOCK`` replicates) at a time through :func:`sample_blocks`, so
the memory a simulation holds beyond its ``(B, models)`` statistic matrix
does not grow with the budget ``B``.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BudgetTooSmallError,
    CalibrationFailureError,
    InvalidInputError,
    TableMismatchError,
    _json_field,
    _json_value,
    invalid_input,
)
from .estimators import (
    _MAX_DEGREE,
    ModelIndex,
    ScaleSearchPolicy,
    _check_scale_search,
    _near_unit_bound,
    _union_columns,
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


def sample_blocks(sample, n: int, seed: int, label: str, start: int, stop: int) -> Iterator[np.ndarray]:
    """Replicates ``start .. stop - 1`` of one labelled batch, one lane block
    of ``lane_blocks`` at a time, as that block's ``(rows, n)`` samples.

    Row ``i`` of the rows yielded so far is ``sample(n, stream)`` on the
    stream ``derive_stream(seed, label, start + i)``, bit for bit.
    ``sample`` is called once per block.  This is the package's only draw
    loop: null thresholds, baseline critical values and power replicates all
    come through it, each scoring a block before it asks for the next; a
    non-finite draw raises :class:`InvalidInputError` naming the batch.  The
    lane block, with its buffer of drawn uniforms, is released before its
    rows are yielded, so it is not held while they are scored.
    """
    for block in lane_blocks(seed, label, start, stop):
        rows = sample(n, block)
        del block
        if not np.isfinite(rows).all():
            raise InvalidInputError(f"batch {label!r} drew a non-finite value")
        yield rows


def draw_samples(sample, n: int, seed: int, label: str, start: int, stop: int) -> np.ndarray:
    """Replicates ``start .. stop - 1`` of one labelled batch, one per row:
    the blocks of :func:`sample_blocks` stacked.  No library path holds a
    whole range at once; the tests compare the per-block paths against this,
    and ``adagof selfcheck`` compares it with one sampler call per replicate.
    """
    return np.concatenate([np.empty((0, n)), *sample_blocks(sample, n, seed, label, start, stop)])


def map_replicates(chunk, args: tuple, reps: int, workers: int = 1) -> list:
    """``chunk(*args, start, stop)`` on each of at most ``workers`` contiguous
    ranges splitting ``range(reps)``, results in range order.

    More than one range runs in a process pool.  ``workers`` is capped at the
    CPUs this process may run on.  A chunk's result depends only on its
    range, so any worker count gives the same parts once joined.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(workers, cpus or 1))
    bounds = np.linspace(0, reps, workers + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(ranges) <= 1:
        return [chunk(*args, a, b) for a, b in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk, *args, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def _null_stats_chunk(d, models, n, kind, policy, seed, label, start, stop, settle=None) -> np.ndarray:
    stats = [np.empty((0, len(models)))]
    largest = [np.empty(0)] * len(models)
    for samples in sample_blocks(d.sample, n, seed, label, start, stop):
        if kind is StatisticKind.SIMPLE:
            stats.append(simple_stats_batch(samples, models, d))
        elif settle is None:
            stats.append(composite_scale_stats_batch(samples, models, d, policy))
        else:
            stats.append(_settled_scale_stats(samples, models, d, policy, *settle, largest))
    return np.concatenate(stats)


#: Rows per model, in multiples of ``top``, that a block searches exactly
#: before it reads its first cut.
_TOP_START = 2


def _settled_scale_stats(samples, models, d, policy, floors, top, largest) -> np.ndarray:
    """Composite statistics of one block, searched exactly only where a
    threshold or a level can read them.

    Each value starts as its near-r = 1 upper bound (``_near_unit_bound``).
    Model ``j``'s value is searched exactly where that bound is at least the
    cut ``max(floors[j], L)``, with ``L`` the ``top``-th largest exact value
    of the model seen so far in this chunk (``-inf`` while fewer have been
    seen, and for ``top = 0``).  The ``_TOP_START * top`` rows with the
    largest bounds are searched first, so ``L`` is set before the others
    are read.  ``largest[j]`` carries the model's ``top`` largest exact
    values from block to block.  A value kept as its bound lies strictly
    below the cut, and so does its exact value.  The models' cuts are
    independent, so each of the two phases is one masked search over every
    model.
    """
    stats = _near_unit_bound(samples, models, d, policy)
    by_bound = np.argsort(-stats, axis=0, kind="stable")
    for phase in np.split(by_bound, [_TOP_START * top]):
        mask = np.zeros(stats.shape, dtype=bool)
        for j, seen in enumerate(largest):
            cut = max(floors[j], seen[0] if top and seen.size == top else -np.inf)
            mask[phase[stats[phase[:, j], j] >= cut, j], j] = True
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size:
            exact = composite_scale_stats_batch(samples[rows], models, d, policy, mask[rows])
            stats[rows] = np.where(mask[rows], exact, stats[rows])
        if top:
            for j, seen in enumerate(largest):
                largest[j] = np.sort(np.concatenate([seen, stats[mask[:, j], j]]))[-top:]
    return stats


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
    settle: tuple[np.ndarray, int] | None = None,
) -> np.ndarray:
    """(reps, n_models) matrix of null statistics, one derived stream per row.

    Rows depend only on ``(seed, label, row)``, so any worker count or chunking
    yields the same matrix.

    ``settle = (floors, top)``, one floor per model, makes a composite
    simulation exact only where a threshold of the ``top`` largest ranks, or
    a level over thresholds no lower than ``floors``, can read the value
    (see ``_settled_scale_stats``).  Any other value is an upper bound on
    its statistic, below its model's floor or below the ``top``-th largest
    exact value of its chunk.  So :func:`threshold_matrix` at those ranks
    and :func:`level_curve_from_stats` give what they give on the exact
    matrix, for any chunking, though the values below the top can differ.
    Simple statistics are always exact.
    """
    if kind is StatisticKind.COMPOSITE_INVARIANT and policy is None:
        raise InvalidInputError("composite calibration requires a scale-search policy")
    args = (d, models, n, kind, policy, seed, label)
    chunk = functools.partial(_null_stats_chunk, settle=settle)
    return np.concatenate(map_replicates(chunk, args, reps, workers), axis=0)


def _threshold_ranks(u_grid: np.ndarray, reps: int) -> np.ndarray:
    """The ranks ``ceil((1-u) B)`` (1-indexed, ascending) of the thresholds."""
    ranks = np.array([math.ceil((1.0 - u) * reps) for u in u_grid])
    if np.any(ranks < 1) or np.any(ranks > reps):
        raise InvalidInputError("u grid incompatible with the simulation budget")
    return ranks


def threshold_matrix(stats: np.ndarray, u_grid: np.ndarray) -> np.ndarray:
    """Per-model thresholds ``t_m(u)``: rank ceil((1-u) B) order statistics."""
    ranks = _threshold_ranks(u_grid, stats.shape[0])
    return np.sort(stats, axis=0)[ranks - 1, :].T  # (n_models, n_u)


def _validate_u_grid(u_grid: np.ndarray) -> np.ndarray:
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise InvalidInputError("u grid must be a nonempty 1-d array")
    if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(np.diff(u) <= 0.0):
        raise InvalidInputError("u grid must be strictly increasing inside (0, 1)")
    return u


def level_curve_from_stats(stats: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Fraction of replicates where some model exceeds its threshold, per u.

    ``stats`` holds one row of model statistics per replicate and
    ``thresholds`` one row per model over the u grid, which must not increase
    in u.  So a replicate exceeds from its first exceeding grid point on: per
    model that is a ``searchsorted`` on the model's threshold row, and the
    replicate's is the least over models.  The curve is the running count of
    replicates whose first exceedance has been reached, over the replicates,
    equal bit for bit to ``(stats[:, :, None] > thresholds).any(1).mean(0)``
    without that ``(replicates, models, u)`` cube.
    """
    stats, thresholds = np.asarray(stats), np.asarray(thresholds)
    if stats.ndim != 2 or thresholds.ndim != 2 or thresholds.shape[0] != stats.shape[1]:
        raise InvalidInputError(
            f"thresholds of shape {thresholds.shape} do not give one row per model"
            f" of statistics of shape {stats.shape}"
        )
    if np.any(np.isnan(thresholds)) or np.any(np.diff(thresholds, axis=1) > 0.0):
        raise InvalidInputError("threshold rows must be numbers that do not increase in u")
    grid = thresholds.shape[1]
    first = np.full(stats.shape[0], grid)
    for column, row in zip(stats.T, thresholds):
        # -row ascends, and stat > t exactly where -stat < -t
        np.minimum(first, np.searchsorted(-row, -column, side="right"), out=first)
    return np.cumsum(np.bincount(first, minlength=grid + 1)[:grid]) / stats.shape[0]


def _json_floats(doc: dict, key: str) -> np.ndarray:
    """The JSON list of numbers ``doc[key]`` as a float array."""
    return np.array([_json_value(v, float, key) for v in _json_field(doc, key, list)], dtype=float)


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
        pinned_order(self.models)
        if self.statistic_kind is StatisticKind.COMPOSITE_INVARIANT:
            if self.policy is None:
                raise InvalidInputError("a composite table must carry its scale-search policy")
            _check_scale_search(self.models, self.null)
        u = _validate_u_grid(self.u_grid)
        if self.thresholds.shape != (len(self.models), u.size):
            raise InvalidInputError(
                f"thresholds must hold {len(self.models)} models x {u.size} grid points,"
                f" got shape {self.thresholds.shape}"
            )
        if not np.isfinite(self.thresholds).all() or np.any(np.diff(self.thresholds, axis=1) > 0.0):
            raise InvalidInputError("thresholds must be finite and must not increase in u")
        on_grid = np.nonzero(u == self.u_alpha)[0]
        if on_grid.size == 0:
            raise InvalidInputError(f"u_alpha {self.u_alpha!r} is not on the u grid")
        if not np.array_equal(self.thresholds_at_u_alpha, self.thresholds[:, on_grid[0]]):
            raise InvalidInputError("thresholds_at_u_alpha is not the u_alpha column of thresholds")
        if np.shape(self.level_curve) != (u.size,):
            raise InvalidInputError(
                f"level_curve must hold one entry per grid point ({u.size}), got {np.size(self.level_curve)}"
            )
        levels = np.asarray(self.level_curve)
        if not (np.all((levels >= 0.0) & (levels <= 1.0)) and np.all(np.diff(levels) >= 0.0)):
            raise InvalidInputError("level_curve must hold levels in [0, 1] that do not decrease in u")

    def check(self, kind, null, n, models=None, alpha=None, policy=None) -> None:
        """Raise :class:`TableMismatchError` unless this table was calibrated
        for the statistic ``kind``, the null and the sample size ``n`` and,
        where given, the models (in pinned order), alpha and search policy:
        its thresholds give level alpha only in the setting they simulated."""
        models = None if models is None else tuple(pinned_order(models))
        wanted = dict(statistic_kind=kind, null=null, n=n, models=models, alpha=alpha, policy=policy)
        for field, want in wanted.items():
            have = getattr(self, field)
            if want is not None and have != want:
                if field == "models":
                    have, want = (",".join(m.label for m in ms) for ms in (have, want))
                raise TableMismatchError(f"table {field} is {have}, not {want}")

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
                ModelIndex(_basis_family(m["family"]), _json_field(m, "degree", int, name="models.degree"))
                for m in doc["models"]
            )
            budgets = _json_field(doc, "budgets", list)
            if len(budgets) != 2:
                raise InvalidInputError(
                    f"budgets length {len(budgets)} is out of range: expected two integers (B1, B2)"
                )
            return cls(
                statistic_kind=StatisticKind(doc["statistic_kind"]),
                null=null_from_json(doc["null"]),
                n=_json_field(doc, "n", int),
                alpha=_json_field(doc, "alpha", float),
                models=models,
                u_grid=_json_floats(doc, "u_grid"),
                thresholds=_json_floats(doc, "thresholds").reshape(len(models), -1),
                u_alpha=_json_field(doc, "u_alpha", float),
                thresholds_at_u_alpha=_json_floats(doc, "thresholds_at_u_alpha"),
                level_curve=_json_floats(doc, "level_curve"),
                budgets=(_json_value(budgets[0], int, "budgets"), _json_value(budgets[1], int, "budgets")),
                seed=_json_field(doc, "seed", int),
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
    return calibrate_collections(
        d, [models], n, alpha, B1, B2, u_grid_size, statistic_kind, seed, policy, workers
    )[0]


def calibrate_collections(
    d: NullDensity,
    collections,
    n: int,
    alpha: float = 0.05,
    B1: int = 20_000,
    B2: int = 20_000,
    u_grid_size: int = 100,
    statistic_kind: StatisticKind = StatisticKind.SIMPLE,
    seed: int = 0,
    policy: ScaleSearchPolicy | None = None,
    workers: int = 1,
) -> list[CalibrationTable]:
    """:func:`calibrate` for each model collection, from one null draw per stage.

    Each stage simulates the pinned-order union of the collections once; a
    table takes its own columns of that matrix for its thresholds, level
    curve and u_alpha, which equal those of its own simulation bit for bit.
    A collection that fails to calibrate fails the whole call.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1 <= u_grid_size <= _MAX_DEGREE:
        raise InvalidInputError(f"u grid size must lie in 1..{_MAX_DEGREE}, got {u_grid_size}")
    for budget, stage in ((B1, "threshold"), (B2, "level")):
        if budget < 100:
            raise BudgetTooSmallError(f"{stage} budget must be >= 100, got {budget}")
    union, columns = _union_columns([pinned_order(models) for models in collections])
    if statistic_kind is StatisticKind.COMPOSITE_INVARIANT and policy is None:
        policy = ScaleSearchPolicy()
    u_grid = alpha * np.arange(1, u_grid_size + 1) / u_grid_size
    # a composite stage searches exactly only what it reads: the thresholds
    # the top ranks, the levels the values above a model's lowest threshold
    top = B1 - int(_threshold_ranks(u_grid, B1).min()) + 1
    first = simulate_null_stats(
        d, union, n, B1, statistic_kind, seed, "calib:thresholds", policy, workers,
        (np.full(len(union), -np.inf), top),
    )
    # thresholds first, so the two stages' statistic matrices are never both held
    threshold_rows = [threshold_matrix(first[:, cols], u_grid) for cols in columns]
    del first
    floors = np.empty(len(union))
    for cols, thresholds in zip(columns, threshold_rows):
        floors[cols] = thresholds[:, -1]
    second = simulate_null_stats(
        d, union, n, B2, statistic_kind, seed, "calib:level", policy, workers, (floors, 0)
    )
    tables = []
    for cols, thresholds in zip(columns, threshold_rows):
        # rank is nonincreasing in u, so each row must be nonincreasing
        assert np.all(np.diff(thresholds, axis=1) <= 0.0)
        levels = level_curve_from_stats(second[:, cols], thresholds)
        assert np.all(np.diff(levels) >= 0.0)
        ok = np.nonzero(levels <= alpha)[0]
        if ok.size == 0:
            raise CalibrationFailureError(
                f"estimated level exceeds {alpha} on the whole u grid; densify it downward",
                u_grid,
                levels,
            )
        idx = int(ok[-1])
        tables.append(CalibrationTable(
            statistic_kind=statistic_kind,
            null=d,
            n=n,
            alpha=alpha,
            models=tuple(union[j] for j in cols),
            u_grid=u_grid,
            thresholds=thresholds,
            u_alpha=float(u_grid[idx]),
            thresholds_at_u_alpha=thresholds[:, idx].copy(),
            level_curve=levels,
            budgets=(B1, B2),
            seed=seed,
            policy=policy if statistic_kind is StatisticKind.COMPOSITE_INVARIANT else None,
        ))
    return tables
