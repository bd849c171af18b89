"""Experiment orchestration: level and power estimation by Monte Carlo,
the built-in benchmark presets T1-T4, seeding discipline, and CSV emission.

Every replicate draws from a stream derived from ``(seed, label, replicate)``
(see :mod:`adagof.streams`), and cross-replicate aggregation is integer
counting, so reports are byte-identical for any worker count.

Each statistic matrix is computed once per draw.  A preset block's adaptive
tables that share a null, statistic and search policy are calibrated
together (:func:`~adagof.calibration.calibrate_collections`).
``_cached_calibrate`` keeps one table per collection, so a one-collection
lookup finds a table that was calibrated as part of a group.  A power or
level batch is drawn and scored one lane block at a time: each block takes
the null-cdf transform once and one ``simple_stats_batch`` per (table null,
input) over the union of those tables' models; every column reads its own
slice, which equals its own statistic bit for bit because a column depends
only on its model.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from collections import OrderedDict

# Imported only so that perfbench/workloads.py can swap it at this import site.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from .alternatives import from_id
from .baselines import BaselineConfig, BaselineKind, baseline_statistics, calibrate_baseline
from .bases import BasisFamily
from .calibration import (
    CalibrationTable,
    StatisticKind,
    calibrate_collections,
    map_replicates,
    sample_blocks,
)
from .errors import (
    CalibrationMissingError,
    InvalidInputError,
    _json_field,
    _json_value,
    invalid_input,
)
from .estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    _near_unit_bound,
    _union_columns,
    composite_scale_stats_batch,
    simple_stats_batch,
)
from .null_models import NullDensity, null_from_spec, transform_to_uniform
from .streams import derive_stream

# Imported only so that perfbench/tracing.py can wrap them at this import site.
from .calibration import calibrate  # noqa: F401
from .baselines import (  # noqa: F401
    bickel_ritov_statistic_batch,
    kallenberg_ledwina_statistic_batch,
    ks_exponential_statistic_batch,
    ks_statistic_batch,
)

__all__ = [
    "TestKind",
    "ModelParams",
    "ExperimentConfig",
    "PowerReport",
    "TestColumn",
    "estimate_power",
    "reproduce_table",
    "derive_stream",
    "trigonometric_models",
    "mixed_models",
    "scale_models",
]


class TestKind(Enum):
    __test__ = False  # not a pytest class

    TTR = "ttr"
    TTR_CT = "ttr_ct"
    TD = "td"
    COMPOSITE = "composite"
    KS = "ks"
    KS_EXP = "ks_exp"
    BR = "br"
    KL = "kl"


def trigonometric_models(d_tr: int) -> list[ModelIndex]:
    return [ModelIndex(BasisFamily.FOURIER, d) for d in range(1, d_tr + 1)]


def scale_models(d_lo: int = 2, d_hi: int = 10) -> list[ModelIndex]:
    """Piecewise-constant models of degrees ``d_lo .. d_hi``."""
    return [ModelIndex(BasisFamily.PIECEWISE_CONSTANT, d) for d in range(d_lo, d_hi + 1)]


def mixed_models(d_tr: int, d_ct: int) -> list[ModelIndex]:
    return scale_models(2, d_ct) + trigonometric_models(d_tr)


# Test -> (null spec its statistic is simulated under, or None for the
# configured null; statistic; an adaptive statistic's model collection).
_TESTS = {
    TestKind.TTR: ("uniform", StatisticKind.SIMPLE, lambda mp: trigonometric_models(mp.d_tr or 6)),
    TestKind.TTR_CT: (
        "uniform", StatisticKind.SIMPLE, lambda mp: mixed_models(mp.d_tr or 6, mp.d_ct or 6)
    ),
    TestKind.TD: (None, StatisticKind.SIMPLE, lambda mp: scale_models(*(mp.d_range or (1, 10)))),
    TestKind.COMPOSITE: (
        None, StatisticKind.COMPOSITE_INVARIANT, lambda mp: scale_models(*(mp.d_range or (2, 10)))
    ),
    TestKind.KS: ("uniform", BaselineKind.KS, None),
    TestKind.KS_EXP: ("exponential", BaselineKind.KS_EXPONENTIAL, None),
    TestKind.BR: ("uniform", BaselineKind.BICKEL_RITOV, None),
    TestKind.KL: ("uniform", BaselineKind.KALLENBERG_LEDWINA, None),
}


@dataclass(frozen=True)
class ModelParams:
    d_tr: int | None = None
    d_ct: int | None = None
    d_range: tuple[int, int] | None = None
    d_of_n: int | None = None
    policy: ScaleSearchPolicy | None = None

    def __post_init__(self) -> None:
        for key in ("d_tr", "d_ct", "d_of_n"):
            if (value := getattr(self, key)) is not None and value < 1:
                raise InvalidInputError(f"model_params.{key} must be >= 1, got {value!r}")
        if (lo_hi := self.d_range) is not None and not (len(lo_hi) == 2 and 1 <= lo_hi[0] <= lo_hi[1]):
            raise InvalidInputError(f"model_params.d_range must be [lo, hi], 1 <= lo <= hi, got {list(lo_hi)}")

    @classmethod
    def from_json(cls, doc: dict) -> "ModelParams":
        if not isinstance(doc, dict):
            raise InvalidInputError("model_params must be a JSON object")
        policy = doc.get("policy")
        fields = {
            key: _json_field(doc, key, kind, None, f"model_params.{key}")
            for key, kind in (("d_tr", int), ("d_ct", int), ("d_of_n", int), ("d_range", list))
        }
        if (d_range := fields["d_range"]) is not None:
            fields["d_range"] = tuple(_json_value(v, int, "model_params.d_range") for v in d_range)
        return cls(
            **fields,
            policy=ScaleSearchPolicy.from_json(policy) if policy else None,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    test: TestKind
    null: str
    n: int
    alpha: float = 0.05
    model_params: ModelParams = ModelParams()
    alternatives: tuple[str, ...] = ()
    reps_power: int = 5000
    reps_level: int = 20_000
    calib: tuple[int, int] = (20_000, 20_000)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if len(self.calib) != 2:
            raise InvalidInputError(f"calib takes two budgets (B1, B2), got {self.calib!r}")
        for name, value in (
            ("n", self.n), ("reps_power", self.reps_power), ("reps_level", self.reps_level),
            ("calib", self.calib[0]), ("calib", self.calib[1]), ("seed", self.seed),
        ):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        for budget in (self.reps_power, self.reps_level, *self.calib):
            if budget < 100:
                raise InvalidInputError("all Monte Carlo budgets must be >= 100")
        for alt_id in self.alternatives:
            from_id(alt_id)  # a malformed id fails here, not after calibrating

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        with invalid_input("experiment config"):
            return cls(
                test=TestKind(doc["test"]),
                null=str(doc["null"]),
                n=_json_field(doc, "n", int, None),
                model_params=(
                    ModelParams.from_json(doc["model_params"]) if "model_params" in doc else cls.model_params
                ),
                **{key: _json_field(doc, key, kind, getattr(cls, key)) for key, kind in (
                    ("alpha", float), ("alternatives", list), ("reps_power", int),
                    ("reps_level", int), ("calib", list), ("seed", int),
                )},
            )

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        with invalid_input(f"cannot read experiment config {str(path)!r}"):
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_json(doc)


@dataclass(frozen=True)
class TestColumn:
    """One test to evaluate: an adaptive test with its calibration table,
    or a baseline with its critical value."""

    __test__ = False  # not a pytest class

    name: str
    kind: TestKind
    table: CalibrationTable | None = None
    baseline: BaselineConfig | None = None


@dataclass
class PowerReport:
    """A power run: its config, its cells (the ``(null)`` level row last) and wall-clock time."""

    config: ExperimentConfig
    cells: list[TableCell]
    wall_clock_s: float

    def to_csv(self) -> str:
        return _csv_document(
            ("alternative", "test", "estimate", "std_error", "reps"),
            [(c.alternative, c.test, c.estimate, c.std_error, c.reps) for c in self.cells],
        )


def _csv_document(header: tuple[str, ...], rows) -> str:
    """CSV text, header first.  Floats get six decimals; a field that holds a
    comma, such as the alternative ``f(0.5,2)``, is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Replicate evaluation
# ---------------------------------------------------------------------------


def _decision_chunk(null, alt_id, n, columns, seed, label, start, stop) -> np.ndarray:
    """Rejection counts of each test column on replicates ``start .. stop - 1``,
    summed over the lane blocks of ``sample_blocks``, each scored by every
    column before the next is drawn."""
    sample = null.sample if alt_id is None else from_id(alt_id).sampler
    counts = np.zeros(len(columns), dtype=np.int64)
    for samples in sample_blocks(sample, n, seed, label, start, stop):
        counts += _block_counts(null, samples, columns)
    return counts


def _block_counts(null, samples, columns) -> np.ndarray:
    """Rejection counts of each test column on the rows of ``samples``.

    The block is transformed once.  The simple-statistic columns read their
    columns of one ``simple_stats_batch`` per (table null, input) over the
    union of those tables' models; these run after the other kernels, so no
    union matrix is held while another kernel runs.  A composite column
    searches only the pairs its count depends on (``_composite_rejected``).
    """
    # A statistic simulated under U(0, 1) must see F0(X), the null-cdf
    # transform of the data, which is the identity when the null is uniform.
    on_transform = [_TESTS[col.kind][0] == "uniform" for col in columns]
    inputs = {False: samples}
    if any(on_transform):
        inputs[True] = transform_to_uniform(null, samples)
    counts = np.zeros(len(columns), dtype=np.int64)
    unions: dict[tuple, list[int]] = {}
    for k, col in enumerate(columns):
        x = inputs[on_transform[k]]
        b, table = col.baseline, col.table
        if b is not None:
            counts[k] = np.sum(baseline_statistics(b.kind, x, b.d_of_n) > b.critical_value)
        elif table.statistic_kind is StatisticKind.SIMPLE:
            unions.setdefault((table.null, on_transform[k]), []).append(k)
        else:
            rejected = _composite_rejected(x, table.models, table.null, table.policy, table.thresholds_at_u_alpha)
            counts[k] = int(rejected.sum())
    for (d, on_transform), members in unions.items():
        union, member_columns = _union_columns([columns[k].table.models for k in members])
        stats = simple_stats_batch(inputs[on_transform], union, d)
        for k, cols in zip(members, member_columns):
            counts[k] = _rejections(stats[:, cols], columns[k].table)
    return counts


def _composite_rejected(x: np.ndarray, models, d, policy, thresholds: np.ndarray) -> np.ndarray:
    """Rows of ``x`` where some model's composite statistic exceeds its
    threshold: ``(composite_scale_stats_batch(x, models, d, policy) > thresholds).any(1)``.

    A (row, model) pair whose near-r = 1 bound (``_near_unit_bound``) is at
    most its threshold cannot exceed it.  The others are searched exactly,
    one model at a time, the model with the most open pairs first; a row is
    settled as rejected once one of its values exceeds, and its other models
    are never searched, which one masked search over every model could not
    skip.
    """
    open_pairs = _near_unit_bound(x, models, d, policy) > thresholds
    rejected = np.zeros(x.shape[0], dtype=bool)
    while open_pairs.any():
        j = int(open_pairs.sum(axis=0).argmax())
        rows = np.flatnonzero(open_pairs[:, j])
        exceeds = rows[composite_scale_stats_batch(x[rows], [models[j]], d, policy)[:, 0] > thresholds[j]]
        open_pairs[rows, j] = False
        open_pairs[exceeds] = False
        rejected[exceeds] = True
    return rejected


def _rejections(stats: np.ndarray, table: CalibrationTable) -> int:
    """Rows where some model's statistic exceeds its threshold at u_alpha."""
    return int(np.sum((stats > table.thresholds_at_u_alpha[None, :]).any(axis=1)))


def rejection_counts(
    null: NullDensity,
    alt_id: str | None,
    n: int,
    reps: int,
    columns: list[TestColumn],
    seed: int,
    label: str,
    workers: int = 1,
) -> np.ndarray:
    """Rejection counts per test column over ``reps`` replicates."""
    args = (null, alt_id, n, columns, seed, label)
    return np.sum(map_replicates(_decision_chunk, args, reps, workers), axis=0)


@dataclass
class TableCell:
    null: str
    section: str
    alternative: str
    test: str
    estimate: float
    std_error: float
    reps: int


def _run_block(null, rows, columns, n, reps_power, reps_level, seed, workers) -> list[TableCell]:
    """Cells of one null: each (section, alternative id, display) row at
    ``reps_power`` replicates, then the level row at ``reps_level``."""
    runs = [(sec, alt_id, display, reps_power, f"power:{alt_id}") for sec, alt_id, display in rows]
    runs.append(("level", None, "(null)", reps_level, "level"))
    cells = []
    for section, alt_id, display, reps, label in runs:
        counts = rejection_counts(null, alt_id, n, reps, columns, seed, label, workers)
        for col, c in zip(columns, counts):
            p_hat = c / reps
            std_error = math.sqrt(p_hat * (1.0 - p_hat) / reps)
            cells.append(TableCell(null.name, section, display, col.name, p_hat, std_error, reps))
    return cells


# ---------------------------------------------------------------------------
# Calibration plumbing (cached per process so presets can share tables)
# ---------------------------------------------------------------------------


#: Calibrated tables, one entry per model collection, least recently used
#: first.  An entry is keyed on every argument of ``_cached_calibrate`` but
#: ``workers``: a table is bit-identical for any worker count.
_TABLES: OrderedDict[tuple, CalibrationTable] = OrderedDict()
_TABLES_MAX = 64


def _cached_calibrate(
    d: NullDensity,
    collections: tuple[tuple[ModelIndex, ...], ...],
    n: int,
    alpha: float,
    B1: int,
    B2: int,
    kind: StatisticKind,
    seed: int,
    policy: ScaleSearchPolicy | None,
    workers: int,
) -> tuple[CalibrationTable, ...]:
    """One table per model collection.  Each collection's table is looked up
    on its own; the missing ones are calibrated together, from one null draw
    per stage, which gives each the table of its own calibration."""
    keys = [(d, models, n, alpha, B1, B2, kind, seed, policy) for models in collections]
    missing = [k for k in keys if k not in _TABLES]
    if missing:
        tables = calibrate_collections(
            d, [k[1] for k in missing], n, alpha, B1, B2,
            statistic_kind=kind, seed=seed, policy=policy, workers=workers,
        )
        _TABLES.update(zip(missing, tables))
    for k in keys:
        _TABLES.move_to_end(k)
    found = tuple(_TABLES[k] for k in keys)
    while len(_TABLES) > _TABLES_MAX:
        _TABLES.popitem(last=False)
    return found


_cached_calibrate.cache_clear = _TABLES.clear


@lru_cache(maxsize=64)
def _cached_baseline(
    kind: BaselineKind, n: int, alpha: float, B: int, seed: int, d_of_n: int | None
) -> BaselineConfig:
    return calibrate_baseline(kind, n, alpha, B, seed, d_of_n)


def _adaptive_table_spec(
    config: ExperimentConfig,
) -> tuple[str, list[ModelIndex], StatisticKind, ScaleSearchPolicy | None]:
    """Null spec, models, statistic and search policy (composite only) of an
    adaptive test's table."""
    null_spec, kind, models = _TESTS[config.test]
    policy = None
    if kind is StatisticKind.COMPOSITE_INVARIANT:
        policy = config.model_params.policy or ScaleSearchPolicy()
    return null_spec or config.null, models(config.model_params), kind, policy


def _calibrate_hint(config: ExperimentConfig) -> str:
    null, models, kind, policy = _adaptive_table_spec(config)
    degrees: dict[str, list[int]] = {}
    for m in models:
        degrees.setdefault(m.family.value, []).append(m.degree)
    spec = ",".join(f"{family}:{min(ds)}-{max(ds)}" for family, ds in degrees.items())
    stat = "composite" if kind is StatisticKind.COMPOSITE_INVARIANT else "simple"
    hint = (
        f"adagof calibrate --null '{null}' --models '{spec}' --n {config.n} "
        f"--alpha {config.alpha} --statistic {stat} --seed {config.seed}"
    )
    if policy is not None and config.model_params.policy is not None:
        hint += " --policy " + ",".join(repr(v) for v in dataclasses.astuple(policy))
    return hint


def build_column(
    config: ExperimentConfig,
    calibration: CalibrationTable | None = None,
    workers: int = 1,
    build_missing: bool = False,
) -> TestColumn:
    """Assemble the test column for a config, calibrating baselines on demand
    and, with ``build_missing``, a missing adaptive table too.  A supplied
    table must fit the config (:meth:`CalibrationTable.check`)."""
    name = config.test.value
    if isinstance(kind := _TESTS[config.test][1], BaselineKind):
        cfg = _cached_baseline(
            kind, config.n, config.alpha, config.calib[0], config.seed, config.model_params.d_of_n
        )
        return TestColumn(name, config.test, baseline=cfg)
    null, models, kind, policy = _adaptive_table_spec(config)
    if calibration is None:
        if not build_missing:
            raise CalibrationMissingError(
                f"no calibration table for test '{config.test.value}'; run: "
                + _calibrate_hint(config)
            )
        B1, B2 = config.calib
        (calibration,) = _cached_calibrate(
            null_from_spec(null), (tuple(models),),
            config.n, config.alpha, B1, B2, kind, config.seed, policy, workers,
        )
    else:
        calibration.check(kind, null_from_spec(null), config.n, models, config.alpha, policy)
    return TestColumn(name, config.test, table=calibration)


def estimate_power(
    config: ExperimentConfig,
    calibration: CalibrationTable | None = None,
    workers: int = 1,
    build_missing: bool = False,
) -> PowerReport:
    """Monte Carlo power of one test across the configured alternatives.

    Each alternative uses ``reps_power`` fresh replicates; the level row uses
    ``reps_level`` null replicates.
    """
    t0 = time.perf_counter()
    null = null_from_spec(config.null)
    column = build_column(config, calibration, workers, build_missing)
    rows = [(None, alt_id, alt_id) for alt_id in config.alternatives]
    cells = _run_block(
        null, rows, [column], config.n, config.reps_power, config.reps_level, config.seed, workers
    )
    return PowerReport(config, cells, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Benchmark presets T1-T4
# ---------------------------------------------------------------------------

_UNIFORMITY_ROWS = [
    ("f", "f:0.5,2", "f(0.5,2)"),
    ("f", "f:0.7,4", "f(0.7,4)"),
    ("f", "f:0.7,6", "f(0.7,6)"),
    ("g", "g:3,3,0.5", "g(3,3,0.5)"),
    ("g", "g:10,20,0.25", "g(10,20,0.25)"),
    ("g", "g:2,2,0.8", "g(2,2,0.8)"),
    ("g", "g:2,4,0.5", "g(2,4,0.5)"),
    ("h", "h:0.4,2", "h(0.4,2)"),
    ("h", "h:0.3,5", "h(0.3,5)"),
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

_NORMALITY_STD_ROWS = [
    ("f", "norm:f:2", "f(2)"),
    ("f", "norm:f:1.8", "f(1.8)"),
    ("f", f"norm:f:{math.sqrt(math.pi / 2.0)!r}", "f(sqrt(pi/2))"),
    ("g", "norm:g:1,1", "g(1,1)"),
    ("g", "norm:g:0.5,2", "g(0.5,2)"),
    ("g", "norm:g:1,2", "g(1,2)"),
    ("h", f"norm:h:{2.0 / _SQRT_2PI!r}", "h(2/sqrt(2pi))"),
    ("h", f"norm:h:{1.5 / _SQRT_2PI!r}", "h(3/(2 sqrt(2pi)))"),
]

_NORMALITY_SMALL_ROWS = [
    ("f", "norm:f:0.17", "f(0.17)"),
    ("f", "norm:f:0.16", "f(0.16)"),
    ("f", "norm:f:0.12", "f(0.12)"),
    ("g", "norm:g:0.1,0.01", "g(0.1,0.01)"),
    ("g", "norm:g:0.05,0.015", "g(0.05,0.015)"),
    ("g", "norm:g:0.05,0.02", "g(0.05,0.02)"),
    ("h", f"norm:h:{20.0 / _SQRT_2PI!r}", "h(20/sqrt(2pi))"),
    ("h", f"norm:h:{15.0 / _SQRT_2PI!r}", "h(15/sqrt(2pi))"),
]

_EXPONENTIALITY_ROWS = [
    ("g", "exp:g:4", "g(4)"),
    ("h", "exp:h:4", "h(4)"),
    ("h", "exp:h:1", "h(1)"),
    ("k", "exp:k:10,20,0.25", "k(10,20,0.25)"),
    ("l", "exp:l:2,5,0.5", "l(2,5,0.5)"),
    ("l", "exp:l:2,5,0.75", "l(2,5,0.75)"),
    ("t", "exp:t", "t"),
    ("v", "exp:v", "v"),
    ("w", "exp:w", "w"),
]


def _scaled_budgets(scale: float) -> tuple[int, int, int]:
    if not 0.0 < scale <= 1.0:
        raise InvalidInputError(f"scale must lie in (0, 1], got {scale}")
    calib = max(int(round(20_000 * scale)), 1000)
    power = max(int(round(5000 * scale)), 100)
    level = max(int(round(20_000 * scale)), 1000)
    return calib, power, level


def _uniformity_block(n, d_tr, d_ct, d_of_n):
    return ("uniform", n, _UNIFORMITY_ROWS, (
        ("T_tr", TestKind.TTR, ModelParams(d_tr=d_tr)),
        ("T_tr/ct", TestKind.TTR_CT, ModelParams(d_tr=d_tr, d_ct=d_ct)),
        ("T_KL", TestKind.KL, ModelParams(d_of_n=d_of_n)),
        ("T_BR", TestKind.BR, ModelParams(d_of_n=d_of_n)),
        ("T_KS", TestKind.KS, ModelParams()),
    ))


def _normality_block(null, rows):
    return (null, 100, rows, (
        ("T_d", TestKind.TD, ModelParams(d_range=(1, 10))),
        ("T_tr/ct", TestKind.TTR_CT, ModelParams(d_tr=12, d_ct=10)),
        ("T_KS", TestKind.KS, ModelParams()),
    ))


# Preset -> blocks of (null spec, n, rows, columns); a column is (display
# name, test, model parameters) and is built like any configured test.
_PRESETS = {
    "T1": [_uniformity_block(50, 6, 6, 10)],
    "T2": [_uniformity_block(100, 12, 10, 12)],
    "T3": [
        _normality_block("gaussian:0,1", _NORMALITY_STD_ROWS),
        _normality_block("gaussian:0,0.1", _NORMALITY_SMALL_ROWS),
    ],
    "T4": [("exponential", 100, _EXPONENTIALITY_ROWS, (
        ("T_comp", TestKind.COMPOSITE, ModelParams(d_range=(2, 10))),
        ("T_KS_exp", TestKind.KS_EXP, ModelParams()),
    ))],
}


def _preset_columns(null, n, columns, alpha, B, seed, workers) -> list[TestColumn]:
    """A block's test columns.  The adaptive tables that share a null,
    statistic and policy are calibrated in one ``_cached_calibrate`` call, so
    each column's own lookup finds its table."""
    configs = [
        ExperimentConfig(test, null, n, alpha, params, calib=(B, B), seed=seed)
        for _, test, params in columns
    ]
    groups: dict[tuple, list[tuple]] = {}
    for config in configs:
        if isinstance(_TESTS[config.test][1], StatisticKind):
            table_null, models, kind, policy = _adaptive_table_spec(config)
            groups.setdefault((null_from_spec(table_null), kind, policy), []).append(tuple(models))
    for (d, kind, policy), collections in groups.items():
        _cached_calibrate(d, tuple(collections), n, alpha, B, B, kind, seed, policy, workers)
    return [
        dataclasses.replace(build_column(config, None, workers, build_missing=True), name=name)
        for (name, _, _), config in zip(columns, configs)
    ]


def _uniformity_columns(n, d_tr, d_ct, d_of_n, alpha, B, seed, workers):
    # Kept only so that perfbench/workloads.py can read a T2 table's
    # calibrations back; a cache hit right after the table.
    null, n, _, columns = _uniformity_block(n, d_tr, d_ct, d_of_n)
    return _preset_columns(null, n, columns, alpha, B, seed, workers)


def table_cells(table_id: str, seed: int = 0, scale: float = 1.0, workers: int = 1) -> list[TableCell]:
    """Estimates for every (alternative, test) cell of a benchmark preset."""
    alpha = 0.05
    B, reps_power, reps_level = _scaled_budgets(scale)
    if table_id not in _PRESETS:
        raise InvalidInputError(f"unknown table id {table_id!r}; expected T1, T2, T3 or T4")
    cells = []
    for null, n, rows, columns in _PRESETS[table_id]:
        cols = _preset_columns(null, n, columns, alpha, B, seed, workers)
        cells += _run_block(null_from_spec(null), rows, cols, n, reps_power, reps_level, seed, workers)
    return cells


def reproduce_table(table_id: str, seed: int = 0, scale: float = 1.0, workers: int = 1) -> str:
    """CSV document for one benchmark preset, one row per (alternative, test).

    Rows appear in the preset's row-major order (alternatives as published,
    then the levels row); reruns with the same arguments are byte-identical.
    """
    return _table_csv(table_id, table_cells(table_id, seed, scale, workers))


def _table_csv(table_id: str, cells: list[TableCell]) -> str:
    return _csv_document(
        ("table", "null", "section", "alternative", "test", "estimate", "std_error", "reps"),
        [(table_id, *dataclasses.astuple(c)) for c in cells],
    )
