"""Experiment orchestration: level and power estimation by Monte Carlo,
the built-in benchmark presets T1-T4, seeding discipline, and CSV emission.

Every replicate draws from a stream derived from ``(seed, label, replicate)``
(see :mod:`adagof.streams`), and cross-replicate aggregation is integer
counting, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

from .alternatives import from_id
from .baselines import (
    BaselineConfig,
    BaselineKind,
    bickel_ritov_statistic_batch,
    calibrate_baseline,
    kallenberg_ledwina_statistic_batch,
    ks_exponential_statistic_batch,
    ks_statistic_batch,
)
from .bases import BasisFamily
from .calibration import CalibrationTable, StatisticKind, calibrate
from .errors import CalibrationMissingError, InvalidInputError, TableMismatchError
from .estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    composite_scale_stats_batch,
    simple_stats_batch,
)
from .null_models import (
    Exponential,
    Gaussian,
    NullDensity,
    Uniform01,
    null_from_json,
    null_from_spec,
    transform_to_uniform,
)
from .streams import derive_stream

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
    "direct_models",
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


def mixed_models(d_tr: int, d_ct: int) -> list[ModelIndex]:
    pw = [ModelIndex(BasisFamily.PIECEWISE_CONSTANT, d) for d in range(2, d_ct + 1)]
    return pw + trigonometric_models(d_tr)


def direct_models(d_lo: int = 1, d_hi: int = 10) -> list[ModelIndex]:
    return [ModelIndex(BasisFamily.PIECEWISE_CONSTANT, d) for d in range(d_lo, d_hi + 1)]


def scale_models(d_lo: int = 2, d_hi: int = 10) -> list[ModelIndex]:
    return [ModelIndex(BasisFamily.PIECEWISE_CONSTANT, d) for d in range(d_lo, d_hi + 1)]


# Adaptive test -> (null spec its table is calibrated under, or None for the
# configured null; model collection; statistic).  TTR and TTR_CT see the
# null-cdf transform of the data, so they are calibrated under the uniform.
_ADAPTIVE = {
    TestKind.TTR: (
        "uniform", lambda mp: trigonometric_models(mp.d_tr or 6), StatisticKind.SIMPLE
    ),
    TestKind.TTR_CT: (
        "uniform", lambda mp: mixed_models(mp.d_tr or 6, mp.d_ct or 6), StatisticKind.SIMPLE
    ),
    TestKind.TD: (
        None, lambda mp: direct_models(*(mp.d_range or (1, 10))), StatisticKind.SIMPLE
    ),
    TestKind.COMPOSITE: (
        None,
        lambda mp: scale_models(*(mp.d_range or (2, 10))),
        StatisticKind.COMPOSITE_INVARIANT,
    ),
}


@dataclass(frozen=True)
class ModelParams:
    d_tr: int | None = None
    d_ct: int | None = None
    d_range: tuple[int, int] | None = None
    d_of_n: int | None = None
    policy: ScaleSearchPolicy | None = None

    @classmethod
    def from_json(cls, doc: dict) -> "ModelParams":
        d_range, policy = doc.get("d_range"), doc.get("policy")
        return cls(
            d_tr=doc.get("d_tr"), d_ct=doc.get("d_ct"), d_of_n=doc.get("d_of_n"),
            d_range=tuple(d_range) if d_range else None,
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
        for budget in (self.reps_power, self.reps_level, *self.calib):
            if budget < 100:
                raise InvalidInputError("all Monte Carlo budgets must be >= 100")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        return cls(
            test=TestKind(doc["test"]),
            null=doc["null"],
            n=int(doc["n"]),
            alpha=float(doc.get("alpha", 0.05)),
            model_params=ModelParams.from_json(doc.get("model_params", {})),
            alternatives=tuple(doc.get("alternatives", ())),
            reps_power=int(doc.get("reps_power", 5000)),
            reps_level=int(doc.get("reps_level", 20_000)),
            calib=tuple(doc.get("calib", (20_000, 20_000))),
            seed=int(doc.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


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
class PowerEntry:
    alternative: str
    power: float
    std_error: float
    reps: int


@dataclass
class PowerReport:
    test: str
    null: str
    n: int
    alpha: float
    entries: list[PowerEntry]
    level: float
    level_std_error: float
    reps_level: int
    wall_clock_s: float = 0.0

    def to_csv(self) -> str:
        lines = ["alternative,test,estimate,std_error,reps"]
        for e in self.entries:
            lines.append(
                f"{e.alternative},{self.test},{e.power:.6f},{e.std_error:.6f},{e.reps}"
            )
        lines.append(
            f"(null),{self.test},{self.level:.6f},{self.level_std_error:.6f},{self.reps_level}"
        )
        return "\n".join(lines) + "\n"


def _mc_std_error(p_hat: float, reps: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / reps)


# ---------------------------------------------------------------------------
# Replicate evaluation
# ---------------------------------------------------------------------------


def _column_decisions(col: TestColumn, samples: np.ndarray, null: NullDensity) -> np.ndarray:
    """Boolean rejection vector of one test column on a batch of samples.

    The uniformity-based procedures (trigonometric, mixed, cosine-series,
    smooth, and plain KS) act on the null-cdf transform of the data, which
    is the identity when the null itself is uniform.
    """
    kind = col.kind
    if kind in (TestKind.TTR, TestKind.TTR_CT, TestKind.KS, TestKind.BR, TestKind.KL):
        data = transform_to_uniform(null, samples)
    else:
        data = samples
    if kind in _ADAPTIVE:
        table = col.table
        if table.statistic_kind is StatisticKind.SIMPLE:
            stats = simple_stats_batch(data, table.models, table.null)
        else:
            stats = composite_scale_stats_batch(data, table.models, table.null, table.policy)
        return (stats > table.thresholds_at_u_alpha[None, :]).any(axis=1)
    if kind is TestKind.KS:
        return ks_statistic_batch(data, Uniform01()) > col.baseline.critical_value
    if kind is TestKind.KS_EXP:
        return ks_exponential_statistic_batch(data) > col.baseline.critical_value
    if kind is TestKind.BR:
        stats = bickel_ritov_statistic_batch(data, col.baseline.d_of_n)
        return stats > col.baseline.critical_value
    stats = kallenberg_ledwina_statistic_batch(data, col.baseline.d_of_n)[1]
    return stats > col.baseline.critical_value


def _decision_chunk(payload) -> np.ndarray:
    null_doc, alt_id, n, seed, label, start, stop, columns = payload
    null = null_from_json(null_doc)
    spec = from_id(alt_id) if alt_id is not None else None
    samples = np.empty((stop - start, n))
    for i, r in enumerate(range(start, stop)):
        stream = derive_stream(seed, label, r)
        samples[i] = spec.sampler(stream, n) if spec else null.sample(n, stream)
    return np.array(
        [int(_column_decisions(col, samples, null).sum()) for col in columns],
        dtype=np.int64,
    )


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
    workers = max(1, workers)
    bounds = np.linspace(0, reps, workers + 1).astype(int)
    payloads = [
        (null.to_json(), alt_id, n, seed, label, int(a), int(b), columns)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    if workers == 1 or len(payloads) == 1:
        parts = [_decision_chunk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_decision_chunk, payloads))
    return np.sum(parts, axis=0)


# ---------------------------------------------------------------------------
# Calibration plumbing (cached per process so presets can share tables)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _cached_calibrate(
    d: NullDensity,
    models: tuple[ModelIndex, ...],
    n: int,
    alpha: float,
    B1: int,
    B2: int,
    kind: StatisticKind,
    seed: int,
    policy: ScaleSearchPolicy | None,
    workers: int,
) -> CalibrationTable:
    return calibrate(
        d, list(models), n, alpha, B1, B2,
        statistic_kind=kind, seed=seed, policy=policy, workers=workers,
    )


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
    null_spec, models, kind = _ADAPTIVE[config.test]
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
    """Assemble the test column for a config, calibrating baselines on demand."""
    null = null_from_spec(config.null)
    mp = config.model_params
    name = config.test.value
    if config.test in _ADAPTIVE:
        if calibration is None:
            if not build_missing:
                raise CalibrationMissingError(
                    f"no calibration table for test '{config.test.value}'; run: "
                    + _calibrate_hint(config)
                )
            calibration = _table_for_kind(config, workers)
        policy = _adaptive_table_spec(config)[3]
        if policy is not None and calibration.policy != policy:
            raise TableMismatchError(f"table policy {calibration.policy} is not {policy}")
        return TestColumn(name, config.test, table=calibration)
    d_of_n = mp.d_of_n
    baseline_kind = {
        TestKind.KS: BaselineKind.KS,
        TestKind.KS_EXP: BaselineKind.KS_EXPONENTIAL,
        TestKind.BR: BaselineKind.BICKEL_RITOV,
        TestKind.KL: BaselineKind.KALLENBERG_LEDWINA,
    }[config.test]
    cfg = _cached_baseline(baseline_kind, config.n, config.alpha, config.calib[0], config.seed, d_of_n)
    return TestColumn(name, config.test, baseline=cfg)


def _table_for_kind(config: ExperimentConfig, workers: int) -> CalibrationTable:
    null, models, kind, policy = _adaptive_table_spec(config)
    B1, B2 = config.calib
    return _cached_calibrate(
        null_from_spec(null), tuple(models),
        config.n, config.alpha, B1, B2, kind, config.seed, policy, workers,
    )


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
    entries = []
    for alt_id in config.alternatives:
        counts = rejection_counts(
            null, alt_id, config.n, config.reps_power, [column],
            config.seed, f"power:{alt_id}", workers,
        )
        p_hat = counts[0] / config.reps_power
        entries.append(
            PowerEntry(alt_id, p_hat, _mc_std_error(p_hat, config.reps_power), config.reps_power)
        )
    level_counts = rejection_counts(
        null, None, config.n, config.reps_level, [column], config.seed, "level", workers
    )
    level = level_counts[0] / config.reps_level
    return PowerReport(
        test=config.test.value,
        null=config.null,
        n=config.n,
        alpha=config.alpha,
        entries=entries,
        level=level,
        level_std_error=_mc_std_error(level, config.reps_level),
        reps_level=config.reps_level,
        wall_clock_s=time.perf_counter() - t0,
    )


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

_SQRT_PI_HALF = repr(math.sqrt(math.pi / 2.0))
_H1 = repr(2.0 / math.sqrt(2.0 * math.pi))
_H2 = repr(1.5 / math.sqrt(2.0 * math.pi))
_H3 = repr(20.0 / math.sqrt(2.0 * math.pi))
_H4 = repr(15.0 / math.sqrt(2.0 * math.pi))

_NORMALITY_STD_ROWS = [
    ("f", "norm:f:2", "f(2)"),
    ("f", "norm:f:1.8", "f(1.8)"),
    ("f", f"norm:f:{_SQRT_PI_HALF}", "f(sqrt(pi/2))"),
    ("g", "norm:g:1,1", "g(1,1)"),
    ("g", "norm:g:0.5,2", "g(0.5,2)"),
    ("g", "norm:g:1,2", "g(1,2)"),
    ("h", f"norm:h:{_H1}", "h(2/sqrt(2pi))"),
    ("h", f"norm:h:{_H2}", "h(3/(2 sqrt(2pi)))"),
]

_NORMALITY_SMALL_ROWS = [
    ("f", "norm:f:0.17", "f(0.17)"),
    ("f", "norm:f:0.16", "f(0.16)"),
    ("f", "norm:f:0.12", "f(0.12)"),
    ("g", "norm:g:0.1,0.01", "g(0.1,0.01)"),
    ("g", "norm:g:0.05,0.015", "g(0.05,0.015)"),
    ("g", "norm:g:0.05,0.02", "g(0.05,0.02)"),
    ("h", f"norm:h:{_H3}", "h(20/sqrt(2pi))"),
    ("h", f"norm:h:{_H4}", "h(15/sqrt(2pi))"),
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


def _uniformity_columns(n, d_tr, d_ct, d_of_n, alpha, B, seed, workers):
    t_tr = _cached_calibrate(
        Uniform01(), tuple(trigonometric_models(d_tr)), n, alpha, B, B,
        StatisticKind.SIMPLE, seed, None, workers,
    )
    t_trct = _cached_calibrate(
        Uniform01(), tuple(mixed_models(d_tr, d_ct)), n, alpha, B, B,
        StatisticKind.SIMPLE, seed, None, workers,
    )
    return [
        TestColumn("T_tr", TestKind.TTR, table=t_tr),
        TestColumn("T_tr/ct", TestKind.TTR_CT, table=t_trct),
        TestColumn(
            "T_KL",
            TestKind.KL,
            baseline=_cached_baseline(BaselineKind.KALLENBERG_LEDWINA, n, alpha, B, seed, d_of_n),
        ),
        TestColumn(
            "T_BR",
            TestKind.BR,
            baseline=_cached_baseline(BaselineKind.BICKEL_RITOV, n, alpha, B, seed, d_of_n),
        ),
        TestColumn(
            "T_KS",
            TestKind.KS,
            baseline=_cached_baseline(BaselineKind.KS, n, alpha, B, seed, None),
        ),
    ]


def _normality_columns(null, alpha, B, seed, workers):
    n = 100
    t_d = _cached_calibrate(
        null, tuple(direct_models(1, 10)), n, alpha, B, B,
        StatisticKind.SIMPLE, seed, None, workers,
    )
    t_trct = _cached_calibrate(
        Uniform01(), tuple(mixed_models(12, 10)), n, alpha, B, B,
        StatisticKind.SIMPLE, seed, None, workers,
    )
    return [
        TestColumn("T_d", TestKind.TD, table=t_d),
        TestColumn("T_tr/ct", TestKind.TTR_CT, table=t_trct),
        TestColumn(
            "T_KS",
            TestKind.KS,
            baseline=_cached_baseline(BaselineKind.KS, n, alpha, B, seed, None),
        ),
    ]


def _exponentiality_columns(alpha, B, seed, workers):
    n = 100
    table = _cached_calibrate(
        Exponential(), tuple(scale_models(2, 10)), n, alpha, B, B,
        StatisticKind.COMPOSITE_INVARIANT, seed, ScaleSearchPolicy(), workers,
    )
    return [
        TestColumn("T_comp", TestKind.COMPOSITE, table=table),
        TestColumn(
            "T_KS_exp",
            TestKind.KS_EXP,
            baseline=_cached_baseline(BaselineKind.KS_EXPONENTIAL, n, alpha, B, seed, None),
        ),
    ]


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
    cells = []
    for section, alt_id, display in rows:
        counts = rejection_counts(
            null, alt_id, n, reps_power, columns, seed, f"power:{alt_id}", workers
        )
        for col, c in zip(columns, counts):
            p_hat = c / reps_power
            cells.append(
                TableCell(
                    null.name, section, display, col.name,
                    p_hat, _mc_std_error(p_hat, reps_power), reps_power,
                )
            )
    counts = rejection_counts(null, None, n, reps_level, columns, seed, "level", workers)
    for col, c in zip(columns, counts):
        p_hat = c / reps_level
        cells.append(
            TableCell(
                null.name, "level", "(null)", col.name,
                p_hat, _mc_std_error(p_hat, reps_level), reps_level,
            )
        )
    return cells


def table_cells(table_id: str, seed: int = 0, scale: float = 1.0, workers: int = 1) -> list[TableCell]:
    """Estimates for every (alternative, test) cell of a benchmark preset."""
    alpha = 0.05
    B, reps_power, reps_level = _scaled_budgets(scale)
    if table_id == "T1":
        cols = _uniformity_columns(50, 6, 6, 10, alpha, B, seed, workers)
        return _run_block(Uniform01(), _UNIFORMITY_ROWS, cols, 50, reps_power, reps_level, seed, workers)
    if table_id == "T2":
        cols = _uniformity_columns(100, 12, 10, 12, alpha, B, seed, workers)
        return _run_block(Uniform01(), _UNIFORMITY_ROWS, cols, 100, reps_power, reps_level, seed, workers)
    if table_id == "T3":
        cells = []
        for null, rows in (
            (Gaussian(0.0, 1.0), _NORMALITY_STD_ROWS),
            (Gaussian(0.0, 0.1), _NORMALITY_SMALL_ROWS),
        ):
            cols = _normality_columns(null, alpha, B, seed, workers)
            cells.extend(_run_block(null, rows, cols, 100, reps_power, reps_level, seed, workers))
        return cells
    if table_id == "T4":
        cols = _exponentiality_columns(alpha, B, seed, workers)
        return _run_block(
            Exponential(), _EXPONENTIALITY_ROWS, cols, 100, reps_power, reps_level, seed, workers
        )
    raise InvalidInputError(f"unknown table id {table_id!r}; expected T1, T2, T3 or T4")


def reproduce_table(
    table_id: str, seed: int = 0, scale: float = 1.0, workers: int = 1
) -> str:
    """CSV document for one benchmark preset, one row per (alternative, test).

    Rows appear in the preset's row-major order (alternatives as published,
    then the levels row); reruns with the same arguments are byte-identical.
    """
    cells = table_cells(table_id, seed, scale, workers)
    lines = ["table,null,section,alternative,test,estimate,std_error,reps"]
    for c in cells:
        lines.append(
            f"{table_id},{c.null},{c.section},{c.alternative},{c.test},"
            f"{c.estimate:.6f},{c.std_error:.6f},{c.reps}"
        )
    return "\n".join(lines) + "\n"
