"""Decision layer: the calibrated sup-tests.

A test rejects when some model's statistic strictly exceeds its calibrated
threshold, i.e. when ``max_m (stat_m - t_m(u_alpha))`` is positive.  Ties at
exactly zero accept, so degenerate models provably never reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationTable, StatisticKind
from .errors import TableMismatchError
from .estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    _scale_search,
    simple_stats_batch,
    t_tilde_affine,
)
# Imported only so that perfbench/tracing.py can wrap them at this import site.
from .estimators import t_hat, t_tilde_scale  # noqa: F401
from .null_models import NullDensity


@dataclass(frozen=True)
class ModelDiagnostic:
    model: ModelIndex
    stat: float
    threshold: float
    exceedance: float
    mu: float | None = None
    sigma: float | None = None
    sigma_ratio: float | None = None

    def to_json(self) -> dict:
        doc = {
            "family": self.model.family.value,
            "degree": self.model.degree,
            "stat": self.stat,
            "threshold": self.threshold,
            "exceedance": self.exceedance,
        }
        if self.sigma is not None:
            doc["sigma"] = self.sigma
        if self.sigma_ratio is not None:
            doc["sigma_ratio"] = self.sigma_ratio
        if self.mu is not None:
            doc["mu"] = self.mu
        return doc


@dataclass(frozen=True)
class TestResult:
    statistic: float
    reject: bool
    u_alpha_used: float
    per_model: tuple[ModelDiagnostic, ...] = field(repr=False)
    argwitness: ModelIndex | None = None

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "reject": self.reject,
            "u_alpha_used": self.u_alpha_used,
            "argwitness": None if self.argwitness is None else self.argwitness.label,
            "per_model": [p.to_json() for p in self.per_model],
        }


def _check_table(sample, d: NullDensity, table: CalibrationTable, kind: StatisticKind) -> None:
    if table.statistic_kind is not kind:
        raise TableMismatchError(
            f"table was calibrated for the {table.statistic_kind.value} statistic"
        )
    if d != table.null:
        raise TableMismatchError(
            f"table was calibrated under {table.null.name}, not {d.name}"
        )
    if len(sample) != table.n:
        raise TableMismatchError(
            f"thresholds are specific to n={table.n}, got a sample of size {len(sample)}"
        )


def _assemble(table: CalibrationTable, diagnostics: list[ModelDiagnostic]) -> TestResult:
    statistic = max(p.exceedance for p in diagnostics)
    witness = next((p.model for p in diagnostics if p.exceedance > 0.0), None)
    return TestResult(
        statistic=float(statistic),
        reject=statistic > 0.0,
        u_alpha_used=table.u_alpha,
        per_model=tuple(diagnostics),
        argwitness=witness,
    )


def run_simple_test(sample: np.ndarray, d: NullDensity, table: CalibrationTable) -> TestResult:
    """Fixed-density test: reject when some model's statistic clears its threshold."""
    _check_table(sample, d, table, StatisticKind.SIMPLE)
    stats = simple_stats_batch(np.asarray(sample, dtype=float)[None, :], table.models, d)[0]
    diagnostics = [
        ModelDiagnostic(m, float(stat), float(thr), float(stat) - float(thr))
        for m, stat, thr in zip(table.models, stats, table.thresholds_at_u_alpha)
    ]
    return _assemble(table, diagnostics)


def run_composite_invariant_test(
    sample: np.ndarray,
    d: NullDensity,
    policy: ScaleSearchPolicy | None,
    table: CalibrationTable,
) -> TestResult:
    """Scale-family test with thresholds simulated at the standard member.

    Valid because the searched statistic is exactly invariant under data
    rescaling, so its null law does not depend on the true scale.  The
    policy must be the one the table was calibrated with.
    """
    _check_table(sample, d, table, StatisticKind.COMPOSITE_INVARIANT)
    if policy is None:
        policy = table.policy
    if policy != table.policy:
        raise TableMismatchError("search policy differs from the calibrated one")
    x = np.asarray(sample, dtype=float)
    values, ratios = _scale_search(x[None, :], table.models, d, policy)
    mean = float(np.mean(x))
    diagnostics = [
        ModelDiagnostic(
            m,
            float(value),
            float(thr),
            float(value) - float(thr),
            sigma=mean * float(ratio),
            sigma_ratio=float(ratio),
        )
        for m, value, ratio, thr in zip(
            table.models, values[0], ratios[0], table.thresholds_at_u_alpha
        )
    ]
    return _assemble(table, diagnostics)


def run_composite_compact_test(
    sample: np.ndarray,
    d: NullDensity,
    K: tuple[tuple[float, float], tuple[float, float]],
    grid: tuple[int, int],
    table: CalibrationTable,
    refine_rounds: int = 1,
    refine_factor: int = 8,
) -> TestResult:
    """Translation/scale test over a compact rectangle.

    The searched statistic is compared against the SIMPLE-statistic
    thresholds, which bounds the level from above for every family member
    whose parameters lie in the rectangle (at the cost of conservatism).
    """
    _check_table(sample, d, table, StatisticKind.SIMPLE)
    diagnostics = []
    for m, thr in zip(table.models, table.thresholds_at_u_alpha):
        res = t_tilde_affine(sample, m, d, K, grid, refine_rounds, refine_factor)
        diagnostics.append(
            ModelDiagnostic(
                m,
                res.value,
                float(thr),
                res.value - float(thr),
                mu=res.mu,
                sigma=res.sigma,
            )
        )
    return _assemble(table, diagnostics)
