"""Decision layer: the calibrated sup-tests.

A test rejects when some model's statistic strictly exceeds its calibrated
threshold, i.e. when ``max_m (stat_m - t_m(u_alpha))`` is positive.  Ties at
exactly zero accept, so degenerate models provably never reject.

Each test checks that its table fits (:meth:`CalibrationTable.check`), makes
one kernel call for the per-model statistics and hands them to ``_sup_test``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationTable, StatisticKind
from .estimators import ModelIndex, ScaleSearchPolicy, _scale_search, simple_stats_batch
# Imported only so that perfbench/tracing.py can wrap them at this import site.
from .estimators import t_hat, t_tilde_scale  # noqa: F401
from .null_models import NullDensity


@dataclass(frozen=True)
class ModelDiagnostic:
    model: ModelIndex
    stat: float
    threshold: float
    exceedance: float
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
        for key in ("sigma", "sigma_ratio"):
            if (value := getattr(self, key)) is not None:
                doc[key] = value
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


def _sup_test(table: CalibrationTable, stats, sigma=None, sigma_ratio=None) -> TestResult:
    """One sample's per-model statistics against the thresholds at u_alpha;
    ``sigma`` and ``sigma_ratio`` are per-model search results to report.
    Every argument but the table is a float array in the table's model order."""
    thresholds = table.thresholds_at_u_alpha
    exceedances = (stats - thresholds).tolist()
    columns = [stats.tolist(), thresholds.tolist(), exceedances] + [
        [None] * len(exceedances) if v is None else v.tolist()
        for v in (sigma, sigma_ratio)
    ]
    per_model = tuple(map(ModelDiagnostic, table.models, *columns))
    statistic = max(exceedances)
    return TestResult(
        statistic=statistic,
        reject=statistic > 0.0,
        u_alpha_used=table.u_alpha,
        per_model=per_model,
        argwitness=next((m for m, e in zip(table.models, exceedances) if e > 0.0), None),
    )


def run_simple_test(sample: np.ndarray, d: NullDensity, table: CalibrationTable) -> TestResult:
    """Fixed-density test: reject when some model's statistic clears its threshold."""
    table.check(StatisticKind.SIMPLE, d, len(sample))
    x = np.asarray(sample, dtype=float)
    return _sup_test(table, simple_stats_batch(x[None, :], table.models, d)[0])


def run_composite_invariant_test(
    sample: np.ndarray,
    d: NullDensity,
    policy: ScaleSearchPolicy | None,
    table: CalibrationTable,
) -> TestResult:
    """Scale-family test with thresholds simulated at the standard member.

    Valid because the searched statistic is exactly invariant under data
    rescaling, so its null law does not depend on the true scale.  The
    policy, when given, must be the one the table was calibrated with.
    """
    table.check(StatisticKind.COMPOSITE_INVARIANT, d, len(sample), policy=policy)
    x = np.asarray(sample, dtype=float)
    values, ratios = _scale_search(x[None, :], table.models, d, table.policy)
    return _sup_test(table, values[0], sigma=float(np.mean(x)) * ratios[0], sigma_ratio=ratios[0])
