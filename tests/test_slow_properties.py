"""Long-running Monte Carlo property checks, excluded via ``-m 'not slow'``.

The quick suite covers the same properties at reduced budgets; these runs
pin them at the budgets the module contracts state.
"""

import math

import numpy as np
import pytest
from scipy import stats

from adagof.alternatives import from_id
from adagof.harness import rejection_counts, TestColumn, TestKind
from adagof.null_models import Uniform01
from adagof.streams import derive_stream

from test_alternatives import CATALOG_IDS

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("alt_id", CATALOG_IDS)
def test_sampler_consistency_hundred_seeds(alt_id):
    # 100 seeded trials of 1e5 draws against the numeric cdf at the 1% level;
    # the failure count is Binomial(100, 0.01), so allow 3 (P(X > 3) = 1.9%)
    spec = from_id(alt_id)
    lo, hi = spec.quad_window
    grid = np.linspace(lo, hi, 16001)
    pdf_vals = spec.pdf(grid)
    cdf_vals = np.concatenate(
        [[0.0], np.cumsum((pdf_vals[1:] + pdf_vals[:-1]) / 2.0 * np.diff(grid))]
    )
    crit = stats.kstwo.ppf(0.99, 100_000)
    failures = 0
    for trial in range(100):
        draws = spec.sampler(100_000, derive_stream(77, f"slow:{alt_id}", trial))
        u = np.interp(np.clip(draws, lo, hi), grid, cdf_vals)
        d = stats.kstest(u, "uniform").statistic
        if d > crit + 1e-3:  # 1e-3 absorbs the numeric-cdf quadrature bias
            failures += 1
    assert failures <= 3


def test_power_monotone_in_contamination_amplitude():
    # power against the cosine contamination rises with its amplitude
    from adagof.harness import _cached_calibrate
    from adagof.calibration import StatisticKind
    from adagof.harness import trigonometric_models

    (table,) = _cached_calibrate(
        Uniform01(), (tuple(trigonometric_models(12)),), 100, 0.05,
        20_000, 20_000, StatisticKind.SIMPLE, 57, None, 1,
    )
    column = TestColumn("T_tr", TestKind.TTR, table=table)
    reps = 4000
    powers = []
    for rho in (0.3, 0.5, 0.7):
        counts = rejection_counts(
            Uniform01(), f"f:{rho},2", 100, reps, [column], 57, f"mono:{rho}", 1
        )
        powers.append(counts[0] / reps)
    se = math.sqrt(0.25 / reps)
    assert powers[0] <= powers[1] + 3 * se
    assert powers[1] <= powers[2] + 3 * se
