"""Each replicate range is drawn, transformed and scored one lane block at a
time.  Every statistic kernel is row-local, so the per-block paths must equal
the kernel applied to the whole range's ``draw_samples``, bit for bit; and the
memory they hold beyond the statistic matrix must not grow with the budget.

The range 300..1500 spans three lane blocks (300-811, 812-1323 and the
ragged 1324-1499), starts past 0 and ends off a block boundary.
"""

import tracemalloc

import numpy as np
import pytest

from adagof import baselines, calibration, harness
from adagof.alternatives import from_id
from adagof.baselines import BaselineKind, baseline_statistics, calibrate_baseline
from adagof.calibration import StatisticKind, calibrate, draw_samples, threshold_matrix
from adagof.estimators import ScaleSearchPolicy, composite_scale_stats_batch, simple_stats_batch
from adagof.harness import TestColumn, TestKind, mixed_models, scale_models
from adagof.null_models import Exponential, Uniform01, transform_to_uniform
from adagof.streams import _BLOCK

START, STOP = 300, 1500
POLICY = ScaleSearchPolicy(coarse_points=33)


def test_the_range_spans_three_ragged_lane_blocks():
    assert START > 0 and STOP % _BLOCK != 0
    assert -(-(STOP - START) // _BLOCK) == 3


def _sample(null, alt_id):
    return null.sample if alt_id is None else from_id(alt_id).sampler


@pytest.mark.parametrize(
    "d, models, kind",
    [
        (Uniform01(), mixed_models(4, 5), StatisticKind.SIMPLE),
        (Exponential(), scale_models(2, 6), StatisticKind.COMPOSITE_INVARIANT),
    ],
    ids=["simple", "composite"],
)
def test_null_stats_chunk_equals_the_kernel_on_the_whole_range(d, models, kind):
    n, seed, label = 30, 5, "calib:level"
    stats = calibration._null_stats_chunk(d, models, n, kind, POLICY, seed, label, START, STOP)
    samples = draw_samples(d.sample, n, seed, label, START, STOP)
    if kind is StatisticKind.SIMPLE:
        want = simple_stats_batch(samples, models, d)
    else:
        want = composite_scale_stats_batch(samples, models, d, POLICY)
    assert stats.shape == want.shape and stats.tobytes() == want.tobytes()
    empty = calibration._null_stats_chunk(d, models, n, kind, POLICY, seed, label, START, START)
    assert empty.shape == (0, len(models))


# The tests whose statistic is simulated under the uniform, so they see F0(X).
_ON_TRANSFORM = {TestKind.TTR, TestKind.TTR_CT, TestKind.KS, TestKind.BR, TestKind.KL}


def _reference_counts(null, alt_id, n, columns, seed, label):
    """Each column's rejections on the whole range, on its own models."""
    samples = draw_samples(_sample(null, alt_id), n, seed, label, START, STOP)
    counts = []
    for col in columns:
        x = transform_to_uniform(null, samples) if col.kind in _ON_TRANSFORM else samples
        b, table = col.baseline, col.table
        if b is not None:
            stats, critical = baseline_statistics(b.kind, x, b.d_of_n)[:, None], b.critical_value
        else:
            critical = table.thresholds_at_u_alpha
            if table.statistic_kind is StatisticKind.SIMPLE:
                stats = simple_stats_batch(x, table.models, table.null)
            else:
                stats = composite_scale_stats_batch(x, table.models, table.null, table.policy)
        counts.append(int(np.sum((stats > critical).any(axis=1))))
    return counts


@pytest.mark.parametrize("alt_id", [None, "g:3,3,0.5"], ids=["level", "power"])
def test_decision_chunk_equals_the_kernels_on_the_whole_range_t2_columns(alt_id):
    # the T2 block's columns: two simple tables and the three baselines
    columns = harness._uniformity_columns(100, 12, 10, 12, 0.05, 1000, 4, 1)
    assert {c.kind for c in columns} == {TestKind.TTR, TestKind.TTR_CT, TestKind.KL, TestKind.BR, TestKind.KS}
    label = f"power:{alt_id}" if alt_id else "level"
    counts = harness._decision_chunk(Uniform01(), alt_id, 100, columns, 4, label, START, STOP)
    assert counts.tolist() == _reference_counts(Uniform01(), alt_id, 100, columns, 4, label)


def test_decision_chunk_equals_the_kernels_on_the_whole_range_composite_column():
    n = 20
    table = calibrate(
        Exponential(), scale_models(2, 5), n, 0.1, B1=300, B2=300, u_grid_size=20,
        statistic_kind=StatisticKind.COMPOSITE_INVARIANT, seed=3, policy=POLICY,
    )
    columns = [
        TestColumn("T_comp", TestKind.COMPOSITE, table=table),
        TestColumn("T_KS_exp", TestKind.KS_EXP, baseline=calibrate_baseline(BaselineKind.KS_EXPONENTIAL, n, 0.1, 1000, 3)),
    ]
    for alt_id in (None, "exp:l:2,5,0.5"):
        label = f"power:{alt_id}"
        counts = harness._decision_chunk(Exponential(), alt_id, n, columns, 6, label, START, STOP)
        want = _reference_counts(Exponential(), alt_id, n, columns, 6, label)
        assert counts.tolist() == want
        assert 0 < min(want) and max(want) < STOP - START  # both columns decide both ways


@pytest.mark.parametrize("kind", list(BaselineKind), ids=lambda k: k.value)
def test_calibrate_baseline_equals_the_kernel_on_the_whole_range(kind, monkeypatch):
    # the statistics reach threshold_matrix as one column; compare all of them
    seen = []

    def recording_threshold_matrix(stats, u_grid):
        seen.append(stats)
        return threshold_matrix(stats, u_grid)

    monkeypatch.setattr(baselines, "threshold_matrix", recording_threshold_matrix)
    n, B, d_of_n = 30, STOP, 6
    config = calibrate_baseline(kind, n, 0.05, B, 8, d_of_n)
    null = Exponential() if kind is BaselineKind.KS_EXPONENTIAL else Uniform01()
    samples = draw_samples(null.sample, n, 8, f"baseline:{kind.value}", 0, B)
    want = baseline_statistics(kind, samples, d_of_n)
    (stats,) = seen
    assert stats.shape == (B, 1) and stats[:, 0].tobytes() == want.tobytes()
    assert config.critical_value == threshold_matrix(want[:, None], np.array([0.05]))[0, 0]


def _traced_peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "run, bound_mb",
    [
        (lambda: calibrate_baseline(BaselineKind.KALLENBERG_LEDWINA, 100, B=20_000), 16.0),
        (lambda: calibrate(Uniform01(), mixed_models(12, 10), 100, B1=20_000, B2=20_000), 12.0),
    ],
    ids=["kallenberg-ledwina", "mixed-table"],
)
def test_calibration_memory_is_bounded_by_the_lane_block(run, bound_mb):
    # Drawing all 20,000 replicates at once held about 94 MB (Kallenberg-
    # Ledwina) and over 52 MB (21 models); per block, what remains is one
    # stage's (B, models) statistic matrix at a time, a column copy and its
    # sort (3.4 MB each for 21 models).
    assert _traced_peak_mb(run) < bound_mb
