"""Composite counts and thresholds settle (row, model) pairs from the scale
search's candidates nearest r = 1 and search exactly only the pairs that a
count, a threshold or a level can depend on.  Each consumer must give what
it gives on the full ``composite_scale_stats_batch`` matrix, bit for bit,
including values that tie a threshold exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagof.calibration import (
    StatisticKind,
    _threshold_ranks,
    calibrate,
    draw_samples,
    level_curve_from_stats,
    simulate_null_stats,
    threshold_matrix,
)
from adagof.errors import InvalidInputError, SupportViolationError
from adagof.estimators import (
    ScaleSearchPolicy,
    _near_unit_bound,
    _scale_search,
    composite_scale_stats_batch,
    scale_free_ratios,
    t_hat,
)
from adagof.harness import _composite_rejected, scale_models
from adagof.null_models import Exponential
from adagof.streams import _BLOCK

COMPOSITE = StatisticKind.COMPOSITE_INVARIANT
POLICY = ScaleSearchPolicy(coarse_points=33)


def _rows(kind, rows, n, seed):
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-2.0, 2.0, (rows, 1)))
    if kind == "exponential":
        return rng.exponential(1.0, (rows, n)) * scale
    return rng.weibull(float(kind), (rows, n)) * scale


@pytest.mark.parametrize("points", [3, 11, 17])
def test_the_bound_is_the_search_on_a_grid_it_covers(points):
    # no refinement and at most 17 coarse ratios: the bound scores every candidate
    x = _rows("1.5", 60, 40, 1)
    policy = ScaleSearchPolicy(coarse_points=points, refine_rounds=0)
    models = scale_models(2, 10)
    bound = _near_unit_bound(x, models, Exponential(), policy)
    assert bound.tobytes() == _scale_search(x, models, Exponential(), policy)[0].tobytes()


def test_the_bound_is_the_least_of_the_seventeen_candidates_nearest_r_1():
    # a narrow grid, so the least candidate often sits at an end of the window
    d, policy, models = Exponential(), ScaleSearchPolicy(relative_span=1.2, coarse_points=41), scale_models(2, 6)
    x = _rows("1.5", 8, 30, 7)
    window = policy.ratios()[12:29]
    bound = _near_unit_bound(x, models, d, policy)
    for i, row in enumerate(x):
        y = np.sort(scale_free_ratios(row))
        for j, m in enumerate(models):
            assert bound[i, j] == min(t_hat(y * (1.0 / r), m, d) for r in window), (i, m)


@pytest.mark.parametrize("policy", [ScaleSearchPolicy(), POLICY, ScaleSearchPolicy(refine_rounds=3)])
def test_the_bound_is_never_below_the_search(policy):
    x = np.concatenate([_rows("exponential", 40, 50, 2), _rows("0.7", 40, 50, 3), _rows("3", 40, 50, 4)])
    models = scale_models(2, 10)
    bound = _near_unit_bound(x, models, Exponential(), policy)
    exact = composite_scale_stats_batch(x, models, Exponential(), policy)
    assert np.all(bound >= exact)
    assert np.any(bound == exact) and np.any(bound > exact)


def test_the_bound_refuses_what_the_search_refuses():
    models = scale_models(2, 4)
    x = _rows("exponential", 3, 20, 5)
    x[1, 4] = 0.0
    for search in (_near_unit_bound, _scale_search):
        with pytest.raises(SupportViolationError):
            search(x, models, Exponential(), POLICY)
        with pytest.raises(InvalidInputError, match="would stack"):
            search(np.ones((1, 1 << 16)), models, Exponential(), ScaleSearchPolicy())


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["exponential", "1.5", "0.8"]),
    rows=st.integers(1, 40),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    degrees=st.sampled_from([(2, 10), (2, 4), (5, 5)]),
    policy=st.sampled_from([ScaleSearchPolicy(), POLICY]),
    picks=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
)
def test_early_settled_rejections_equal_the_full_matrix(kind, rows, n, seed, degrees, policy, picks):
    # each threshold is one of its column's own exact values, so some value
    # ties it exactly and must not count as exceeding
    x = _rows(kind, rows, n, seed)
    models = scale_models(*degrees)
    exact = _scale_search(x, models, Exponential(), policy)[0]
    picked = np.minimum((np.array(picks[: len(models)]) * rows).astype(int), rows - 1)
    thresholds = exact[picked, np.arange(len(models))]
    got = _composite_rejected(x, models, Exponential(), policy, thresholds)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, (exact > thresholds).any(axis=1))


def test_level_stage_values_are_exact_above_the_floor():
    models, n, reps = scale_models(2, 6), 30, 700
    args = (Exponential(), models, n, reps, COMPOSITE, 4, "calib:level", POLICY)
    exact = simulate_null_stats(*args)
    floors = np.quantile(exact, 0.9, axis=0)
    floors[0] = exact[17, 0]  # a value on the floor
    settled = simulate_null_stats(*args, settle=(floors, 0))
    above = exact > floors
    assert settled[above].tobytes() == exact[above].tobytes()
    assert np.all(settled[~above] <= np.broadcast_to(floors, exact.shape)[~above])
    assert np.any(settled != exact)  # some pairs were never searched
    thresholds = np.linspace(floors + 0.05, floors, 8, axis=1)
    curve = level_curve_from_stats(exact, thresholds)
    assert level_curve_from_stats(settled, thresholds).tobytes() == curve.tobytes()


@pytest.mark.parametrize("top", [1, 25, _BLOCK + 40])
@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_stage_keeps_the_top_values(top, workers):
    models, n, reps = scale_models(2, 5), 20, 1300  # three lane blocks
    args = (Exponential(), models, n, reps, COMPOSITE, 6, "calib:thresholds", POLICY, workers)
    settled = simulate_null_stats(*args, settle=(np.full(len(models), -np.inf), top))
    exact = composite_scale_stats_batch(
        draw_samples(Exponential().sample, n, 6, "calib:thresholds", 0, reps), models, Exponential(), POLICY
    )
    assert np.sort(settled, axis=0)[-top:].tobytes() == np.sort(exact, axis=0)[-top:].tobytes()
    assert np.all(settled >= exact)


@pytest.mark.parametrize(
    "alpha, B1, B2",
    [(0.05, 1100, 600), (0.5, 1200, 300)],
    ids=["two-lane-blocks", "top-past-one-lane-block"],
)
def test_composite_calibration_equals_the_full_matrices(alpha, B1, B2):
    d, models, n, size, seed = Exponential(), scale_models(2, 6), 20, 20, 9
    u_grid = alpha * np.arange(1, size + 1) / size
    if alpha == 0.5:
        assert B1 - _threshold_ranks(u_grid, B1).min() + 1 > _BLOCK
    full = {
        label: composite_scale_stats_batch(draw_samples(d.sample, n, seed, label, 0, B), models, d, POLICY)
        for label, B in (("calib:thresholds", B1), ("calib:level", B2))
    }
    thresholds = threshold_matrix(full["calib:thresholds"], u_grid)
    levels = level_curve_from_stats(full["calib:level"], thresholds)
    tables = [
        calibrate(d, models, n, alpha, B1, B2, size, COMPOSITE, seed, POLICY, workers=workers)
        for workers in (1, 2)
    ]
    for table in tables:
        assert table.thresholds.tobytes() == thresholds.tobytes()
        assert table.level_curve.tobytes() == levels.tobytes()
        assert table.u_alpha == u_grid[np.nonzero(levels <= alpha)[0][-1]]
    assert tables[0].to_json() == tables[1].to_json()
