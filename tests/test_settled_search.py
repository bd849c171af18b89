"""Composite counts and thresholds settle (row, model) pairs from the scale
search's candidates nearest r = 1 and search exactly only the pairs that a
count, a threshold or a level can depend on.  Each consumer must give what
it gives on the full ``composite_scale_stats_batch`` matrix, bit for bit,
including values that tie a threshold exactly.  The masked search scores
only the pairs it is given, each bit for bit as the full search does, and a
calibration block searches each of its rows' scaled grid once per phase.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagof import calibration
from adagof.calibration import (
    _TOP_START,
    StatisticKind,
    _settled_scale_stats,
    _threshold_ranks,
    calibrate,
    draw_samples,
    level_curve_from_stats,
    sample_blocks,
    simulate_null_stats,
    threshold_matrix,
)
from adagof.errors import InvalidInputError, SupportViolationError
from adagof.estimators import (
    _NEAR_UNIT,
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 20, 100, 200]),
    rows=st.integers(1, 8),
    degrees=st.sampled_from([(2, 10), (2, 4), (5, 5), (3, 8)]),
    coarse=st.integers(3, 257),
    rounds=st.integers(0, 3),
    factor=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_masked_search_equals_the_full_search_on_every_open_pair(
    n, rows, degrees, coarse, rounds, factor, seed, data
):
    # n = 2 and 20 put several rows in a coarse block, n = 100 and 200 one;
    # refinement blocks hold from 9 to over 900 pairs
    x = _rows("1.5", rows, n, seed)
    models = scale_models(*degrees)
    policy = ScaleSearchPolicy(coarse_points=coarse, refine_rounds=rounds, refine_factor=factor)
    cells = st.lists(st.booleans(), min_size=rows * len(models), max_size=rows * len(models))
    mask = np.array(data.draw(cells), dtype=bool).reshape(rows, len(models))
    full = _scale_search(x, models, Exponential(), policy)
    masked = _scale_search(x, models, Exponential(), policy, mask)
    for got, want in zip(masked, full):
        assert got[mask].tobytes() == want[mask].tobytes()
        assert np.isnan(got[~mask]).all()
    assert composite_scale_stats_batch(x, models, Exponential(), policy, mask).tobytes() == masked[0].tobytes()


def test_a_mask_with_empty_rows_and_columns_searches_only_its_pairs():
    x = _rows("exponential", 7, 20, 11)
    models = scale_models(2, 7)
    mask = np.zeros((7, len(models)), dtype=bool)
    mask[[0, 3, 6], 1] = mask[3, 4] = mask[5, [0, 5]] = True  # rows 1, 2, 4 and columns 2, 3 empty
    for policy in (POLICY, ScaleSearchPolicy(refine_rounds=2, refine_factor=3)):
        full = _scale_search(x, models, Exponential(), policy)
        masked = _scale_search(x, models, Exponential(), policy, mask)
        for got, want in zip(masked, full):
            assert got[mask].tobytes() == want[mask].tobytes()
            assert np.isnan(got[~mask]).all()
    values, ratios = _scale_search(x, models, Exponential(), POLICY, np.zeros_like(mask))
    assert np.isnan(values).all() and np.isnan(ratios).all()


def _per_model_settled(samples, models, d, policy, floors, top, largest):
    """``_settled_scale_stats`` one model at a time, one full search per
    model and phase: the reference that the masked phases must match.
    Returns the statistics and, per phase, the (row, model) pairs searched."""
    stats = _near_unit_bound(samples, models, d, policy)
    searched = [set(), set()]
    for j, m in enumerate(models):
        by_bound = np.argsort(-stats[:, j], kind="stable")
        for phase, rows in enumerate(np.split(by_bound, [_TOP_START * top])):
            seen = largest[j]
            cut = max(floors[j], seen[0] if top and seen.size == top else -np.inf)
            rows = rows[stats[rows, j] >= cut]
            searched[phase] |= {(int(i), j) for i in rows}
            if rows.size:
                stats[rows, j] = composite_scale_stats_batch(samples[rows], [m], d, policy)[:, 0]
                if top:
                    largest[j] = np.sort(np.concatenate([seen, stats[rows, j]]))[-top:]
    return stats, searched


def _chunk_ranges(reps, workers):
    bounds = np.linspace(0, reps, workers + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


@pytest.mark.parametrize("top", [1, 25, _BLOCK + 40, 0], ids=["top-1", "top-25", "top-552", "level"])
@pytest.mark.parametrize("workers", [1, 2])
def test_the_masked_phases_search_the_pairs_of_the_per_model_loop(top, workers, monkeypatch):
    # every block of every chunk that ``workers`` would run, in this process;
    # top = 0 is the level stage, which searches the values above its floors
    d, models, n, reps, seed = Exponential(), scale_models(2, 5), 20, 1300, 6
    label = "calib:level" if top == 0 else "calib:thresholds"
    floors = np.full(len(models), -np.inf)
    if top == 0:
        exact = composite_scale_stats_batch(draw_samples(d.sample, n, seed, label, 0, reps), models, d, POLICY)
        floors = np.quantile(exact, 0.85, axis=0)
    calls = []
    search = calibration.composite_scale_stats_batch

    def recorded(samples, models, d, policy, mask=None):
        calls.append((samples.copy(), mask.copy()))
        return search(samples, models, d, policy, mask)

    monkeypatch.setattr(calibration, "composite_scale_stats_batch", recorded)
    for start, stop in _chunk_ranges(reps, workers):
        largest, reference_largest = [np.empty(0)] * len(models), [np.empty(0)] * len(models)
        for samples in sample_blocks(d.sample, n, seed, label, start, stop):
            want, phases = _per_model_settled(samples, models, d, POLICY, floors, top, reference_largest)
            calls.clear()
            got = _settled_scale_stats(samples, models, d, POLICY, floors, top, largest)
            assert got.tobytes() == want.tobytes()
            # one call per phase that searches anything, on the same pairs
            row_of = {row.tobytes(): i for i, row in enumerate(samples)}
            searched = [
                {(row_of[rows[i].tobytes()], int(j)) for i, j in zip(*np.nonzero(mask))} for rows, mask in calls
            ]
            assert searched == [pairs for pairs in phases if pairs]
            for mine, theirs in zip(largest, reference_largest):
                assert mine.tobytes() == theirs.tobytes()


class _CountingExponential(Exponential):
    """The unit exponential, counting the values its ``pdf`` evaluates."""

    evaluated = [0]

    def pdf(self, x):
        self.evaluated[0] += np.size(x)
        return super().pdf(x)


@pytest.mark.parametrize(
    "n, degrees, policy, top",
    [
        (100, (2, 10), ScaleSearchPolicy(), 25),
        (20, (2, 7), ScaleSearchPolicy(coarse_points=33, refine_rounds=2, refine_factor=3), 1),
        (50, (2, 10), POLICY, 0),
    ],
    ids=["default-policy", "two-rounds", "level-floors"],
)
def test_a_settled_block_scores_each_searched_row_grid_once_per_phase(n, degrees, policy, top):
    d, models = _CountingExponential(), scale_models(*degrees)
    samples = draw_samples(Exponential().sample, n, 3, "calib:thresholds", 0, _BLOCK)
    if top:
        floors = np.full(len(models), -np.inf)
    else:  # the level stage: values above a floor near the top tenth
        floors = np.quantile(_near_unit_bound(samples, models, d, policy), 0.9, axis=0)
    empty = [np.empty(0)] * len(models)
    _, phases = _per_model_settled(samples, models, d, policy, floors, top, list(empty))
    searched_rows = sum(len({i for i, _ in pairs}) for pairs in phases)
    searched_pairs = sum(len(pairs) for pairs in phases)
    assert searched_pairs > searched_rows  # some row is searched at more than one degree
    d.evaluated[0] = 0
    _settled_scale_stats(samples, models, d, policy, floors, top, list(empty))
    steps = 2 * policy.refine_factor + 1
    bound_pass = _BLOCK * min(2 * _NEAR_UNIT + 1, policy.coarse_points) * n
    most = bound_pass + (searched_rows * policy.coarse_points + searched_pairs * steps * policy.refine_rounds) * n
    assert d.evaluated[0] <= most
