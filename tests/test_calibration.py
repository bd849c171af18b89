import copy
import dataclasses
import json
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagof import calibration
from adagof.bases import BasisFamily
from adagof.calibration import (
    CalibrationTable,
    StatisticKind,
    calibrate,
    calibrate_collections,
    level_curve_from_stats,
    simulate_null_stats,
    threshold_matrix,
)
from adagof.errors import (
    BudgetTooSmallError,
    CalibrationFailureError,
    InvalidInputError,
)
from adagof.estimators import _MAX_DEGREE, ModelIndex, ScaleSearchPolicy
from adagof.null_models import Exponential, Gaussian, Uniform01

PW = BasisFamily.PIECEWISE_CONSTANT
FOURIER = BasisFamily.FOURIER


class TestThresholdMatrix:
    def test_rank_rule_by_hand(self):
        # B = 4 values, u = 0.25 -> rank ceil(0.75 * 4) = 3 -> third smallest
        stats = np.array([[1.0], [2.0], [3.0], [4.0]])
        t = threshold_matrix(stats, np.array([0.25]))
        assert t[0, 0] == 3.0

    def test_rows_nonincreasing_in_u(self):
        rng = np.random.default_rng(0)
        stats = rng.normal(size=(500, 3))
        t = threshold_matrix(stats, np.linspace(0.005, 0.05, 10))
        assert np.all(np.diff(t, axis=1) <= 0.0)


class TestEstimateThresholds:
    """Stage one of ``calibrate``: the (1-u) null quantiles of each model."""

    def test_degenerate_model_all_zero(self):
        table = calibrate(Uniform01(), [ModelIndex(PW, 1)], n=20, B1=200, B2=200, u_grid_size=10, seed=3)
        np.testing.assert_array_equal(table.thresholds, np.zeros((1, 10)))

    def test_budget_floor(self):
        with pytest.raises(BudgetTooSmallError, match="threshold budget"):
            calibrate(Uniform01(), [ModelIndex(PW, 2)], n=20, B1=50, B2=200, seed=0)

    def test_u_grid_validation(self):
        # a reversed grid is refused where a table is built (reversed-u-grid below)
        with pytest.raises(InvalidInputError, match="u grid size"):
            calibrate(Uniform01(), [ModelIndex(PW, 2)], n=20, B1=200, B2=200, u_grid_size=0, seed=0)


class TestSelectUAlpha:
    """Stage two of ``calibrate``: the largest u whose sup-test level is <= alpha."""

    def test_direct_rule(self):
        # engineered stats/thresholds giving the level curve (0.01, 0.03, 0.05, 0.07)
        b2 = 100
        stats = np.arange(1.0, b2 + 1.0)[:, None]  # values 1..100
        u_grid = np.array([0.0125, 0.025, 0.0375, 0.05])
        thresholds = np.array([[99.5, 97.5, 95.5, 93.5]])
        levels = level_curve_from_stats(stats, thresholds)
        np.testing.assert_allclose(levels, [0.01, 0.03, 0.05, 0.07])
        ok = np.nonzero(levels <= 0.05)[0]
        assert u_grid[ok[-1]] == 0.0375

    @pytest.mark.parametrize(
        "reps, models, grid",
        [(400, 6, 25), (1, 6, 25), (400, 1, 25), (400, 6, 1), (1, 1, 1)],
        ids=["ties", "one-replicate", "one-model", "one-grid-point", "one-of-each"],
    )
    def test_level_curve_equals_the_exceedance_cube(self, reps, models, grid):
        # statistics and thresholds on one coarse lattice, so many statistics
        # equal a threshold exactly
        rng = np.random.default_rng([reps, models, grid])
        stats = rng.integers(0, 12, size=(reps, models)) / 4.0
        thresholds = -np.sort(-rng.integers(0, 12, size=(models, grid)) / 4.0, axis=1)
        if reps * models * grid > 100:
            assert np.any(stats[:, :, None] == thresholds[None])
        cube = (stats[:, :, None] > thresholds[None]).any(axis=1).mean(axis=0)
        levels = level_curve_from_stats(stats, thresholds)
        assert levels.dtype == cube.dtype and levels.tobytes() == cube.tobytes()

    @pytest.mark.parametrize(
        "thresholds, match",
        [
            (np.zeros((3, 4)), "one row per model"),
            (np.zeros(4), "one row per model"),
            (np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 0.5]]), "not increase in u"),
            (np.array([[3.0, np.nan, 1.0], [1.0, 1.0, 0.5]]), "not increase in u"),
        ],
        ids=["three-rows-for-two-models", "one-dimensional", "increasing-row", "nan"],
    )
    def test_level_curve_refuses_malformed_thresholds(self, thresholds, match):
        with pytest.raises(InvalidInputError, match=match):
            level_curve_from_stats(np.ones((10, 2)), thresholds)

    def test_degenerate_model_picks_max_u(self):
        table = calibrate(Uniform01(), [ModelIndex(PW, 1)], n=20, B1=200, B2=200, u_grid_size=10, seed=3)
        assert table.u_alpha == table.u_grid[-1]
        np.testing.assert_array_equal(table.level_curve, np.zeros(10))

    def test_budget_floor(self):
        with pytest.raises(BudgetTooSmallError, match="level budget"):
            calibrate(Uniform01(), [ModelIndex(PW, 2)], n=20, B1=200, B2=50, seed=0)

    def test_failure_carries_level_curve(self):
        # nineteen piecewise models at the single u = alpha: the sup-test rejects 22%
        with pytest.raises(CalibrationFailureError) as err:
            calibrate(
                Uniform01(), [ModelIndex(PW, d) for d in range(2, 21)],
                n=20, B1=100, B2=100, u_grid_size=1, seed=4,
            )
        assert err.value.u_grid == [0.05]
        assert err.value.level_curve == [0.22]


class TestCalibrate:
    def test_deterministic(self):
        kwargs = dict(n=30, alpha=0.05, B1=400, B2=400, u_grid_size=20, seed=11)
        a = calibrate(Uniform01(), [ModelIndex(FOURIER, d) for d in (1, 2, 3)], **kwargs)
        b = calibrate(Uniform01(), [ModelIndex(FOURIER, d) for d in (1, 2, 3)], **kwargs)
        assert a.to_json() == b.to_json()

    def test_alpha_validation(self):
        with pytest.raises(InvalidInputError):
            calibrate(Uniform01(), [ModelIndex(PW, 2)], n=20, alpha=0.0, B1=200, B2=200)

    @pytest.mark.parametrize(
        "models", [[], [ModelIndex(PW, 2), ModelIndex(FOURIER, 1), ModelIndex(PW, 2)]], ids=["empty", "repeated"]
    )
    def test_empty_or_repeated_collection_is_refused_before_any_draw(self, models, monkeypatch):
        monkeypatch.setattr(calibration, "simulate_null_stats", None)  # a draw would raise TypeError
        with pytest.raises(InvalidInputError, match="nonempty and list each model once"):
            calibrate(Uniform01(), models, n=20, B1=200, B2=200)

    def test_u_alpha_on_grid_and_level_constraint(self):
        table = calibrate(
            Uniform01(),
            [ModelIndex(FOURIER, d) for d in (1, 2, 3, 4)],
            n=50, alpha=0.05, B1=2000, B2=2000, seed=5,
        )
        assert table.u_alpha in table.u_grid
        idx = int(np.nonzero(table.u_grid == table.u_alpha)[0][0])
        assert table.level_curve[idx] <= table.alpha
        assert np.all(np.diff(table.level_curve) >= 0.0)
        assert np.all(np.diff(table.thresholds, axis=1) <= 0.0)

    def test_models_stored_in_pinned_order(self):
        table = calibrate(
            Uniform01(),
            [ModelIndex(FOURIER, 2), ModelIndex(PW, 3), ModelIndex(PW, 2)],
            n=20, alpha=0.05, B1=200, B2=200, seed=6,
        )
        labels = [m.label for m in table.models]
        assert labels == ["piecewise:2", "piecewise:3", "fourier:2"]

    def test_composite_kind_records_policy(self):
        policy = ScaleSearchPolicy(coarse_points=33, refine_rounds=0)
        table = calibrate(
            Exponential(), [ModelIndex(PW, d) for d in (2, 3)],
            n=25, alpha=0.05, B1=200, B2=200,
            statistic_kind=StatisticKind.COMPOSITE_INVARIANT, seed=7, policy=policy,
        )
        assert table.policy == policy
        assert table.statistic_kind is StatisticKind.COMPOSITE_INVARIANT

    def test_worker_count_does_not_change_result(self):
        kwargs = dict(n=25, alpha=0.05, B1=300, B2=300, u_grid_size=10, seed=12)
        models = [ModelIndex(FOURIER, d) for d in (1, 2)]
        a = calibrate(Uniform01(), models, workers=1, **kwargs)
        b = calibrate(Uniform01(), models, workers=4, **kwargs)
        assert a.to_json() == b.to_json()

    def test_worker_count_is_capped_at_the_usable_cpus(self, monkeypatch):
        opened = []

        class InlinePool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        models = [ModelIndex(FOURIER, d) for d in (1, 2)]
        args = (Uniform01(), models, 20, 300, StatisticKind.SIMPLE, 14, "cap")
        serial = simulate_null_stats(*args)
        monkeypatch.setattr(calibration, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        np.testing.assert_array_equal(simulate_null_stats(*args, workers=16), serial)
        assert opened and max(opened) <= 2

    def test_adding_model_keeps_level_controlled(self):
        # recalibration re-controls the level when the collection grows
        small = [ModelIndex(FOURIER, d) for d in (1, 2, 3)]
        grown = small + [ModelIndex(PW, 4)]
        for models in (small, grown):
            table = calibrate(Uniform01(), models, n=40, alpha=0.05, B1=2000, B2=2000, seed=13)
            idx = int(np.nonzero(table.u_grid == table.u_alpha)[0][0])
            assert table.level_curve[idx] <= 0.05


class TestTableSerialization:
    def test_json_roundtrip(self, tmp_path):
        table = calibrate(
            Uniform01(), [ModelIndex(FOURIER, 1), ModelIndex(PW, 2)],
            n=20, alpha=0.05, B1=200, B2=200, seed=8,
        )
        path = tmp_path / "table.json"
        table.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded.to_json() == table.to_json()
        assert loaded.models == table.models
        np.testing.assert_array_equal(loaded.thresholds, table.thresholds)

    def test_schema_version_checked(self, tmp_path):
        table = calibrate(
            Uniform01(), [ModelIndex(PW, 2)], n=20, alpha=0.05, B1=200, B2=200, seed=9
        )
        doc = table.to_json()
        doc["schema_version"] = 99
        with pytest.raises(InvalidInputError):
            CalibrationTable.from_json(doc)


@pytest.fixture(scope="module")
def table_doc():
    table = calibrate(
        Uniform01(), [ModelIndex(FOURIER, 1), ModelIndex(FOURIER, 2)],
        n=20, alpha=0.05, B1=200, B2=200, u_grid_size=10, seed=8,
    )
    return table.to_json()


_POLICY_DOC = ScaleSearchPolicy().to_json()


def _increasing_rows(doc):
    rows = np.reshape(doc["thresholds"], (len(doc["models"]), -1))
    doc["thresholds"] = rows[:, ::-1].ravel().tolist()


@pytest.mark.parametrize(
    "defect,match",
    [
        (lambda doc: doc.update(thresholds=doc["thresholds"][:-1]), "cannot reshape"),
        (lambda doc: doc.update(thresholds=doc["thresholds"][:-2]), "thresholds must hold"),
        (lambda doc: doc.pop("u_alpha"), "missing field 'u_alpha'"),
        (lambda doc: doc.pop("models"), "missing field 'models'"),
        (lambda doc: doc.update(null={"family": "gaussian"}), "missing field 'mean'"),
        (lambda doc: doc.update(budgets=[200]), "out of range"),
        (lambda doc: doc.update(u_grid=doc["u_grid"][::-1]), "strictly increasing"),
        (lambda doc: doc.update(u_alpha=doc["u_alpha"] * (1 - 1e-9)), "not on the u grid"),
        (
            lambda doc: doc.update(
                thresholds_at_u_alpha=[v + 1.0 for v in doc["thresholds_at_u_alpha"]]
            ),
            "not the u_alpha column",
        ),
        (_increasing_rows, "must not increase in u"),
        (
            lambda doc: doc.update(
                models=doc["models"][:1] * 2, thresholds=doc["thresholds"][: 2 * len(doc["u_grid"])]
            ),
            "list each model once",
        ),
        (lambda doc: doc.update(statistic_kind="composite_invariant"), "scale-search policy"),
        (
            lambda doc: doc.update(statistic_kind="composite_invariant", policy=_POLICY_DOC),
            "expects piecewise models",
        ),
        (
            lambda doc: doc.update(
                statistic_kind="composite_invariant", policy=_POLICY_DOC,
                models=[{"family": "piecewise", "degree": d} for d in (2, 3)],
                null={"family": "gaussian", "mean": 0.0, "sd": 1.0},
            ),
            r"needs a null on \[0, inf\)",
        ),
    ],
    ids=[
        "truncated-thresholds", "thresholds-short-one-column", "missing-u-alpha",
        "missing-models", "null-without-mean", "one-budget", "reversed-u-grid",
        "u-alpha-off-grid", "stale-u-alpha-column", "increasing-threshold-row", "repeated-model",
        "composite-without-policy", "composite-with-fourier-models", "composite-off-zero-support",
    ],
)
def test_table_schema_defects_are_input_errors(table_doc, defect, match):
    doc = copy.deepcopy(table_doc)
    defect(doc)
    with pytest.raises(InvalidInputError, match=match):
        CalibrationTable.from_json(doc)


def test_table_with_more_than_two_budgets_is_an_input_error(table_doc):
    doc = copy.deepcopy(table_doc)
    doc["budgets"] = [200, 200, 7]
    with pytest.raises(InvalidInputError, match="budgets length 3 is out of range"):
        CalibrationTable.from_json(doc)


def _assert_same_fields(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _json_round_trip(obj):
    return type(obj).from_json(json.loads(json.dumps(obj.to_json())))


_SIMPLE_MODELS = {
    "fourier": [ModelIndex(FOURIER, degree) for degree in range(1, 5)],
    "mixed": [ModelIndex(FOURIER, 6), ModelIndex(PW, 5), ModelIndex(PW, 2), ModelIndex(FOURIER, 2)],
    "piecewise": [ModelIndex(PW, 3)],
}
_SCALE_MODELS = {
    "low": [ModelIndex(PW, degree) for degree in (2, 3)],
    "spread": [ModelIndex(PW, degree) for degree in (3, 6, 10)],
}


@pytest.fixture(scope="module")
def composite_tables():
    return calibrate_collections(
        Exponential(), list(_SCALE_MODELS.values()), 20, 0.1, 300, 200, 20,
        StatisticKind.COMPOSITE_INVARIANT, seed=3, policy=ScaleSearchPolicy(coarse_points=33),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_collections_calibrated_together_equal_separate_calibrations(workers, composite_tables):
    grouped = calibrate_collections(
        Uniform01(), list(_SIMPLE_MODELS.values()), 30, 0.05, 300, 300, 20, seed=5, workers=workers
    )
    for table, models in zip(grouped, _SIMPLE_MODELS.values(), strict=True):
        alone = calibrate(Uniform01(), models, 30, 0.05, 300, 300, 20, seed=5, workers=workers)
        assert table.to_json() == alone.to_json()
    policy = ScaleSearchPolicy(coarse_points=33)
    for table, models in zip(composite_tables, _SCALE_MODELS.values(), strict=True):
        alone = calibrate(
            Exponential(), models, 20, 0.1, 300, 200, 20,
            StatisticKind.COMPOSITE_INVARIANT, seed=3, policy=policy, workers=workers,
        )
        assert table.to_json() == alone.to_json()


def test_table_json_round_trip_keeps_every_field(composite_tables):
    simple = calibrate(Gaussian(0.3, 1.7), [ModelIndex(PW, 2), ModelIndex(PW, 4)], 25, 0.05, 200, 200, 10)
    for table in (simple, *composite_tables):
        _assert_same_fields(_json_round_trip(table), table)


def test_fourier_table_json_round_trip_is_byte_exact():
    # Fourier thresholds come from the recurrence's last bits; JSON keeps all
    models = [ModelIndex(FOURIER, degree) for degree in range(1, 7)] + [ModelIndex(PW, 3)]
    table = calibrate(Uniform01(), models, 30, 0.05, 300, 300, 20, seed=6)
    back = _json_round_trip(table)
    _assert_same_fields(back, table)
    for field in dataclasses.fields(table):
        want = getattr(table, field.name)
        if isinstance(want, np.ndarray):
            assert getattr(back, field.name).tobytes() == want.tobytes(), field.name


@settings(max_examples=200, deadline=None)
@given(
    relative_span=st.floats(min_value=1.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    coarse_points=st.integers(3, _MAX_DEGREE),
    refine_rounds=st.integers(0, 64),
    refine_factor=st.integers(1, _MAX_DEGREE),
)
def test_policy_json_round_trip_keeps_every_field(relative_span, coarse_points, refine_rounds, refine_factor):
    policy = ScaleSearchPolicy(relative_span, coarse_points, refine_rounds, refine_factor)
    _assert_same_fields(_json_round_trip(policy), policy)


@pytest.mark.parametrize(
    "field, value",
    [
        ("relative_span", 1.0), ("relative_span", math.inf), ("relative_span", math.nan),
        ("coarse_points", 2), ("refine_rounds", -1), ("refine_factor", 0),
        ("coarse_points", _MAX_DEGREE + 1), ("refine_rounds", 65), ("refine_factor", _MAX_DEGREE + 1),
    ],
)
def test_policy_out_of_range_is_an_input_error(field, value):
    with pytest.raises(InvalidInputError):
        ScaleSearchPolicy(**{field: value})
