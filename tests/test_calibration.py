import copy

import numpy as np
import pytest

from adagof.bases import BasisFamily
from adagof.calibration import (
    CalibrationTable,
    StatisticKind,
    calibrate,
    estimate_thresholds,
    level_curve_from_stats,
    select_u_alpha,
    threshold_matrix,
)
from adagof.errors import (
    BudgetTooSmallError,
    CalibrationFailureError,
    InvalidInputError,
)
from adagof.estimators import ModelIndex, ScaleSearchPolicy
from adagof.null_models import Exponential, Uniform01

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
    def test_degenerate_model_all_zero(self):
        u_grid = np.linspace(0.005, 0.05, 10)
        t = estimate_thresholds(
            Uniform01(), [ModelIndex(PW, 1)], n=20, B1=200, u_grid=u_grid, seed=3
        )
        np.testing.assert_array_equal(t, np.zeros((1, 10)))

    def test_budget_floor(self):
        with pytest.raises(BudgetTooSmallError):
            estimate_thresholds(
                Uniform01(), [ModelIndex(PW, 2)], n=20, B1=50,
                u_grid=np.array([0.05]), seed=0,
            )

    def test_u_grid_validation(self):
        with pytest.raises(InvalidInputError):
            estimate_thresholds(
                Uniform01(), [ModelIndex(PW, 2)], n=20, B1=200,
                u_grid=np.array([0.05, 0.01]), seed=0,
            )


class TestSelectUAlpha:
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

    def test_degenerate_model_picks_max_u(self):
        u_grid = np.linspace(0.005, 0.05, 10)
        thresholds = np.zeros((1, 10))
        u_alpha, levels = select_u_alpha(
            Uniform01(), [ModelIndex(PW, 1)], n=20, B2=200,
            thresholds=thresholds, u_grid=u_grid, alpha=0.05, seed=4,
        )
        assert u_alpha == u_grid[-1]
        np.testing.assert_array_equal(levels, np.zeros(10))

    def test_failure_carries_level_curve(self):
        # impossible thresholds: every replicate exceeds them at every u
        u_grid = np.array([0.01, 0.02])
        thresholds = np.full((1, 2), -np.inf)
        with pytest.raises(CalibrationFailureError) as err:
            select_u_alpha(
                Uniform01(), [ModelIndex(PW, 2)], n=20, B2=200,
                thresholds=thresholds, u_grid=u_grid, alpha=0.05, seed=4,
            )
        assert err.value.level_curve == [1.0, 1.0]


class TestCalibrate:
    def test_deterministic(self):
        kwargs = dict(n=30, alpha=0.05, B1=400, B2=400, u_grid_size=20, seed=11)
        a = calibrate(Uniform01(), [ModelIndex(FOURIER, d) for d in (1, 2, 3)], **kwargs)
        b = calibrate(Uniform01(), [ModelIndex(FOURIER, d) for d in (1, 2, 3)], **kwargs)
        assert a.to_json() == b.to_json()

    def test_alpha_validation(self):
        with pytest.raises(InvalidInputError):
            calibrate(Uniform01(), [ModelIndex(PW, 2)], n=20, alpha=0.0, B1=200, B2=200)

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
    ],
    ids=[
        "truncated-thresholds", "thresholds-short-one-column", "missing-u-alpha",
        "missing-models", "null-without-mean", "one-budget", "reversed-u-grid",
        "u-alpha-off-grid", "stale-u-alpha-column", "increasing-threshold-row",
    ],
)
def test_table_schema_defects_are_input_errors(table_doc, defect, match):
    doc = copy.deepcopy(table_doc)
    defect(doc)
    with pytest.raises(InvalidInputError, match=match):
        CalibrationTable.from_json(doc)
