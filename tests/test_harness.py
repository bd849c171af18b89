import csv
import dataclasses
import io
import json
import time
import warnings

import numpy as np
import pytest

from adagof import calibration, harness
from adagof.baselines import BaselineKind, calibrate_baseline
from adagof.calibration import StatisticKind, calibrate
from adagof.cli import _parse_policy, parse_models
from adagof.cli import main as cli_main
from adagof.errors import CalibrationMissingError, TableMismatchError
from adagof.estimators import _MAX_DEGREE, ScaleSearchPolicy, simple_stats_batch
from adagof.harness import (
    ExperimentConfig,
    ModelParams,
    TestColumn,
    TestKind,
    build_column,
    derive_stream,
    estimate_power,
    _UNIFORMITY_ROWS,
    _scaled_budgets,
    mixed_models,
    rejection_counts,
    reproduce_table,
    scale_models,
    table_cells,
    trigonometric_models,
)
from adagof.null_models import Exponential, Gaussian, Uniform01


class TestDeriveStream:
    def test_same_triple_same_prefix(self):
        a = derive_stream(7, "power:f:0.5,2", 3).random(64)
        b = derive_stream(7, "power:f:0.5,2", 3).random(64)
        np.testing.assert_array_equal(a, b)

    def test_replicates_differ(self):
        a = derive_stream(7, "power:f:0.5,2", 7).random(64)
        b = derive_stream(7, "power:f:0.5,2", 8).random(64)
        assert not np.array_equal(a, b)

    def test_labels_differ(self):
        a = derive_stream(7, "level", 0).random(64)
        b = derive_stream(7, "power:x", 0).random(64)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = derive_stream(1, "level", 0).random(64)
        b = derive_stream(2, "level", 0).random(64)
        assert not np.array_equal(a, b)


@pytest.fixture(scope="module")
def tiny_table():
    return calibrate(Uniform01(), trigonometric_models(3), n=25, alpha=0.05, B1=600, B2=600, seed=41)


class TestEstimatePower:
    def test_missing_calibration_names_the_invocation(self):
        config = ExperimentConfig(
            test=TestKind.TTR, null="uniform", n=25,
            model_params=ModelParams(d_tr=3),
            alternatives=("f:0.5,2",),
            reps_power=100, reps_level=100, calib=(600, 600), seed=41,
        )
        with pytest.raises(CalibrationMissingError) as err:
            estimate_power(config)
        assert "adagof calibrate" in str(err.value)
        assert "--n 25" in str(err.value)

    @pytest.mark.parametrize(
        "test,null,params,expected",
        [
            (TestKind.TTR, "gaussian:0,1", ModelParams(d_tr=4),
             "--null 'uniform' --models 'fourier:1-4' --n 30 --alpha 0.05 --statistic simple"),
            (TestKind.TTR_CT, "gaussian:0,1", ModelParams(),
             "--null 'uniform' --models 'piecewise:2-6,fourier:1-6' --n 30 --alpha 0.05 --statistic simple"),
            (TestKind.TD, "gaussian:0,1", ModelParams(d_range=(1, 8)),
             "--null 'gaussian:0,1' --models 'piecewise:1-8' --n 30 --alpha 0.05 --statistic simple"),
            (TestKind.COMPOSITE, "exponential", ModelParams(),
             "--null 'exponential' --models 'piecewise:2-10' --n 30 --alpha 0.05 --statistic composite"),
        ],
    )
    def test_missing_calibration_hint_matches_the_built_table(self, test, null, params, expected):
        # TTR sees the null-cdf transform of the data, so its table is uniform
        config = ExperimentConfig(test=test, null=null, n=30, model_params=params, calib=(600, 600))
        with pytest.raises(CalibrationMissingError) as err:
            build_column(config)
        assert f"adagof calibrate {expected} --seed 0" in str(err.value)

    def test_missing_calibration_hint_carries_the_search_policy(self):
        policy = ScaleSearchPolicy(coarse_points=33)
        config = ExperimentConfig(
            test=TestKind.COMPOSITE, null="exponential", n=30,
            model_params=ModelParams(policy=policy), calib=(600, 600),
        )
        with pytest.raises(CalibrationMissingError) as err:
            build_column(config)
        hint = str(err.value)
        assert hint.endswith("--seed 0 --policy 10.0,33,1,8")
        assert _parse_policy(hint.rsplit("--policy ", 1)[1]) == policy

    def test_supplied_table_must_carry_the_configured_policy(self):
        table = calibrate(
            Exponential(), scale_models(2, 4), n=20, alpha=0.1, B1=100, B2=100,
            statistic_kind=StatisticKind.COMPOSITE_INVARIANT, seed=3,
        )
        params = ModelParams(d_range=(2, 4))
        config = ExperimentConfig(
            test=TestKind.COMPOSITE, null="exponential", n=20, alpha=0.1,
            model_params=params, calib=(100, 100), seed=3,
        )
        assert build_column(config, calibration=table).table is table
        other = dataclasses.replace(
            config, model_params=dataclasses.replace(params, policy=ScaleSearchPolicy(coarse_points=33))
        )
        with pytest.raises(TableMismatchError):
            build_column(other, calibration=table)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("statistic_kind", {"test": TestKind.TD}),
            ("null", {"null": "uniform"}),
            ("n", {"n": 21}),
            ("models", {"model_params": ModelParams(d_range=(2, 5))}),
            ("alpha", {"alpha": 0.05}),
            ("policy", {"model_params": ModelParams(
                d_range=(2, 4), policy=ScaleSearchPolicy(coarse_points=33)
            )}),
        ],
    )
    def test_supplied_table_that_does_not_fit_the_config_is_refused(self, field, change):
        config = ExperimentConfig(
            test=TestKind.COMPOSITE, null="exponential", n=20, alpha=0.1,
            model_params=ModelParams(d_range=(2, 4)), calib=(100, 100), seed=3,
        )
        table = build_column(config, build_missing=True).table
        assert build_column(config, calibration=table).table is table
        with pytest.raises(TableMismatchError, match=f"^table {field} is .+, not .+"):
            build_column(dataclasses.replace(config, **change), calibration=table)

    def test_power_at_null_equals_level(self, tiny_table):
        config = ExperimentConfig(
            test=TestKind.TTR, null="uniform", n=25,
            model_params=ModelParams(d_tr=3),
            alternatives=(),
            reps_power=2000, reps_level=2000, calib=(600, 600), seed=41,
        )
        report = estimate_power(config, calibration=tiny_table)
        # the level row IS the power at the null by definition
        (level,) = report.cells
        assert (level.alternative, level.reps) == ("(null)", 2000)
        assert abs(level.estimate - 0.05) < 0.02
        assert level.std_error == pytest.approx(
            np.sqrt(level.estimate * (1 - level.estimate) / 2000)
        )

    def test_report_csv_shape(self, tiny_table):
        config = ExperimentConfig(
            test=TestKind.TTR, null="uniform", n=25,
            model_params=ModelParams(d_tr=3),
            alternatives=("f:0.5,2", "h:0.4,2"),
            reps_power=200, reps_level=200, calib=(600, 600), seed=41,
        )
        report = estimate_power(config, calibration=tiny_table)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "alternative,test,estimate,std_error,reps"
        assert len(lines) == 4  # two alternatives + level row
        assert lines[-1].startswith("(null),ttr,")
        # power against a real alternative should exceed the level
        assert report.cells[0].estimate > report.cells[-1].estimate

    def test_report_csv_parses_to_its_values(self, tiny_table):
        # alternative ids such as f:0.5,2 hold commas, so they are quoted
        config = ExperimentConfig(
            test=TestKind.TTR, null="uniform", n=25,
            model_params=ModelParams(d_tr=3),
            alternatives=("f:0.5,2", "g:3,3,0.5", "h:0.4,2"),
            reps_power=200, reps_level=200, calib=(600, 600), seed=41,
        )
        report = estimate_power(config, calibration=tiny_table)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["alternative", "test", "estimate", "std_error", "reps"]
        want = [(c.alternative, c.estimate, c.std_error, c.reps) for c in report.cells]
        assert [alt for alt, *_ in want] == [*config.alternatives, "(null)"]
        assert rows[1:] == [[alt, "ttr", f"{p:.6f}", f"{se:.6f}", str(r)] for alt, p, se, r in want]

    def test_config_json_roundtrip(self, tmp_path):
        doc = {
            "test": "composite", "null": "exponential", "n": 50, "alpha": 0.05,
            "model_params": {"d_range": [2, 5], "policy": {
                "relative_span": 10.0, "coarse_points": 33,
                "refine_rounds": 1, "refine_factor": 8}},
            "alternatives": ["exp:w"], "reps_power": 200, "reps_level": 200,
            "calib": [300, 300], "seed": 5,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        config = ExperimentConfig.load(path)
        assert config.test is TestKind.COMPOSITE
        assert config.model_params.d_range == (2, 5)
        assert config.model_params.policy.coarse_points == 33


def test_power_report_matches_its_preset_column():
    # a power config and the T1 preset build the same column and count the
    # same replicates, so the T_tr cells equal the report
    scale, seed = 0.012, 3
    B, reps_power, reps_level = _scaled_budgets(scale)
    cells = [c for c in table_cells("T1", seed=seed, scale=scale) if c.test == "T_tr"]
    config = ExperimentConfig(
        test=TestKind.TTR, null="uniform", n=50, model_params=ModelParams(d_tr=6),
        alternatives=tuple(alt_id for _, alt_id, _ in _UNIFORMITY_ROWS),
        reps_power=reps_power, reps_level=reps_level, calib=(B, B), seed=seed,
    )
    report = estimate_power(config, build_missing=True)
    assert [(c.estimate, c.std_error, c.reps) for c in report.cells] == [
        (c.estimate, c.std_error, c.reps) for c in cells
    ]


@pytest.mark.parametrize("table_id", ["T1", "T2", "T3", "T4"])
def test_preset_csv_parses_to_its_cells(table_id, monkeypatch):
    # names such as f(0.5,2), k(10,20,0.25) and the null gaussian:0,1 hold
    # commas, so they are quoted and every row has the header's width
    cells = []
    table_cells_of = harness.table_cells
    monkeypatch.setattr(harness, "table_cells", lambda *args: cells.extend(table_cells_of(*args)) or cells)
    rows = list(csv.reader(io.StringIO(reproduce_table(table_id, seed=3, scale=0.012))))
    assert rows[0] == ["table", "null", "section", "alternative", "test", "estimate", "std_error", "reps"]
    assert rows[1:] == [
        [table_id, c.null, c.section, c.alternative, c.test, f"{c.estimate:.6f}", f"{c.std_error:.6f}", str(c.reps)]
        for c in cells
    ]


def test_a_preset_block_draws_each_calibration_stage_once(monkeypatch):
    # T_tr and T_tr/ct share the uniform null, n, budgets and seed: one
    # simulation per stage over the union of their models
    harness._cached_calibrate.cache_clear()
    labels = []
    simulate = calibration.simulate_null_stats

    def counted(d, models, n, reps, kind, seed, label, *args):
        labels.append(label)
        return simulate(d, models, n, reps, kind, seed, label, *args)

    monkeypatch.setattr(calibration, "simulate_null_stats", counted)
    table_cells("T1", seed=3, scale=0.012)
    assert labels == ["calib:thresholds", "calib:level"]


def test_a_table_calibrated_in_a_group_serves_a_one_collection_lookup(monkeypatch):
    # the T1 preset calibrates T_tr inside the (T_tr, T_tr/ct) group; the
    # matching power config finds that table, for any worker count
    scale, seed = 0.012, 3
    B, reps_power, reps_level = _scaled_budgets(scale)
    harness._cached_calibrate.cache_clear()
    table_cells("T1", seed=seed, scale=scale)
    labels = []
    simulate = calibration.simulate_null_stats

    def counted(d, models, n, reps, kind, seed, label, *args):
        labels.append(label)
        return simulate(d, models, n, reps, kind, seed, label, *args)

    monkeypatch.setattr(calibration, "simulate_null_stats", counted)
    config = ExperimentConfig(
        test=TestKind.TTR, null="uniform", n=50, model_params=ModelParams(d_tr=6),
        alternatives=("f:0.5,2",), reps_power=reps_power, reps_level=reps_level,
        calib=(B, B), seed=seed,
    )
    grouped = build_column(config, build_missing=True).table
    assert build_column(config, workers=2, build_missing=True).table is grouped
    estimate_power(config, build_missing=True)
    assert labels == []
    harness._cached_calibrate.cache_clear()
    estimate_power(config, build_missing=True)
    assert labels == ["calib:thresholds", "calib:level"]
    assert build_column(config, build_missing=True).table.to_json() == grouped.to_json()


def test_a_group_lookup_calibrates_only_its_missing_collections(monkeypatch):
    harness._cached_calibrate.cache_clear()
    args = (Uniform01(), 30, 0.1, 200, 200, StatisticKind.SIMPLE, 4, None, 1)
    first, second = tuple(trigonometric_models(3)), tuple(scale_models(2, 5))
    (kept,) = harness._cached_calibrate(args[0], (first,), *args[1:])
    alone = calibrate(Uniform01(), list(second), 30, 0.1, B1=200, B2=200, seed=4)
    drawn = []
    simulate = calibration.simulate_null_stats

    def counted(d, models, *rest):
        drawn.append(tuple(models))
        return simulate(d, models, *rest)

    monkeypatch.setattr(calibration, "simulate_null_stats", counted)
    got = harness._cached_calibrate(args[0], (second, first), *args[1:])
    assert drawn == [second, second]
    assert got[1] is kept
    assert got[0].to_json() == alone.to_json()
    again = harness._cached_calibrate(args[0], (first, second), *args[1:])
    assert again[0] is kept and again[1] is got[0]
    assert drawn == [second, second]
    harness._cached_calibrate.cache_clear()


def test_columns_counted_together_equal_columns_counted_alone():
    # the raw and transformed inputs, two tables sharing a null and a
    # baseline, each in one batch with the others
    null, n = Gaussian(0.0, 1.0), 40
    tables = [
        calibrate(Uniform01(), trigonometric_models(4), n, 0.1, B1=200, B2=200, u_grid_size=20, seed=2),
        calibrate(Uniform01(), mixed_models(6, 5), n, 0.1, B1=200, B2=200, u_grid_size=20, seed=2),
        calibrate(null, scale_models(1, 6), n, 0.1, B1=200, B2=200, u_grid_size=20, seed=2),
    ]
    columns = [
        TestColumn("T_tr", TestKind.TTR, table=tables[0]),
        TestColumn("T_tr/ct", TestKind.TTR_CT, table=tables[1]),
        TestColumn("T_d", TestKind.TD, table=tables[2]),
        TestColumn("T_KS", TestKind.KS, baseline=calibrate_baseline(BaselineKind.KS, n, 0.1, 1000, 2)),
    ]
    together = rejection_counts(null, "norm:g:1,1", n, 300, columns, 7, "mixed", 1)
    alone = [rejection_counts(null, "norm:g:1,1", n, 300, [c], 7, "mixed", 1)[0] for c in columns]
    assert together.tolist() == alone
    assert 0 < min(alone) and max(alone) < 300  # every column decides both ways


class TestWorkerIndependence:
    def test_rejection_counts_independent_of_workers(self, tiny_table):
        column = TestColumn("T_tr", TestKind.TTR, table=tiny_table)
        counts = [
            rejection_counts(Uniform01(), "f:0.5,2", 25, 300, [column], 41, "power:f:0.5,2", w)
            for w in (1, 4)
        ]
        assert counts[0][0] == counts[1][0]

    def test_preset_csv_byte_identical_across_runs_and_workers(self):
        a = reproduce_table("T1", seed=3, scale=0.012, workers=1)
        b = reproduce_table("T1", seed=3, scale=0.012, workers=1)
        c = reproduce_table("T1", seed=3, scale=0.012, workers=4)
        d = reproduce_table("T1", seed=3, scale=0.012, workers=16)
        assert a == b == c == d
        header = a.split("\n", 1)[0]
        assert header == "table,null,section,alternative,test,estimate,std_error,reps"


class TestCli:
    def test_calibrate_test_roundtrip(self, tmp_path, capsys):
        table_path = tmp_path / "table.json"
        rc = cli_main([
            "calibrate", "--null", "uniform", "--models", "fourier:1-3",
            "--n", "25", "--b1", "600", "--b2", "600", "--seed", "41",
            "--out", str(table_path),
        ])
        assert rc == 0
        capsys.readouterr()

        # a point mass is maximally non-uniform and must reject (exit code 1)
        data_path = tmp_path / "data.txt"
        data_path.write_text("\n".join(["0.41"] * 25), encoding="utf-8")
        rc = cli_main(["test", "--calib", str(table_path), "--data", str(data_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["reject"] is True

        # a null-looking sample should accept (exit code 0)
        x = Uniform01().sample(25, derive_stream(99, "cli", 0))
        data_path.write_text("\n".join(f"{v:.17g}" for v in x), encoding="utf-8")
        rc = cli_main(["test", "--calib", str(table_path), "--data", str(data_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == (1 if out["reject"] else 0)

    def test_cli_error_exit_code(self, tmp_path, capsys):
        rc = cli_main([
            "calibrate", "--null", "nonsense", "--models", "fourier:1-2",
            "--n", "10", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["bogus", "cosine"])
    def test_unknown_basis_family_in_table_is_an_error(self, tmp_path, capsys, tiny_table, family):
        doc = tiny_table.to_json()
        doc["models"][0]["family"] = family
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(doc), encoding="utf-8")
        data_path = tmp_path / "data.txt"
        data_path.write_text("\n".join(["0.41"] * 25), encoding="utf-8")
        rc = cli_main(["test", "--calib", str(table_path), "--data", str(data_path)])
        assert rc == 2
        assert "unknown basis family" in capsys.readouterr().err

    def test_power_subcommand(self, tmp_path, capsys):
        table_path = tmp_path / "table.json"
        cli_main([
            "calibrate", "--null", "uniform", "--models", "fourier:1-3",
            "--n", "25", "--b1", "600", "--b2", "600", "--seed", "41",
            "--out", str(table_path),
        ])
        config = {
            "test": "ttr", "null": "uniform", "n": 25,
            "model_params": {"d_tr": 3}, "alternatives": ["f:0.7,4"],
            "reps_power": 150, "reps_level": 150, "calib": [600, 600], "seed": 41,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_path = tmp_path / "report.csv"
        rc = cli_main([
            "power", "--config", str(config_path), "--calib", str(table_path),
            "--out", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "alternative,test,estimate,std_error,reps"
        assert len(lines) == 3

    def test_table_subcommand(self, tmp_path, capsys):
        out_path = tmp_path / "t1.csv"
        rc = cli_main(["table", "T1", "--scale", "0.012", "--seed", "3", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        text = out_path.read_text(encoding="utf-8")
        assert text == reproduce_table("T1", seed=3, scale=0.012)

    def test_selfcheck(self, capsys):
        rc = cli_main(["selfcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 7


_MALFORMED_CLI = {
    "non-numeric-data": ["test", "--calib", "{table}", "--data", "{bad_data}"],
    "short-policy": [
        "calibrate", "--null", "exponential", "--models", "piecewise:2-3", "--n", "20",
        "--statistic", "composite", "--policy", "10,33", "--out", "{out}",
    ],
    "non-integer-degree": [
        "calibrate", "--null", "uniform", "--models", "fourier:x-3", "--n", "20", "--out", "{out}",
    ],
    "missing-calib-file": ["test", "--calib", "{missing}", "--data", "{data}"],
    "mismatched-power-table": ["power", "--config", "{other_models_config}", "--calib", "{table}"],
    "composite-table-without-policy": ["test", "--calib", "{policyless_table}", "--data", "{data}"],
    "composite-table-with-fourier-models": ["test", "--calib", "{fourier_composite_table}", "--data", "{data}"],
    "composite-table-off-zero-support": ["test", "--calib", "{gaussian_composite_table}", "--data", "{data}"],
    "composite-statistic-off-zero-support": [
        "calibrate", "--null", "gaussian:0,1", "--models", "piecewise:2-4", "--n", "50",
        "--b1", "100", "--b2", "100", "--statistic", "composite", "--out", "{out}",
    ],
    "infinite-policy-span": [
        "calibrate", "--null", "exponential", "--models", "piecewise:2-3", "--n", "20",
        "--statistic", "composite", "--policy", "inf,3,0,1", "--out", "{out}",
    ],
    "reversed-degree-range": [
        "calibrate", "--null", "uniform", "--models", "piecewise:5-2,fourier:1-3", "--n", "20", "--out", "{out}",
    ],
    "repeated-model": [
        "calibrate", "--null", "uniform", "--models", "piecewise:2-3,piecewise:3-4", "--n", "20", "--out", "{out}",
    ],
    "missing-config-file": ["power", "--config", "{missing}"],
    "unknown-test-in-config": ["power", "--config", "{bogus_config}"],
    "non-integer-n-in-config": ["power", "--config", "{bad_n_config}"],
    "non-integer-alternative-parameter": ["power", "--config", "{bad_alt_config}"],
    "truncated-table": ["test", "--calib", "{truncated_table}", "--data", "{data}"],
    # tables that could never reject, or whose levels are no levels
    "infinite-threshold-table": ["test", "--calib", "{infinite_table}", "--data", "{data}"],
    "nan-level-table": ["test", "--calib", "{nan_level_table}", "--data", "{data}"],
    "level-above-one-table": ["test", "--calib", "{level_seven_table}", "--data", "{data}"],
    "negative-level-table": ["test", "--calib", "{negative_level_table}", "--data", "{data}"],
    "decreasing-level-table": ["test", "--calib", "{decreasing_level_table}", "--data", "{data}"],
    "unwritable-out": [
        "calibrate", "--null", "uniform", "--models", "fourier:1", "--n", "20",
        "--b1", "100", "--b2", "100", "--out", "{missing}/table.json",
    ],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CLI))
def test_malformed_input_exits_2(case, tmp_path, capsys, tiny_table):
    table_doc = tiny_table.to_json()
    files = {
        "table": table_doc,
        "truncated_table": dict(table_doc, thresholds=table_doc["thresholds"][:-1]),
        "infinite_table": dict(
            table_doc, thresholds=[np.inf] * len(table_doc["thresholds"]),
            thresholds_at_u_alpha=[np.inf] * len(table_doc["thresholds_at_u_alpha"]),
        ),
        "nan_level_table": dict(table_doc, level_curve=[np.nan] * len(table_doc["level_curve"])),
        "level_seven_table": dict(table_doc, level_curve=[7.0] * len(table_doc["level_curve"])),
        "negative_level_table": dict(table_doc, level_curve=[-1.0] * len(table_doc["level_curve"])),
        "decreasing_level_table": dict(table_doc, level_curve=table_doc["level_curve"][::-1]),
        "policyless_table": dict(
            table_doc, statistic_kind="composite_invariant",
            models=[{"family": "piecewise", "degree": d} for d in (2, 3, 4)],
        ),
        "fourier_composite_table": dict(table_doc, statistic_kind="composite_invariant", policy=_POLICY),
        "gaussian_composite_table": dict(
            table_doc, statistic_kind="composite_invariant", policy=_POLICY,
            models=[{"family": "piecewise", "degree": d} for d in (2, 3, 4)],
            null={"family": "gaussian", "mean": 0.0, "sd": 1.0},
        ),
        "other_models_config": {
            "test": "ttr", "null": "uniform", "n": 25, "model_params": {"d_tr": 2},
            "reps_power": 100, "reps_level": 100, "calib": [600, 600], "seed": 41,
        },
        "bogus_config": {"test": "bogus", "null": "uniform", "n": 25},
        "bad_n_config": {"test": "ks", "null": "uniform", "n": "twenty-five"},
        "bad_alt_config": {
            "test": "ks", "null": "uniform", "n": 25, "alternatives": ["f:0.5,2.7"],
            "reps_power": 100, "reps_level": 100, "calib": [1000, 1000],
        },
    }
    paths = {"out": tmp_path / "out.json", "missing": tmp_path / "missing"}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    paths["data"] = tmp_path / "data.txt"
    paths["data"].write_text("\n".join(["0.41"] * 25), encoding="utf-8")
    paths["bad_data"] = tmp_path / "bad_data.txt"
    paths["bad_data"].write_text("0.41\n0.2x\n", encoding="utf-8")
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in _MALFORMED_CLI[case]]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_plug_in_sum_past_the_float_range_exits_2_without_a_warning(tmp_path, capsys):
    # the N(0, 1e-306) density sums past the float range over 2,000 points
    rc = cli_main([
        "calibrate", "--null", "gaussian:0,1e-306", "--models", "piecewise:1-3", "--n", "2000",
        "--b1", "100", "--b2", "100", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("budgets", [[600], [600, 600, 7]], ids=["one", "three"])
def test_table_without_exactly_two_budgets_exits_2(budgets, tmp_path, capsys, tiny_table):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(dict(tiny_table.to_json(), budgets=budgets)), encoding="utf-8")
    data_path = tmp_path / "data.txt"
    data_path.write_text("\n".join(["0.41"] * 25), encoding="utf-8")
    assert cli_main(["test", "--calib", str(table_path), "--data", str(data_path)]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, doc",
    [
        ("alternatives", {"alternatives": "f:0.5,2"}),
        ("calib", {"calib": "1000,1000"}),
        ("model_params.d_range", {"test": "composite", "model_params": {"d_range": "2-10"}}),
        ("model_params.d_tr", {"test": "ttr", "model_params": {"d_tr": "3"}}),
    ],
)
def test_config_field_of_the_wrong_json_type_exits_2_naming_it(field, doc, tmp_path, capsys):
    config = {"test": "ks", "null": "uniform", "n": 25, "reps_power": 100, "reps_level": 100, **doc}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["power", "--config", str(path), "--build-missing"]) == 2
    assert f"{field} must be a JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, test, model_params",
    [
        ("d_range", "td", {"d_range": [1, 2, 3]}),
        ("d_range", "td", {"d_range": ["a", "b"]}),
        ("d_range", "td", {"d_range": [10, 2]}),
        ("d_range", "composite", {"d_range": [0, 4]}),
        ("d_tr", "ttr", {"d_tr": -3}),
        ("d_tr", "ttr", {"d_tr": 0}),
        ("d_ct", "ttr_ct", {"d_ct": 0}),
        ("d_of_n", "kl", {"d_of_n": 0}),
    ],
    ids=[
        "d_range-three", "d_range-strings", "d_range-reversed", "d_range-from-0",
        "d_tr-negative", "d_tr-0", "d_ct-0", "d_of_n-0",
    ],
)
def test_model_params_out_of_range_in_config_exits_2_naming_it(field, test, model_params, tmp_path, capsys):
    # unchecked, these crash with a TypeError (exit 1), build an empty model
    # collection that never rejects, or fall back silently to a default
    config = {
        "test": test, "null": "uniform", "n": 25, "model_params": model_params,
        "reps_power": 100, "reps_level": 100, "calib": [100, 100],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["power", "--config", str(path), "--build-missing"]) == 2
    assert f"model_params.{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["models-spec", "config-d_tr"])
def test_a_degree_past_the_cap_exits_2_within_a_second(case, tmp_path, capsys):
    # both built one model per degree until memory ran out; the degree
    # ranges are lazy, so they now fail at the first degree past the cap
    config = {
        "test": "ttr", "null": "uniform", "n": 25, "model_params": {"d_tr": 10**9},
        "reps_power": 100, "reps_level": 100, "calib": [100, 100],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = {
        "models-spec": [
            "calibrate", "--null", "uniform", "--models", "piecewise:2-3100000000000000000000",
            "--n", "20", "--out", str(tmp_path / "table.json"),
        ],
        "config-d_tr": ["power", "--config", str(path), "--build-missing"],
    }[case]
    start = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert f"degree must lie in 1..{_MAX_DEGREE}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, message",
    [
        ("policy-coarse-points", f"coarse_points must lie in 3..{_MAX_DEGREE}"),
        ("policy-refine-factor", f"refine_factor must lie in 1..{_MAX_DEGREE}"),
        ("policy-refine-rounds", "refine_rounds must lie in 0..64"),
        ("config-policy", f"refine_factor must lie in 1..{_MAX_DEGREE}"),
        ("table-policy", f"refine_factor must lie in 1..{_MAX_DEGREE}"),
        ("u-grid-size", f"u grid size must lie in 1..{_MAX_DEGREE}"),
        ("config-br-d_of_n", f"series dimension must lie in 1..{_MAX_DEGREE}"),
    ],
)
def test_a_search_size_past_its_cap_exits_2_within_a_second(case, message, tmp_path, capsys, tiny_table):
    # each allocated an array of several GiB (exit 1) or ran 10^9 refinement
    # rounds; every route now stops at the policy, calibration or baseline
    huge_factor = dict(_POLICY, refine_factor=10**9)
    files = {
        "config-policy": {
            "test": "composite", "null": "exponential", "n": 20,
            "model_params": {"d_range": [2, 3], "policy": huge_factor},
            "reps_power": 100, "reps_level": 100, "calib": [100, 100],
        },
        "table-policy": dict(
            tiny_table.to_json(), statistic_kind="composite_invariant", policy=huge_factor,
            models=[{"family": "piecewise", "degree": d} for d in (2, 3, 4)], null={"family": "exponential"},
        ),
        "config-br-d_of_n": {
            "test": "br", "null": "uniform", "n": 50, "model_params": {"d_of_n": 10**9},
            "reps_power": 100, "reps_level": 100, "calib": [1000, 1000],
        },
    }
    path, data, out = tmp_path / "input.json", tmp_path / "data.txt", str(tmp_path / "table.json")
    path.write_text(json.dumps(files.get(case, {})), encoding="utf-8")
    data.write_text("\n".join(["0.41"] * 25), encoding="utf-8")
    calibrate_args = [
        "calibrate", "--null", "exponential", "--models", "piecewise:2-3", "--n", "20",
        "--statistic", "composite", "--b1", "100", "--b2", "100", "--out", out,
    ]
    argv = {
        "policy-coarse-points": [*calibrate_args, "--policy", "10,1000000000,1,8"],
        "policy-refine-factor": [*calibrate_args, "--policy", "10,257,1,1000000000"],
        "policy-refine-rounds": [*calibrate_args, "--policy", "10,257,1000000000,8"],
        "config-policy": ["power", "--config", str(path), "--build-missing"],
        "table-policy": ["test", "--calib", str(path), "--data", str(data)],
        "u-grid-size": [
            "calibrate", "--null", "uniform", "--models", "fourier:1-2", "--n", "20",
            "--b1", "100", "--b2", "100", "--u-grid-size", "1000000000", "--out", out,
        ],
        "config-br-d_of_n": ["power", "--config", str(path), "--build-missing"],
    }[case]
    start = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "alt_id, message",
    [
        ("exp:l:inf,1,0.5", "takes finite numbers"),
        ("h:1e-9,100000000", f"degree j must lie in 1..{_MAX_DEGREE}"),
    ],
)
def test_an_alternative_that_never_finishes_sampling_exits_2_within_a_second(alt_id, message, tmp_path, capsys):
    # each calibrated, then sampled its row without end: Marsaglia-Tsang
    # accepts no proposal of an infinite shape, and the Legendre bump ran its
    # recurrence 10^8 times on every rejection pass
    config = {
        "test": "ks", "null": "exponential", "n": 50, "alternatives": [alt_id],
        "reps_power": 100, "reps_level": 100, "calib": [1000, 1000],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    start = time.perf_counter()
    assert cli_main(["power", "--config", str(path), "--build-missing"]) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_a_power_row_whose_draws_overflow_exits_2(tmp_path, capsys):
    # every norm:f:1e308 draw is inf (2 m overflows); the KS column read
    # ndtr(+-inf) and reported a power of 1.000
    config = {
        "test": "ks", "null": "gaussian:0,1", "n": 50, "alternatives": ["norm:f:1e308"],
        "reps_power": 100, "reps_level": 100, "calib": [1000, 1000], "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["power", "--config", str(path), "--build-missing"]) == 2
    assert "batch 'power:norm:f:1e308' drew a non-finite value" in capsys.readouterr().err


def test_a_gaussian_null_whose_density_overflows_exits_2_within_a_second(tmp_path, capsys):
    # at sd 1e-320 the null's L2 norm and pdf are inf, so every statistic was
    # NaN and the calibration stopped on a bare AssertionError (exit 1)
    argv = [
        "calibrate", "--null", "gaussian:0,1e-320", "--models", "piecewise:1-3", "--n", "30",
        "--b1", "100", "--b2", "100", "--out", str(tmp_path / "table.json"),
    ]
    start = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["gaussian:0,1e-320 null", "norm:h:1e-310 alternative"])
def test_a_refusal_is_not_preceded_by_a_runtime_warning(case, tmp_path):
    # the null warned "invalid value encountered in subtract" in the plug-in
    # term, and the alternative "overflow encountered in divide" in its
    # sampler, before their refusals: under -W error::RuntimeWarning each
    # exited 1 with a traceback
    if case.endswith("null"):
        argv = [
            "calibrate", "--null", "gaussian:0,1e-320", "--models", "piecewise:1-3", "--n", "30",
            "--b1", "100", "--b2", "100", "--out", str(tmp_path / "table.json"),
        ]
    else:
        config = {
            "test": "ks", "null": "gaussian:0,1", "n": 50, "alternatives": ["norm:h:1e-310"],
            "reps_power": 100, "reps_level": 100, "calib": [1000, 1000], "seed": 1,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["power", "--config", str(path), "--build-missing"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(argv) == 2


def test_models_at_the_degree_cap_are_accepted():
    models = parse_models(f"piecewise:{_MAX_DEGREE},fourier:{_MAX_DEGREE}")
    assert [m.degree for m in models] == [_MAX_DEGREE, _MAX_DEGREE]
    assert np.all(np.isfinite(simple_stats_batch(np.linspace(0.05, 0.95, 5)[None], models, Uniform01())))


@pytest.mark.parametrize(
    "field, doc",
    [
        ("n", {"n": 25.5}),
        ("reps_power", {"reps_power": 100.5}),
        ("reps_level", {"reps_level": 100.5}),
        ("calib", {"calib": [100.5, 100]}),
        ("seed", {"seed": 7.9}),
    ],
)
def test_non_integer_size_or_budget_in_config_exits_2_naming_it(field, doc, tmp_path, capsys):
    # the config runs (exit 0) with integer values
    config = {
        "test": "ttr", "null": "uniform", "n": 25, "model_params": {"d_tr": 2},
        "reps_power": 100, "reps_level": 100, "calib": [100, 100], **doc,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["power", "--config", str(path), "--build-missing"]) == 2
    assert f"{field} must be" in capsys.readouterr().err


_POLICY = {"relative_span": 10.0, "coarse_points": 257, "refine_rounds": 1, "refine_factor": 8}


@pytest.mark.parametrize(
    "field, change",
    [
        ("null", {"null": "uniform"}),
        ("null", {"null": None}),
        ("null.mean", {"null": {"family": "gaussian", "mean": "0", "sd": 1}}),
        ("n", {"n": 20.7}),
        ("n", {"n": True}),
        ("models.degree", {"models": [{"family": "fourier", "degree": 1.9}]}),
        ("seed", {"seed": 7.9}),
        ("budgets", {"budgets": [600.5, 600]}),
        ("alpha", {"alpha": "0.05"}),
        ("level_curve", {"level_curve": [0.0]}),
        ("level_curve", lambda doc: {"level_curve": [False] * len(doc["u_grid"])}),
        ("thresholds", lambda doc: {"thresholds": [str(v) for v in doc["thresholds"]]}),
        ("policy.coarse_points", {"policy": dict(_POLICY, coarse_points=257.5)}),
    ],
)
def test_table_field_of_the_wrong_json_type_exits_2_naming_it(field, change, tmp_path, capsys, tiny_table):
    doc = tiny_table.to_json()
    doc.update(change(doc) if callable(change) else change)
    if field == "models.degree":  # one model, so one threshold row
        doc["thresholds"] = doc["thresholds"][: len(doc["u_grid"])]
        doc["thresholds_at_u_alpha"] = doc["thresholds_at_u_alpha"][:1]
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(doc), encoding="utf-8")
    data_path = tmp_path / "data.txt"
    data_path.write_text("\n".join(str((i + 0.5) / 25) for i in range(25)), encoding="utf-8")
    assert cli_main(["test", "--calib", str(table_path), "--data", str(data_path)]) == 2
    assert f"{field} must" in capsys.readouterr().err


def test_config_alpha_given_as_a_string_exits_2_naming_it(tmp_path, capsys):
    config = {"test": "ks", "null": "uniform", "n": 25, "alpha": "0.05", "reps_power": 100, "reps_level": 100}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["power", "--config", str(path), "--build-missing"]) == 2
    assert "alpha must be a JSON float" in capsys.readouterr().err
