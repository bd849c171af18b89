import dataclasses
import json

import numpy as np
import pytest

from adagof.calibration import StatisticKind, calibrate
from adagof.cli import _parse_policy
from adagof.cli import main as cli_main
from adagof.errors import CalibrationMissingError, TableMismatchError
from adagof.estimators import ScaleSearchPolicy
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
    rejection_counts,
    reproduce_table,
    scale_models,
    table_cells,
    trigonometric_models,
)
from adagof.null_models import Exponential, Uniform01


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

    def test_power_at_null_equals_level(self, tiny_table):
        config = ExperimentConfig(
            test=TestKind.TTR, null="uniform", n=25,
            model_params=ModelParams(d_tr=3),
            alternatives=(),
            reps_power=2000, reps_level=2000, calib=(600, 600), seed=41,
        )
        report = estimate_power(config, calibration=tiny_table)
        # the level row IS the power at the null by definition
        assert abs(report.level - 0.05) < 0.02
        assert report.level_std_error == pytest.approx(
            np.sqrt(report.level * (1 - report.level) / 2000)
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
        assert report.entries[0].power > report.level

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
    power = [c for c in cells if c.section != "level"]
    config = ExperimentConfig(
        test=TestKind.TTR, null="uniform", n=50, model_params=ModelParams(d_tr=6),
        alternatives=tuple(alt_id for _, alt_id, _ in _UNIFORMITY_ROWS),
        reps_power=reps_power, reps_level=reps_level, calib=(B, B), seed=seed,
    )
    report = estimate_power(config, build_missing=True)
    assert [(e.power, e.std_error, e.reps) for e in report.entries] == [
        (c.estimate, c.std_error, c.reps) for c in power
    ]
    assert (report.level, report.level_std_error) == (cells[-1].estimate, cells[-1].std_error)


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
        assert out.count("PASS") == 6


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
    "missing-config-file": ["power", "--config", "{missing}"],
    "unknown-test-in-config": ["power", "--config", "{bogus_config}"],
    "non-integer-n-in-config": ["power", "--config", "{bad_n_config}"],
    "non-integer-alternative-parameter": ["power", "--config", "{bad_alt_config}"],
    "truncated-table": ["test", "--calib", "{truncated_table}", "--data", "{data}"],
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
