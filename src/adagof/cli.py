"""Command-line interface.

Subcommands: ``calibrate`` (write a calibration table), ``test`` (run a
calibrated test on a data file, exit 0=accept 1=reject 2=error), ``power``
(run an experiment config, write a CSV report), ``table`` (run a benchmark
preset), and ``selfcheck`` (oracle-equivalence suite).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .adaptive_test import run_composite_invariant_test, run_simple_test
from .calibration import CalibrationTable, StatisticKind, _basis_family, calibrate
from .errors import AdagofError, InvalidInputError, invalid_input, parse_fields
from .estimators import ModelIndex, ScaleSearchPolicy
from .harness import ExperimentConfig, estimate_power, reproduce_table
from .null_models import null_from_spec
from .selfcheck import run_selfcheck


def parse_models(spec: str) -> list[ModelIndex]:
    """Parse e.g. ``fourier:1-6`` or ``piecewise:2-10,fourier:1-12``."""
    models = []
    for part in spec.split(","):
        name, _, rng = part.strip().partition(":")
        family = _basis_family(name)
        lo_s, _, hi_s = rng.partition("-")
        with invalid_input(f"degree range {rng!r} in {spec!r}"):
            lo = int(lo_s)
            hi = int(hi_s) if hi_s else lo
        if hi < lo:
            raise InvalidInputError(f"degree range {rng!r} in {spec!r} is reversed")
        models.extend(ModelIndex(family, d) for d in range(lo, hi + 1))
    return models


def _parse_policy(spec: str | None) -> ScaleSearchPolicy | None:
    if spec is None:
        return None
    fields = parse_fields(spec, (float, int, int, int), "--policy SPAN,POINTS,ROUNDS,FACTOR")
    return ScaleSearchPolicy(*fields)


def _write(path: str, text: str) -> None:
    with invalid_input(f"cannot write {path!r}"):
        Path(path).write_text(text, encoding="utf-8")


def _cmd_calibrate(args) -> int:
    d = null_from_spec(args.null)
    kind = (
        StatisticKind.COMPOSITE_INVARIANT
        if args.statistic == "composite"
        else StatisticKind.SIMPLE
    )
    table = calibrate(
        d,
        parse_models(args.models),
        n=args.n,
        alpha=args.alpha,
        B1=args.b1,
        B2=args.b2,
        u_grid_size=args.u_grid_size,
        statistic_kind=kind,
        seed=args.seed,
        policy=_parse_policy(args.policy),
        workers=args.workers,
    )
    table.save(args.out)
    print(f"wrote {args.out} (u_alpha={table.u_alpha:g}, {len(table.models)} models)")
    return 0


def _cmd_test(args) -> int:
    table = CalibrationTable.load(args.calib)
    with invalid_input(f"data file {args.data!r}"):
        data = np.array(
            [float(line) for line in Path(args.data).read_text(encoding="utf-8").split()],
            dtype=float,
        )
    if table.statistic_kind is StatisticKind.SIMPLE:
        result = run_simple_test(data, table.null, table)
    else:
        result = run_composite_invariant_test(data, table.null, table.policy, table)
    print(json.dumps(result.to_json(), indent=1))
    return 1 if result.reject else 0


def _cmd_power(args) -> int:
    config = ExperimentConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    calibration = CalibrationTable.load(args.calib) if args.calib else None
    report = estimate_power(
        config, calibration, workers=args.workers, build_missing=args.build_missing
    )
    csv_text = report.to_csv()
    if args.out:
        _write(args.out, csv_text)
        print(f"wrote {args.out} ({report.wall_clock_s:.1f}s)")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_table(args) -> int:
    csv_text = reproduce_table(args.table_id, seed=args.seed, scale=args.scale, workers=args.workers)
    if args.out:
        _write(args.out, csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_selfcheck(args) -> int:
    ok, lines = run_selfcheck(seed=args.seed)
    for line in lines:
        print(line)
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adagof")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate thresholds and write a table JSON")
    p.add_argument("--null", required=True, help="uniform | exponential | gaussian[:MEAN,SD]")
    p.add_argument("--models", required=True, help="e.g. piecewise:2-10,fourier:1-6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--b1", type=int, default=20_000)
    p.add_argument("--b2", type=int, default=20_000)
    p.add_argument("--u-grid-size", type=int, default=100)
    p.add_argument("--statistic", choices=["simple", "composite"], default="simple")
    p.add_argument("--policy", default=None, help="composite search: SPAN,POINTS,ROUNDS,FACTOR")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("test", help="run a calibrated test on a data file")
    p.add_argument("--calib", required=True, help="calibration table JSON")
    p.add_argument("--data", required=True, help="UTF-8 text, one observation per line")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("power", help="estimate power for an experiment config")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--calib", default=None, help="calibration table JSON for adaptive tests")
    p.add_argument("--build-missing", action="store_true", help="calibrate on the fly if needed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("table", help="run a benchmark preset (T1..T4)")
    p.add_argument("table_id", choices=["T1", "T2", "T3", "T4"])
    p.add_argument("--scale", type=float, default=1.0, help="multiplies all Monte Carlo budgets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("selfcheck", help="run the oracle-equivalence suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AdagofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
