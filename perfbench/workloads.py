"""The benchmark's workloads: inputs made from the benchmark seed, one timed
operation, and the checks on what the operations returned.

Each workload has the same four steps, which ``run.py`` drives:

* ``setup(seed)`` builds the inputs (and, for the decisions workload, the
  calibration tables its tests use);
* ``run_op(state, i)`` is the timed operation: the ``i % distinct_ops``-th
  of the workload's distinct operations, so a run repeats each of them;
* ``collect(state, out)`` runs untimed after each operation, keeps what the
  checks need and returns the Monte Carlo replicates the operation drew;
* ``check(state)`` counts attempted and failed operations and the digests.

Calls go through module attributes (``calibration.calibrate``,
``harness.rejection_counts``, ...) so that the traced run's wrappers, which
replace those attributes, see them.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from adagof import adaptive_test, baselines, calibration, estimators, harness
from adagof.baselines import BaselineKind
from adagof.calibration import StatisticKind
from adagof.harness import TestColumn, TestKind
from adagof.null_models import Exponential, Uniform01

ALPHA = 0.05
N = 100

#: Relative gap under which the single-sample and batch statistics count as
#: the same number: both paths then agree up to rounding, and a decision that
#: still differs sits on a threshold tie.
ROUNDING_TOLERANCE = 1e-9


@dataclass
class Check:
    """Operation accounting for one run.

    ``errors`` lists outputs that are wrong (an exception, a non-finite or
    out-of-range value, a digest that differs from its reference, a
    statistic that differs from the batch path by more than rounding).  A
    decision that differs from the batch path only because its statistic
    sits within rounding of a threshold is a failed operation, but not a
    wrong output.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    pools_opened: int = 0

    def op(self, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if error is not None:
            self.errors.append(error)

    @property
    def correct(self) -> bool:
        return not self.errors

    @property
    def failed_op_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _raised(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def clear_calibration_caches() -> None:
    """Drop the harness's process-wide calibration caches, so every
    repetition pays for its calibrations as a fresh process would."""
    harness._cached_calibrate.cache_clear()
    harness._cached_baseline.cache_clear()


# ---------------------------------------------------------------------------
# Table workloads
# ---------------------------------------------------------------------------


def check_calibration(check: Check, name: str, table) -> None:
    ok = bool(
        np.all(np.isfinite(table.thresholds))
        and 0.0 < table.u_alpha <= table.alpha
        and np.all((table.level_curve >= 0.0) & (table.level_curve <= 1.0))
    )
    check.op(ok, None if ok else f"calibration {name}: non-finite thresholds or u_alpha/level out of range")


def check_baseline(check: Check, name: str, cfg) -> None:
    ok = math.isfinite(cfg.critical_value)
    check.op(ok, None if ok else f"baseline {name}: non-finite critical value")


def check_csv_cells(check: Check, csv: str, reference: str, what: str) -> None:
    """One operation per (row, test) cell: the estimate must be finite, in
    [0, 1], and equal to the reference CSV's cell."""
    rows = csv.splitlines()[1:]
    ref_rows = reference.splitlines()[1:]
    if len(rows) != len(ref_rows):
        check.errors.append(f"{what}: {len(rows)} cells, reference has {len(ref_rows)}")
    for k, row in enumerate(rows):
        estimate = row.split(",")[-3]  # rows end in test,estimate,std_error,reps
        in_range = math.isfinite(float(estimate)) and 0.0 <= float(estimate) <= 1.0
        same = k < len(ref_rows) and row == ref_rows[k]
        error = None
        if not in_range:
            error = f"{what}: estimate {estimate} outside [0, 1] in {row!r}"
        elif not same:
            error = f"{what}: cell {row!r} differs from the reference"
        check.op(in_range and same, error)


def replicates_in_csv(csv: str) -> int:
    """Replicates behind a CSV's rows: one batch per alternative row, shared
    by every test column of that row.  Rows end in test,estimate,std_error,reps
    and alternative names may hold commas, so fields are taken from the end."""
    batches = {}
    for row in csv.splitlines()[1:]:
        parts = row.split(",")
        batches[tuple(parts[:-4])] = int(parts[-1])
    return sum(batches.values())


@dataclass
class TableOutput:
    csv: str
    tables: dict  # name -> CalibrationTable
    baselines: dict  # name -> BaselineConfig


@dataclass
class TableState:
    seed: int
    outputs: list = field(default_factory=list)  # TableOutput or exception


def _table_digest(out: TableOutput) -> str:
    parts = [t.thresholds_at_u_alpha.tobytes() for _, t in sorted(out.tables.items())]
    parts += [repr(b.critical_value).encode() for _, b in sorted(out.baselines.items())]
    return sha256(b"".join(parts))


def check_table_outputs(check: Check, outputs: list, reference: str | None, what: str) -> None:
    """Shared accounting of the table workloads; ``reference`` is the CSV
    every repetition must reproduce (the first repetition's by default)."""
    good = [o for o in outputs if isinstance(o, TableOutput)]
    if reference is None and good:
        reference = good[0].csv
    expected_ops = 0
    if good:
        expected_ops = len(good[0].tables) + len(good[0].baselines) + len(reference.splitlines()) - 1
    for rep, out in enumerate(outputs):
        if not isinstance(out, TableOutput):
            for _ in range(max(expected_ops, 1)):
                check.op(False)
            check.errors.append(f"{what} repetition {rep} raised: {_raised(out)}")
            continue
        for name, table in out.tables.items():
            check_calibration(check, name, table)
        for name, cfg in out.baselines.items():
            check_baseline(check, name, cfg)
        check_csv_cells(check, out.csv, reference, f"{what} repetition {rep}")
    csv_digests = sorted({sha256(o.csv.encode()) for o in good})
    check.digests["csv"] = " ".join(csv_digests) if csv_digests else "none"
    cal_digests = sorted({_table_digest(o) for o in good})
    check.digests["thresholds"] = " ".join(cal_digests) if cal_digests else "none"
    if len(csv_digests) > 1:
        check.notes.append(f"{what}: {len(csv_digests)} distinct CSV digests across repetitions")


class UniformityTable:
    """The T2 preset (n=100) through ``reproduce_table``, serial.  The check
    builds the table once more with two workers, untimed: its CSV must equal
    the serial one byte for byte, and it counts the process pools opened."""

    SCALE = 0.05
    POOL_WORKERS = 2
    distinct_ops = 1

    @property
    def budgets(self) -> dict:
        calib, power, level = harness._scaled_budgets(self.SCALE)
        return {
            "preset": "T2", "scale": self.SCALE, "workers": 1, "check_workers": self.POOL_WORKERS,
            "calib": calib, "reps_power": power, "reps_level": level,
        }

    def setup(self, seed: int) -> TableState:
        return TableState(seed=seed)

    def run_op(self, st: TableState, i: int) -> str:
        clear_calibration_caches()
        return harness.reproduce_table("T2", seed=st.seed, scale=self.SCALE, workers=1)

    def collect(self, st: TableState, csv) -> int:
        if isinstance(csv, BaseException):
            st.outputs.append(csv)
            return 0
        # The same call table_cells("T2") makes; right after a table it is a
        # cache hit that hands back the calibrations the table used.
        cols = harness._uniformity_columns(N, 12, 10, 12, ALPHA, self.budgets["calib"], st.seed, 1)
        out = TableOutput(
            csv=csv,
            tables={c.name: c.table for c in cols if c.table is not None},
            baselines={c.name: c.baseline for c in cols if c.baseline is not None},
        )
        st.outputs.append(out)
        calib = sum(sum(t.budgets) for t in out.tables.values())
        calib += sum(b.budget for b in out.baselines.values())
        return calib + replicates_in_csv(csv)

    def pooled_csv(self, st: TableState) -> tuple[str, int]:
        """The table with two workers, and the number of pools it opened."""
        pools = 0

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                nonlocal pools
                pools += 1
                super().__init__(*args, **kwargs)

        saved = harness.ProcessPoolExecutor, calibration.ProcessPoolExecutor
        harness.ProcessPoolExecutor = calibration.ProcessPoolExecutor = CountingPool
        clear_calibration_caches()
        try:
            csv = harness.reproduce_table("T2", seed=st.seed, scale=self.SCALE, workers=self.POOL_WORKERS)
        finally:
            harness.ProcessPoolExecutor, calibration.ProcessPoolExecutor = saved
            clear_calibration_caches()
        return csv, pools

    def check(self, st: TableState) -> Check:
        check = Check()
        check_table_outputs(check, st.outputs, None, "T2")
        good = [o for o in st.outputs if isinstance(o, TableOutput)]
        try:
            pooled, check.pools_opened = self.pooled_csv(st)
        except Exception as exc:  # the pooled table is an operation too
            check.op(False, f"T2 with {self.POOL_WORKERS} workers raised: {_raised(exc)}")
            return check
        check.digests["pooled_csv"] = sha256(pooled.encode())
        if good:
            check_csv_cells(check, pooled, good[0].csv, f"T2 with {self.POOL_WORKERS} workers")
        return check


# The composite calibrations run far below the T4 budgets.  With B1 = 300
# and 40 grid points the lowest grid u takes each model's largest null
# statistic; the collection's level there came out at most 0.05 over 40
# seeds, so the B2 = 200 level estimate stays under alpha = 0.1 and the
# calibration finds a grid point.  At alpha = 0.05 and B1 = B2 = 200, two
# seeds in ten failed to calibrate.
COMPOSITE_ALPHA = 0.1
COMPOSITE_B1, COMPOSITE_B2 = 300, 200
COMPOSITE_U_GRID = 40


def calibrate_composite(seed: int):
    return calibration.calibrate(
        Exponential(), harness.scale_models(2, 10), N, COMPOSITE_ALPHA, COMPOSITE_B1, COMPOSITE_B2,
        u_grid_size=COMPOSITE_U_GRID,
        statistic_kind=StatisticKind.COMPOSITE_INVARIANT, seed=seed,
    )


EXPONENTIALITY_ROWS = (
    "exp:g:4",
    "exp:h:4",
    "exp:h:1",
    "exp:k:10,20,0.25",
    "exp:l:2,5,0.5",
    "exp:l:2,5,0.75",
    "exp:t",
    "exp:v",
    "exp:w",
)


class ExponentialityPower:
    """Composite exponentiality table (piecewise:2-10, n=100, default scale
    search) and KS-exp baseline, then power over the T4 rows and the level,
    at budgets far below the T4 preset's floor (and alpha = 0.1, see
    ``COMPOSITE_ALPHA``)."""

    distinct_ops = 1
    budgets = {
        "alpha": COMPOSITE_ALPHA, "calib": [COMPOSITE_B1, COMPOSITE_B2], "u_grid_size": COMPOSITE_U_GRID,
        "ks_exp_calib": 1000, "reps_power": 20, "reps_level": 40, "rows": len(EXPONENTIALITY_ROWS),
    }

    def setup(self, seed: int) -> TableState:
        return TableState(seed=seed)

    def run_op(self, st: TableState, i: int) -> TableOutput:
        null = Exponential()
        table = calibrate_composite(st.seed)
        ks = baselines.calibrate_baseline(
            BaselineKind.KS_EXPONENTIAL, N, COMPOSITE_ALPHA, self.budgets["ks_exp_calib"], st.seed
        )
        cols = [
            TestColumn("T_comp", TestKind.COMPOSITE, table=table),
            TestColumn("T_KS_exp", TestKind.KS_EXP, baseline=ks),
        ]
        lines = ["section,alternative,test,estimate,std_error,reps"]
        for alt in (*EXPONENTIALITY_ROWS, None):
            reps = self.budgets["reps_power"] if alt else self.budgets["reps_level"]
            label = f"power:{alt}" if alt else "level"
            counts = harness.rejection_counts(null, alt, N, reps, cols, st.seed, label)
            for col, c in zip(cols, counts):
                p = c / reps
                section = "power" if alt else "level"
                lines.append(
                    f"{section},{alt or '(null)'},{col.name},{p:.6f},{math.sqrt(p * (1 - p) / reps):.6f},{reps}"
                )
        return TableOutput("\n".join(lines) + "\n", {"T_comp": table}, {"T_KS_exp": ks})

    def collect(self, st: TableState, out) -> int:
        st.outputs.append(out)
        if isinstance(out, BaseException):
            return 0
        return COMPOSITE_B1 + COMPOSITE_B2 + self.budgets["ks_exp_calib"] + replicates_in_csv(out.csv)

    def check(self, st: TableState) -> Check:
        check = Check()
        check_table_outputs(check, st.outputs, None, "T4 rows")
        return check


# ---------------------------------------------------------------------------
# The decisions workload
# ---------------------------------------------------------------------------


@dataclass
class DecisionKind:
    """One test of the decisions workload: its table, its input samples, the
    single-sample decision, the batch path it is checked against, and, per
    sample, what each of its decisions returned (``(reject, per-model
    statistics)`` or the exception)."""

    null: object
    table: object
    samples: np.ndarray
    decide: Callable
    batch: Callable
    decided: dict = field(default_factory=dict)  # sample index -> list of outcomes
    latencies: list = field(default_factory=list)  # seconds per decision


def check_decisions(check: Check, decided: list, batch_stats: np.ndarray, thresholds: np.ndarray) -> int:
    """One operation per sample: ``decided[k]`` lists the outcomes of every
    decision of sample ``k``, which must all be equal and agree with the batch
    statistics ``batch_stats[k]`` of the same sample.
    Returns the number of samples whose decision flipped on a threshold tie."""
    ties = 0
    for k, runs in enumerate(decided):
        raised = [r for r in runs if isinstance(r, BaseException)]
        if not runs:
            check.op(False, f"decision {k}: never made")
            continue
        if raised:
            check.op(False, f"decision {k} raised: {_raised(raised[0])}")
            continue
        reject, stats = runs[0]
        if any(r != reject or not np.array_equal(s, stats) for r, s in runs[1:]):
            check.op(False, f"decision {k}: repeated decisions of the same sample differ")
            continue
        if not np.all(np.isfinite(stats)):
            check.op(False, f"decision {k}: non-finite statistic")
            continue
        batch = batch_stats[k]
        agree = reject == bool((batch > thresholds).any())
        close = bool(np.all(np.abs(stats - batch) <= ROUNDING_TOLERANCE * np.maximum(1.0, np.abs(batch))))
        if not close:
            check.op(False, f"decision {k}: statistics differ from the batch path beyond rounding")
        else:
            check.op(agree)
            ties += not agree
    return ties


class Decisions:
    """One closed-loop caller deciding single samples, as ``adagof test``
    users do.  Each operation is a round of ten ``run_simple_test`` calls
    (uniform null, n=100, piecewise:2-10 + fourier:1-12) and one
    ``run_composite_invariant_test`` call (exponential family, n=100,
    piecewise:2-10, default scale search).  The benchmark draws the samples:
    half from the null, half from an alternative (Beta(1.5, 1.5); Weibull(1.5)
    at random scales).  A run makes every round at least once and then
    repeats them, so the samples checked, and the decisions that fail, depend
    on the seed alone."""

    SIMPLE_PER_ROUND = 10
    # Odd, so that in the traced run, which alternates untraced and traced
    # operations, every round is also timed untraced.
    ROUNDS = 63
    distinct_ops = ROUNDS
    SIMPLE_B = 1000
    budgets = {
        "n": N,
        "simple": {
            "models": "piecewise:2-10,fourier:1-12", "alpha": ALPHA, "calib": [SIMPLE_B, SIMPLE_B],
            "samples": ROUNDS * SIMPLE_PER_ROUND,
        },
        "composite": {
            "models": "piecewise:2-10", "alpha": COMPOSITE_ALPHA, "calib": [COMPOSITE_B1, COMPOSITE_B2],
            "u_grid_size": COMPOSITE_U_GRID, "samples": ROUNDS,
        },
        "simple_per_composite": SIMPLE_PER_ROUND,
    }

    def setup(self, seed: int) -> dict[str, DecisionKind]:
        rng = np.random.default_rng(seed)
        count = self.ROUNDS * self.SIMPLE_PER_ROUND
        simple = np.empty((count, N))
        simple[0::2] = rng.random((-(-count // 2), N))
        simple[1::2] = rng.beta(1.5, 1.5, (count // 2, N))
        count = self.ROUNDS
        scales = np.exp(rng.uniform(-2.0, 2.0, (count, 1)))
        composite = np.empty((count, N))
        composite[0::2] = rng.exponential(1.0, (-(-count // 2), N)) * scales[0::2]
        composite[1::2] = rng.weibull(1.5, (count // 2, N)) * scales[1::2]

        uniform, exponential = Uniform01(), Exponential()
        simple_table = calibration.calibrate(
            uniform, harness.mixed_models(12, 10), N, ALPHA, self.SIMPLE_B, self.SIMPLE_B, seed=seed
        )
        composite_table = calibrate_composite(seed)
        return {
            "simple": DecisionKind(
                uniform, simple_table, simple,
                decide=lambda x, d, t: adaptive_test.run_simple_test(x, d, t),
                batch=lambda xs, d, t: estimators.simple_stats_batch(xs, t.models, d),
            ),
            "composite": DecisionKind(
                exponential, composite_table, composite,
                decide=lambda x, d, t: adaptive_test.run_composite_invariant_test(x, d, None, t),
                batch=lambda xs, d, t: estimators.composite_scale_stats_batch(xs, t.models, d, t.policy),
            ),
        }

    def run_op(self, st: dict, i: int) -> list:
        r = i % self.ROUNDS
        plan = [("simple", self.SIMPLE_PER_ROUND * r + j) for j in range(self.SIMPLE_PER_ROUND)]
        plan.append(("composite", r))
        out = []
        for kind, k in plan:
            d = st[kind]
            t0 = time.perf_counter()
            try:
                res = d.decide(d.samples[k], d.null, d.table)
            except Exception as exc:  # a failed decision is counted, not fatal
                res = exc
            out.append((kind, k, res, time.perf_counter() - t0))
        return out

    def collect(self, st: dict, out: list) -> int:
        for kind, k, res, latency in out:
            d = st[kind]
            d.latencies.append(latency)
            if not isinstance(res, BaseException):
                res = (bool(res.reject), np.array([p.stat for p in res.per_model]))
            d.decided.setdefault(k, []).append(res)
        return len(out)

    def latencies(self, st: dict) -> dict[str, list]:
        return {f"{kind}_decision": d.latencies for kind, d in st.items()}

    def check(self, st: dict) -> Check:
        check = Check()
        for kind, d in st.items():
            decided = [d.decided.get(k, []) for k in range(len(d.samples))]
            batch = d.batch(d.samples, d.null, d.table)
            ties = check_decisions(check, decided, batch, d.table.thresholds_at_u_alpha)
            rejects = bytes(
                2 if not runs or isinstance(runs[0], BaseException) else int(runs[0][0]) for runs in decided
            )
            check.digests[f"{kind}_decisions"] = sha256(rejects)
            check.digests[f"{kind}_thresholds"] = sha256(d.table.thresholds_at_u_alpha.tobytes())
            repeats = sum(len(runs) for runs in decided)
            check.notes.append(
                f"{kind} decisions flipped against the batch path on a threshold tie: {ties} of {len(decided)}"
                f" samples ({repeats} decisions)"
            )
        return check


WORKLOADS = {
    "uniformity-table": UniformityTable(),
    "exponentiality-power": ExponentialityPower(),
    "decisions": Decisions(),
}
