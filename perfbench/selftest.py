"""Self-test of the benchmark: planted faults are counted, and a smoke-size
run of every workload, untraced and traced, prints a well-formed result.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import Check, TableOutput  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


class PlantedFaults(unittest.TestCase):
    def test_single_batch_disagreement_is_a_failed_op(self):
        thresholds = np.array([0.5, 0.5])
        batch = np.array([[0.1, 0.2], [0.5, 0.1], [0.9, 0.1]])
        decided = [
            [(False, batch[0].copy())] * 2,
            [(True, batch[1].copy())],  # planted: the batch path accepts at the tie
            [(True, batch[2].copy())] * 3,
        ]
        check = Check()
        ties = workloads.check_decisions(check, decided, batch, thresholds)
        self.assertEqual((check.attempted, check.failed, ties), (3, 1, 1))
        self.assertAlmostEqual(check.failed_op_share, 1 / 3)
        self.assertTrue(check.correct)

    def test_statistic_off_the_batch_path_is_wrong(self):
        check = Check()
        workloads.check_decisions(
            check, [[(False, np.array([0.1]))]], np.array([[0.2]]), np.array([0.5])
        )
        self.assertEqual((check.attempted, check.failed), (1, 1))
        self.assertFalse(check.correct)

    def test_repeated_decisions_that_differ_are_wrong(self):
        check = Check()
        runs = [(False, np.array([0.1])), (True, np.array([0.1]))]
        workloads.check_decisions(check, [runs], np.array([[0.1]]), np.array([0.5]))
        self.assertEqual((check.attempted, check.failed), (1, 1))
        self.assertFalse(check.correct)

    def test_mismatched_digest_fails_the_differing_cells(self):
        table = SimpleNamespace(
            thresholds=np.ones((2, 3)), u_alpha=0.01, alpha=0.05,
            level_curve=np.array([0.01, 0.03, 0.05]), thresholds_at_u_alpha=np.ones(2),
        )
        header = "table,null,section,alternative,test,estimate,std_error,reps\n"
        csv = header + "T2,uniform,f,f(0.5,2),T_tr,0.500000,0.050000,100\n" + \
            "T2,uniform,level,(null),T_tr,0.050000,0.010000,1000\n"
        planted = csv.replace("0.500000", "0.510000")
        outputs = [TableOutput(csv, {"T_tr": table}, {}), TableOutput(planted, {"T_tr": table}, {})]
        check = Check()
        workloads.check_table_outputs(check, outputs, None, "T2")
        self.assertEqual((check.attempted, check.failed), (6, 1))
        self.assertAlmostEqual(check.failed_op_share, 1 / 6)
        self.assertFalse(check.correct)
        self.assertEqual(len(check.digests["csv"].split()), 2)

    def test_replicates_in_csv_counts_each_row_once(self):
        csv = (
            "table,null,section,alternative,test,estimate,std_error,reps\n"
            "T2,uniform,g,g(3,3,0.5),T_tr,0.5,0.05,250\n"
            "T2,uniform,g,g(3,3,0.5),T_KS,0.4,0.05,250\n"
            "T2,uniform,level,(null),T_tr,0.05,0.01,1000\n"
        )
        self.assertEqual(workloads.replicates_in_csv(csv), 1250)


class Smoke(unittest.TestCase):
    def run_workload(self, name: str, trace: int) -> dict:
        proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(any(line.startswith("failed_op_share ") for line in lines))
        self.assertTrue(any(line.startswith("provenance ") for line in lines))
        return json.loads(lines[-1])

    def test_every_workload_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    result = self.run_workload(workload["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "decisions", "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
