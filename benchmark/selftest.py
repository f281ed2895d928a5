"""Fast self-test of the benchmark code at toy sizes.

    python3 benchmark/selftest.py

Runs every workload of BENCHMARK.json with ``VOMPS_BENCH_TOY=1`` in both
trace modes and checks the contract of ``run.py``: the last output line is
the result object, every named metric appears with its unit, the result
file parses, traced counts repeat, and a failing command is counted rather
than aborting the run.  Takes about half a minute.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

os.environ["VOMPS_BENCH_TOY"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_benchmark(name, trace):
    """Run ``run.py`` in this process; returns (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)])
    return code, out.getvalue().splitlines()


class BenchmarkContract(unittest.TestCase):

    def test_workloads_match_spec(self):
        self.assertEqual(
            [{"name": n, "why": w.why} for n, w in workloads.WORKLOADS.items()],
            SPEC["workloads"])

    def check_result(self, name, trace):
        code, lines = run_benchmark(name, trace)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in named})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        path = os.path.join(run.OUT, f"{name}-seed0-trace{trace}.json")
        with open(path) as fh:
            stored = json.load(fh)
        self.assertEqual(stored["result"], result)
        self.assertEqual(stored["why"], workloads.WORKLOADS[name].why)
        for key in ("nproc", "blas_threads", "numpy", "scipy",
                    "openblas_numpy", "seed"):
            self.assertIn(key, stored["environment"])
        return result, stored

    def test_untraced_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, stored = self.check_result(name, 0)
                self.assertGreater(result["metrics"]["wall_s"]["value"], 0)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
                self.assertTrue(stored["accuracy"])

    def test_traced_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, stored = self.check_result(name, 1)
                metrics = result["metrics"]
                self.assertGreater(metrics["tensor.leading_eig.matvecs"]
                                   ["value"], 0)
                self.assertEqual(metrics["truncation.vomps_truncate.calls"]
                                 ["value"] * (run.TRACED_PASSES + 1),
                                 result["attempted"])
                spans_path = os.path.join(
                    run.OUT, f"{name}-seed0-trace1-spans.json")
                with open(spans_path) as fh:
                    spans = json.load(fh)["spans"]
                self.assertTrue(spans)
                for _, start, end, parent in spans:
                    self.assertLessEqual(start, end)
                    if parent >= 0:
                        self.assertLessEqual(spans[parent][1], start)
                        self.assertLessEqual(end, spans[parent][2])

    def test_failed_command_is_counted(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            missing = os.path.join(work, "missing.json")

            def commands(seed, inputs, out):
                return [workloads.Command(
                    "truncate", ["truncate", "--in", missing, "--chi", "2",
                                 "--out-dir", out], out,
                    workloads.TRUNCATE_KEYS)]

            broken = workloads.Workload("broken", "", commands,
                                        workloads.WORKLOADS["truncate_sweep"]
                                        .accuracy)
            import vomps.cli as cli

            accounting = run.Run(broken)
            with run.Tracer(select={run.OPS}) as ops, \
                    contextlib.redirect_stderr(io.StringIO()):
                results = run.run_pass(cli, broken, 0, work,
                                       run.DriftClock(sample=False))
            accounting.record(ops, results)
        self.assertEqual((accounting.attempted, accounting.failed), (1, 1))
        self.assertTrue(accounting.failures)


if __name__ == "__main__":
    unittest.main()
