"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

* A tiny run of every workload, untraced and traced, prints every metric
  BENCHMARK.json names, with its unit, and counts no failures.
* A corrupted CSV and a corrupted or missing reply count as failures.
* Tracing computes self time and survives a wrapped name that is gone.
* In a directory holding only the benchmark, it fails without a result.

The file is not named test_*.py so that the package's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest
from collections import Counter

from harness import BENCHMARK_JSON, OUT, ROOT, Report, expected_metrics, import_package

import_package()

import desk  # noqa: E402  (needs the package on sys.path)
import service  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_SECONDS = "3"  # long enough for session_churn to reach its latency phase


def run_benchmark(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run_benchmark("--workload", workload, "--seed", "3",
                                         "--seconds", TINY_SECONDS, "--trace", str(trace))
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected_metrics(bool(trace)))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_bare_directory_fails_without_a_result(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run_benchmark("--workload", "desk_study", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class CorruptionTest(unittest.TestCase):
    def test_corrupted_csv_counts_as_failure(self):
        files = desk.write_check_csvs(OUT / "selftest")
        clean = Report()
        desk.compare_check_csvs(clean, files)
        self.assertEqual((clean.attempted, clean.failed), (len(files), 0))
        path = files[0][0]
        data = bytearray(path.read_bytes())
        data[-3] ^= 1
        path.write_bytes(bytes(data))
        corrupted = Report()
        desk.compare_check_csvs(corrupted, files)
        self.assertEqual(corrupted.failed, 1)
        self.assertFalse(json.loads(corrupted.result_line())["correct"])

    def test_corrupted_or_missing_reply_counts_as_failure(self):
        script = list(zip(range(60), service.churn_script("selftest", 1)))
        lines = [line for _, (line, _) in script]
        kinds = Counter(kind for _, (_, kind) in script)
        (expected,) = service.replay([lines])
        clean = Report()
        service.check_replies(clean, lines, expected, expected, kinds, "clean")
        self.assertEqual(clean.failed, 0)

        corrupted = Report()
        service.check_replies(corrupted, lines, expected.replace(b'"kind":"ack"', b'"kind":"acq"', 1),
                              expected, kinds, "corrupted")
        self.assertGreaterEqual(corrupted.failed, 1)

        missing = Report()
        last_dropped = expected[: expected.rindex(b"\n", 0, len(expected) - 1) + 1]
        service.check_replies(missing, lines, last_dropped, expected, kinds, "missing")
        self.assertGreaterEqual(missing.failed, 1)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children_and_missing_names_read_zero(self):
        module = types.ModuleType("selftest_fake")
        # outer looks inner up through the module, as package code does.
        exec("def inner():\n    return sum(range(2000))\n\n"
             "def outer():\n    return inner() + inner()\n", vars(module))
        original = module.outer
        targets = [("selftest_fake", "inner", "fake.inner"), ("selftest_fake", "outer", "fake.outer"),
                   ("selftest_fake", "gone", "fake.gone")]
        tracer = Tracer()
        sys.modules["selftest_fake"] = module
        try:
            with tracer.installed(targets):
                module.outer()
        finally:
            del sys.modules["selftest_fake"]
        outer_calls, outer_total, outer_self = tracer.stats("fake.outer")
        inner_calls, inner_total, inner_self = tracer.stats("fake.inner")
        self.assertEqual((outer_calls, inner_calls), (1, 2))
        self.assertEqual(outer_self, outer_total - inner_total)
        self.assertEqual(inner_self, inner_total)
        self.assertEqual(tracer.stats("fake.gone"), (0, 0, 0))
        self.assertIn("selftest_fake.gone", tracer.missing)
        self.assertIs(module.outer, original)


if __name__ == "__main__":
    unittest.main(verbosity=2)
