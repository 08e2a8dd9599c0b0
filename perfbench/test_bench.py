"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from check import load_expected  # noqa: E402
from tracer import ROOT as TRACE_ROOT  # noqa: E402
from workloads import Request  # noqa: E402

NO_GO = Request("no-go-dim4", ("verify", "--no-go", "--m", "1", "--k", "2",
                               "--dim", "4"))
COHOMOLOGY = Request("cohomology-sc-derham",
                     ("cohomology", "--theorem", "sc-derham", "--profile",
                      "torus:4", "--p", "1"))
SMALL_CATALOG = Request("b2-r-times-t3", ("catalog", "run", "b2-r-times-t3"))


class BenchTest(unittest.TestCase):
    def setUp(self):
        scratch = run.BENCH_DIR / ".work"
        scratch.mkdir(exist_ok=True)
        self._dir = tempfile.TemporaryDirectory(dir=scratch)
        self.workdir = Path(self._dir.name)
        self.runner = run.Runner(self.workdir, seed=3)

    def tearDown(self):
        self._dir.cleanup()

    def run_pass(self, request, verdicts, traced=False):
        p = self.runner.run_pass([request], random.Random(0), traced)
        verdicts.check(p)
        return p

    def test_wrong_expectation_counts_as_failed(self):
        expected = load_expected()
        verdicts = run.Verdicts(expected)
        self.run_pass(COHOMOLOGY, verdicts)
        self.assertEqual((verdicts.attempted, verdicts.failed), (1, 0))

        wrong = copy.deepcopy(expected)
        wrong[COHOMOLOGY.id]["report"]["result"]["finite_rank"] = 6
        verdicts = run.Verdicts(wrong)
        self.run_pass(COHOMOLOGY, verdicts)
        self.assertEqual((verdicts.attempted, verdicts.failed), (1, 1))

        wrong = copy.deepcopy(expected)
        wrong[COHOMOLOGY.id]["exit"] = 1
        verdicts = run.Verdicts(wrong)
        self.run_pass(COHOMOLOGY, verdicts)
        self.assertEqual(verdicts.failed, 1)

    def test_traced_self_times_sum_to_root_span(self):
        verdicts = run.Verdicts(load_expected())
        p = self.run_pass(SMALL_CATALOG, verdicts, traced=True)
        self.assertEqual(verdicts.failed, 0)
        doc = json.loads(p.results[0].trace.read_text(encoding="utf-8"))
        root_calls, root_s, _ = doc["stats"][TRACE_ROOT]
        self.assertEqual(root_calls, 1)
        self_sum = sum(s for _, _, s in doc["stats"].values())
        self.assertAlmostEqual(self_sum, root_s, delta=1e-9 * root_s + 1e-12)
        spans = {s[0]: s for s in doc["spans"]}
        roots = [s for s in spans.values() if s[1] is None]
        self.assertEqual([s[2] for s in roots], [TRACE_ROOT])
        for span_id, parent, _, start, end in spans.values():
            self.assertLessEqual(start, end)
            if parent is not None:
                self.assertLessEqual(spans[parent][3], start)
                self.assertLessEqual(end, spans[parent][4])
        layers = run.layer_metrics(p, verdicts.per_pass[-1])
        self.assertGreater(layers["linalg.result_nodes"], 0)
        self.assertGreater(layers["certificates.certify_positive.points"], 0)

    def test_reports_are_byte_identical(self):
        verdicts = run.Verdicts(load_expected())
        reports = []
        for traced in (False, False, True):
            p = self.run_pass(NO_GO, verdicts, traced)
            reports.append(p.results[0].report.read_bytes())
        self.assertEqual(verdicts.failed, 0)
        self.assertEqual(reports[0], reports[1])
        self.assertEqual(reports[0], reports[2])  # tracing leaves no mark

    def test_benchmark_json_lists_the_reported_metrics(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
