"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

- a tiny run of every workload, untraced and traced, emits exactly the
  metrics BENCHMARK.json names, each a number, with correct outputs;
- the checker rejects a wrong expected verdict, period, table value or
  recorded digest;
- self times on a synthetic span tree.
"""

from __future__ import annotations

import json
import unittest

import hooks
import oracles
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    rep = run.run(workload, workloads.DEFAULT_SEED, 0.0, trace, "tiny")
                    line = run.result_line(rep)
                    self.assertTrue(line["correct"], rep["errors"])
                    self.assertEqual(line["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in line["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))


class CheckerRejects(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = {}
        for workload in ("top-torus", "smooth-q"):
            jobs = workloads.make_jobs(workload, workloads.DEFAULT_SEED, "tiny")
            rep = run.run(workload, workloads.DEFAULT_SEED, 0.0, False, "tiny", recorded={})
            cls.outputs[workload] = (jobs, rep["outputs"])

    def test_correct_outputs_pass(self):
        for jobs, outs in self.outputs.values():
            for job, out in zip(jobs, outs):
                self.assertEqual(oracles.check_job(job.check, out).errors, [])

    def test_wrong_period_is_rejected(self):
        jobs, outs = self.outputs["top-torus"]
        check = dict(jobs[0].check, q=jobs[0].check["q"] + 2)
        self.assertTrue(oracles.check_job(check, outs[0]).errors)

    def test_wrong_verdict_is_rejected(self):
        jobs, outs = self.outputs["smooth-q"]
        for job, out in zip(jobs, outs):
            wrong = "OBSTRUCTED" if job.check["verdict"] != "OBSTRUCTED" else "INCONCLUSIVE"
            self.assertTrue(oracles.check_job(dict(job.check, verdict=wrong), out).errors)

    def test_edited_output_is_rejected(self):
        jobs, outs = self.outputs["top-torus"]
        self.assertTrue(oracles.check_job(jobs[0].check, outs[0].replace("-4", "-2")).errors)

    def test_wrong_digest_is_rejected(self):
        jobs, outs = self.outputs["top-torus"]
        checker = run.Checker(jobs, {jobs[0].key: "0" * 24})
        msg = {"rc": 0, "out": outs[0], "err": ""}
        self.assertFalse(checker.check(0, msg))
        self.assertIn("digest", checker.errors[0])

    def test_changed_output_between_lists_is_rejected(self):
        jobs, outs = self.outputs["top-torus"]
        checker = run.Checker(jobs, {})
        self.assertTrue(checker.check(0, {"rc": 0, "out": outs[0], "err": ""}))
        self.assertFalse(checker.check(0, {"rc": 0, "out": outs[0] + " ", "err": ""}))

    def test_nonzero_exit_is_rejected(self):
        jobs, outs = self.outputs["top-torus"]
        checker = run.Checker(jobs, {})
        self.assertFalse(checker.check(0, {"rc": 2, "out": "", "err": "error: x"}))


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # [layer, start, end, parent, job]
        spans = [["obstruct", 0.0, 10.0, -1, 0],
                 ["seifert.pencil", 1.0, 4.0, 0, 0],
                 ["seifert.gap_signature", 3.0, 6.0, 0, 0],   # overlaps its sibling
                 ["jsonio.dump", 2.0, 3.0, 1, 0],
                 ["jsonio.dump", 9.0, 12.0, 0, 0],            # runs past its parent
                 ["obstruct", 20.0, 21.0, -1, 1]]
        self.assertEqual(hooks.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
        totals = hooks.layer_self_times(spans)
        self.assertEqual(totals["obstruct"], 5.0)
        self.assertEqual(totals["jsonio.dump"], 4.0)
        self.assertEqual(totals["seifert.root_isolation"], 0.0)

    def test_missing_hook_nulls_its_layer(self):
        self.assertEqual(hooks.missing_layers(["_poly:refine_root_interval"]),
                         {"seifert.root_isolation"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
