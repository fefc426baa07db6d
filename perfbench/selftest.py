"""The benchmark's own tests, at the smoke size.

Run with ``python3 perfbench/selftest.py`` (or pass this file to
pytest). The file name keeps it out of the repository's tier-1 pytest
collection, which only picks up ``test_*.py``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int, seed: int = 5) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class ResultSchemaTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        spec = declared()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = smoke(workload, trace)
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        result = smoke("market_oracle", 0)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_without_liftsim_source_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "verify_sweep", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CountsTest(unittest.TestCase):
    def test_counts_repeat_exactly_for_one_seed(self):
        reports = []
        for _ in range(2):
            result = smoke("lift_pipeline", 0, seed=7)
            self.assertTrue(result["correct"])
            path = ROOT / ".perfbench_work" / "smoke-lift_pipeline" / "report.json"
            reports.append(json.loads(path.read_text(encoding="utf-8")))
        self.assertEqual(len(reports[0]["counts"]), run.WORLDS)
        for counts in reports[0]["counts"]:
            self.assertGreater(counts["estimate_calls"], 0)
        self.assertTrue(reports[0]["counts_repeat"])
        self.assertEqual(reports[0]["counts"], reports[1]["counts"])
        self.assertEqual(reports[0]["digests"], reports[1]["digests"])


CPA = workloads.CPA_MICROS
GOOD_GROUP = {"bidder": "value", "requests": 100, "bids_placed": 80,
              "impressions": 30, "actions": 9, "attributed": 5,
              "attributed_billed": 4, "spend": 4 * CPA, "budget": 3 * CPA}


class OutputCheckTest(unittest.TestCase):
    def write_report(self, out: Path, groups: list[dict]) -> None:
        header = {"sign_counts": {"replications": 1}}
        record = {"replication": 0,
                  "groups": {g["bidder"]: g for g in groups}}
        out.mkdir()
        (out / "abtest_report.jsonl").write_text(
            json.dumps(header) + "\n" + json.dumps(record) + "\n")

    def test_inconsistent_group_record_is_one_failure(self):
        bad = {**GOOD_GROUP, "bidder": "lift", "attributed": 12,
               "impressions": 90, "spend": 7 * CPA}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            self.write_report(out, [GOOD_GROUP, bad])
            checks = outputs.abtest_checks(out, 1)
        failed = [c for c in checks if c.failure]
        self.assertEqual(len(checks), 3)  # replications + two groups
        self.assertEqual([c.name for c in failed], ["abtest.rep0.lift"])

    def test_consistent_group_passes(self):
        self.assertIsNone(outputs.group_failure(GOOD_GROUP))

    def test_missing_outputs_are_failures(self):
        for name, want in (("market_oracle", ["abtest.report"]),
                           ("verify_sweep", ["verify.report"])):
            workload = workloads.build(name, 0, "smoke")
            with tempfile.TemporaryDirectory() as tmp:
                checks = outputs.check_outputs(workload, Path(tmp))
            self.assertEqual([c.name for c in checks], want)
            self.assertTrue(all(c.failure for c in checks))


class StatisticsTest(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        per_rep = [[float(i) for i in range(1, 401)]] * 3
        q, steady = run.tail_percentile(per_rep)
        self.assertEqual(q, 95.0)  # 400 samples: p98 leaves only 8 beyond
        self.assertTrue(steady)

    def test_tail_percentile_steps_down_when_it_does_not_repeat(self):
        base = [1.0] * 1980 + [2.0] * 20
        noisy = [1.0] * 1980 + [4.0] * 20
        q, steady = run.tail_percentile([base, noisy])
        self.assertEqual(q, 99.0)  # p99.5 reads 2.0 against 4.0
        self.assertTrue(steady)

    def test_percentile_matches_linear_interpolation(self):
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 50.0), 2.5)
        self.assertEqual(run.percentile([5.0], 99.0), 5.0)


class HostProbeTest(unittest.TestCase):
    def test_slowdown_is_harmonic_mean_probe_unit_over_nominal(self):
        unit = run.PROBE_UNIT_S
        samples = [(0.0, 1 * unit), (1.0, 2 * unit), (5.0, 9 * unit)]
        # Speeds 1 and 1/2 average to 3/4: a slowdown of 4/3.
        self.assertAlmostEqual(run.slowdown(samples, 0.0, 2.0), 4 / 3)
        # A window without samples takes the nearest one.
        self.assertAlmostEqual(run.slowdown(samples, 3.5, 4.0), 9.0)

    def test_probe_samples_until_the_block_ends(self):
        with run.host_probe() as samples:
            time.sleep(0.3)
        self.assertGreaterEqual(len(samples), 5)
        starts = [start for start, _ in samples]
        self.assertEqual(starts, sorted(starts))
        self.assertTrue(all(cpu > 0 for _, cpu in samples))


class SpanRecorderTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
        recorder = tracer.SpanRecorder("t", clock=lambda: next(clock))
        child = recorder.wrap("child", lambda: None)

        def parent():
            child()
            child()

        recorder.wrap("parent", parent)()
        summary = recorder.summary()
        self.assertEqual(summary["child"]["calls"], 2)
        self.assertEqual(summary["child"]["s"], 4.0)
        self.assertEqual(summary["parent"]["s"], 10.0)
        self.assertEqual(summary["parent"]["self_s"], 6.0)
        self.assertEqual(dict(summary["child"]["s_by_parent"]), {"parent": 4.0})

    def test_per_layer_names_have_units(self):
        for name in run.PER_LAYER:
            self.assertIn(run.unit_of(name), {"s", "us", "count", "bytes",
                                              "frac"})


if __name__ == "__main__":
    unittest.main()
