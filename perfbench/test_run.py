"""Tests of the benchmark's own statistics and oracles.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The oracle test builds marbench (as run.py does) and runs its
--self-test: small worlds of every workload must pass every oracle, and
deliberately broken results (a doubled step, a missing rollback, a lost
compensation) must be caught.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def rep(steps, drive_s, cpu_s, setup_s=0.1, rss=100.0, totals=None,
        step_lat=None, rb_lat=None, agents=10, failed=0, counts=None):
    return {
        "ok": failed == 0, "agents": agents, "failed": failed,
        "steps": steps, "drive_s": drive_s, "drive_cpu_s": cpu_s,
        "setup_s": setup_s, "peak_rss_mb": rss,
        "totals": totals or {"steps": steps, "makespan_us": 1e6,
                             "storage_bytes": 10 * steps,
                             "wire_bytes": 2 * steps},
        "counts": counts or {"x": 1.0},
        "step_latency_us": step_lat or {"100": steps},
        "rollback_latency_us": rb_lat or {"5000": 4},
    }


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_sample_counts(self):
        counts = {v: 1 for v in range(1, 1001)}
        self.assertEqual(run.nearest_rank(counts, 50), (500, 1000, 500))
        self.assertEqual(run.nearest_rank(counts, 99), (990, 1000, 10))

    def test_p99_of_512_has_only_5_beyond(self):
        counts = {v: 1 for v in range(512)}
        _, n, beyond = run.nearest_rank(counts, 99)
        self.assertEqual((n, beyond), (512, 5))

    def test_repeated_values(self):
        self.assertEqual(run.nearest_rank({7: 3, 9: 1}, 50)[0], 7)
        self.assertEqual(run.nearest_rank({7: 3, 9: 1}, 99)[0], 9)
        self.assertEqual(run.nearest_rank({}, 50), (0, 0, 0))

    def test_merge_counts_pools_worlds(self):
        merged = run.merge_counts([{"1": 2, "3": 1}, {"3": 4}])
        self.assertEqual(merged, {1: 2, 3: 5})


class MedianTest(unittest.TestCase):
    def test_median_of_repeated_runs(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            run.median([])

    def test_end_to_end_metrics(self):
        # Wall clock: best run; RSS: median; the rest pools the worlds.
        plain = [rep(1000, 1.0, 0.5), rep(1000, 2.0, 0.7),
                 rep(1000, 4.0, 0.9, setup_s=0.3, rss=120.0)]
        worlds = [rep(1000, 9.0, 9.0, step_lat={"100": 990, "400": 10},
                      rb_lat={"5000": 3, "9000": 1}),
                  rep(3000, 9.0, 9.0, step_lat={"200": 3000},
                      totals={"steps": 3000, "makespan_us": 3e6,
                              "storage_bytes": 0, "wire_bytes": 3000})]
        m = run.end_to_end_metrics(plain, worlds)
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["steps_per_s"], 1000.0)      # best of 1000/500/250
        self.assertEqual(m["cpu_us_per_step"], 500.0)   # least CPU per step
        self.assertEqual(m["setup_s"], 0.1)
        self.assertEqual(m["peak_rss_mb"], 100.0)
        self.assertEqual(m["virtual_steps_per_s"], 1000.0)  # 4000 / 4 s
        self.assertEqual(m["step_p50_us"], 200)          # pooled worlds
        self.assertEqual(m["step_p99_us"], 200)
        self.assertEqual(m["rollback_p50_us"], 5000)
        self.assertEqual(m["rollback_p99_us"], 9000)
        self.assertEqual(m["storage_bytes_per_step"], 10000 / 4000)
        self.assertEqual(m["wire_bytes_per_step"], 5000 / 4000)
        self.assertEqual(m["oracle_pass_frac"], 1.0)

    def test_failed_agents_lower_the_pass_fraction(self):
        worlds = [rep(100, 1.0, 1.0, agents=10, failed=2)]
        m = run.end_to_end_metrics([rep(100, 1.0, 1.0)], worlds)
        self.assertAlmostEqual(m["oracle_pass_frac"], 0.8)


class DeterminismTest(unittest.TestCase):
    def test_identical_runs_agree(self):
        self.assertEqual(run.deterministic_mismatches([rep(10, 1, 1),
                                                       rep(10, 2, 3)]), [])

    def test_differing_counts_are_reported(self):
        a = rep(10, 1, 1, counts={"x": 1.0, "y": 2.0})
        b = rep(10, 1, 1, counts={"x": 1.5})
        self.assertEqual(run.deterministic_mismatches([a, b]), ["counts.x"])

    def test_differing_latencies_are_reported(self):
        a = rep(10, 1, 1, rb_lat={"5": 1})
        b = rep(10, 1, 1, rb_lat={"6": 1})
        self.assertIn("rollback_latency_us",
                      run.deterministic_mismatches([a, b]))

    def test_verdict_fails_on_oracle_failure(self):
        self.assertFalse(run.verdict([[rep(10, 1, 1, failed=1)]]))


class UnitTest(unittest.TestCase):
    def test_units(self):
        self.assertEqual(run.unit_of("serial.encode_ns_per_kb"), "ns/KB")
        self.assertEqual(run.unit_of("agent.queue_wait_p99_us"), "us")
        self.assertEqual(run.unit_of("net.bytes_by_type.ship.convoy"), "B")
        self.assertEqual(run.unit_of("layer.sim.cpu_share"), "%")
        self.assertEqual(run.unit_of("tx.pipeline_depth_max"), "count")


class OracleTest(unittest.TestCase):
    def test_oracles_pass_clean_worlds_and_catch_broken_ones(self):
        self.assertTrue(run.build(), "marbench did not build")
        proc = subprocess.run([run.BINARY, "--self-test"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("self-test: OK", proc.stdout)


if __name__ == "__main__":
    unittest.main()
