"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from run import covered, self_times_ms  # noqa: E402

SPEC = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def run(setup, latency, rate, attempted=100, failed=0):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"setup_s": setup, "latency_ms": latency, "rate": rate}}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        # Exclusive method: positions (n+1)/4 and 3(n+1)/4.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_relative_spread(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.relative_spread([5.0, 5.0, 5.0]), 0.0)

    def test_empty_and_single_inputs_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class Percentiles(unittest.TestCase):
    def test_linear_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)

    def test_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class Tail(unittest.TestCase):
    def test_no_tail_below_forty_samples(self):
        self.assertIsNone(stats.tail([1.0] * 39))

    def test_tail_needs_ten_samples_beyond(self):
        # 40 samples: p90 has only 4 beyond. Nothing qualifies until p90 has
        # ten beyond, at 100 samples.
        self.assertIsNone(stats.tail(list(range(40))))
        p, value, beyond = stats.tail(list(range(100)))
        self.assertEqual((p, beyond), (90.0, 10))
        self.assertAlmostEqual(value, stats.percentile(list(range(100)), 90.0))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(999)))[0], 90.0)   # p99: 9 beyond
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)  # p99: 10 beyond
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(stats.tail(list(range(10000)))[2], 10)
        self.assertEqual(stats.tail(list(range(100000)))[:3:2], (99.99, 10))

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(10260, 99.9), 10)
        self.assertEqual(stats.samples_beyond(1000, 99.0), 10)
        self.assertEqual(stats.samples_beyond(999, 99.0), 9)


class CompareSets(unittest.TestCase):
    def steady(self, base, n=10):
        return [run(1.0 + 0.001 * i, base + 0.001 * i, 100.0 + 0.01 * i) for i in range(n)]

    def test_identical_sets_agree(self):
        a = self.steady(10.0)
        self.assertEqual(stats.compare_sets(a, list(a), SPEC), [])

    def test_worse_median_beyond_bound(self):
        a = self.steady(10.0)
        b = self.steady(11.5)  # latency 15% worse, bound 10%
        problems = stats.compare_sets(a, b, SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("latency_ms: second median worse", problems[0])

    def test_better_median_is_not_a_problem(self):
        a = self.steady(10.0)
        self.assertEqual(stats.compare_sets(a, self.steady(5.0), SPEC), [])

    def test_higher_is_better_direction(self):
        a = self.steady(10.0)
        b = [run(r["metrics"]["setup_s"], r["metrics"]["latency_ms"],
                 r["metrics"]["rate"] * 0.8) for r in a]
        problems = stats.compare_sets(a, b, SPEC)
        self.assertEqual(len(problems), 1)
        self.assertIn("rate", problems[0])

    def test_spread_beyond_bound(self):
        a = self.steady(10.0)
        wide = [run(1.0, v, 100.0) for v in (5, 7, 9, 10, 10, 10, 11, 13, 15, 20)]
        problems = stats.compare_sets(a, wide, SPEC)
        self.assertTrue(any("second set spread" in p for p in problems), problems)

    def test_setup_spread_is_not_gated_but_its_median_is(self):
        a = self.steady(10.0)
        b = [run(s, 10.0, 100.0) for s in (0.5, 0.6, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.2, 1.2)]
        self.assertFalse(any("setup_s" in p for p in stats.compare_sets(a, b, SPEC)))
        slow = [run(1.5, 10.0, 100.0) for _ in range(10)]
        self.assertTrue(any("setup_s: second median" in p
                            for p in stats.compare_sets(a, slow, SPEC)))

    def test_failed_share_must_match_exactly(self):
        a = [run(1.0, 10.0, 100.0, attempted=1000, failed=10) for _ in range(10)]
        same = [run(1.0, 10.0, 100.0, attempted=2000, failed=20) for _ in range(10)]
        self.assertEqual(stats.compare_sets(a, same, SPEC), [])
        off_by_one = [run(1.0, 10.0, 100.0, attempted=1000, failed=10) for _ in range(9)]
        off_by_one.append(run(1.0, 10.0, 100.0, attempted=1000, failed=11))
        problems = stats.compare_sets(a, off_by_one, SPEC)
        self.assertEqual(problems, ["failed share differs: 100/10000 vs 101/10000"])

    def test_worse_by(self):
        self.assertAlmostEqual(stats.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(10.0, 9.0, "higher"), 0.1)
        self.assertTrue(math.isinf(stats.worse_by(0.0, 1.0, "lower")))


class SpanSelfTime(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(covered([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(covered([]), 0)

    def test_self_time_subtracts_overlapping_children(self):
        ms = 1_000_000
        spans = [
            {"name": "service.run", "group": 0, "start_ns": 0, "end_ns": 100 * ms},
            {"name": "service.vm_init", "group": 0, "start_ns": 0, "end_ns": 10 * ms},
            # two workers' ops overlap: the union (20..60 ms) counts once
            {"name": "workload.op", "group": 0, "start_ns": 20 * ms, "end_ns": 50 * ms},
            {"name": "workload.op", "group": 0, "start_ns": 30 * ms, "end_ns": 60 * ms},
            # another group's op does not belong to this run
            {"name": "workload.op", "group": 1, "start_ns": 70 * ms, "end_ns": 80 * ms},
        ]
        total, self_ = self_times_ms(spans)
        self.assertAlmostEqual(total["service.run"], 100.0)
        self.assertAlmostEqual(self_["service.run"], 100.0 - 10.0 - 40.0)
        self.assertAlmostEqual(total["workload.op"], 70.0)
        self.assertAlmostEqual(self_["workload.op"], 70.0)


if __name__ == "__main__":
    unittest.main()
