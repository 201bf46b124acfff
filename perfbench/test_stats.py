"""Self-test of the benchmark's statistics on canned inputs.

    python3 perfbench/run.py --self-test
"""

import math
import unittest

import stats


def sample(due, sent, done, status=stats.OK):
    return {"due": due, "sent": sent, "done": done, "status": status}


class MedianAndPercentiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_percentile_interpolates(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 100.0)
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)

    def test_percentile_with_failures(self):
        values = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(stats.percentile(values, 50), 1.0)
        self.assertEqual(stats.percentile(values, 99), math.inf)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertIsNone(stats.tail_percentile(50))

    def test_quartile_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 10.0, 10.0, 10.0]
        self.assertAlmostEqual(stats.quartile_spread(values), 0.0)
        self.assertAlmostEqual(stats.quartile_spread([1.0, 2.0, 3.0, 4.0]),
                               (3.75 - 1.25) / 2.5)


class OpenLoopTiming(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Sent 2 ms late, answered 1 ms after sending: 3 ms from due.
        latency, late = stats.request_times(sample(1.000, 1.002, 1.003))
        self.assertAlmostEqual(latency, 0.003)
        self.assertAlmostEqual(late, 0.002)

    def test_failed_request_misses_any_limit(self):
        latency, _ = stats.request_times(
            sample(0.0, 0.0, 0.001, stats.REFUSED))
        self.assertEqual(latency, math.inf)

    def test_steady_step_meets_slo(self):
        steps = [sample(i * 0.001, i * 0.001, i * 0.001 + 0.0005)
                 for i in range(400)]
        s = stats.summarize_step(steps, limit_s=0.010)
        self.assertTrue(s["meets_slo"])
        self.assertFalse(s["backlog_growing"])
        self.assertAlmostEqual(s["p50_s"], 0.0005)
        self.assertEqual(s["failed"], 0)
        self.assertEqual(s["tail_p"], 95.0)  # 400 samples: 20 beyond p95

    def test_growing_backlog_fails_slo(self):
        # Each request is sent 0.1 ms later than the one before it.
        steps = [sample(i * 0.001, i * 0.0011, i * 0.0011 + 0.0002)
                 for i in range(400)]
        s = stats.summarize_step(steps, limit_s=0.010)
        self.assertTrue(s["backlog_growing"])
        self.assertFalse(s["meets_slo"])

    def test_max_rate_at_slo(self):
        ok = {"meets_slo": True}
        bad = {"meets_slo": False}
        self.assertEqual(stats.max_rate_at_slo({100: ok, 200: ok, 400: bad}),
                         200)
        self.assertEqual(stats.max_rate_at_slo({100: bad}), 0.0)


class Failures(unittest.TestCase):
    def test_count_failures(self):
        codes = [stats.OK, stats.REFUSED, stats.OK, stats.ERROR,
                 stats.WRONG_LABELS]
        self.assertEqual(stats.count_failures(codes), (5, 3))
        self.assertEqual(stats.count_failures([]), (0, 0))


class ReduceCallSplit(unittest.TestCase):
    def test_cost_is_fastest_rank_and_wait_the_rest(self):
        groups = [[[1.0, 2.0], [3.0, 2.0]],  # sub-world of two ranks
                  [[5.0], [5.0]]]
        cost, wait = stats.merge_reduce_calls(groups)
        self.assertAlmostEqual(cost, (1.0 + 2.0 + 5.0) / 3)
        self.assertAlmostEqual(wait, (0 + 2.0 + 0 + 0 + 0 + 0) / 6)


class ModeledTime(unittest.TestCase):
    def test_parse_hms(self):
        self.assertEqual(stats.parse_hms("0.04.45"), 285)
        self.assertEqual(stats.parse_hms("1.00.01"), 3601)


if __name__ == "__main__":
    unittest.main()
