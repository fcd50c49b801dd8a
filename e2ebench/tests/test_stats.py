"""Tests for the benchmark's aggregation helpers.

    python3 -m unittest discover -s e2ebench/tests
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spec  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        values = [4, 1, 3, 2, 5]
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 50), 3)
        self.assertEqual(stats.percentile(values, 100), 5)
        self.assertAlmostEqual(stats.percentile(values, 75), 4)
        self.assertAlmostEqual(stats.percentile(values, 90), 4.6)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_no_samples_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailRuleTest(unittest.TestCase):
    ladder = spec.TAIL_LADDER

    def test_picks_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_rule(40, self.ladder, 10), 75)
        self.assertEqual(stats.tail_rule(39, self.ladder, 10), 50)
        self.assertEqual(stats.tail_rule(1000, self.ladder, 10), 99)
        self.assertEqual(stats.tail_rule(9999, self.ladder, 10), 99)
        self.assertEqual(stats.tail_rule(10000, self.ladder, 10), 99.9)

    def test_too_few_samples_for_any_percentile(self):
        self.assertIsNone(stats.tail_rule(19, self.ladder, 10))
        self.assertEqual(stats.tail_rule(20, self.ladder, 10), 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(1399, 99), 13)
        self.assertEqual(stats.samples_beyond(45, 75), 11)

    def test_workload_tail_percentiles_come_from_the_ladder(self):
        for workload in spec.WORKLOADS:
            self.assertIn(workload["tail_percentile"], self.ladder)


class AggregationTest(unittest.TestCase):
    def test_best_of(self):
        self.assertEqual(stats.best_of([0.3, 0.2, 0.25]), 0.2)
        self.assertEqual(stats.best_of([3, 9, 4], "higher"), 9)

    def test_quartiles_match_statistics_quantiles(self):
        values = [9, 1, 8, 2, 7, 3, 6, 4, 5, 10]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_spread_is_iqr_over_median(self):
        values = [9, 1, 8, 2, 7, 3, 6, 4, 5, 10]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / median)
        self.assertEqual(stats.spread([3, 3, 3]), 0)
        self.assertEqual(stats.spread([0, 0, 0]), 0)

    def test_summary(self):
        s = stats.summary([1, 2, 3, 4])
        self.assertEqual((s["n"], s["min"], s["max"]), (4, 1, 4))
        self.assertEqual(s["median"], 2.5)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(stats.worse_by(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(100, 110, "higher"), -0.1)
        self.assertAlmostEqual(stats.worse_by(100, 90, "higher"), 0.1)


def span(span_id, parent, name, start, end, op=0):
    return [span_id, parent, op, name, start, end]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1, 0, "a", 0, 10)]), {1: 10})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, "bench.iteration", 0, 100),
                 span(2, 1, "minidb.load", 10, 60),
                 span(3, 1, "minidb.checkpoint", 60, 70),
                 span(4, 2, "core.generate", 20, 30)]
        self.assertEqual(stats.self_times(spans),
                         {1: 40, 2: 40, 3: 10, 4: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "a", 0, 100),
                 span(2, 1, "b", 10, 50),
                 span(3, 1, "c", 40, 80)]
        self.assertEqual(stats.self_times(spans)[1], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, "a", 0, 100), span(2, 1, "b", 90, 120)]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_self_share_by_layer(self):
        spans = [span(1, 0, "bench.iteration", 0, 100),
                 span(2, 1, "minidb.load", 0, 75),
                 span(3, 2, "core.generate", 0, 25)]
        shares = stats.self_share_by_layer(spans, spec.TRACE_LAYERS)
        self.assertEqual(shares, {"bench": 0.25, "core": 0.25,
                                  "minidb": 0.5, "serve": 0.0})
        self.assertAlmostEqual(sum(shares.values()), 1.0)


class ResultLineTest(unittest.TestCase):
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}

    def line(self):
        return stats.result_line(
            True, 12, 0, {n: (1.5, u) for n, u in self.units.items()})

    def test_well_formed_line_has_no_problems(self):
        line = self.line()
        self.assertEqual(sorted(line),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 1.5, "unit": "s"})
        self.assertEqual(stats.check_result_line(line, self.units), [])

    def test_missing_metric_is_reported(self):
        line = self.line()
        del line["metrics"]["setup_s"]
        self.assertTrue(stats.check_result_line(line, self.units))

    def test_extra_key_is_reported(self):
        line = self.line()
        line["extra"] = 1
        self.assertTrue(stats.check_result_line(line, self.units))

    def test_non_finite_value_and_wrong_unit_are_reported(self):
        line = self.line()
        line["metrics"]["op_p50_ms"]["value"] = math.nan
        line["metrics"]["setup_s"]["unit"] = "ms"
        self.assertEqual(len(stats.check_result_line(line, self.units)), 2)

    def test_attempted_must_be_positive_whole_number(self):
        line = self.line()
        line["attempted"] = 0
        self.assertTrue(stats.check_result_line(line, self.units))
        line["attempted"] = 1.0
        self.assertTrue(stats.check_result_line(line, self.units))


if __name__ == "__main__":
    unittest.main()
