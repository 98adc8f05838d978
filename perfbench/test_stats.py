"""Tests of the benchmark's own statistics and metric derivations.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import catalogue  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartilesTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 9.0, 2.0, 6.0, 3.0, 8.0, 5.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        # Exclusive method, n = 10: q1 at rank 2.75, q3 at rank 8.25.
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))

    def test_quartiles_need_two_values(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])
        self.assertEqual(stats.quartiles([5.0] * 4), (5.0, 5.0, 5.0))


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 99.0), 99)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertEqual(stats.percentile([5.0], 99.0), 5.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50.0), 2)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50.0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0.0)

    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(stats.allows_percentile(999, 99.0))
        self.assertTrue(stats.allows_percentile(1000, 99.0))
        self.assertFalse(stats.allows_percentile(19, 50.0))
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_small_counts_fall_down_the_ladder(self):
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_workload_sizes_allow_p99(self):
        # ~11K place+simulate calls per static-suite pass at scale 8
        # (~23K at scale 16) and ~3.7K windows per online-phased pass at
        # scale 8.
        self.assertEqual(stats.tail_percentile(11392), 99.9)
        self.assertEqual(stats.tail_percentile(3684), 99.0)


class WindowClassificationTest(unittest.TestCase):
    def test_classes(self):
        decided = stats.WINDOW_DECIDED
        self.assertIsNone(stats.classify_window(0))
        self.assertIsNone(stats.classify_window(stats.WINDOW_REPLACED))
        self.assertEqual(stats.classify_window(decided), "steady")
        self.assertEqual(
            stats.classify_window(decided | stats.WINDOW_PHASE_CHANGE),
            "rejected")
        self.assertEqual(
            stats.classify_window(decided | stats.WINDOW_PHASE_CHANGE |
                                  stats.WINDOW_REPLACED), "replaced")
        # A refinement replaces the placement without a phase change.
        self.assertEqual(
            stats.classify_window(decided | stats.WINDOW_REPLACED),
            "replaced")
        # The first window of a session pays the initial placement.
        self.assertEqual(
            stats.classify_window(decided | stats.WINDOW_INITIAL),
            "initial")

    def test_flag_bits_match_the_driver(self):
        with open(os.path.join(HERE, "driver", "passes.h")) as handle:
            header = handle.read()
        for name, bit in (("kWindowDecided", stats.WINDOW_DECIDED),
                          ("kWindowInitial", stats.WINDOW_INITIAL),
                          ("kWindowPhaseChange", stats.WINDOW_PHASE_CHANGE),
                          ("kWindowReplaced", stats.WINDOW_REPLACED)):
            shift = bit.bit_length() - 1
            self.assertIn("%s = 1u << %d" % (name, shift), header)


class CacheTierTest(unittest.TestCase):
    def test_paired_difference_median(self):
        cached = [0.50, 0.80, 0.52]
        plain = [0.03, 0.30, 0.02]
        # Differences 0.47, 0.50, 0.50: pairing cancels the slow pass.
        self.assertAlmostEqual(stats.cache_tier_s(cached, plain), 0.50)

    def test_requires_pairs(self):
        with self.assertRaises(ValueError):
            stats.cache_tier_s([1.0, 2.0], [0.5])
        with self.assertRaises(ValueError):
            stats.cache_tier_s([], [])

    def test_layer_split_of_a_serve_pass(self):
        spans = {"bench.pass": [1.0], "workloads.generate": [0.02],
                 "serve.construct": [0.01], "serve.run": [0.60],
                 "serve.run_plain": [0.05]}
        run_pass = {"counters": {"online.reseed_ms": 10.0}}
        layers, wall = run.layer_times("serve-cache", spans, run_pass)
        self.assertAlmostEqual(wall, 0.95)  # the reference run is excluded
        self.assertAlmostEqual(layers["cache"], 0.55)
        self.assertAlmostEqual(layers["core"], 0.01)
        self.assertAlmostEqual(layers["serve"], 0.05)
        self.assertAlmostEqual(layers["workloads"], 0.02)
        self.assertAlmostEqual(layers["other"], 0.95 - 0.63)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            self.doc = json.load(handle)

    def test_catalogue_explains_every_metric(self):
        self.assertEqual(sorted(m["name"] for m in self.doc["end_to_end"]),
                         sorted(catalogue.END_TO_END))
        self.assertEqual(sorted(m["name"] for m in self.doc["per_layer"]),
                         sorted(catalogue.PER_LAYER))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_layer_metric_names_what_it_moves(self):
        workloads = {w["name"] for w in self.doc["workloads"]}
        for name, (moves, _meaning) in catalogue.PER_LAYER.items():
            for metric, on in moves:
                self.assertIn(metric, catalogue.END_TO_END, name)
                self.assertLessEqual(set(on), workloads, name)


if __name__ == "__main__":
    unittest.main()
