"""Self-tests of the repeat/compare helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_stats as bs  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_hand_computed_values(self):
        # Exclusive method, n = 8: positions 9·k/4 → 2.25, 4.5, 6.75.
        self.assertEqual(bs.quartiles([8, 1, 7, 2, 6, 3, 5, 4]), (2.25, 4.5, 6.75))
        # n = 10: positions 2.75, 5.5, 8.25 over 10, 20, …, 100.
        self.assertEqual(bs.quartiles([10 * i for i in range(1, 11)]), (27.5, 55.0, 82.5))
        self.assertEqual(bs.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(bs.spread([10 * i for i in range(1, 11)]), 55.0 / 55.0)
        self.assertEqual(bs.spread([3.0, 3.0, 3.0]), 0.0)


class Verdicts(unittest.TestCase):
    PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_gain_needs_pair_wins_and_a_gap_beyond_the_parent_spread(self):
        faster = [v * 0.9 for v in self.PARENT]
        self.assertEqual(bs.wins(self.PARENT, faster, "lower"), 10)
        self.assertEqual(bs.verdict(self.PARENT, faster, "lower", 0.15), "gain")
        self.assertEqual(bs.verdict(faster, self.PARENT, "higher", 0.15), "gain")
        # Wins every pair but by less than the parent's spread.
        nudged = [v - 0.5 for v in self.PARENT]
        self.assertEqual(bs.verdict(self.PARENT, nudged, "lower", 0.15), "no change")

    def test_regression_is_worse_by_more_than_the_bound(self):
        slower = [v * 1.2 for v in self.PARENT]
        self.assertEqual(bs.verdict(self.PARENT, slower, "lower", 0.15), "regression")
        self.assertEqual(bs.verdict(self.PARENT, slower, "lower", 0.25), "no change")
        self.assertEqual(bs.verdict(slower, self.PARENT, "higher", 0.1), "regression")

    def test_any_shift_of_an_exactly_repeating_outcome_is_a_changed_result(self):
        outcome = [1.21362] * 10
        self.assertEqual(bs.verdict(outcome, outcome, "lower", 1e-6), "no change")
        self.assertEqual(bs.verdict(outcome, [1.21361] * 10, "lower", 1e-6), "changed")
        self.assertEqual(bs.verdict(outcome, [1.21363] * 10, "lower", 0.25), "changed")

    def test_run_length_and_bounds_come_from_the_benchmark_file(self):
        bench = bs.benchmark()
        self.assertIsInstance(bench["run_seconds"], int)
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]))

    def test_wide_spread_is_unresolved(self):
        noisy = [50, 150, 80, 120, 60, 140, 100, 90, 110, 70]
        self.assertEqual(bs.verdict(self.PARENT, noisy, "lower", 0.15), "unresolved")


if __name__ == "__main__":
    unittest.main()
