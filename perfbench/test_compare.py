"""Tests of compare.py's verdict rule (python3 -m unittest test_compare, from perfbench/)."""
import json
import tempfile
import unittest
from pathlib import Path

import compare


def record(workload, seed, value, input_hash="ab", comparable=True):
    return json.dumps({
        "detail": {"workload": workload, "trace": 0, "seed": seed, "input_hash": input_hash,
                   "comparable": comparable, "env": {}, "nproc": 4},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {"solves_per_s": {"value": value, "unit": "1/s"}}},
    })


class VerdictTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_base_iqr(self):
        change = [v * 1.05 for v in self.base]
        self.assertEqual(compare.verdict(self.base, change, "higher", 0.1), "gain")
        # Eight wins of ten is not enough, whatever the medians.
        mixed = change[:8] + [v * 0.9 for v in self.base[8:]]
        self.assertNotEqual(compare.verdict(self.base, mixed, "higher", 0.1), "gain")
        # Every run a hair better, but by less than the base's own spread.
        tiny = [v + 0.01 for v in self.base]
        self.assertEqual(compare.verdict(self.base, tiny, "higher", 0.1), "within bound")

    def test_direction_follows_better(self):
        faster = [v * 0.9 for v in self.base]
        self.assertEqual(compare.verdict(self.base, faster, "lower", 0.2), "gain")
        self.assertEqual(compare.verdict(self.base, faster, "higher", 0.05), "regression")

    def test_regression_is_a_median_worse_than_the_bound(self):
        self.assertEqual(compare.verdict(self.base, [v * 0.95 for v in self.base], "higher", 0.1),
                         "within bound")
        self.assertEqual(compare.verdict(self.base, [v * 0.85 for v in self.base], "higher", 0.1),
                         "regression")

    def test_spread_beyond_the_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
        self.assertEqual(compare.verdict(self.base, noisy, "higher", 0.1), "unresolved")
        self.assertEqual(compare.verdict(noisy, [v + 200 for v in noisy], "higher", 0.1), "gain")

    def test_quartiles_match_statistics_quantiles(self):
        q1, med, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)


class RecordTest(unittest.TestCase):
    def test_mismatched_inputs_and_knobs_are_flagged(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "a.jsonl", Path(d) / "b.jsonl"
            a.write_text(record("tall_ls", 1, 1.0) + "\n")
            b.write_text(record("tall_ls", 1, 1.0, input_hash="cd", comparable=False) + "\n")
            sets = [("base", compare.load(a)), ("change", compare.load(b))]
            text = "\n".join(compare.warnings(sets))
            self.assertIn("input hashes differ", text)
            self.assertIn("not comparable", text)


if __name__ == "__main__":
    unittest.main()
