"""Tests for the steadiness check's verdicts."""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spec  # noqa: E402
import steadiness  # noqa: E402

STEADY = [1.0, 1.0, 1.01, 0.99, 1.0, 1.0, 1.02, 0.98, 1.0, 1.0]
# Quartiles 0.5 and 1.5 around a median of 1: spread 1.0.
SPREAD_OUT = [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5]


def one_set(**overrides):
    return {m["name"]: overrides.get(m["name"], STEADY)
            for m in spec.END_TO_END}


class EvaluateTest(unittest.TestCase):
    def test_steady_runs_pass(self):
        _, ok = steadiness.evaluate([one_set(), one_set()])
        self.assertTrue(ok)

    def test_every_metric_is_gated_on_spread(self):
        for metric in spec.END_TO_END:
            _, ok = steadiness.evaluate(
                [one_set(**{metric["name"]: SPREAD_OUT})])
            self.assertFalse(ok, metric["name"])

    def test_drift_beyond_the_bound_fails(self):
        for metric in spec.END_TO_END:
            factor = 2.0 if metric["better"] == "lower" else 0.5
            worse = [v * factor for v in STEADY]
            _, ok = steadiness.evaluate(
                [one_set(), one_set(**{metric["name"]: worse})])
            self.assertFalse(ok, metric["name"])


if __name__ == "__main__":
    unittest.main()
