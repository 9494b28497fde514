"""Self-tests of the benchmark's own arithmetic and input generation.

    python3 perfbench/selftest.py

Covers the percentile and tail choice, the geometric mean, the speed
factor, failure counting, the reference zeta values (zeta(2) = pi^2/6
over Q), the box count, the per-layer metric list against BENCHMARK.json,
and the promise that the seed changes neither the total work nor the
known-fault inputs.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from stats import Tally, geometric_mean, percentile, tail_percentile  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_percentile_matches_inclusive_quantiles(self):
        rng = random.Random(5)
        for n in (2, 3, 10, 41):
            xs = [rng.random() for _ in range(n)]
            q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
            for p, q in ((25, q1), (50, q2), (75, q3)):
                self.assertAlmostEqual(percentile(xs, p), q, places=12)
        self.assertEqual(percentile([3, 1, 2], 50), 2)
        self.assertEqual(percentile([1, 2, 3, 4], 100), 4)

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(tail_percentile(39), 50.0)
        self.assertEqual(tail_percentile(40), 75.0)
        self.assertEqual(tail_percentile(45), 75.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(142), 90.0)
        self.assertEqual(tail_percentile(200), 95.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(10_000), 99.9)

    def test_geometric_mean(self):
        self.assertAlmostEqual(geometric_mean([1.0, 100.0]), 10.0, places=12)
        self.assertAlmostEqual(geometric_mean([1e-300, 1e300]), 1.0, places=12)
        with self.assertRaises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_speed_factor(self):
        from calibrate import KERNEL_REF_S, speed_factor

        self.assertAlmostEqual(speed_factor([KERNEL_REF_S] * 3), 1.0, places=12)
        self.assertAlmostEqual(speed_factor([KERNEL_REF_S, 2 * KERNEL_REF_S, 9.0]), 2.0, places=12)

    def test_failure_counting(self):
        tally = Tally()
        tally.record("ok", [], None)
        tally.record("known", ["wrong"], "a")
        tally.record("known again", ["wrong"], "a")
        tally.record("fixed", [], "b")
        self.assertTrue(tally.correct)
        tally.record("new", ["wrong"], None)
        self.assertEqual((tally.attempted, tally.failed), (5, 3))
        self.assertEqual(tally.expected, {"a": 2})
        self.assertEqual(tally.fault_gone, {"b"})
        self.assertFalse(tally.correct)


class References(unittest.TestCase):
    def test_zeta_of_rationals_is_pi_squared_over_six(self):
        self.assertAlmostEqual(ref.zeta_reference("Q", 2.0) / (math.pi**2 / 6), 1.0, places=14)

    def test_quadratic_and_cyclotomic_closed_forms(self):
        catalan = 0.915965594177219015054603514932
        self.assertAlmostEqual(
            ref.zeta_reference("Q(sqrt,5)", 2.0) / (2 * math.pi**4 / (75 * math.sqrt(5))), 1, places=14)
        self.assertAlmostEqual(
            ref.zeta_reference("Q(sqrt,-1)", 2.0) / (math.pi**2 / 6 * catalan), 1, places=14)
        # Q(zeta,4) is Q(i): the character route agrees with the Kronecker route
        self.assertAlmostEqual(
            ref.zeta_reference("Q(zeta,4)", 3.0) / ref.zeta_reference("Q(sqrt,-1)", 3.0), 1, places=14)

    def test_field_facts(self):
        self.assertEqual(ref.field_facts("Q(zeta,5)")["abs_disc"], 125)
        self.assertEqual(ref.field_facts("Q(zeta,8)")["abs_disc"], 256)
        self.assertEqual(ref.field_facts("Q(sqrt,2)")["abs_disc"], 8)
        self.assertEqual(ref.field_facts("Q(zeta,7)")["omega"], 14)

    def test_box_count_matches_enumeration(self):
        for degree in (1, 2):
            for cutoff in (2, 3, 6):
                rng = range(-cutoff, cutoff + 1)
                brute = sum(
                    1
                    for c in range(1, cutoff + 1)
                    for v in ([(p,) for p in rng] if degree == 1 else [(p, q) for p in rng for q in rng])
                    if any(v) and math.gcd(c, *v) == 1
                )
                self.assertEqual(ref.box_count(degree, cutoff), brute)

    def test_main_term(self):
        self.assertEqual(ref.stirling2(5, 3), 25)
        # omega^2 m_2(V/omega) = V^2 + omega V
        self.assertEqual(ref.poisson_main_term(6, 2, 4), 16 + 24)


class Design(unittest.TestCase):
    def test_per_layer_list_matches_benchmark_json(self):
        from tracer import PER_LAYER

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, list(PER_LAYER))

    def test_seed_changes_neither_work_nor_fault_inputs(self):
        import workloads

        sweep = workloads.BracketSweep()
        sweep.prepare()
        a = sorted(op.label for ops in sweep.passes(1, 3) for op in ops)
        b = sorted(op.label for ops in sweep.passes(2, 3) for op in ops)
        self.assertEqual(a, b)

        oracle = workloads.ExactOracle()
        oracle.prepare()

        def faults(seed):
            return [[op.label for op in ops if op.fault] for ops in oracle.passes(seed, 3)]

        self.assertEqual([sorted(f) for f in faults(1)], [sorted(f) for f in faults(2)])


if __name__ == "__main__":
    unittest.main()
