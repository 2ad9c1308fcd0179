"""Tests for the benchmark's own code: the correctness gate catches a wrong
verdict and a wrong digest, one wrong verdict moves verified_frac past its
bound, and the tracer yields every declared metric.

    python3 perfbench/test_gate.py
"""

import json
import random
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def declared() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def triple_test(labels, edges) -> bool:
    """Complete multipartite iff no three vertices span exactly one edge."""
    present = {tuple(sorted(e)) for e in edges}
    return all(
        sum(p in present for p in combinations(t, 2)) != 1 for t in combinations(labels, 3)
    )


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_multipartite_matches_triple_test_on_five_vertices(self):
        labels = (2, 3, 4, 5, 6)
        pairs = list(combinations(labels, 2))
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            self.assertEqual(workloads.multipartite(labels, edges), triple_test(labels, edges))

    def test_trichotomy_inputs_hold_both_verdicts(self):
        graphs = workloads.make_inputs("trichotomy-6", 7)["graphs"]
        truths = [workloads.multipartite(workloads.LABELS, g) for g in graphs]
        self.assertEqual(sum(truths), 202)
        self.assertEqual(len(graphs) - sum(truths), workloads.RANDOM_GRAPHS)
        self.assertEqual(workloads.make_inputs("trichotomy-6", 7), workloads.make_inputs("trichotomy-6", 7))

    def trichotomy_round(self):
        inputs = workloads.make_inputs("trichotomy-6", 1)
        (self.work / "theorem.txt").write_text("\n".join(workloads.THEOREM_LINES) + "\n")
        verdicts = []
        for g in inputs["graphs"]:
            truth = workloads.multipartite(workloads.LABELS, g)
            verdicts.append([truth, truth, truth])
        return inputs, {"cli": {"theorem.txt": 0}, "graphs": verdicts}

    def test_correct_trichotomy_round_passes(self):
        inputs, result = self.trichotomy_round()
        self.assertEqual(workloads.check("trichotomy-6", inputs, result, self.work), [])

    def test_flipped_trichotomy_verdict_is_caught(self):
        inputs, result = self.trichotomy_round()
        result["graphs"][17] = [not v for v in result["graphs"][17]]
        self.assertEqual(len(workloads.check("trichotomy-6", inputs, result, self.work)), 1)

    def test_crashed_verdict_is_caught(self):
        inputs, result = self.trichotomy_round()
        result["graphs"][3] = "AssertionError: split"
        self.assertEqual(len(workloads.check("trichotomy-6", inputs, result, self.work)), 1)

    def test_corrupted_digest_is_caught(self):
        inputs, result = self.trichotomy_round()
        path = self.work / "theorem.txt"
        path.write_text(path.read_text().replace("728", "729"))
        problems = workloads.check("trichotomy-6", inputs, result, self.work)
        self.assertEqual(len(problems), 1)
        self.assertIn("sha256", problems[0])

    def test_nonzero_exit_is_caught(self):
        inputs, result = self.trichotomy_round()
        result["cli"]["theorem.txt"] = 1
        self.assertEqual(len(workloads.check("trichotomy-6", inputs, result, self.work)), 1)

    def test_balanced_perturbation_is_caught(self):
        sigma = [[-1, 0, 0], [-1, -1, 0], [-2, -1, 0]]
        good = {"sigma": sigma, "balanced": False, "face": sigma[:2], "error": None}
        result = {"cli": {"fan.json": 0}, "k5_census": workloads.K5_CENSUS, "perturbed": [good]}
        baseline = len(workloads.check("fan-k6", {}, result, self.work))  # no fan.json here
        for wrong in ({"balanced": True}, {"face": None}, {"face": [[9, 9, 0]]}, {"error": "ValueError"}):
            result["perturbed"] = [good, dict(good, **wrong)]
            self.assertEqual(len(workloads.check("fan-k6", {}, result, self.work)), baseline + 1, wrong)

    def test_one_wrong_verdict_exceeds_the_bound(self):
        import run

        bound = next(m["bound"] for m in declared()["end_to_end"] if m["name"] == "verified_frac")
        for name in ("fan-k6", "trichotomy-6", "moduli-embed"):
            expected = workloads.expected_verdicts(name, workloads.make_inputs(name, 1))
            self.assertEqual(run.verified_frac([0, 0, 0, 0], expected), 1)
            drop = 1 - run.verified_frac([0, 0, 1, 0], expected)
            self.assertGreater(drop, bound, name)

    def test_membership_by_own_elimination(self):
        ambient = list(combinations(range(2, 7), 2))
        rays = workloads.cone_rays([[[2, 3]], [[2, 3], [2, 4], [3, 4]]], ambient)
        inside = [a + 2 * b for a, b in zip(rays[0], rays[1])]
        self.assertTrue(workloads.in_relative_interior(rays, inside))
        self.assertFalse(workloads.in_relative_interior(rays, rays[1]))  # on the boundary
        self.assertFalse(workloads.in_relative_interior(rays, [-c for c in inside]))
        self.assertIsNone(workloads.cone_rays([[[2, 3], [2, 4], [3, 4]], [[2, 3]]], ambient))

    def test_inputs_depend_only_on_the_seed(self):
        for name in ("fan-k6", "moduli-embed"):
            a, b = workloads.make_inputs(name, 3), workloads.make_inputs(name, 3)
            self.assertEqual(a, b)
            self.assertNotEqual(a, workloads.make_inputs(name, 4))
        for spec in workloads.make_inputs("moduli-embed", 5)["gammas"]:
            self.assertIn(f"moduli 7 {spec}", workloads.DIGESTS)

    def test_tracer_reports_every_declared_metric(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import tropfan
        import tropfan.cli
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(tropfan)
        self.assertIsNot(tropfan.cli.bergman_fan, tropfan.bergman.bergman_fan.__wrapped__)
        k4 = tropfan.bergman_fan(tropfan.Graph.complete([2, 3, 4, 5]))
        sigma = k4.cones_of_dim(k4.max_dim)[random.Random(0).randrange(18)]
        self.assertFalse(tropfan.is_balanced(k4.with_weights({sigma.rayset: 2})).balanced)
        tropfan.verify_injectivity(tropfan.Graph.from_edges([(2, 3), (3, 4), (4, 5)]))
        with self.assertRaises(ValueError):
            tropfan.verify_injectivity(tropfan.Graph.from_edges([(2, 3), (4, 5)]))
        metrics = tracer.metrics("fan-k6")
        per_layer = declared()["per_layer"]
        missing = [m["name"] for m in per_layer if m["name"] not in metrics]
        self.assertEqual(missing, ["trace.overhead_s"])  # run.py adds it from untraced rounds
        self.assertEqual(metrics["tropmoduli.errors"], 1)
        self.assertEqual(metrics["bergman.cones"], len(k4.cones))
        self.assertGreater(metrics["intlinalg.saturation.calls"], 0)
        self.assertEqual(metrics["trace.predicted_zero_violations"], 1)  # tropmoduli was called


if __name__ == "__main__":
    unittest.main()
