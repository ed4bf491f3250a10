"""Self-test of the benchmark's correctness gate.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tests",
                      "golden", "BENCH_fig_tlp_scaling.json")


def document(results, runs=2):
    """A harness document whose every run reproduces `results`."""
    doc = {"points": [{"spec": 0, "result": r} for r in results],
           "runs": []}
    for it in range(runs):
        doc["runs"].append({
            "iteration": it, "pass": "direct",
            "points": [{"id": i, "digest": f"d{i}", "ipfc": r["ipfc"],
                        "ipc": r["ipc"]} for i, r in enumerate(results)],
        })
    return doc


class GoldenGateTest(unittest.TestCase):
    def setUp(self):
        self.golden = checks.load_golden(GOLDEN)
        self.results = [copy.deepcopy(r) for r in self.golden.values()]

    def test_reproduced_golden_passes(self):
        attempted, failures = checks.check_document(
            document(self.results), {0: self.golden})
        self.assertEqual(attempted, 2 * len(self.results))
        self.assertEqual(failures, [])

    def test_points_are_matched_by_overrides(self):
        # The spec sweeps longLoadPolicy none/stall/flush over the same
        # (workload, engine, policy): only the overrides tell them apart.
        keys = [k for k in self.golden
                if k[:3] == ("4_MIX", "gshare+BTB", "ICOUNT.2.8")]
        self.assertEqual(len(keys), 3)
        self.assertEqual(len({self.golden[k]["ipc"] for k in keys}), 3)

    def test_wrong_expected_ipc_fails_that_point(self):
        key = checks.result_key(self.results[4])
        golden = copy.deepcopy(self.golden)
        golden[key]["ipc"] += 1e-12
        attempted, failures = checks.check_document(
            document(self.results), {0: golden})
        self.assertEqual(attempted, 2 * len(self.results))
        self.assertEqual([pid for pid, _ in failures], [4, 4])
        self.assertIn(checks.describe(self.results[4]), failures[0][1])
        self.assertIn("golden", failures[0][1])

    def test_unrun_golden_point_fails(self):
        attempted, failures = checks.check_document(
            document(self.results[1:]), {0: self.golden})
        self.assertEqual(len(failures), 1)
        self.assertIn("never run", failures[0][1])

    def test_broken_conservation_fails(self):
        self.results[2]["stats"]["sim.thread0.ipc"] += 0.5
        _, failures = checks.check_document(document(self.results), {})
        self.assertEqual([pid for pid, _ in failures], [2, 2])
        self.assertIn("per-thread IPC", failures[0][1])

    def test_changed_digest_fails(self):
        doc = document(self.results)
        doc["runs"][1]["points"][3]["digest"] = "other"
        _, failures = checks.check_document(doc, {})
        self.assertEqual([pid for pid, _ in failures], [3])
        _, failures = checks.check_document(
            document(self.results), {}, reference_digests={5: "earlier"})
        self.assertEqual([pid for pid, _ in failures], [5, 5])

    def test_non_finite_result_fails(self):
        doc = document(self.results)
        doc["runs"][0]["points"][0]["ipc"] = None
        doc["runs"][1]["points"][1]["error"] = "simulation threw"
        _, failures = checks.check_document(doc, {})
        self.assertEqual(sorted(pid for pid, _ in failures), [0, 1])


if __name__ == "__main__":
    unittest.main()
