#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Run from the repository root. Builds the benchmark binary on first use,
exactly as run.py does, then runs every workload for a short time (about
two minutes in all on a 4-vCPU machine).
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = run.load_spec()
_cache = {}


def bench(workload, seed, trace, seconds=1):
    """The contract object run.py prints (cached per argument set)."""
    key = (workload, seed, trace, seconds)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, check=True)
        _cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[key]


def tampered(workload):
    """The binary's own object for a run whose repeated unit is corrupted."""
    binary = run.build()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0", "--tamper"],
        capture_output=True, text=True, cwd=run.ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_declared_names_and_units_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_every_declared_pair_is_emitted_with_its_unit(self):
        for w in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = bench(w, 1, trace)
                self.assertEqual(set(out), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(out["correct"], (w, trace))
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                got = out["metrics"]
                self.assertEqual(set(got), {m["name"] for m in SPEC[key]})
                for m in SPEC[key]:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(got[m["name"]]["value"],
                                          (int, float))
                    for name in got:
                        self.assertTrue(re.match(r"^[A-Za-z0-9_.-]+$",
                                                 name))

    def test_end_to_end_values_are_never_zero(self):
        for w in run.WORKLOADS:
            for name, m in bench(w, 1, 0)["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))


class Verification(unittest.TestCase):
    def assertOneFailedUnit(self, out):
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        ok = out["metrics"]["ok_frac"]["value"]
        self.assertAlmostEqual(ok, 1 - 1 / out["attempted"])
        self.assertTrue(out["diag"]["first_failure"])

    def test_tampered_detection_digest_is_a_failed_unit(self):
        self.assertOneFailedUnit(tampered("detect"))

    def test_serve_conservation_violation_is_a_failed_unit(self):
        out = tampered("serve")
        self.assertOneFailedUnit(out)
        self.assertIn("conservation", out["diag"]["first_failure"])

    def test_failed_fleet_validate_is_a_failed_unit(self):
        out = tampered("fleet")
        self.assertOneFailedUnit(out)
        self.assertIn("validate", out["diag"]["first_failure"])


class SimClass(unittest.TestCase):
    SIM = {
        "detect": ("class_accuracy", "char_accuracy", "sim_detect_rounds"),
        "serve": ("sim_goodput_qps", "sim_latency_p50_ms",
                  "sim_latency_p99_ms"),
    }

    def test_sim_class_metrics_are_identical_across_runs(self):
        for w, names in self.SIM.items():
            a = bench(w, 1, 0)["metrics"]
            b = bench(w, 2, 0)["metrics"]
            for name in names:
                self.assertEqual(a[name]["value"], b[name]["value"], name)


class TracedRun(unittest.TestCase):
    def traced_files(self, workload):
        bench(workload, 1, 1)
        out_dir = os.path.join(run.OUT_DIR, workload + "-seed1")
        with open(os.path.join(out_dir, "layers.json")) as f:
            layers = {k: v["value"] for k, v in json.load(f).items()}
        with open(os.path.join(out_dir, "spans.jsonl")) as f:
            spans = [json.loads(line) for line in f]
        return layers, spans

    def test_detect_shares_account_for_thread_time(self):
        layers, _ = self.traced_files("detect")
        shares = [layers["core.recommender.analyze_share"],
                  layers["core.recommender.decompose_share"],
                  layers["core.detector.other_share"]]
        self.assertTrue(all(s >= 0 for s in shares), shares)
        self.assertAlmostEqual(sum(shares), 1.0)
        self.assertGreater(layers["core.recommender.analyze_calls"], 0)

    def test_spans_cover_the_public_calls(self):
        expect = {
            "detect": {"unit", "core.training.fromSpecs",
                       "core.recommender.construct",
                       "core.ControlledExperiment.run"},
            "serve": {"unit", "serve.ServeEngine.run",
                      "core.recommender.analyze",
                      "core.recommender.decompose"},
            "fleet": {"unit", "sim.FleetCluster.construct",
                      "sim.FleetCluster.boot", "sim.FleetCluster.run"},
        }
        for w, names in expect.items():
            _, spans = self.traced_files(w)
            self.assertTrue(names <= {s["name"] for s in spans}, w)
            ids = {s["span_id"] for s in spans}
            for s in spans:
                self.assertLessEqual(s["start_us"], s["end_us"])
                self.assertTrue(s["parent_id"] == 0 or s["parent_id"] in ids)


if __name__ == "__main__":
    unittest.main(verbosity=2)
