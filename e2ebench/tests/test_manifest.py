"""BENCHMARK.json must stay within the format limits it is read with
(names, units, bounds and sizes), and every workload it lists must have
run settings in spec.py."""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class ManifestTest(unittest.TestCase):
    def test_format_limits(self):
        with open(spec.MANIFEST_PATH) as committed:
            text = committed.read()
        self.assertTrue(len(text.encode()) <= 64 * 1024)
        m = json.loads(text)
        self.assertEqual(set(m), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(m["paths"]) <= 16)
        for path in m["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path)
        self.assertTrue(len(m["command"]) <= 32)
        self.assertTrue(all(len(part) <= 200 for part in m["command"]))
        self.assertIsInstance(m["run_seconds"], int)
        self.assertTrue(1 <= m["run_seconds"] <= 60)
        self.assertTrue(2 <= len(m["workloads"]) <= 8)
        self.assertTrue(1 <= len(m["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(m["per_layer"]) <= 128)
        names = [w["name"] for w in m["workloads"]]
        names += [e["name"] for e in m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in m["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        for e in m["end_to_end"]:
            self.assertEqual(set(e), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < e["bound"] <= 0.25)
        for e in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(e["unit"], UNIT)
            self.assertIn(e["better"], ("lower", "higher"))
        for e in m["per_layer"]:
            self.assertEqual(set(e), {"name", "unit", "better"})

    def test_setup_s_has_the_largest_bound(self):
        bounds = {e["name"]: e for e in spec.END_TO_END}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(e["bound"] for e in spec.END_TO_END))

    def test_every_workload_has_run_settings(self):
        self.assertEqual([w["name"] for w in spec.MANIFEST["workloads"]],
                         list(spec.WORKLOAD_SETTINGS))

    def test_busy_threads_stay_within_a_four_cpu_host(self):
        for w in spec.WORKLOADS:
            self.assertLessEqual(w["busy_threads"], 4, w["name"])


if __name__ == "__main__":
    unittest.main()
