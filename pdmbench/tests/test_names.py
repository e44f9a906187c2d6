"""The workload and metric names the benchmark lists, with their units
and directions, must equal those in BENCHMARK.json.

Run with PDM_BENCH_BIN pointing at the built pdm_bench binary
(python3 pdmbench/run.py --selftest does this).
"""

import json
import os
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def listed():
    out = subprocess.run([os.environ["PDM_BENCH_BIN"], "--list"],
                         check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


class NamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        have = listed()
        self.assertEqual(have["workloads"],
                         [w["name"] for w in spec["workloads"]])
        for section in ("end_to_end", "per_layer"):
            want = [{k: m[k] for k in ("name", "unit", "better")}
                    for m in spec[section]]
            self.assertEqual(have[section], want, section)


if __name__ == "__main__":
    unittest.main()
