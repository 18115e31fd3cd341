"""Smoke test of the self-benchmark.

    python3 -m unittest selfbench/test_smoke.py

Builds selfbench, then runs every workload once at minimal size with
tracing off and on, and checks that each run is correct and prints
every metric BENCHMARK.json names, with its unit.
"""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        r = subprocess.run([sys.executable, RUN, "--smoke"],
                           capture_output=True, text=True, timeout=1500)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
