#!/usr/bin/env python3
"""Tests of the benchmark's own contract, run from the repository root:

    python3 perfbench/test_perfbench.py

- the same seed reproduces the same scenario digest, for every workload;
- a different seed changes the scenario;
- a malformed reference file is rejected with its line number.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["wide_v3", "wide_v1", "paper_tune"]
DEFAULT_SEED = 20040426
SECOND_SEED = 7


def perfbench(*args):
    return subprocess.run([run.EXE] + [str(a) for a in args],
                          capture_output=True, text=True)


def digest(workload, seed):
    out = perfbench("--workload", workload, "--seed", seed, "--scenario-digest")
    assert out.returncode == 0, out.stderr
    lines = [l for l in out.stdout.splitlines() if l.startswith("digest ")]
    assert len(lines) == 1, out.stdout
    return lines[0].split()[1]


class SeedTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, DEFAULT_SEED),
                                 digest(workload, DEFAULT_SEED))

    def test_other_seed_changes_scenario(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(digest(workload, DEFAULT_SEED),
                                    digest(workload, SECOND_SEED))

    def test_malformed_reference_is_located(self):
        path = os.path.join(run.ROOT, ".bench_build", "bad_reference.txt")
        with open(path, "w") as f:
            f.write("# comment\nwide_v3 1 i0.slrh3.run\n")
        out = perfbench("--workload", "wide_v3", "--seed", 1, "--reference", path)
        self.assertNotEqual(out.returncode, 0)
        self.assertIn(path + ":2:", out.stderr)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
