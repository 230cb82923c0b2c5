"""The benchmark's own tests.

    python3 bench/selftest.py [-v] [TestName ...]

- A corrupted digest reference makes ops fail (nonzero fail_frac) while the
  run still completes and reports; so do corrupted oracle values of the cuv
  queries.
- Two traced runs of one workload and seed give identical count metrics
  (``compare.py --counts``), for each of the three workloads; this is the
  slow part, about three minutes.
- Without the package sources beside it the benchmark exits nonzero and
  prints no result.
- ``compare.py`` refuses run sets whose repeat counts differ.

Scratch files go under ``.bench_out/selftest`` at the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def run(args: list[str], cwd: Path = ROOT, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=str(cwd), capture_output=True,
                          text=True, timeout=600, **kw)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dest: Path, with_sources: bool) -> None:
    """BENCHMARK.json and the benchmark, and the package sources if asked."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "bench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


class CorruptedReference(unittest.TestCase):
    def test_corrupted_digests_fail_ops(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            tree = Path(tmp)
            copy_tree(tree, with_sources=True)
            path = tree / "bench" / "reference.json"
            ref = json.loads(path.read_text())
            ref["s5-sweep"] = {k: ("0" if v[0] != "0" else "1") + v[1:]
                               for k, v in ref["s5-sweep"].items()}
            path.write_text(json.dumps(ref))
            proc = run(["bench/run.py", "--workload", "s5-sweep", "--seed", "3",
                        "--seconds", "1", "--trace", "0"], cwd=tree)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_line(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])  # every op's digest is wrong

    def test_corrupted_oracle_fails_cuv_queries(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            tree = Path(tmp)
            copy_tree(tree, with_sources=True)
            path = tree / "bench" / "reference.json"
            ref = json.loads(path.read_text())
            ref["queries-oracle"] = {k: v + 1 for k, v in ref["queries-oracle"].items()}
            path.write_text(json.dumps(ref))
            proc = run(["bench/run.py", "--workload", "queries", "--seed", "3",
                        "--seconds", "1", "--trace", "0"], cwd=tree)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_line(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["failed"], res["attempted"])  # only the cuv queries
        self.assertIn("!= oracle", proc.stdout)

    def test_true_reference_passes(self):
        proc = run([str(HERE / "run.py"), "--workload", "s5-sweep", "--seed", "3",
                    "--seconds", "1", "--trace", "0", "--out", str(SCRATCH)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_line(proc)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)


class ExactCounts(unittest.TestCase):
    def counts_repeat(self, workload: str):
        records = []
        for k in range(2):
            out = SCRATCH / f"counts{k}"
            proc = run([str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", "1", "--out", str(out)])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(result_line(proc)["correct"])
            records.append(out / f"{workload}-seed5-trace1.json")
        proc = run([str(HERE / "compare.py"), "--counts", str(records[0]), str(records[1])])
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_s5_sweep(self):
        self.counts_repeat("s5-sweep")

    def test_queries(self):
        self.counts_repeat("queries")

    def test_verify_all(self):
        self.counts_repeat("verify-all")


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            copy_tree(Path(tmp), with_sources=False)
            proc = run(["bench/run.py", "--workload", "s5-sweep", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class CompareRepeats(unittest.TestCase):
    def test_refuses_different_repeat_counts(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            sides = []
            for side, k in (("parent", 6), ("change", 4)):
                d = Path(tmp) / side
                d.mkdir()
                for seed in (1, 2):
                    rec = {"environment": {"workload": "queries", "seed": seed, "trace": 0},
                           "repeats": k, "attempted": 1, "failed": 0,
                           "metrics": {}}
                    (d / f"queries-seed{seed}-trace0.json").write_text(json.dumps(rec))
                sides.append(str(d))
            proc = run([str(HERE / "compare.py"), *sides])
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("not comparable", proc.stdout)


if __name__ == "__main__":
    unittest.main()
