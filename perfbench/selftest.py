"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * the command prints every end-to-end metric with its unit, and only those;
  * the same seed reproduces the workload fingerprint, another seed changes it;
  * a traced run prints the same fingerprint and every per-layer metric.
Also checks that the command fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, root: Path = ROOT):
    """Run the command at tiny scale; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    fingerprint = lines[0].rsplit("fingerprint ", 1)[1]
    return result, fingerprint


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def check_metrics(w, result, wanted, trace):
        expect(set(result) == RESULT_KEYS, f"{w} trace {trace}: result keys")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1,
               f"{w} trace {trace}: correct, {result['failed']} failed "
               f"of {result['attempted']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == {m["name"]: m["unit"] for m in wanted},
               f"{w} trace {trace}: every metric with its unit, and no other")

    for w in (x["name"] for x in spec["workloads"]):
        code, lines = run(w, 1, 0)
        expect(code == 0, f"{w}: exit code {code}")
        result, fp = result_of(lines)
        check_metrics(w, result, spec["end_to_end"], 0)
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{w}: end-to-end metrics are nonzero")
        fp_again = result_of(run(w, 1, 0)[1])[1]
        expect(fp_again == fp, f"{w}: seed 1 reproduces fingerprint {fp}")
        fp_other = result_of(run(w, 2, 0)[1])[1]
        expect(fp_other != fp, f"{w}: seed 2 changes it ({fp_other})")
        code, lines = run(w, 1, 1)
        expect(code == 0, f"{w} traced: exit code {code}")
        traced, fp_traced = result_of(lines)
        check_metrics(w, traced, spec["per_layer"], 1)
        expect(fp_traced == fp, f"{w}: traced run prints the same fingerprint")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(spec["workloads"][0]["name"], 1, 0, root=bare)
    expect(code != 0 and not (lines and lines[-1].startswith("{")),
           f"without sources: exit code {code} and no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
