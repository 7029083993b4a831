"""Self-test of the benchmark harness (about two minutes):

    python3 perfbench/selftest.py

* every workload runs at a tiny size, untraced and traced, and emits exactly
  the end-to-end or per-layer metrics BENCHMARK.json names, with its units;
* a deliberately corrupted output is counted as a failed, incorrect op;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(args: list[str]) -> dict:
    code, lines = bench(*args)
    assert code == 0, f"{args}: exit {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            result = result_of(args)
            assert result["correct"], f"{workload} trace={trace}: {result}"
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], f"{workload} trace={trace}: {units}"
            print(f"ok  {workload} trace={trace}: {len(units)} metrics")

    for workload in ("traj_long", "traj_batch"):
        result = result_of(["--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--tiny", "--corrupt"])
        assert result["failed"] == result["attempted"] and not result["correct"], result
        print(f"ok  {workload}: corrupted output counted as failed")

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_runs"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "traj_long", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not lines, (code, lines)
    print("ok  without the program: exit", code, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
