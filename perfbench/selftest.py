"""Self-test of the benchmark: every workload at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Each run is its own process, as the
benchmark is run for real.  The self-test checks that

* every workload, untraced and traced, exits 0 with a correct result
  whose metric names are exactly those ``BENCHMARK.json`` lists;
* a run that drops one matched edge on purpose (``--corrupt``) counts
  the failed operations in its result;
* a directory holding only ``BENCHMARK.json`` and the benchmark, with
  no program to measure, makes the benchmark exit non-zero without a
  result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems: list[str] = []
    tiny = ["--seed", "0", "--seconds", "1", "--scale", "tiny"]

    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{w['name']} --trace {trace}"
            proc = bench("--workload", w["name"], "--trace", trace, *tiny)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = result_of(proc)
            want = {m["name"] for m in spec[key]}
            if set(res["metrics"]) != want:
                problems.append(
                    f"{label}: metrics differ by "
                    f"{sorted(set(res['metrics']) ^ want)}"
                )
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: not correct: {res}")
            print(f"ok   {label}: {res['attempted']} operations checked")

    for w in ("single_seed", "seed_sweep"):
        proc = bench("--workload", w, "--trace", "0", "--corrupt", *tiny)
        res = result_of(proc) if proc.returncode == 0 else {}
        if res.get("correct", True) or res.get("failed", 0) < 1:
            problems.append(f"{w} --corrupt: failure not counted: {res}")
        else:
            print(f"ok   {w} --corrupt: {res['failed']} of "
                  f"{res['attempted']} operations failed")

    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "switch_sim", "--trace", "0", *tiny, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("bare directory: the benchmark did not fail")
        else:
            print(f"ok   bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
