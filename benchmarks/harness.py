"""The shared entry point of every bench: the ``bench_s*.py`` perf
scripts and ``bench_claims.py``, the paper's claims.

Each script declares its cells or rows plus ``run(quick) -> data``,
``show(data)`` and ``gate(data) -> list[str]``, and hands them to
:func:`main`::

    if __name__ == "__main__":
        sys.exit(harness.main(__doc__, run, show, gate))

:func:`main` is the whole CLI: ``--quick`` runs the smoke cells CI
runs, ``--out`` writes the run's JSON, and ``--check`` prints every
failure ``gate`` returns as ``FAIL: ...`` on stderr and exits 2 (a
gate cell missing from the run counts as one more failure).  Gate
thresholds, sizes and repetition counts are module constants of each
script, not options.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable

import numpy

from repro.graphs.generators import (
    barabasi_albert,
    gnp_random,
    powerlaw_configuration,
    watts_strogatz,
)

#: The scenario graph families: name -> (n, seed) -> Graph.
FAMILIES: dict[str, Callable[[int, int], Any]] = {
    "barabasi_albert": lambda n, s: barabasi_albert(n, 4, seed=s),
    "watts_strogatz": lambda n, s: watts_strogatz(n, 4, 0.1, seed=s),
    "gnp": lambda n, s: gnp_random(n, 4.0 / n, seed=s),
    "powerlaw": lambda n, s: powerlaw_configuration(n, 2.5, seed=s),
}


def host() -> dict[str, Any]:
    """The host a run measured on: CPU count and model, and the
    interpreter's and NumPy's versions (fields of perfbench's ``host``
    line)."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def best_of(fn: Callable[[], Any], reps: int) -> tuple[float, Any]:
    """Best-of-``reps`` wall seconds of ``fn()`` and its last result."""
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def find_cell(data: dict[str, Any], **key: Any) -> dict[str, Any]:
    """The first cell of ``data["cells"]`` whose fields match ``key``."""
    for cell in data["cells"]:
        if all(k in cell and cell[k] == v for k, v in key.items()):
            return cell
    named = ", ".join(f"{k}={v!r}" for k, v in key.items())
    raise LookupError(f"no cell with {named} in this run")


def main(
    doc: str,
    run: Callable[[bool], dict[str, Any]],
    show: Callable[[dict[str, Any]], None],
    gate: Callable[[dict[str, Any]], list[str]],
    argv: list[str] | None = None,
) -> int:
    """Run, print and optionally save and gate one bench; the exit code."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="only the smoke cells (what CI runs)")
    ap.add_argument("--check", action="store_true",
                    help="exit 2 if the run fails its gate")
    ap.add_argument("--out", help="write the JSON report here")
    args = ap.parse_args(argv)
    data = run(args.quick)
    show(data)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=2)
        print(f"\nwrote {args.out}")
    if not args.check:
        return 0
    try:
        failures = gate(data)
    except LookupError as e:
        failures = [str(e)]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 2
    print("check ok")
    return 0
