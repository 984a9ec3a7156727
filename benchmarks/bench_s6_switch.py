"""S6 — the vectorized long-horizon switch engine (ISSUE 6).

PR 6 rebuilt ``repro.switch`` around a ``(ports, ports)`` VOQ
occupancy matrix, chunked NumPy traffic streams, and per-slot matrix
scheduler cores.  This bench measures two things:

* **speedup cells** (under ``"cells"``) — the scalar cell-slot loop
  (:func:`~repro.switch.simulator.run_switch`, kept as the reference
  semantics) vs :func:`~repro.switch.engine.run_switch_vectorized`,
  with the two legs asserted **equal on the full SwitchStats**
  (arrivals, departures, delay sums, per-slot match sizes) before any
  time is reported.  The acceptance cell is 64-port bernoulli/greedy
  at 10^5 slots (ISSUE 6 requires >= 10x there).
* **curve cells** (under ``"curves"``) — vectorized-only
  throughput / mean-delay / backlog sweeps per scheduler across loads
  up to 0.95, at 64 and 256 ports over 10^5 slots, plus one 10^6-slot
  long-horizon cell.  The scalar loop would take hours on these, which
  is the point of the engine.

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s6_switch.py --out s6.json

Both legs consult the same ``schedule_matrix`` of each scheduler, so a
speedup measures the slot loop alone: Python deques and per-pair
transfers against the occupancy stack and per-chunk checks.  The paper
scheduler (k=3) has its own 64-port bernoulli speedup cell.

``--quick`` restricts to the three 64-port bernoulli speedup cells
(greedy, iSLIP and paper) at reduced slot counts and skips the curves;
``--check`` exits 2 if the vectorized leg is slower than the scalar
loop on the 64-port bernoulli iSLIP or paper cell — the CI gate
(identity is asserted on every cell regardless).  The committed full
run lives at ``benchmarks/results/s6_switch.json``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import harness
from repro.analysis import format_table, print_banner
from repro.switch import (
    GreedyMaximalScheduler,
    IslipAdapter,
    PaperScheduler,
    PimScheduler,
    bernoulli_uniform,
    bursty,
    hotspot,
    run_switch,
    run_switch_vectorized,
)

#: Traffic-stream factories: name -> (ports, load) -> ChunkedTraffic.
TRAFFIC: dict[str, Callable[[int, float], Any]] = {
    "bernoulli": lambda p, load: bernoulli_uniform(p, load, seed=6),
    "bursty": lambda p, load: bursty(p, load, burst_len=16.0, seed=6),
    # hot_fraction kept small so output 0 stays below unit rate at 64
    # ports (hotspot_output0_rate(64, 0.5, 0.01) ~ 0.82)
    "hotspot": lambda p, load: hotspot(p, load, hot_fraction=0.01, seed=6),
}

#: Scheduler factories (fresh per leg: iSLIP pointers are stateful).
SCHEDULERS: dict[str, Callable[[int], Any]] = {
    "greedy": lambda p: GreedyMaximalScheduler(p, seed=2),
    "islip": lambda p: IslipAdapter(p),
    "pim": lambda p: PimScheduler(p, seed=2),
    "paper": lambda p: PaperScheduler(p, k=3),
}

#: The CI smoke / fail-if-slower cells: (workload, traffic, ports).
GATE_CELLS = [
    ("switch_islip", "bernoulli", 64),
    ("switch_paper", "bernoulli", 64),
]

#: The committed-run acceptance cell (ISSUE 6: >= 10x here).
ACCEPTANCE_CELL = ("switch_greedy", "bernoulli", 64)

#: Best-of reps per speedup leg: full run, ``--quick``.
REPS, QUICK_REPS = 2, 1

#: ``--check`` fails below this speedup on a gate cell (the committed
#: full run shows ~3x on iSLIP; CI boxes are noisy).
MIN_SPEEDUP = 1.0


def speedup_cell(sname: str, tname: str, ports: int, load: float,
                 slots: int, warmup: int, reps: int) -> dict[str, Any]:
    """Scalar vs vectorized on one scheduler × traffic cell.

    Both legs rebuild the traffic stream and the scheduler from the
    same seeds, so they simulate the *same* run; equality of the full
    ``SwitchStats`` (delay accounting included) is asserted before the
    timing is reported.
    """
    def scalar():
        return run_switch(ports, TRAFFIC[tname](ports, load),
                          SCHEDULERS[sname](ports), slots=slots, warmup=warmup)

    def vectorized():
        return run_switch_vectorized(
            ports, TRAFFIC[tname](ports, load), SCHEDULERS[sname](ports),
            slots=slots, warmup=warmup,
        )

    t_slow, r_slow = harness.best_of(scalar, reps)
    t_fast, r_fast = harness.best_of(vectorized, reps)
    assert r_slow == r_fast, (
        f"legs diverged on {sname}/{tname} ports={ports} load={load}"
    )
    return {
        "workload": f"switch_{sname}",
        "family": tname,
        "n": ports,
        "load": load,
        "slots": slots,
        "warmup": warmup,
        "scalar_s": t_slow,
        "vectorized_s": t_fast,
        "speedup": t_slow / t_fast,
        "throughput": r_fast.throughput,
        "mean_delay": r_fast.mean_delay,
        "identical_results": True,
    }


def curve_cell(sname: str, tname: str, ports: int, load: float,
               slots: int, warmup: int) -> dict[str, Any]:
    """Vectorized-only measurement of one operating point."""
    t0 = time.perf_counter()
    st = run_switch_vectorized(
        ports, TRAFFIC[tname](ports, load), SCHEDULERS[sname](ports),
        slots=slots, warmup=warmup,
    )
    dt = time.perf_counter() - t0
    return {
        "scheduler": sname,
        "traffic": tname,
        "ports": ports,
        "load": load,
        "slots": slots,
        "warmup": warmup,
        "throughput": st.throughput,
        "mean_delay": st.mean_delay,
        "mean_match_size": st.mean_match_size,
        "backlog": st.backlog,
        "seconds": dt,
        "slots_per_s": (warmup + slots) / dt,
    }


def run(quick: bool) -> dict[str, Any]:
    if quick:
        cells = [
            speedup_cell("greedy", "bernoulli", 64, 0.6, 4000, 400, QUICK_REPS),
            speedup_cell("islip", "bernoulli", 64, 0.6, 4000, 400, QUICK_REPS),
            speedup_cell("paper", "bernoulli", 64, 0.6, 4000, 400, QUICK_REPS),
        ]
        return {"quick": True, "cells": cells, "curves": []}

    cells = [
        # the acceptance cell: 64-port bernoulli/greedy at 10^5 slots
        speedup_cell("greedy", "bernoulli", 64, 0.6, 100_000, 10_000, REPS),
        speedup_cell("islip", "bernoulli", 64, 0.6, 20_000, 2_000, REPS),
        speedup_cell("pim", "bernoulli", 64, 0.6, 20_000, 2_000, REPS),
        speedup_cell("paper", "bernoulli", 64, 0.6, 20_000, 2_000, REPS),
        speedup_cell("greedy", "bursty", 64, 0.6, 20_000, 2_000, REPS),
        speedup_cell("greedy", "hotspot", 64, 0.5, 20_000, 2_000, REPS),
    ]
    curves = []
    for load in (0.5, 0.7, 0.8, 0.9, 0.95):
        curves.append(curve_cell("greedy", "bernoulli", 64, load,
                                 100_000, 10_000))
    for load in (0.5, 0.7, 0.8, 0.9, 0.95):
        curves.append(curve_cell("islip", "bernoulli", 64, load,
                                 50_000, 5_000))
        curves.append(curve_cell("pim", "bernoulli", 64, load,
                                 50_000, 5_000))
    for load in (0.7, 0.9):
        curves.append(curve_cell("greedy", "bernoulli", 256, load,
                                 20_000, 2_000))
        curves.append(curve_cell("islip", "bernoulli", 256, load,
                                 20_000, 2_000))
    curves.append(curve_cell("greedy", "bursty", 64, 0.8, 50_000, 5_000))
    curves.append(curve_cell("islip", "hotspot", 64, 0.5, 50_000, 5_000))
    # the long-horizon cell: 10^6 slots, scalar-infeasible territory
    curves.append(curve_cell("greedy", "bernoulli", 64, 0.8,
                             1_000_000, 50_000))
    return {"quick": False, "cells": cells, "curves": curves}


def gate(data: dict[str, Any]) -> list[str]:
    failures = []
    for wl, traffic, ports in GATE_CELLS:
        speedup = harness.find_cell(
            data, workload=wl, family=traffic, n=ports
        )["speedup"]
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"vectorized engine below {MIN_SPEEDUP:.2f}x on the "
                f"{wl}/{traffic} ports={ports} gate cell ({speedup:.2f}x)"
            )
    return failures


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S6 — the vectorized long-horizon switch engine",
        "equal SwitchStats asserted per cell; only the engine changes",
    )
    print(format_table(
        ["workload", "traffic", "ports", "load", "slots",
         "scalar s", "vector s", "speedup"],
        [
            [c["workload"], c["family"], c["n"], c["load"], c["slots"],
             c["scalar_s"], c["vectorized_s"], c["speedup"]]
            for c in data["cells"]
        ],
    ))
    if data["curves"]:
        print("\nvectorized-only operating points "
              "(scalar loop infeasible at this scale):")
        print(format_table(
            ["scheduler", "traffic", "ports", "load", "slots",
             "thruput", "delay", "backlog", "kslots/s"],
            [
                [c["scheduler"], c["traffic"], c["ports"], c["load"],
                 c["slots"], c["throughput"], c["mean_delay"], c["backlog"],
                 c["slots_per_s"] / 1000.0]
                for c in data["curves"]
            ],
        ))
    best = max(data["cells"], key=lambda c: c["speedup"])
    print(f"best speedup {best['speedup']:.2f}x "
          f"({best['workload']}/{best['family']} ports={best['n']})")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
