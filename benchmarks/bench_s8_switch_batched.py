"""S8 — the seed-axis batched switch engine (ISSUE 8).

PR 8 lifts the switch slot loop along a seed axis: one
``(num_seeds, ports, ports)`` occupancy stack, lane-stacked scheduler
cores, and one traffic-replay pass for exact per-lane delay accounting
— one execution per (scheduler, traffic, load) cell instead of one run
per seed.  This bench measures two things:

* **speedup cells** (under ``"cells"``) — N sequential single-seed
  :func:`~repro.switch.engine.run_switch_vectorized` runs (each a
  one-lane batch on the single-seed scheduler cores) vs one
  :func:`~repro.switch.engine.run_switch_batched` execution over the
  same seeds, with the per-seed ``SwitchStats`` lists asserted
  **equal** (arrivals, departures, delay sums, per-slot match sizes)
  before any time is reported.  The acceptance-shape cell is 64-port
  bernoulli/greedy at 16 seeds × 10^5 slots.
* **band cells** (under ``"bands"``) — a load curve with mean ± 95% CI
  over seeds per operating point, each point one batched execution
  (:func:`repro.analysis.switch_curves.batched_load_curve`) — the
  "confidence bands for free" deliverable.

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s8_switch_batched.py --out s8.json

``--quick`` restricts to two small speedup cells and one band point;
``--check`` exits 2 if the batched engine is below 0.8x on the
bernoulli/greedy gate cell (identity is asserted on every cell
regardless).  The committed full run lives at
``benchmarks/results/s8_switch_batched.json``.

Measured speedups on the committed run are ~1.2–2.4x (best at low
load, worst for PIM and near saturation), not the 4x the issue
targeted: on the benchmark box both legs bottleneck on NumPy per-call
dispatch, and the batched engine still needs its array ops per slot
(the feedback loop — arrivals, schedule, departures — is sequential
in slot time by construction).  The lane axis only amortizes per-lane
dispatch, so the ceiling is ``sequential_dispatch / batched_dispatch``
≈ 2–3x here, shrinking toward 1 as per-call work grows with load; see
ARCHITECTURE.md §7 for the accounting.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import harness
from repro.analysis import format_table, print_banner
from repro.analysis.switch_curves import batched_load_curve
from repro.switch import (
    GreedyMaximalScheduler,
    IslipAdapter,
    PimScheduler,
    batched_traffic,
    bernoulli_uniform,
    bursty,
    run_switch_batched,
    run_switch_vectorized,
)

#: Traffic-stream factories: name -> (ports, load, seed) -> ChunkedTraffic.
TRAFFIC: dict[str, Callable[[int, float, int], Any]] = {
    "bernoulli": lambda p, load, seed: bernoulli_uniform(p, load, seed=seed),
    "bursty": lambda p, load, seed: bursty(
        p, load, burst_len=16.0, seed=seed
    ),
}

#: Scheduler factories (fresh per lane and per leg: all are stateful).
SCHEDULERS: dict[str, Callable[[int, int], Any]] = {
    "greedy": lambda p, seed: GreedyMaximalScheduler(p, seed=seed),
    "islip": lambda p, seed: IslipAdapter(p),
    "pim": lambda p, seed: PimScheduler(p, seed=seed),
}

#: The CI smoke / fail-if-slower gate cell: (workload, traffic, load).
SMOKE_CELL = ("batched_greedy", "bernoulli", 0.6)

#: The committed-run acceptance-shape cell (ISSUE 8 targeted >= 4x
#: here; the committed run documents what the box actually delivers).
ACCEPTANCE_CELL = ("batched_greedy", "bernoulli", 0.6)

NUM_SEEDS = 16

#: ``--check`` fails below this gate-cell speedup: a CI noise margin
#: below parity (the committed full run documents the real ~1.2-2.4x).
MIN_SPEEDUP = 0.8


def speedup_cell(sname: str, tname: str, ports: int, load: float,
                 slots: int, warmup: int,
                 num_seeds: int = NUM_SEEDS) -> dict[str, Any]:
    """N sequential one-lane runs vs one batched execution.

    Both legs rebuild every lane's traffic stream and scheduler from
    the same seeds, so they simulate the *same* N runs; equality of
    every lane's full ``SwitchStats`` (delay accounting included) is
    asserted before the timing is reported.
    """
    seeds = list(range(num_seeds))

    def lane_traffic(seed: int) -> Any:
        return TRAFFIC[tname](ports, load, seed)

    def lane_sched(seed: int) -> Any:
        return SCHEDULERS[sname](ports, 1000 + seed)

    t0 = time.perf_counter()
    seq = [
        run_switch_vectorized(
            ports, lane_traffic(s), lane_sched(s), slots, warmup=warmup
        )
        for s in seeds
    ]
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    bat = run_switch_batched(
        ports,
        batched_traffic(lane_traffic, seeds),
        [lane_sched(s) for s in seeds],
        slots,
        warmup=warmup,
    )
    t_bat = time.perf_counter() - t0

    assert seq == bat, (
        f"legs diverged on {sname}/{tname} ports={ports} load={load}"
    )
    return {
        "workload": f"batched_{sname}",
        "family": tname,
        "n": ports,
        "num_seeds": num_seeds,
        "load": load,
        "slots": slots,
        "warmup": warmup,
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup": t_seq / t_bat,
        "throughput_lane0": seq[0].throughput,
        "mean_delay_lane0": seq[0].mean_delay,
        "identical_results": True,
    }


def band_curve(sname: str, tname: str, ports: int, loads: list[float],
               slots: int, warmup: int,
               num_seeds: int = NUM_SEEDS) -> list[dict[str, Any]]:
    """Mean ± CI load curve, one batched execution per point."""
    t0 = time.perf_counter()
    curve = batched_load_curve(
        ports,
        loads,
        lambda load, seed: TRAFFIC[tname](ports, load, seed),
        lambda seed: SCHEDULERS[sname](ports, 1000 + seed),
        list(range(num_seeds)),
        slots,
        warmup=warmup,
    )
    dt = time.perf_counter() - t0
    for point in curve:
        point["scheduler"] = sname
        point["traffic"] = tname
        point["ports"] = ports
        point["slots"] = slots
        point["warmup"] = warmup
        del point["throughput_per_seed"]
        del point["mean_delay_per_seed"]
        del point["backlog_per_seed"]
    return [{"curve_seconds": dt, "points": curve,
             "scheduler": sname, "traffic": tname, "ports": ports}]


def run(quick: bool) -> dict[str, Any]:
    if quick:
        cells = [
            speedup_cell("greedy", "bernoulli", 64, 0.6, 3000, 300,
                         num_seeds=8),
            speedup_cell("islip", "bernoulli", 64, 0.6, 3000, 300,
                         num_seeds=8),
        ]
        bands = band_curve("greedy", "bernoulli", 64, [0.6], 2000, 200,
                           num_seeds=8)
        return {"quick": True, "cells": cells, "bands": bands}

    cells = [
        # the acceptance-shape cell: 64 ports × 16 seeds × 10^5 slots
        speedup_cell("greedy", "bernoulli", 64, 0.6, 100_000, 10_000),
        speedup_cell("greedy", "bernoulli", 64, 0.3, 20_000, 2_000),
        speedup_cell("greedy", "bernoulli", 64, 0.9, 20_000, 2_000),
        speedup_cell("islip", "bernoulli", 64, 0.6, 10_000, 1_000),
        speedup_cell("pim", "bernoulli", 64, 0.6, 5_000, 500),
        speedup_cell("greedy", "bursty", 64, 0.6, 20_000, 2_000),
    ]
    bands = band_curve(
        "greedy", "bernoulli", 64,
        [0.5, 0.6, 0.7, 0.8, 0.9, 0.95], 50_000, 5_000,
    )
    return {"quick": False, "cells": cells, "bands": bands}


def gate(data: dict[str, Any]) -> list[str]:
    wl, traffic, load = SMOKE_CELL
    speedup = harness.find_cell(
        data, workload=wl, family=traffic, load=load
    )["speedup"]
    if speedup < MIN_SPEEDUP:
        return [f"batched engine below {MIN_SPEEDUP:.2f}x on the "
                f"{SMOKE_CELL} gate cell ({speedup:.2f}x)"]
    return []


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S8 — the seed-axis batched switch engine",
        "per-seed SwitchStats asserted equal; one execution per cell",
    )
    print(format_table(
        ["workload", "traffic", "ports", "seeds", "load", "slots",
         "seq s", "batched s", "speedup"],
        [
            [c["workload"], c["family"], c["n"], c["num_seeds"],
             c["load"], c["slots"], c["sequential_s"], c["batched_s"],
             c["speedup"]]
            for c in data["cells"]
        ],
    ))
    for band in data["bands"]:
        print(f"\n{band['scheduler']}/{band['traffic']} "
              f"{band['ports']}-port load curve, mean ± 95% CI over "
              f"seeds (one batched execution per point, "
              f"{band['curve_seconds']:.1f}s total):")
        print(format_table(
            ["load", "throughput", "±", "mean delay", "±", "backlog", "±"],
            [
                [p["load"], p["throughput"], p["throughput_ci"],
                 p["mean_delay"], p["mean_delay_ci"],
                 p["backlog"], p["backlog_ci"]]
                for p in band["points"]
            ],
        ))
    best = max(data["cells"], key=lambda c: c["speedup"])
    print(f"best speedup {best['speedup']:.2f}x "
          f"({best['workload']}/{best['family']} load={best['load']})")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
