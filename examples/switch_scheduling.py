#!/usr/bin/env python3
"""Switch scheduling — the application motivating the paper's intro.

Simulates an input-queued switch under increasing load and compares
four schedulers per cell slot:

* PIM (the AN2 scheduler built on Israeli–Itai's ideas),
* iSLIP (the router standard),
* a random maximal matching (the ½ worst-case quality level),
* the paper's bipartite (1−1/k)-MCM.

Prints mean delay and throughput per load level.  Larger per-slot
matchings mean more cells move per slot — the paper's premise that
better matchings increase switch throughput shows up as lower delay at
high load.

Runs on the production switch engine's single-seed entry
(:func:`~repro.switch.engine.run_switch_vectorized`, a one-lane
``run_switch_batched`` run), which is pinned byte-identical to the
scalar reference loop (`run_switch`) but makes 10^4–10^6-slot horizons
cheap; see `benchmarks/bench_s6_switch.py`.
"""

from repro.analysis import format_table
from repro.switch import (
    GreedyMaximalScheduler,
    IslipAdapter,
    PaperScheduler,
    PimScheduler,
    bernoulli_uniform,
    run_switch_vectorized,
)

PORTS = 16
SLOTS = 10_000
WARMUP = 1_000


def main() -> None:
    rows = []
    for load in (0.5, 0.7, 0.85, 0.95):
        for name, factory in [
            ("PIM", lambda: PimScheduler(PORTS, seed=1)),
            ("iSLIP", lambda: IslipAdapter(PORTS)),
            ("maximal", lambda: GreedyMaximalScheduler(PORTS, seed=1)),
            ("paper k=3", lambda: PaperScheduler(PORTS, k=3)),
        ]:
            st = run_switch_vectorized(
                PORTS,
                bernoulli_uniform(PORTS, load, seed=42),
                factory(),
                slots=SLOTS,
                warmup=WARMUP,
            )
            rows.append(
                [load, name, st.throughput, st.mean_delay, st.backlog]
            )
    print(f"{PORTS}x{PORTS} switch, Bernoulli uniform traffic, "
          f"{SLOTS} slots after {WARMUP} warmup:\n")
    print(
        format_table(
            ["load", "scheduler", "throughput", "mean delay", "backlog"], rows
        )
    )


if __name__ == "__main__":
    main()
