#!/usr/bin/env python3
"""Batched sweep: 64 seeds per cell as one vectorized execution.

A sweep cell usually repeats the same experiment over many seeds, one
run per seed — and at moderate n the Python per-run overhead (backend
construction, the O(n) per-node RNG spawn, one NumPy dispatch chain
per round per seed) dwarfs the actual arithmetic.  Seed-axis batching
(ISSUE 4) executes the whole seed list as ONE run over
``(num_seeds, n)`` arrays, with every per-(seed, node) RNG stream
replicated bit-exactly by ``repro.distributed.batch_rng`` — so the
records are byte-identical to the per-seed runs, only faster.

The walkthrough below sweeps Luby's MIS over three graph families with
64 seeds per cell, three ways:

1. per-seed loop on the generator backend (the reference semantics);
2. per-seed loop on the array backend (PR 3's win);
3. one batched array execution per cell (this PR's win),
   dispatched through ``ParallelRunner.sweep(seed_batch=64)``.
"""

import time

from repro.analysis import ParallelRunner
from repro.baselines.luby_mis import luby_mis, luby_mis_batched
from repro.graphs import barabasi_albert, gnp_random, watts_strogatz

#: One fixed graph per cell — batching is across seeds, so the cell's
#: topology is built once (from the *point*, not the seed) and shared
#: by all 64 lanes.
FAMILIES = {
    "barabasi_albert": lambda n: barabasi_albert(n, 4, seed=0),
    "watts_strogatz": lambda n: watts_strogatz(n, 4, 0.1, seed=0),
    "gnp": lambda n: gnp_random(n, 4.0 / n, seed=0),
}

NUM_SEEDS = 64
SEEDS = list(range(NUM_SEEDS))


# Build each cell's graph once and share it across every leg and seed,
# so the timing comparison is about *execution*, not graph construction.
_GRAPH_CACHE: dict[tuple[str, int], object] = {}


def cell_graph(family: str, n: int):
    key = (family, n)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = FAMILIES[family](n)
    return _GRAPH_CACHE[key]


def luby_record(mis, res) -> dict[str, float]:
    return {"mis_size": float(len(mis)), "rounds": float(res.rounds)}


# A batch-aware cell fn: ParallelRunner calls it as fn(seeds=[...], n=...,
# family=...) and expects one record per seed, in order.  Inside, the
# whole chunk is ONE BatchedArrayBackend execution.
def batched_cell(seeds, family: str, n: int) -> list[dict[str, float]]:
    g = cell_graph(family, n)
    return [luby_record(mis, res) for mis, res in luby_mis_batched(g, seeds)]


# The per-seed twin, for the comparison legs.
def sequential_cell(seed: int, family: str, n: int, backend: str) -> dict[str, float]:
    mis, res = luby_mis(cell_graph(family, n), seed=seed, backend=backend)
    return luby_record(mis, res)


def main() -> None:
    n = 600
    points = [{"family": fam, "n": n} for fam in FAMILIES]
    runner = ParallelRunner(workers=1)  # one process: isolate the batching win

    legs = {}
    for label, kwargs in [
        ("generator, per seed", dict(fn=sequential_cell, common={"backend": "generator"})),
        ("array, per seed", dict(fn=sequential_cell, common={"backend": "array"})),
        ("array, batched x64", dict(fn=batched_cell, seed_batch=NUM_SEEDS)),
    ]:
        fn = kwargs.pop("fn")
        t0 = time.perf_counter()
        cells = runner.sweep(fn, points, seeds=SEEDS, **kwargs)
        legs[label] = (time.perf_counter() - t0, cells)

    base = legs["generator, per seed"][0]
    print(f"Luby MIS, {len(points)} families x n={n} x {NUM_SEEDS} seeds:")
    for label, (elapsed, _cells) in legs.items():
        print(f"  {label:>20}: {elapsed*1000:7.1f} ms  ({base/elapsed:5.2f}x)")

    # Identity: the batched leg's records equal the generator leg's,
    # cell by cell, record by record — batching changes the wall clock,
    # never the data.
    for ref_cell, bat_cell in zip(legs["generator, per seed"][1],
                                  legs["array, batched x64"][1]):
        assert ref_cell.records == bat_cell.records, ref_cell.params
    print("identity: batched records == per-seed generator records, all cells")

    # The per-seed spread a 64-seed batch gives you for free:
    for cell in legs["array, batched x64"][1]:
        rounds = cell.column("rounds")
        print(f"  {cell.params['family']:>16}: rounds min/mean/max = "
              f"{min(rounds):.0f}/{sum(rounds)/len(rounds):.1f}/{max(rounds):.0f}")


if __name__ == "__main__":
    main()
