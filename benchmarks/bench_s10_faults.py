"""S10 — the fault-injection seam (ISSUE 10).

PR 10 threads a seeded :class:`~repro.distributed.faults.FaultPlan`
through the delivery seam of every engine.  This bench prices the
seam and charts honest degradation:

* **overhead cells** (under ``"cells"``) — n=2000 Luby on the
  generator engine, outputs asserted identical before any time is
  reported:

  - ``fault_seam_noop`` — the CI gate: passing ``FaultPlan()``
    (loss=0, no events) must cost <5% over ``faults=None``.  An
    inactive plan binds to ``None``, so the fault-free hot path stays
    branch-free — this cell pins that contract.
  - ``fault_seam_active`` — informational: an *active* plan at
    negligible loss (``2^-64``, drops essentially never) pays for the
    real per-round delivery filtering (one vectorized loss hash over
    the round's messages).

  - ``faulted_batch`` — the CI gate of the array fault path:
    Israeli–Itai at n=2000 under ``crashes=20, link_failures=40`` (no
    loss, so no lane stalls), 8 seeds as one array batch vs the same 8
    seeds as generator runs; every lane is asserted equal to its
    generator run (fault counters included) before timing, and the
    batch must not be slower.

  Timing is interleaved best-of-k (the variants alternate within each
  repetition) so machine noise cancels instead of biasing one side.

* **degradation curves** (``"loss_curve"`` / ``"crash_curve"``) —
  Israeli–Itai under a loss ladder and a crash ladder: surviving
  matching size vs the fault-free run, stall fraction (lost one-shot
  announcements can honestly stall the protocol — stalls are counted,
  not hidden), and the degradation oracle's verdict on every completed
  run (``certify_degraded_matching``; a single violation raises).

Run as a script for the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_s10_faults.py --out s10.json

``--quick`` trims repetitions and ladder points; ``--check`` exits 2
if the noop-seam overhead breaches 1.05x, the faulted array batch is
slower than the generator runs, or the degradation oracle rejects a
completed run.  The committed full run lives at
``benchmarks/results/s10_faults.json``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

import harness
from repro.analysis import format_table, print_banner
from repro.baselines.israeli_itai import (
    israeli_itai_matching,
    israeli_itai_matching_batched,
)
from repro.baselines.luby_mis import luby_mis
from repro.distributed.faults import FaultPlan
from repro.graphs.generators import gnp_random
from repro.matching.certify import certify_degraded_matching

#: Average degree of the G(n, p) bench graphs.
AVG_DEG = 8.0
#: The CI gate cell: Luby's MIS at this size, generator engine.
SMOKE_N = 2000
#: Degradation-curve graph size (small enough that stalled runs —
#: which burn the whole round budget — stay cheap).
CURVE_N = 300
#: Round budget for the degradation curves; a run that exceeds it is
#: recorded as a stall.
CURVE_MAX_ROUNDS = 2000
#: Active-but-harmless loss: threshold 1 out of 2^64, so the seam
#: hashes every delivery yet essentially never drops one.
EPS_LOSS = 2.0 ** -64
#: ``--check`` fails above this noop-seam overhead ratio: the seam must
#: be free when no plan is active.
MAX_OVERHEAD = 1.05
#: The faulted-batch cell's plan: crashes and link failures but no
#: loss, so every lane completes.
BATCH_PLAN = FaultPlan(crashes=20, link_failures=40)
#: Seeds of the faulted-batch cell (one array batch of this many lanes).
BATCH_SEEDS = 8


def _interleaved_best(
    fns: "list[Callable[[], Any]]", reps: int
) -> list[float]:
    """Best-of-``reps`` wall time per fn, alternating order each rep."""
    best = [float("inf")] * len(fns)
    for rep in range(reps):
        order = range(len(fns))
        if rep % 2:
            order = reversed(list(order))
        for i in order:
            t0 = time.perf_counter()
            fns[i]()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def run_overhead_cells(n: int, seed: int, reps: int) -> list[dict[str, Any]]:
    """Time plain vs noop-plan vs active-seam Luby on one graph.

    Identity is asserted before timing: all three variants must return
    the same MIS with the same round/message counts (the noop plan
    binds to ``None``; the epsilon-loss plan filters every delivery
    but drops none).
    """
    g = gnp_random(n, AVG_DEG / (n - 1), seed=seed)
    noop = FaultPlan()
    active = FaultPlan(loss=EPS_LOSS)
    mis_p, res_p = luby_mis(g, seed=seed)
    mis_n, res_n = luby_mis(g, seed=seed, faults=noop)
    mis_a, res_a = luby_mis(g, seed=seed, faults=active)
    if not (mis_p == mis_n == mis_a):
        raise AssertionError(f"fault-seam MIS divergence at n={n}")
    if not (res_p.rounds == res_n.rounds == res_a.rounds
            and res_p.total_messages == res_n.total_messages
            == res_a.total_messages):
        raise AssertionError(f"fault-seam metrics divergence at n={n}")
    if res_a.messages_dropped:
        raise AssertionError("epsilon-loss plan dropped a message")
    t_plain, t_noop, t_active = _interleaved_best(
        [
            lambda: luby_mis(g, seed=seed),
            lambda: luby_mis(g, seed=seed, faults=noop),
            lambda: luby_mis(g, seed=seed, faults=active),
        ],
        reps,
    )
    common = {
        "n": n, "m": g.m, "seed": seed, "reps": reps,
        "mis_size": len(mis_p), "rounds": res_p.rounds,
        "messages": res_p.total_messages, "identical_results": True,
        "plain_s": round(t_plain, 4),
    }
    return [
        {
            "workload": "fault_seam_noop", **common,
            "faulted_s": round(t_noop, 4),
            "overhead": round(t_noop / t_plain, 4),
            "speedup": round(t_plain / t_noop, 4),
        },
        {
            "workload": "fault_seam_active", **common,
            "faulted_s": round(t_active, 4),
            "overhead": round(t_active / t_plain, 4),
            "speedup": round(t_plain / t_active, 4),
        },
    ]


def run_faulted_batch_cell(n: int, reps: int) -> dict[str, Any]:
    """Time one faulted array batch against per-seed generator runs.

    Every lane is asserted equal to its generator run (matching and
    ``RunResult``, fault counters included) before anything is timed.
    """
    g = gnp_random(n, AVG_DEG / (n - 1), seed=0)
    seeds = list(range(BATCH_SEEDS))

    def array_leg():
        return israeli_itai_matching_batched(
            g, seeds, backend="array", faults=BATCH_PLAN
        )

    def generator_leg():
        return [israeli_itai_matching(g, seed=s, faults=BATCH_PLAN)
                for s in seeds]

    lanes = array_leg()
    for s, ((am, ar), (gm, gr)) in enumerate(zip(lanes, generator_leg())):
        if am.edges() != gm.edges() or ar != gr:
            raise AssertionError(f"faulted batch lane {s} differs at n={n}")
    t_array, t_gen = _interleaved_best([array_leg, generator_leg], reps)
    return {
        "workload": "faulted_batch", "n": n, "m": g.m,
        "plan": BATCH_PLAN.describe(), "seeds": len(seeds), "reps": reps,
        "rounds": [res.rounds for _, res in lanes],
        "nodes_crashed": sum(res.nodes_crashed for _, res in lanes),
        "links_failed": sum(res.links_failed for _, res in lanes),
        "identical_results": True,
        "array_s": round(t_array, 4), "generator_s": round(t_gen, 4),
        "speedup": round(t_gen / t_array, 4),
    }


def _faulted_ii(g, seed: int, plan: FaultPlan) -> dict[str, Any]:
    """One II run under ``plan``; stalls are an outcome, not an error."""
    try:
        m, res = israeli_itai_matching(
            g, seed=seed, max_rounds=CURVE_MAX_ROUNDS, faults=plan
        )
    except RuntimeError:  # lost/late one-shot announcements -> stall
        return {"stalled": True}
    out = {"stalled": False, "pairs": len(m), "rounds": res.rounds,
           "dropped": res.messages_dropped, "crashed": res.nodes_crashed,
           "oracle_ok": True, "widows": 0}
    if plan.is_active:
        fs = plan.bind(g, seed)
        rep = certify_degraded_matching(
            g, res.outputs, failed_links=fs.failed_links_by(res.rounds)
        )
        out["oracle_ok"] = rep.ok
        out["widows"] = len(rep.widows)
    return out


def _curve_point(
    g, plan: FaultPlan, seeds: "list[int]", baseline: "dict[int, int]"
) -> dict[str, Any]:
    """Aggregate one ladder rung over ``seeds`` (oracle-checked)."""
    runs = [_faulted_ii(g, s, plan) for s in seeds]
    done = [r for r in runs if not r["stalled"]]
    point: dict[str, Any] = {
        "plan": plan.describe(),
        "seeds": len(seeds),
        "completed": len(done),
        "stall_rate": round(1.0 - len(done) / len(seeds), 3),
        "oracle_ok": all(r["oracle_ok"] for r in done),
    }
    if done:
        ratios = [r["pairs"] / baseline[s]
                  for r, s in zip(runs, seeds) if not r["stalled"]]
        point.update(
            mean_pairs=round(sum(r["pairs"] for r in done) / len(done), 1),
            mean_ratio=round(sum(ratios) / len(ratios), 4),
            mean_rounds=round(sum(r["rounds"] for r in done) / len(done), 1),
            mean_dropped=round(sum(r["dropped"] for r in done) / len(done), 1),
            mean_widows=round(
                sum(r["widows"] for r in done) / len(done), 2
            ),
        )
    return point


def run_degradation_curves(
    n: int, seeds: "list[int]", losses: "list[float]", crashes: "list[int]"
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """II matching size vs fault intensity, normalized per seed."""
    g = gnp_random(n, AVG_DEG / (n - 1), seed=0)
    baseline = {
        s: len(israeli_itai_matching(g, seed=s)[0]) for s in seeds
    }
    loss_curve = [
        {"loss": lv, **_curve_point(g, FaultPlan(loss=lv), seeds, baseline)}
        for lv in losses
    ]
    crash_curve = [
        {"crashes": c,
         **_curve_point(g, FaultPlan(crashes=c), seeds, baseline)}
        for c in crashes
    ]
    return loss_curve, crash_curve


def run(quick: bool) -> dict[str, Any]:
    reps = 7 if quick else 11
    seeds = list(range(4)) if quick else list(range(8))
    # The ladder brackets II's loss-tolerance transition at n=300
    # (stalls set in between loss=1e-3 and 1e-2; beyond that every
    # run stalls and the curve is flat).
    losses = ([0.0, 0.001, 0.003, 0.01] if quick
              else [0.0, 0.0001, 0.001, 0.002, 0.003, 0.005, 0.01])
    crashes = [0, 5, 20] if quick else [0, 2, 5, 10, 20]
    cells = run_overhead_cells(SMOKE_N, seed=0, reps=reps)
    cells.append(run_faulted_batch_cell(SMOKE_N, reps=3 if quick else 5))
    loss_curve, crash_curve = run_degradation_curves(
        CURVE_N, seeds, losses, crashes
    )
    return {"quick": quick, "avg_degree": AVG_DEG, "curve_n": CURVE_N,
            "curve_max_rounds": CURVE_MAX_ROUNDS, "cells": cells,
            "loss_curve": loss_curve, "crash_curve": crash_curve}


def gate(data: dict[str, Any]) -> list[str]:
    ratio = harness.find_cell(data, workload="fault_seam_noop")["overhead"]
    failures = []
    if ratio > MAX_OVERHEAD:
        failures.append(f"n={SMOKE_N} noop-seam overhead {ratio:.3f}x "
                        f"exceeds the {MAX_OVERHEAD:.2f}x gate")
    batch = harness.find_cell(data, workload="faulted_batch")
    if batch["speedup"] < 1.0:
        failures.append(
            f"n={batch['n']} faulted {batch['seeds']}-lane array batch is "
            f"slower than its generator runs ({batch['array_s']} s vs "
            f"{batch['generator_s']} s)"
        )
    bad = [p["plan"] for p in data["loss_curve"] + data["crash_curve"]
           if not p["oracle_ok"]]
    if bad:
        failures.append(f"degradation oracle rejected {bad}")
    return failures


def show(data: dict[str, Any]) -> None:
    print_banner(
        "S10 — the fault-injection seam",
        "seam overhead on fault-free runs; Israeli-Itai degradation "
        "under loss and crash ladders (oracle-checked)",
    )
    print(format_table(
        ["workload", "n", "rounds", "plain s", "faulted s", "overhead"],
        [
            [c["workload"], c["n"], c["rounds"], c["plain_s"],
             c["faulted_s"], c["overhead"]]
            for c in data["cells"] if c["workload"] != "faulted_batch"
        ],
    ))
    batch = harness.find_cell(data, workload="faulted_batch")
    print(f"\nIsraeli-Itai, {batch['plan']}, n={batch['n']}: "
          f"{batch['seeds']} seeds as one array batch {batch['array_s']} s "
          f"vs generator runs {batch['generator_s']} s "
          f"({batch['speedup']}x; every lane identical)")
    n, budget = data["curve_n"], data["curve_max_rounds"]
    print(f"\nIsraeli-Itai degradation, n={n} G(n,p) avg deg "
          f"{data['avg_degree']}, stall = no termination within "
          f"{budget} rounds:")
    print(format_table(
        ["loss", "completed", "stall rate", "pairs", "ratio", "rounds",
         "dropped", "widows"],
        [
            [f"{p['loss']:g}", f"{p['completed']}/{p['seeds']}", p["stall_rate"],
             p.get("mean_pairs", "-"), p.get("mean_ratio", "-"),
             p.get("mean_rounds", "-"), p.get("mean_dropped", "-"),
             p.get("mean_widows", "-")]
            for p in data["loss_curve"]
        ],
    ))
    print(format_table(
        ["crashes", "completed", "stall rate", "pairs", "ratio",
         "rounds", "widows"],
        [
            [p["crashes"], f"{p['completed']}/{p['seeds']}",
             p["stall_rate"], p.get("mean_pairs", "-"),
             p.get("mean_ratio", "-"), p.get("mean_rounds", "-"),
             p.get("mean_widows", "-")]
            for p in data["crash_curve"]
        ],
    ))
    noop = harness.find_cell(data, workload="fault_seam_noop")
    print(f"\nnoop-plan seam overhead at n={noop['n']}: "
          f"{noop['overhead']}x (gate: <1.05x — an inactive plan binds "
          f"to None, so the fault-free hot path stays branch-free)")


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, run, show, gate))
