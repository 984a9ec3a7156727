"""Switch load curves with confidence bands from batched executions.

The seed-axis batched switch engine
(:func:`repro.switch.engine.run_switch_batched`) produces one
:class:`~repro.switch.fabric.SwitchStats` per seed lane from a single
execution.  This module turns that into the E8-style deliverable: a
load sweep where every operating point carries a mean ± CI band over
seeds — throughput, mean delay and backlog — at the cost of one batched
run per load instead of ``num_seeds`` sequential runs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.stats import mean_ci
from repro.switch.engine import run_switch_batched
from repro.switch.traffic import batched_traffic


def batched_point(
    ports: int,
    traffic_factory: Callable[[int], Any],
    scheduler_factory: Callable[[int], Any],
    seeds: list[int],
    slots: int,
    warmup: int = 0,
    z: float = 1.96,
) -> dict[str, Any]:
    """One operating point: mean ± CI over seed lanes, one execution.

    ``traffic_factory(seed)`` builds one lane's traffic stream and
    ``scheduler_factory(seed)`` its scheduler; each lane ``s`` is
    byte-identical to a scalar :func:`~repro.switch.simulator.run_switch`
    run with that seed pair.  Returns the per-metric ``(mean, ci)``
    pairs plus the raw per-seed values (so callers can re-aggregate).
    """
    stats = run_switch_batched(
        ports,
        batched_traffic(traffic_factory, seeds),
        [scheduler_factory(seed) for seed in seeds],
        slots,
        warmup=warmup,
    )
    point: dict[str, Any] = {"seeds": list(seeds), "num_seeds": len(seeds)}
    for metric in ("throughput", "mean_delay", "backlog"):
        values = [float(getattr(st, metric)) for st in stats]
        mean, half = mean_ci(values, z=z)
        point[metric] = mean
        point[f"{metric}_ci"] = half
        point[f"{metric}_per_seed"] = values
    return point


def batched_load_curve(
    ports: int,
    loads: list[float],
    traffic_factory: Callable[[float, int], Any],
    scheduler_factory: Callable[[int], Any],
    seeds: list[int],
    slots: int,
    warmup: int = 0,
    z: float = 1.96,
) -> list[dict[str, Any]]:
    """A load sweep of :func:`batched_point` — one execution per load.

    ``traffic_factory(load, seed)`` builds one lane's stream at one
    operating point.  Returns one dict per load, tagged with it.
    """
    curve = []
    for load in loads:
        point = batched_point(
            ports,
            lambda seed: traffic_factory(load, seed),
            scheduler_factory,
            seeds,
            slots,
            warmup=warmup,
            z=z,
        )
        point["load"] = load
        curve.append(point)
    return curve
