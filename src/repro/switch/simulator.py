"""The scalar cell-slot simulation loop tying traffic, switch and scheduler.

This is the *reference semantics* for the switch subsystem: one
Python-level pass per slot over deque-backed VOQs.  The production
path for long horizons, large port counts and seed lanes is
:func:`repro.switch.engine.run_switch_batched` (a single seed is a
one-lane batch, :func:`~repro.switch.engine.run_switch_vectorized`),
which is pinned byte-identical to this loop on
:class:`~repro.switch.fabric.SwitchStats`, lane by lane.
"""

from __future__ import annotations

from repro.switch.fabric import Switch, SwitchStats
from repro.switch.schedulers import Scheduler
from repro.switch.traffic import TrafficGenerator


def _check_horizon(slots: int, warmup: int) -> None:
    """Reject negative slot counts before any slot runs."""
    if slots < 0:
        raise ValueError(f"slots must be >= 0, got {slots}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")


def run_switch(
    ports: int,
    traffic: TrafficGenerator,
    scheduler: Scheduler,
    slots: int,
    warmup: int = 0,
) -> SwitchStats:
    """Simulate ``slots`` cell slots; returns the switch statistics.

    Per slot: arrivals are enqueued, the scheduler is consulted with
    the current VOQ occupancy, and the fabric transfers one cell per
    matched pair.  ``warmup`` extra slots run first without being
    counted (to measure steady state).  Negative ``slots`` or
    ``warmup`` raise :class:`ValueError`.
    """
    _check_horizon(slots, warmup)
    sw = Switch(ports)
    for slot in range(warmup + slots):
        if slot == warmup:
            # Reset counters but keep queue state (steady-state window);
            # cells enqueued during warmup carry their true arrival
            # slots, so delay accounting stays consistent.
            sw.stats = SwitchStats(ports=ports)
        for i, j in traffic(slot):
            sw.enqueue(i, j, slot)
        if hasattr(scheduler, "schedule_weighted"):
            matches = scheduler.schedule_weighted(sw.occupancy(), slot)
        else:
            matches = scheduler.schedule(sw.demand(), slot)
        sw.transfer(matches, slot)
    sw.stats.backlog = sw.backlog()
    return sw.stats
