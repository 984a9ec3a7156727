"""Deterministic fault injection for the distributed engine.

The paper's algorithms are message-passing protocols, and every prior
backend ran them on a perfect network.  This module adds the standard
fault models of the distributed-computing literature as a *seeded,
reproducible* plan:

* **message loss** — each delivery is dropped independently with
  probability ``loss`` (per-edge, per-round Bernoulli);
* **message delay** — each surviving delivery is deferred by up to
  ``delay`` extra rounds (generator engine only; array programs own
  their phase structure and cannot receive cross-phase stragglers);
* **permanent link failure** — ``link_failures`` edges die forever at
  scheduled rounds;
* **crash-stop node failure** — ``crashes`` nodes halt forever at
  scheduled rounds.  Failure detection is *perfect*: the engine prunes
  a crashed neighbor (or dead link) from the survivors' neighbor views
  at the start of the failure round, the classical crash-stop +
  failure-detector model.

Determinism contract
--------------------
Fault randomness must be a pure function of ``(plan params, seed)``
and *independent of the algorithms' RNG streams* — injecting faults
must not shift a single bit of any node's draws.  Node streams come
from ``SeedSequence(seed).spawn(n)``; fault streams instead derive
from ``SeedSequence([_FAULT_TAG, seed])`` (a distinct entropy tuple,
so no collision with any spawned child) and per-delivery decisions use
a **stateless counter-based hash**, the splitmix64 finalizer over
``(key, src, dst, round)`` — the same construction as the LCA edge
ranks (:mod:`repro.lca.ranks`).  A stateless hash has no stream
position, so the generator engine (one scalar evaluation per message)
and the array engine (one vectorized evaluation per delivery batch)
agree bit for bit regardless of evaluation order — the property the
cross-backend identity net pins.

Usage: ``plan.bind(graph, seed)`` materializes the schedules as a
:class:`FaultState`, or ``None`` for a no-op plan so the engines'
fault-free hot paths stay branch-free (the <5% overhead gate of
``bench_s10_faults``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.graphs.graph import Graph

_MASK64 = (1 << 64) - 1
#: splitmix64 golden-gamma increment (shared with repro.lca.ranks).
_PHI = 0x9E3779B97F4A7C15
#: second odd increment (the L64X128 LCG multiplier) keying the
#: (src, dst) axis so it cannot alias the round axis.
_ETA = 0xD1342543DE82EF95
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: entropy tag making the fault root SeedSequence disjoint from the
#: node-stream spawn tree of every engine.
_FAULT_TAG = 0xFA017
#: salt deriving the delay draw from the drop hash.
_DELAY_SALT = 0x2545F4914F6CDD1D

#: schedule sentinel: the event never triggers.
NEVER = np.int64(1) << np.int64(62)


def _mix64(z: int) -> int:
    """The splitmix64 finalizer on a Python int (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` — uint64 wraparound matches the mask."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


_PARSE_KEYS = {
    "loss": ("loss", float),
    "delay": ("delay", int),
    "crash": ("crashes", int),
    "crashes": ("crashes", int),
    "crash_window": ("crash_window", int),
    "link": ("link_failures", int),
    "links": ("link_failures", int),
    "link_failures": ("link_failures", int),
    "link_window": ("link_window", int),
    "seed": ("seed", int),
}


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule, parameterized but graph-free.

    ``crash_window`` / ``link_window`` bound the scheduled rounds:
    each of the ``crashes`` victims (``link_failures`` dead links)
    triggers at a round drawn uniformly from ``[0, window)``; a window
    of 0 pins every event to round 0 (the prune-identity regime).
    ``seed=None`` keys the fault streams off the run seed, so each run
    of a sweep sees its own faults; a fixed ``seed`` replays one fault
    schedule across every run seed.
    """

    loss: float = 0.0
    delay: int = 0
    crashes: int = 0
    crash_window: int = 8
    link_failures: int = 0
    link_window: int = 8
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        for name in ("delay", "crashes", "crash_window",
                     "link_failures", "link_window"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be nonnegative, got {getattr(self, name)}"
                )
        # a round at or past NEVER would read as "never triggers"
        for name in ("delay", "crash_window", "link_window"):
            if getattr(self, name) >= int(NEVER):
                raise ValueError(
                    f"{name} must be below 2^62, got {getattr(self, name)}"
                )
        # the fault streams key on the seed mod 2^64
        if self.seed is not None and not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")

    @property
    def is_active(self) -> bool:
        """Whether binding this plan can perturb a run at all."""
        return bool(
            self.loss > 0 or self.delay > 0
            or self.crashes > 0 or self.link_failures > 0
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec like ``"loss=0.05,crash=3"``.

        Keys: ``loss``, ``delay``, ``crash``/``crashes``,
        ``link``/``links``/``link_failures``, ``crash_window``,
        ``link_window``, ``seed``.  An empty spec is the no-op plan; a
        knob given twice, under any alias, raises :class:`ValueError`.
        """
        kwargs: dict[str, float | int] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad fault spec item {item!r} (expected key=value)"
                )
            key, _, value = item.partition("=")
            key = key.strip()
            try:
                field, cast = _PARSE_KEYS[key]
            except KeyError:
                raise ValueError(
                    f"unknown fault spec key {key!r}; "
                    f"known: {' '.join(sorted(set(_PARSE_KEYS)))}"
                ) from None
            if field in kwargs:
                raise ValueError(
                    f"fault spec sets {field} twice (again as {key!r})"
                )
            try:
                kwargs[field] = cast(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad value {value.strip()!r} for fault key {key!r}"
                ) from None
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Compact human-readable form (CLI banners, bench labels)."""
        parts = []
        if self.loss > 0:
            parts.append(f"loss={self.loss:g}")
        if self.delay > 0:
            parts.append(f"delay<= {self.delay}".replace(" ", ""))
        if self.crashes > 0:
            parts.append(f"crashes={self.crashes}@[0,{self.crash_window})")
        if self.link_failures > 0:
            parts.append(
                f"links={self.link_failures}@[0,{self.link_window})"
            )
        if self.seed is not None:
            parts.append(f"fault_seed={self.seed}")
        return " ".join(parts) if parts else "none"

    def bind(self, graph: Graph, run_seed: int) -> "FaultState | None":
        """Materialize the schedules for one (graph, run) pair.

        Returns ``None`` for an inactive plan, so engines can keep
        their fault-free paths entirely branch-free.
        """
        if not self.is_active:
            return None
        return FaultState(self, graph,
                          self.seed if self.seed is not None else run_seed)


class FaultState:
    """A :class:`FaultPlan` bound to a graph and a seed.

    Holds the materialized schedules — ``crash_round[v]`` and
    ``link_fail_round[e]`` (``NEVER`` for unaffected nodes/edges) —
    plus the stateless drop/delay hash.  Engines consume it read-only;
    one state can serve any number of runs of the same (graph, seed).
    """

    __slots__ = (
        "plan",
        "n",
        "m",
        "key",
        "crash_round",
        "link_fail_round",
        "_threshold",
        "_graph",
    )

    def __init__(self, plan: FaultPlan, graph: Graph, seed: int) -> None:
        self.plan = plan
        self.n = graph.n
        self.m = graph.m
        self._graph = graph
        root = np.random.SeedSequence([_FAULT_TAG, int(seed) & _MASK64])
        self.key = int(root.generate_state(1, np.uint64)[0])
        crash_child, link_child = root.spawn(2)
        self.crash_round = np.full(self.n, NEVER, dtype=np.int64)
        if plan.crashes > 0 and self.n > 0:
            rng = np.random.default_rng(crash_child)
            victims = rng.choice(self.n, size=min(plan.crashes, self.n),
                                 replace=False)
            self.crash_round[victims] = rng.integers(
                0, max(1, plan.crash_window), size=victims.size
            )
        self.link_fail_round = np.full(self.m, NEVER, dtype=np.int64)
        if plan.link_failures > 0 and self.m > 0:
            rng = np.random.default_rng(link_child)
            dead = rng.choice(self.m, size=min(plan.link_failures, self.m),
                              replace=False)
            self.link_fail_round[dead] = rng.integers(
                0, max(1, plan.link_window), size=dead.size
            )
        # drop iff hash < loss * 2^64 (loss=1 accepts every hash).
        self._threshold = min(int(round(plan.loss * 2.0 ** 64)), 1 << 64)
        self.crash_round.setflags(write=False)
        self.link_fail_round.setflags(write=False)

    # -- per-delivery decisions (scalar | vectorized, bit-identical) ---

    def _hash(self, src: int, dst: int, rnd: int) -> int:
        return _mix64(
            self.key + (rnd + 1) * _PHI + (src * self.n + dst + 1) * _ETA
        )

    def drop(self, src: int, dst: int, rnd: int) -> bool:
        """Whether the (src → dst) delivery of round ``rnd`` is lost."""
        if self._threshold == 0:
            return False
        return self._hash(src, dst, rnd) < self._threshold

    def _hash_vec(self, srcs: np.ndarray, dsts: np.ndarray, rnd: int) -> np.ndarray:
        """Vectorized :meth:`_hash` over aligned src/dst arrays."""
        with np.errstate(over="ignore"):  # uint64 wraparound is the hash
            pair = (
                np.asarray(srcs).astype(np.uint64) * np.uint64(self.n)
                + np.asarray(dsts).astype(np.uint64) + np.uint64(1)
            )
            return _mix64_vec(
                np.uint64(self.key)
                + np.uint64((rnd + 1) & _MASK64) * np.uint64(_PHI)
                + pair * np.uint64(_ETA)
            )

    def drop_mask(
        self, srcs: np.ndarray, dsts: np.ndarray, rnd: int
    ) -> np.ndarray:
        """Vectorized :meth:`drop` over aligned src/dst arrays."""
        if self._threshold == 0:
            return np.zeros(np.asarray(srcs).shape, dtype=bool)
        if self._threshold > _MASK64:
            return np.ones(np.asarray(srcs).shape, dtype=bool)
        return self._hash_vec(srcs, dsts, rnd) < np.uint64(self._threshold)

    def delay_of(self, src: int, dst: int, rnd: int) -> int:
        """Extra rounds added to a surviving delivery (0 = on time)."""
        if self.plan.delay <= 0:
            return 0
        return _mix64(self._hash(src, dst, rnd) ^ _DELAY_SALT) % (
            self.plan.delay + 1
        )

    def delay_mask(
        self, srcs: np.ndarray, dsts: np.ndarray, rnd: int
    ) -> np.ndarray:
        """Vectorized :meth:`delay_of` over aligned src/dst arrays."""
        if self.plan.delay <= 0:
            return np.zeros(np.asarray(srcs).shape, dtype=np.int64)
        with np.errstate(over="ignore"):
            h = self._hash_vec(srcs, dsts, rnd) ^ np.uint64(_DELAY_SALT)
            return (_mix64_vec(h) % np.uint64(self.plan.delay + 1)).astype(
                np.int64
            )

    # -- schedule views -----------------------------------------------

    def crashed_by(self, rnd: int) -> np.ndarray:
        """Vertex ids whose crash triggers at a round ``<= rnd``."""
        return np.flatnonzero(self.crash_round <= rnd)

    def failed_links_by(self, rnd: int) -> np.ndarray:
        """Edge ids whose link failure triggers at a round ``<= rnd``."""
        return np.flatnonzero(self.link_fail_round <= rnd)

    def pruned_graph(self, as_of_round: int = 0) -> Graph:
        """The survivor subgraph after events through ``as_of_round``.

        Drops failed links and every edge incident to a crashed node
        (vertex set unchanged; crashed vertices become isolated).  With
        the default round 0 this is the graph a faulted run is
        byte-identical to a fault-free run on — the prune identity the
        test net pins for window-0 plans.
        """
        g = self._graph
        lo, hi = g.endpoints_array()
        node_ok = self.crash_round > as_of_round
        keep = (
            (self.link_fail_round > as_of_round) & node_ok[lo] & node_ok[hi]
        )
        return g.subgraph(np.flatnonzero(keep))


def bind_many(
    plan: FaultPlan, graph: Graph, seeds: Iterable[int]
) -> "list[FaultState | None] | None":
    """Bind one plan per batch lane (``BatchedArrayBackend`` helper).

    Returns ``None`` when the plan is inactive (all lanes fault-free),
    else one :class:`FaultState` per seed.
    """
    if not plan.is_active:
        return None
    return [plan.bind(graph, int(s)) for s in seeds]


def with_seed(plan: FaultPlan, seed: int) -> FaultPlan:
    """A copy of ``plan`` pinned to an explicit fault seed."""
    return replace(plan, seed=seed)
