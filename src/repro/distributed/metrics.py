"""Run metrics collected by the simulator.

These are the quantities the paper's theorems bound:

* ``rounds`` — time complexity (Thm 3.1: O(ε⁻³ log n); Thm 3.8:
  O(k³ log Δ + k² log n); Thm 3.11: O(2^{2k} k⁴ log k · log n);
  Thm 4.5: O(log ε⁻¹ · log n));
* ``max_message_bits`` — message complexity (O(|V|+|E|) / O(log Δ) /
  O(log n) respectively);
* ``total_messages`` / ``total_bits`` — aggregate communication, used
  by the scaling analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class LcaProbeStats:
    """Exploration cost of LCA point queries (:mod:`repro.lca`).

    Where :class:`RunResult` accounts a *global* distributed run, this
    accounts the local-computation side: what one ``mate_of`` /
    ``edge_in_matching`` query (or an aggregate of many) actually
    touched.  The LCA theorems (Alon–Rubinfeld–Vardi, Reingold–Vardi;
    see PAPERS.md) bound exactly these quantities — probes polylog in
    ``n`` per query — so the serving benchmark reports them next to
    the wall clock.

    * ``queries`` — queries aggregated into this record;
    * ``edges_probed`` — edge-membership subproblems resolved (DFS
      frames opened; memo hits are *not* re-counted);
    * ``adjacency_scanned`` — CSR half-edge slots examined while
      listing lower-rank dependencies (the "explored neighborhood
      size"; every probed edge beyond the query root was discovered
      through one of these slots, so
      ``edges_probed <= adjacency_scanned + 1`` per query — pinned by
      the property net);
    * ``max_depth`` — deepest dependency chain followed (recursion
      depth of the equivalent recursive resolver).
    """

    queries: int = 0
    edges_probed: int = 0
    adjacency_scanned: int = 0
    max_depth: int = 0

    @property
    def mean_probes(self) -> float:
        """Edges probed per query (0.0 before any query)."""
        return self.edges_probed / self.queries if self.queries else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Always 0.0: every resolution is explored, none is cached.

        The LCA layer keeps no state between queries.  The property
        stays because the benchmark's ``lca.cache_hit_rate`` metric
        (``perfbench/workloads.py``) reads it; it goes with that metric.
        """
        return 0.0

    def merge(self, other: "LcaProbeStats") -> "LcaProbeStats":
        """Aggregate composition: totals add, depth takes the max."""
        return LcaProbeStats(
            queries=self.queries + other.queries,
            edges_probed=self.edges_probed + other.edges_probed,
            adjacency_scanned=self.adjacency_scanned + other.adjacency_scanned,
            max_depth=max(self.max_depth, other.max_depth),
        )

    def add(self, other: "LcaProbeStats") -> None:
        """In-place :meth:`merge` (the hot accumulation path)."""
        self.queries += other.queries
        self.edges_probed += other.edges_probed
        self.adjacency_scanned += other.adjacency_scanned
        self.max_depth = max(self.max_depth, other.max_depth)


@dataclass
class RunResult:
    """Outcome of one :meth:`repro.distributed.Network.run` call."""

    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    outputs: dict[int, Any] = field(default_factory=dict)
    #: extra rounds charged analytically (e.g. Lemma 3.3's O(ℓ) routing
    #: per conflict-graph MIS round in Algorithm 1's emulation).
    charged_rounds: int = 0
    #: fault accounting (repro.distributed.faults) — zero on fault-free
    #: runs.  ``total_messages``/``total_bits`` count *attempted* sends
    #: (transmission cost is paid whether or not delivery succeeds);
    #: dropped/delayed deliveries are tallied here on top.
    messages_dropped: int = 0
    messages_delayed: int = 0
    nodes_crashed: int = 0
    links_failed: int = 0

    @property
    def total_rounds(self) -> int:
        """Simulated plus analytically charged rounds."""
        return self.rounds + self.charged_rounds

    def merge(self, other: "RunResult") -> "RunResult":
        """Sequential composition: totals add, outputs overwrite."""
        merged = RunResult(
            rounds=self.rounds + other.rounds,
            total_messages=self.total_messages + other.total_messages,
            total_bits=self.total_bits + other.total_bits,
            max_message_bits=max(self.max_message_bits, other.max_message_bits),
            charged_rounds=self.charged_rounds + other.charged_rounds,
            messages_dropped=self.messages_dropped + other.messages_dropped,
            messages_delayed=self.messages_delayed + other.messages_delayed,
            nodes_crashed=self.nodes_crashed + other.nodes_crashed,
            links_failed=self.links_failed + other.links_failed,
        )
        merged.outputs = {**self.outputs, **other.outputs}
        return merged
