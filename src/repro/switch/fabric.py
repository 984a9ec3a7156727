"""The switch fabric: virtual output queues and the cell-slot loop.

Standard input-queued switch model (as in the PIM [3] and iSLIP [23]
papers the reproduction's introduction cites):

* N input ports, N output ports;
* each input keeps one FIFO *virtual output queue* (VOQ) per output,
  eliminating head-of-line blocking;
* per cell slot the fabric can realize one partial permutation — a
  matching between inputs and outputs — and transfers one cell along
  every matched pair.

The scheduler's job each slot is exactly the paper's problem: find a
large matching in the bipartite demand graph of non-empty VOQs.  The
:class:`Switch` keeps each VOQ's arrival slots in a deque (they define
the delay) and its length in the ``(ports, ports)`` :attr:`Switch.counts`
matrix that schedulers read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


@dataclass
class SwitchStats:
    """Aggregate measurements over a simulation run."""

    slots: int = 0
    arrivals: int = 0
    departures: int = 0
    #: sum over departed cells of (departure slot − arrival slot)
    total_delay: int = 0
    #: cells still queued when the run ended
    backlog: int = 0
    #: number of ports (set by the owning Switch)
    ports: int = 0
    #: per-slot matching sizes (for mean matching size diagnostics)
    match_sizes: list[int] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Departures per port per slot (1.0 = fully loaded output)."""
        if self.slots == 0 or self.ports == 0:
            return 0.0
        return self.departures / (self.slots * self.ports)

    @property
    def mean_delay(self) -> float:
        """Mean queueing delay of departed cells, in slots."""
        if self.departures == 0:
            return 0.0
        return self.total_delay / self.departures

    @property
    def mean_match_size(self) -> float:
        """Average matching size per slot."""
        if not self.match_sizes:
            return 0.0
        return sum(self.match_sizes) / len(self.match_sizes)


class Switch:
    """An N×N input-queued switch with per-(input, output) VOQs."""

    def __init__(self, ports: int) -> None:
        if ports < 1:
            raise ValueError("need at least one port")
        self.ports = ports
        # voq[i][j] holds the arrival slots of queued cells i -> j.
        self.voq: list[list[deque[int]]] = [
            [deque() for _ in range(ports)] for _ in range(ports)
        ]
        #: counts[i, j] = cells queued in VOQ (i, j): the occupancy
        #: matrix every scheduler reads (int32, like the engine's).
        self.counts = np.zeros((ports, ports), dtype=np.int32)
        self.stats = SwitchStats(ports=ports)

    def enqueue(self, i: int, j: int, slot: int) -> None:
        """A cell destined to output ``j`` arrives at input ``i``."""
        self.voq[i][j].append(slot)
        self.counts[i, j] += 1
        self.stats.arrivals += 1

    def transfer(self, matches: Iterable[tuple[int, int]], slot: int) -> int:
        """Move one cell along each matched (input, output) pair.

        Validates that every pair names two ports of this switch, that
        ``matches`` is a partial permutation (the fabric constraint) and
        that matched VOQs are non-empty, raising :class:`ValueError`
        otherwise.  Returns the number of cells transferred.
        """
        ports = self.ports
        seen_i: set[int] = set()
        seen_j: set[int] = set()
        moved = 0
        for i, j in matches:
            if not (0 <= i < ports and 0 <= j < ports):
                raise ValueError(out_of_range([i], [j], ports))
            if i in seen_i or j in seen_j:
                raise ValueError(f"schedule is not a matching at ({i},{j})")
            seen_i.add(i)
            seen_j.add(j)
            q = self.voq[i][j]
            if not q:
                raise ValueError(f"scheduled empty VOQ ({i},{j})")
            arrived = q.popleft()
            self.counts[i, j] -= 1
            self.stats.departures += 1
            self.stats.total_delay += slot - arrived
            moved += 1
        self.stats.match_sizes.append(moved)
        self.stats.slots += 1
        return moved

    def backlog(self) -> int:
        """Total queued cells across all VOQs."""
        return sum(len(q) for row in self.voq for q in row)


def out_of_range(inputs, outputs, ports: int) -> str:
    """Both switch loops' error for the first pair outside the switch."""
    mi, mj = np.asarray(inputs), np.asarray(outputs)
    k = int(np.argmax((mi < 0) | (mi >= ports) | (mj < 0) | (mj >= ports)))
    return f"schedule pair ({mi[k]},{mj[k]}) out of range for {ports} ports"
