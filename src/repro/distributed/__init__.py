"""Synchronous message-passing simulator (the model of Section 2).

In each round every node sends (possibly different) messages to its
neighbors, receives the messages sent to it in the previous round, and
performs local computation.  Two model variants are supported:

* ``LOCAL`` — unbounded message size (used by the generic Algorithm 1,
  whose messages are O(|V|+|E|) bits);
* ``CONGEST`` — messages of O(log n) bits; the simulator *enforces* a
  configurable bound and records the maximum observed message size so
  the paper's message-complexity claims are measurable.

Node algorithms are Python generators: ``yield`` ends the round —
executed by the :class:`GeneratorBackend` (= :class:`Network`), the
reference engine.  Algorithms may additionally ship an *array program*
(vectorized per-round updates over struct-of-arrays state with a
leading seed axis) executed by the :class:`BatchedArrayBackend`: a
whole seed list runs at once, and a single seed is a one-lane batch.
Both produce byte-identical results from the same seed (see
``repro.distributed.backends``).
"""

from repro.distributed.backends import (
    BACKENDS,
    BatchedArrayBackend,
    BatchedArrayContext,
    ExecutionBackend,
    GeneratorBackend,
    int_payload_bits,
    resolve_backend,
    run_program_batched,
)
from repro.distributed.message import bit_size
from repro.distributed.models import (
    CONGEST,
    LOCAL,
    CongestViolation,
    Model,
    congest_log_degree,
    congest_with_bound,
)
from repro.distributed.metrics import LcaProbeStats
from repro.distributed.network import Network, RunResult
from repro.distributed.node import Node

__all__ = [
    "bit_size",
    "BACKENDS",
    "BatchedArrayBackend",
    "BatchedArrayContext",
    "ExecutionBackend",
    "GeneratorBackend",
    "int_payload_bits",
    "resolve_backend",
    "run_program_batched",
    "CONGEST",
    "LOCAL",
    "CongestViolation",
    "Model",
    "congest_log_degree",
    "congest_with_bound",
    "LcaProbeStats",
    "Network",
    "RunResult",
    "Node",
]
