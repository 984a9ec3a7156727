"""The paper's contributions.

* :mod:`repro.core.conflict_graph` — Definition 3.1's conflict graph
  C_M(ℓ) plus local-view machinery for Algorithm 2;
* :mod:`repro.core.generic_mcm` — Algorithms 1 & 2, Theorem 3.1:
  (1−ε)-MCM in O(ε⁻³ log n) rounds with O(|V|+|E|)-bit messages;
* :mod:`repro.core.bipartite_mcm` — Section 3.2, Theorem 3.8:
  (1−1/k)-MCM for bipartite graphs in O(k³ log Δ + k² log n) rounds
  with small messages (Algorithm 3 + token MIS emulation);
* :mod:`repro.core.general_mcm` — Algorithm 4, Theorem 3.11:
  (1−1/k)-MCM for general graphs via random bipartitions;
* :mod:`repro.core.weighted_mwm` — Algorithm 5, Theorem 4.5:
  (½−ε)-MWM via the derived weight function w_M;
* :mod:`repro.core.figures` — the worked examples of Figures 1 and 2.
"""

from repro.core.conflict_graph import build_conflict_graph, local_view_paths
from repro.core.generic_mcm import generic_mcm, generic_mcm_reference
from repro.core.bipartite_mcm import (
    aug_bipartite,
    bipartite_mcm,
    count_augmenting_paths,
)
from repro.core.general_mcm import general_mcm, fidelity_iterations
from repro.core.weighted_mwm import (
    apply_wraps,
    apply_wraps_array,
    derived_weights,
    derived_weights_array,
    weighted_mwm,
    weighted_mwm_batched,
    weighted_mwm_reference,
    wrap_path,
)
from repro.core.kopt_mwm import (
    find_gain_augmentations,
    find_gain_augmentations_array,
    kopt_mwm,
)

__all__ = [
    "build_conflict_graph",
    "local_view_paths",
    "generic_mcm",
    "generic_mcm_reference",
    "aug_bipartite",
    "bipartite_mcm",
    "count_augmenting_paths",
    "general_mcm",
    "fidelity_iterations",
    "apply_wraps",
    "apply_wraps_array",
    "derived_weights",
    "derived_weights_array",
    "weighted_mwm",
    "weighted_mwm_batched",
    "weighted_mwm_reference",
    "wrap_path",
    "find_gain_augmentations",
    "find_gain_augmentations_array",
    "kopt_mwm",
]
