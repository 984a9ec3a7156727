"""Matching fundamentals: data structures, exact algorithms, baselines.

Everything here is *centralized* code: the :class:`Matching` structure
shared by all algorithms, augmenting-path machinery (Hopcroft–Karp
lemmas 3.4/3.5 of the paper), exact maximum-matching algorithms used as
oracles, and sequential greedy baselines.
"""

from repro.matching.matching import Matching
from repro.matching.augmenting import (
    apply_paths,
    augmenting_paths_maximal_set,
    find_augmenting_paths_upto,
    is_augmenting_path,
    shortest_augmenting_path_length,
)
from repro.matching.greedy import greedy_maximal_matching, greedy_mwm
from repro.matching.hopcroft_karp import hopcroft_karp, hopcroft_karp_truncated
from repro.matching.hungarian import hungarian_mwm, solve_assignment
from repro.matching.blossom import maximum_matching_blossom
from repro.matching.exact_mwm import exact_mwm_small, max_weight_matching
from repro.matching.oracle import maximum_matching_size, maximum_matching_weight
from repro.matching.certify import (
    certified_ratio_lower_bound,
    certify_maximum_bipartite,
    certify_no_short_augmenting_path,
    is_vertex_cover,
    konig_vertex_cover,
    verify_cover_certificate,
)

__all__ = [
    "Matching",
    "apply_paths",
    "augmenting_paths_maximal_set",
    "find_augmenting_paths_upto",
    "is_augmenting_path",
    "shortest_augmenting_path_length",
    "greedy_maximal_matching",
    "greedy_mwm",
    "hopcroft_karp",
    "hopcroft_karp_truncated",
    "hungarian_mwm",
    "solve_assignment",
    "maximum_matching_blossom",
    "exact_mwm_small",
    "max_weight_matching",
    "maximum_matching_size",
    "maximum_matching_weight",
    "certified_ratio_lower_bound",
    "certify_maximum_bipartite",
    "certify_no_short_augmenting_path",
    "is_vertex_cover",
    "konig_vertex_cover",
    "verify_cover_certificate",
]
