"""Experiment harness: sweep running, statistics, table rendering.

Shared by every benchmark in ``benchmarks/`` so the printed
claim-vs-measured tables all look alike.  :class:`ParallelRunner`
fans sweep cells out over processes with deterministic per-cell
seeding; :mod:`repro.analysis.scenarios` pins the algorithm × graph-
family matrix the "for all graphs" theorems are spot-checked on.
"""

from repro.analysis.runner import (
    ExperimentResult,
    ParallelRunner,
    PartialArtifactError,
    cell_seeds,
    load_artifact,
)
from repro.analysis.scenarios import (
    ALGORITHMS,
    SCENARIOS,
    build_scenario,
    run_scenario_cell,
    scenario_matrix,
    scenario_table,
)
from repro.analysis.lca_curves import (
    crossover_queries,
    lca_query_curve,
    serve_queries,
)
from repro.analysis.stats import (
    doubling_ratios,
    log_fit,
    mean_ci,
)
from repro.analysis.switch_curves import batched_load_curve, batched_point
from repro.analysis.tables import format_table, print_banner

__all__ = [
    "ExperimentResult",
    "ParallelRunner",
    "PartialArtifactError",
    "cell_seeds",
    "load_artifact",
    "ALGORITHMS",
    "SCENARIOS",
    "build_scenario",
    "run_scenario_cell",
    "scenario_matrix",
    "scenario_table",
    "crossover_queries",
    "lca_query_curve",
    "serve_queries",
    "doubling_ratios",
    "log_fit",
    "mean_ci",
    "batched_load_curve",
    "batched_point",
    "format_table",
    "print_banner",
]
