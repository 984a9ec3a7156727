"""Scenario matrix: cross-algorithm invariants on every new family.

For each new generator family, every core algorithm must return a
valid matching meeting its paper bound against the exact oracles —
``run_scenario_cell`` asserts validity internally and reports the
bound check as ``ok``.
"""

import pytest

from repro.analysis import (
    ALGORITHMS,
    SCENARIOS,
    build_scenario,
    run_scenario_cell,
    scenario_matrix,
    scenario_table,
)
from repro.baselines import lps_mwm
from repro.core import generic_mcm, kopt_mwm, weighted_mwm
from repro.graphs.weights import assign_uniform_weights

NEW_FAMILIES = [
    "barabasi_albert",
    "watts_strogatz",
    "powerlaw_config",
    "kronecker",
    "planted_matching",
    "lollipop",
]


class TestCatalog:
    def test_new_families_in_catalog(self):
        assert set(NEW_FAMILIES) <= set(SCENARIOS)

    def test_build_scenario_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("nope", 10, 0)

    def test_builders_deterministic(self):
        for name in SCENARIOS:
            a = build_scenario(name, 16, 5)
            b = build_scenario(name, 16, 5)
            assert a.edges() == b.edges(), name


@pytest.mark.parametrize("family", NEW_FAMILIES)
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
class TestCrossAlgorithmInvariants:
    def test_valid_matching_meets_paper_bound(self, family, algo):
        rec = run_scenario_cell(family, algo, size=14, seed=3)
        if "skipped" in rec:  # non-bipartite family under bipartite_mcm
            assert algo == "bipartite_mcm"
            return
        assert rec["value"] <= rec["opt"] + 1e-9
        assert rec["ok"] == 1.0, rec


#: The generator-backend library call each array-run cell must equal.
REFERENCE = {
    "generic_mcm": lambda g, seed: float(len(generic_mcm(
        g, k=2, seed=seed, backend="generator", keep_views=False
    )[0])),
    "weighted_mwm": lambda g, seed: weighted_mwm(
        assign_uniform_weights(g, seed=seed), eps=0.1, seed=seed,
        backend="generator",
    )[0].weight(),
    "lps_mwm": lambda g, seed: lps_mwm(
        assign_uniform_weights(g, seed=seed), seed=seed, backend="generator"
    )[0].weight(),
    "kopt_mwm": lambda g, seed: kopt_mwm(
        assign_uniform_weights(g, seed=seed), k=2, backend="generator"
    )[0].weight(),
}


class TestBackendRouting:
    def test_generic_cell_builds_no_views(self, monkeypatch):
        # The cell reads the matching only; views would be dead weight.
        import repro.analysis.scenarios as scenarios

        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return generic_mcm(*args, **kwargs)

        monkeypatch.setattr(scenarios, "generic_mcm", spy)
        run_scenario_cell("comb", "generic_mcm", size=12, seed=1)
        assert [c.get("keep_views") for c in calls] == [False]

    @pytest.mark.parametrize("family", ["gnp", "barabasi_albert"])
    @pytest.mark.parametrize("algo", sorted(REFERENCE))
    def test_array_program_equals_the_generator_reference(
        self, monkeypatch, family, algo
    ):
        import repro.analysis.scenarios as scenarios

        backends = []
        real = getattr(scenarios, algo)

        def spy(*args, **kwargs):
            backends.append(kwargs.get("backend"))
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios, algo, spy)
        for seed in (0, 1):
            rec = run_scenario_cell(family, algo, size=14, seed=seed)
            g = build_scenario(family, 14, seed)
            assert rec["value"] == REFERENCE[algo](g, seed), seed
            assert rec["ok"] == 1.0
        assert backends == ["array", "array"]


class TestMatrix:
    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_scenario_cell("gnp", "nope")

    def test_subset_matrix_and_table(self):
        results = scenario_matrix(
            scenarios=["comb", "planted_matching"],
            algos=["generic_mcm"],
            size=12,
            seeds=[0],
            workers=1,
        )
        assert len(results) == 2
        table = scenario_table(results)
        assert "comb" in table and "planted_matching" in table
        assert "NO" not in table

    def test_table_marks_inapplicable_cells(self):
        results = scenario_matrix(
            scenarios=["lollipop"],  # odd cycles: never bipartite
            algos=["bipartite_mcm"],
            size=12,
            seeds=[0],
            workers=1,
        )
        assert "n/a" in scenario_table(results)

    @pytest.mark.slow
    def test_full_matrix_all_cells_meet_bounds(self, parallel_workers):
        """Every algorithm × every family × multiple seeds (tier-2)."""
        results = scenario_matrix(
            size=24, seeds=[0, 1, 2], workers=parallel_workers
        )
        assert len(results) == len(SCENARIOS) * len(ALGORITHMS)
        for cell in results:
            for rec in cell.records:
                if "skipped" not in rec:
                    assert rec["ok"] == 1.0, (cell.params, rec)
