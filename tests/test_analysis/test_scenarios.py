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
from repro.core import generic_mcm

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


class TestBackendRouting:
    def test_array_backend_identical_records(self):
        # generic_mcm has an array port; values must not depend on it.
        gen = run_scenario_cell("comb", "generic_mcm", size=12, seed=1)
        arr = run_scenario_cell(
            "comb", "generic_mcm", size=12, seed=1, backend="array"
        )
        assert arr.pop("array_backend") == 1.0
        assert gen.pop("array_backend") == 0.0
        assert gen == arr

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

    def test_unported_algo_falls_back_to_generator(self):
        rec = run_scenario_cell(
            "gnp", "general_mcm", size=12, seed=0, backend="array"
        )
        assert rec["array_backend"] == 0.0
        assert rec["fallback_algo"] == "general_mcm"
        assert rec["ok"] == 1.0

    def test_weighted_rows_run_on_the_array_backend(self):
        # ISSUE 5: the weighted rows no longer fall back.
        for algo in ("weighted_mwm", "lps_mwm", "kopt_mwm"):
            rec = run_scenario_cell("gnp", algo, size=12, seed=0, backend="array")
            assert rec["array_backend"] == 1.0, algo
            assert "fallback_algo" not in rec, algo
            assert rec["ok"] == 1.0, algo
            ref = run_scenario_cell("gnp", algo, size=12, seed=0)
            assert rec["value"] == ref["value"] and rec["ratio"] == ref["ratio"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_scenario_cell("gnp", "generic_mcm", size=12, backend="nope")

    def test_matrix_records_backend_in_params(self):
        results = scenario_matrix(
            scenarios=["comb"], algos=["generic_mcm"], size=12,
            seeds=[0], workers=1, backend="array",
        )
        assert results[0].params["backend"] == "array"
        assert results[0].records[0]["ok"] == 1.0


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
