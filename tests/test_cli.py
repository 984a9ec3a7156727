"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graphs import Graph, gnp_random, write_edgelist
from repro.graphs.weights import assign_uniform_weights


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["bipartite"])
        assert args.n == 60 and args.k == 3 and args.seed == 0

    def test_overrides(self):
        args = build_parser().parse_args(
            ["weighted", "--n", "33", "--eps", "0.2", "--seed", "9"]
        )
        assert args.n == 33 and args.eps == 0.2 and args.seed == 9


class TestCommands:
    def test_bipartite(self, capsys):
        assert main(["bipartite", "--n", "20", "--p", "0.15", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "Thm 3.8" in out and "ratio" in out

    def test_general(self, capsys):
        assert main(["general", "--n", "24", "--p", "0.12", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Thm 3.11" in out and "samples" in out

    def test_generic(self, capsys):
        assert main(["generic", "--n", "16", "--p", "0.15", "--k", "2"]) == 0
        assert "conflict graph" in capsys.readouterr().out

    def test_weighted(self, capsys):
        assert main(["weighted", "--n", "20", "--p", "0.2"]) == 0
        assert "Thm 4.5" in capsys.readouterr().out

    def test_baselines(self, capsys):
        assert main(["baselines", "--n", "25", "--p", "0.15"]) == 0
        out = capsys.readouterr().out
        for name in ("Israeli-Itai", "LPS", "Hoepman", "greedy"):
            assert name in out

    @pytest.mark.parametrize(
        "argv",
        [["baselines", "--n", "5", "--p", "0"], ["baselines", "--n", "1"]],
    )
    def test_baselines_edgeless(self, capsys, argv):
        # A zero optimum reports ratio 1.0, like _print_result.
        assert main(argv) == 0
        assert "0 edges" in capsys.readouterr().out

    def test_switch(self, capsys):
        assert main(["switch", "--ports", "6", "--load", "0.7", "--slots", "200"]) == 0
        out = capsys.readouterr().out
        assert "PIM" in out and "iSLIP" in out

    def test_switch_seed_batch(self, capsys):
        assert main(["switch", "--ports", "6", "--load", "0.7",
                     "--slots", "200", "--seed-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 seed lanes" in out and "mean ± 95% CI" in out
        assert "PIM" in out and "±" in out

    def test_lca(self, capsys):
        assert main(["lca", "--n", "200", "--p", "0.03",
                     "--queries", "300", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "queries/sec" in out and "mean probes/query" in out
        assert "consistency vs global oracle: OK" in out

    def test_lca_no_cache(self, capsys):
        assert main(["lca", "--n", "100", "--p", "0.05",
                     "--queries", "150", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache off" in out and "cache hit rate" in out

    def test_lca_rejects_bad_args(self, capsys):
        assert main(["lca", "--queries", "0"]) == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert main(["lca", "--max-entries", "0"]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--n", "-5"], "--n"),
            # an empty graph would serve none of its --queries
            (["--n", "0"], "--n"),
            (["--p", "1.5"], "--p"),
            (["--p", "-0.1"], "--p"),
            (["--p", "nan"], "--p"),
        ],
    )
    def test_lca_rejects_bad_graph_args(self, capsys, flags, flag):
        assert main(["lca", "--queries", "10", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--slots", "-5"], "--slots"),
            (["--ports", "0"], "--ports"),
            (["--load", "1.5"], "--load"),
            (["--load", "-0.1"], "--load"),
            (["--k", "0"], "--k"),
            # above max_feasible_bursty_load(16) = 0.941: the model's
            # own ValueError becomes an error line, not a traceback
            (["--traffic", "bursty", "--load", "0.95"], "max feasible"),
        ],
    )
    def test_switch_rejects_bad_args(self, capsys, flags, flag):
        assert main(["switch", "--ports", "6", "--slots", "50", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    def test_switch_seed_batch_rejects_nonpositive(self, capsys):
        assert main(["switch", "--ports", "6", "--slots", "50",
                     "--seed-batch", "0"]) == 1
        assert "--seed-batch" in capsys.readouterr().err

    def test_generic_array_backend(self, capsys):
        assert main(["generic", "--n", "18", "--k", "2",
                     "--backend", "array"]) == 0
        out = capsys.readouterr().out
        assert "array backend" in out and "generic_mcm" in out

    def test_generic_backends_agree(self, capsys):
        assert main(["generic", "--n", "18", "--k", "2"]) == 0
        gen_out = capsys.readouterr().out
        assert main(["generic", "--n", "18", "--k", "2",
                     "--backend", "array"]) == 0
        arr_out = capsys.readouterr().out
        # Identical ratio and distributed cost lines, only the banner differs.
        assert gen_out.splitlines()[1:] == arr_out.splitlines()[1:]

    def test_baselines_array_backend(self, capsys):
        assert main(["baselines", "--n", "30", "--p", "0.1",
                     "--backend", "array"]) == 0
        assert "Israeli-Itai" in capsys.readouterr().out

    def test_scenarios_array_backend(self, capsys):
        assert main([
            "scenarios", "--size", "12", "--repeats", "1",
            "--family", "comb", "--algo", "generic_mcm",
            "--backend", "array",
        ]) == 0
        assert "NO" not in capsys.readouterr().out

    def test_scenarios_subset(self, capsys):
        assert main([
            "scenarios", "--size", "12", "--repeats", "1",
            "--family", "comb", "--family", "barabasi_albert",
            "--algo", "generic_mcm",
        ]) == 0
        out = capsys.readouterr().out
        assert "comb" in out and "barabasi_albert" in out
        assert "NO" not in out

    def test_scenarios_artifact(self, tmp_path, capsys):
        path = tmp_path / "cells.jsonl"
        assert main([
            "scenarios", "--size", "12", "--repeats", "1",
            "--family", "gnp", "--algo", "general_mcm", "--out", str(path),
        ]) == 0
        # One row per cell plus the trailing _summary sealing row.
        assert path.exists() and path.read_text().count("\n") == 2
        assert '"_summary"' in path.read_text().splitlines()[-1]
        assert str(path) in capsys.readouterr().out

    def test_scenarios_unknown_family(self, capsys):
        assert main(["scenarios", "--family", "bogus"]) == 1
        assert "unknown family" in capsys.readouterr().err

    def test_scenarios_unknown_algo(self, capsys):
        assert main(["scenarios", "--algo", "bogus"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err


class TestFileCommand:
    def test_general_on_file(self, tmp_path, capsys):
        g = gnp_random(16, 0.2, seed=1)
        p = tmp_path / "g.txt"
        write_edgelist(g, p)
        assert main(["file", str(p), "--algo", "general"]) == 0
        assert "general_mcm" in capsys.readouterr().out

    def test_bipartite_on_nonbipartite_file_errors(self, tmp_path, capsys):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        p = tmp_path / "tri.txt"
        write_edgelist(g, p)
        assert main(["file", str(p), "--algo", "bipartite"]) == 1
        assert "not bipartite" in capsys.readouterr().err

    def test_weighted_needs_weights(self, tmp_path, capsys):
        g = gnp_random(10, 0.3, seed=2)
        p = tmp_path / "g.txt"
        write_edgelist(g, p)
        assert main(["file", str(p), "--algo", "weighted"]) == 1
        assert "needs edge weights" in capsys.readouterr().err

    def test_weighted_on_file(self, tmp_path, capsys):
        g = assign_uniform_weights(gnp_random(14, 0.25, seed=3), seed=3)
        p = tmp_path / "gw.txt"
        write_edgelist(g, p)
        assert main(["file", str(p), "--algo", "weighted", "--eps", "0.2"]) == 0
        assert "weighted_mwm" in capsys.readouterr().out
