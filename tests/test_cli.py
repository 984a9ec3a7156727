"""Tests for the command-line interface."""

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.core import generic_mcm
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

    def test_generic_tiny_p(self, capsys):
        # gnp_random's float gaps pass 2^63 here; the stream must end.
        assert main(["generic", "--p", "1e-300"]) == 0
        assert "0 edges" in capsys.readouterr().out

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

    def test_lca_rejects_bad_args(self, capsys):
        assert main(["lca", "--queries", "0"]) == 1
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

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["weighted", "--eps", "0"], "--eps"),
            (["weighted", "--eps", "1.5"], "--eps"),
            (["generic", "--k", "0"], "--k"),
            (["bipartite", "--k", "0"], "--k"),
            # Algorithm 4 needs k >= 3
            (["general", "--k", "2"], "--k"),
            # once an edgeless graph, silently
            (["bipartite", "--p", "-1"], "--p"),
            (["bipartite", "--p", "2.0"], "--p"),
            (["bipartite", "--p", "nan"], "--p"),
            (["general", "--p", "1.5"], "--p"),
            (["baselines", "--n", "-3"], "--n"),
        ],
    )
    def test_matching_commands_reject_bad_args(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("spec,name", [
        ("delay=100000000000000000000", "delay"),
        ("crash_window=100000000000000000000,crash=1", "crash_window"),
        ("crash=1,crashes=3", "crashes"),
        ("seed=-1,loss=0.1", "seed"),
    ])
    def test_baselines_rejects_bad_fault_spec(self, capsys, spec, name):
        assert main(["baselines", "--n", "20", "--faults", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --faults spec: ") and name in err

    def test_switch_seed_batch_rejects_nonpositive(self, capsys):
        assert main(["switch", "--ports", "6", "--slots", "50",
                     "--seed-batch", "0"]) == 1
        assert "--seed-batch" in capsys.readouterr().err

    def test_generic_builds_no_views(self, monkeypatch, capsys):
        # The command prints counters only: the per-node view frozensets
        # would cost more than the rest of the run.
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return generic_mcm(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "generic_mcm", spy)
        assert main(["generic", "--n", "18", "--k", "2"]) == 0
        assert [c.get("keep_views") for c in calls] == [False]

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

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e300"])
    def test_scenarios_rejects_bad_timeout(self, capsys, value):
        # Once accepted: with a pool every cell failed on it, without
        # one it was silently ignored.
        assert main([
            "scenarios", "--size", "12", "--repeats", "1", "--family",
            "comb", "--algo", "generic_mcm", "--timeout", value,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --timeout")

    @pytest.mark.parametrize("flags,msg", [
        (["--workers", "0"], "--workers must be >= 1, got 0"),
        (["--repeats", "0"], "--repeats must be >= 1, got 0"),
        (["--size", "7"], "--size must be >= 8, got 7"),
        (["--max-retries", "-1"], "--max-retries must be >= 0, got -1"),
        (["--resume"], "--resume needs --out (the artifact to resume from)"),
    ])
    def test_scenarios_rejects_bad_flags(self, capsys, flags, msg):
        assert main(["scenarios", *flags]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_scenarios_unknown_family(self, capsys):
        assert main(["scenarios", "--family", "bogus"]) == 1
        assert "unknown family" in capsys.readouterr().err

    def test_scenarios_unknown_algo(self, capsys):
        assert main(["scenarios", "--algo", "bogus"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err


def _run_spied(monkeypatch, capsys, argv, names, backend=None):
    """``main(argv)``'s exit code and stdout, and the backend of each call.

    ``names`` are the engine-taking library functions the command calls
    through ``repro.cli``; ``backend``, when given, replaces the one the
    command passes them.
    """
    used = []
    with monkeypatch.context() as mp:
        for name in names:
            real = getattr(repro.cli, name)

            def spy(*args, _real=real, **kwargs):
                if backend is not None:
                    kwargs["backend"] = backend
                used.append(kwargs.get("backend"))
                return _real(*args, **kwargs)

            mp.setattr(repro.cli, name, spy)
        code = main(argv)
    return code, capsys.readouterr().out, used


BASELINE_CALLS = ["israeli_itai_matching", "lps_mwm", "lps_interleaved_mwm"]


class TestArrayProgramsMatchTheReference:
    """Each command runs the array programs and prints what the
    generator reference prints for the same seed."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("argv,names", [
        (["generic", "--n", "24"], ["generic_mcm"]),
        (["weighted", "--n", "30"], ["weighted_mwm"]),
        (["baselines", "--n", "40"], BASELINE_CALLS),
        (["baselines", "--n", "40", "--faults", "loss=0.005,crash=2,link=2"],
         ["israeli_itai_matching"]),
    ])
    def test_stdout_equals_the_generator_run(
        self, monkeypatch, capsys, argv, names, seed
    ):
        argv = [*argv, "--seed", str(seed)]
        code, out, used = _run_spied(monkeypatch, capsys, argv, names)
        assert code == 0 and used == ["array"] * len(names)
        assert (code, out) == _run_spied(
            monkeypatch, capsys, argv, names, backend="generator"
        )[:2]

    def test_weighted_file_equals_the_generator_run(
        self, tmp_path, monkeypatch, capsys
    ):
        p = tmp_path / "gw.txt"
        write_edgelist(
            assign_uniform_weights(gnp_random(30, 0.15, seed=3), seed=3), p
        )
        argv = ["file", str(p), "--algo", "weighted", "--seed", "2"]
        code, out, used = _run_spied(monkeypatch, capsys, argv, ["weighted_mwm"])
        assert code == 0 and used == ["array"]
        assert "weighted_mwm" in out
        assert (code, out) == _run_spied(
            monkeypatch, capsys, argv, ["weighted_mwm"], backend="generator"
        )[:2]

    def test_delay_plan_runs_on_the_generator(self, monkeypatch, capsys):
        # The array programs cannot represent a delayed message.  (Most
        # delayed runs stall: a late announcement is never read.  This
        # graph's run ends.)
        code, out, used = _run_spied(
            monkeypatch, capsys,
            ["baselines", "--n", "20", "--p", "0.05", "--seed", "1",
             "--faults", "delay=1"],
            ["israeli_itai_matching"],
        )
        assert code == 0 and used == ["generator"]
        assert "faults injected: 0 dropped, 30 delayed," in out


@pytest.mark.parametrize(
    "command",
    ["bipartite", "general", "generic", "weighted", "baselines", "switch",
     "scenarios", "lca", "report", "file"],
)
def test_negative_seed_is_an_error_line(tmp_path, capsys, command):
    # Every command once crashed on it (or, for scenarios, failed every
    # cell) instead of naming the flag.
    path = tmp_path / "g.txt"
    write_edgelist(gnp_random(10, 0.3, seed=1), path)
    flags = {
        "switch": ["--ports", "4", "--slots", "10"],
        "scenarios": ["--size", "12", "--repeats", "1", "--family", "comb",
                      "--algo", "generic_mcm"],
        "lca": ["--n", "50", "--queries", "10"],
        "report": ["--out", str(tmp_path / "report.md")],
        "file": [str(path)],
    }.get(command, ["--n", "10"])
    assert main([command, *flags, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "target,argv",
    [
        ("repro.cli.gnp_random",
         ["lca", "--n", "1000000000000", "--p", "0", "--queries", "1"]),
        ("repro.cli.gnp_random", ["generic", "--n", "1000000000000"]),
        ("repro.cli.gnp_random", ["baselines", "--n", "1000000000000"]),
        ("repro.switch.run_switch_vectorized",
         ["switch", "--ports", "1000000", "--slots", "10"]),
    ],
)
def test_out_of_memory_is_an_error_line(capsys, monkeypatch, target, argv):
    # The graph generator or the switch engine is stubbed to fail as a
    # too-large NumPy allocation does, so the test allocates nothing.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(target, no_memory)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.28 TiB\n"
    )


@pytest.mark.parametrize("command,what", [
    ("generic", "gnp_random(n=1000000000000, p=0.1)"),
    ("bipartite", "the dense draw of bipartite_random(nx=1000000000000, "),
])
def test_oversized_generator_fails_before_drawing(capsys, monkeypatch,
                                                   command, what):
    # These once drew edge chunks until the host ran out of memory, or
    # ended in NumPy's "array is too big" traceback.
    monkeypatch.setattr("repro.graphs.generators.physical_memory_bytes",
                        lambda: 8 * 2**30)
    assert main([command, "--n", "1000000000000"]) == 1
    assert capsys.readouterr().err.startswith(f"error: out of memory: {what}")


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

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_general_rejects_k_below_3(self, tmp_path, capsys, k):
        # Once silently ran k=3; `general --k` fails the same way.
        p = tmp_path / "g.txt"
        write_edgelist(gnp_random(16, 0.2, seed=1), p)
        assert main(["file", str(p), "--algo", "general", "--k", k]) == 1
        assert capsys.readouterr().err == f"error: --k must be >= 3, got {k}\n"

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

    @pytest.mark.parametrize(
        "text,expect",
        [
            ("n\n", ":1: "),
            ("n 3 7\n", ":1: "),
            ("n abc\n", ":1: "),
            ("n 3\ne 0 x\n", ":2: "),
            ("n 3\ne 0 1 nan\n", "non-finite"),
            ("n 3\ne 0 1 inf\n", "non-finite"),
            ("n 3\ne 0 99999999999999999999\n",
             "endpoint 99999999999999999999 out of range for n=3"),
            ("n 3\ne -9223372036854775809 1\n", "out of range for n=3"),
        ],
    )
    def test_bad_file_is_an_error_line(self, tmp_path, capsys, text, expect):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert main(["file", str(p), "--algo", "weighted"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}") and expect in err

    @pytest.mark.parametrize("text", [
        "n 9223372036854775808\n",
        "n 100000000000000000000\ne 0 1\n",
    ])
    def test_vertex_count_beyond_int64_is_an_error_line(
        self, tmp_path, capsys, text
    ):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert main(["file", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: vertex count ")
        assert "int64 index range" in err

    def test_unallocatable_graph_is_an_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        # Graph is stubbed to fail as an 8 TiB allocation would, so the
        # test allocates nothing.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr("repro.graphs.io.Graph", no_memory)
        p = tmp_path / "big.txt"
        p.write_text("n 1099511627776\n")
        assert main(["file", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: no memory for a graph with n=")

    def test_undecodable_file_is_an_error_line(self, tmp_path, capsys):
        # A non-UTF-8 byte used to print the decoder's message alone,
        # without the file or the line.
        p = tmp_path / "bad.txt"
        p.write_bytes(b"n 3\n# ok\ne 0 1\xff\n")
        assert main(["file", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}:3: byte 0xff is not UTF-8 text")

    def test_missing_file_is_an_error_line(self, tmp_path, capsys):
        assert main(["file", str(tmp_path / "absent.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
