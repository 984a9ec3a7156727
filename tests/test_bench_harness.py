"""The shared bench harness and the committed bench artifacts.

``benchmarks/harness.py`` owns the CLI, the exit-2 gate report and the
cell lookup of every ``bench_s*.py`` perf script; these tests pin that
contract with stub benches, and pin every committed
``benchmarks/results/s*.json`` to its own script's ``gate``.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: Every harness-driven bench; ``results/<name>.json`` is its full run.
BENCHES = [
    "s3_backends",
    "s4_batched",
    "s5_weighted",
    "s6_switch",
    "s7_scale",
    "s8_switch_batched",
    "s9_lca",
    "s10_faults",
]


@pytest.fixture
def load(monkeypatch):
    """Import a module from ``benchmarks/`` by name."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module


@pytest.fixture
def harness(load):
    return load("harness")


def _run(quick):
    return {"quick": quick,
            "cells": [{"workload": "a", "n": 1, "speedup": 2.0},
                      {"workload": "a", "n": 1, "speedup": 3.0}]}


def _never(data):
    raise AssertionError("gate called without --check")


def test_failing_gate_exits_2_with_one_line_per_failure(harness, capsys):
    code = harness.main("doc", _run, lambda d: None,
                        lambda d: ["too slow", "too fat"], ["--check"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "FAIL: too slow", "FAIL: too fat"
    ]


def test_missing_gate_cell_exits_2_naming_the_key(harness, capsys):
    def gate(data):
        harness.find_cell(data, workload="a", n=7)
        return []

    assert harness.main("doc", _run, lambda d: None, gate, ["--check"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "FAIL: no cell with workload='a', n=7 in this run"
    ]


def test_passing_gate_exits_0(harness, capsys):
    def gate(data):
        assert harness.find_cell(data, workload="a", n=1)["speedup"] == 2.0
        return []

    assert harness.main("doc", _run, lambda d: None, gate, ["--check"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "check ok" and err == ""


def test_out_holds_the_data_show_received(harness, tmp_path):
    shown = []
    path = tmp_path / "run.json"
    code = harness.main("doc", _run, shown.append, _never,
                        ["--quick", "--out", str(path)])
    assert code == 0
    assert shown == [json.loads(path.read_text())]
    assert shown[0]["quick"] is True


@pytest.mark.parametrize("name", BENCHES)
def test_committed_result_passes_its_gate(load, name):
    bench = load(f"bench_{name}")
    data = json.loads((BENCH_DIR / "results" / f"{name}.json").read_text())
    assert bench.gate(data) == []
