"""The shared bench harness and the committed bench artifacts.

``benchmarks/harness.py`` owns the CLI, the exit-2 gate report and the
cell lookup of every bench script; these tests pin that contract with
stub benches, pin every committed ``benchmarks/results/*.json`` to its
own script's ``gate``, and check that the claims gate recomputes its
rows instead of trusting them.
"""

from __future__ import annotations

import copy
import importlib
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: Every harness-driven bench; ``results/<name>.json`` is its full run.
BENCHES = [
    "claims",
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


@pytest.fixture(scope="module")
def committed_claims():
    return json.loads((BENCH_DIR / "results" / "claims.json").read_text())


def test_claims_gate_recomputes_each_row(load, committed_claims):
    # A gate that trusts the stored "ok" would pass this copy.
    data = copy.deepcopy(committed_claims)
    row = next(r for r in data["rows"]
               if r["claim"] == "E3" and r["quantity"] == "iterations used")
    assert row["op"] == "<=" and row["ok"] is True
    row["measured"] = row["bound"] + 1
    failures = load("bench_claims").gate(data)
    assert len(failures) == 1
    assert failures[0].startswith("E3 iterations used ")


def test_claims_gate_fails_a_claim_without_rows(load, committed_claims):
    # A gate that only loops over the rows present would pass this copy.
    data = copy.deepcopy(committed_claims)
    data["rows"] = [r for r in data["rows"] if r["claim"] != "F1"]
    assert load("bench_claims").gate(data) == ["F1: no rows in this run"]


def test_claims_gate_fails_a_missing_measurement(load, committed_claims):
    # E6's mean decay over no samples once read as 0.0 and passed.
    data = copy.deepcopy(committed_claims)
    row = next(r for r in data["rows"] if r["quantity"] == "mean gap decay")
    row["measured"] = None
    failures = load("bench_claims").gate(data)
    assert len(failures) == 1
    assert failures[0].startswith("E6 mean gap decay ")
