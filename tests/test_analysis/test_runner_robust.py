"""Crash-safe sweeps: error capture, retries, timeouts, resume (ISSUE 10).

The pre-fix ``ParallelRunner._map`` dispatched with ``pool.imap``, so
the first worker exception propagated into the parent and killed every
other in-flight cell — a 4-hour sweep died with the one bad cell's
traceback and nothing on disk.  These tests pin the repaired contract:
failures become per-cell error records, the sweep finishes, artifacts
are sealed with a ``_summary`` row (atomically, fsync'd), partial
artifacts are detected on load, and ``resume=True`` re-runs only the
failed/missing cells.

The cell functions live at module level because the >1-worker path
pickles them into the pool.
"""

import json
import math
import os
import threading
import time

import pytest

from repro.analysis import (
    ExperimentResult,
    ParallelRunner,
    PartialArtifactError,
    load_artifact,
)

POINTS = [{"n": 10}, {"n": 20}, {"n": 30}, {"n": 40}]


def measure_point(seed: int, n: int) -> dict[str, float]:
    return {"v": float(n + seed), "seed": float(seed)}


def fail_on_20(seed: int, n: int) -> dict[str, float]:
    if n == 20:
        raise ValueError(f"cell {n} is cursed")
    return measure_point(seed, n)


def fail_if_marker(seed: int, n: int, marker: str) -> dict[str, float]:
    if n == 20 and os.path.exists(marker):
        raise ValueError("marker present")
    return {"v": float(n + seed)}


def tallied(seed: int, n: int, tally: str) -> dict[str, float]:
    with open(tally, "a") as f:
        f.write(f"{n},{seed}\n")
    return {"v": float(n + seed)}


def interrupt_on_30(seed: int, n: int) -> dict[str, float]:
    if n == 30:
        raise KeyboardInterrupt
    return measure_point(seed, n)


def slow_on_20(seed: int, n: int) -> dict[str, float]:
    if n == 20:
        time.sleep(10)
    return measure_point(seed, n)


def _dump(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


class TestErrorCapture:
    def test_one_bad_cell_does_not_abort_the_sweep(self):
        res = ParallelRunner(workers=1).sweep(fail_on_20, POINTS, seeds=[1, 2])
        assert [c.params["n"] for c in res] == [10, 20, 30, 40]
        assert res[1].error is not None and "ValueError" in res[1].error
        assert "cursed" in res[1].error
        assert res[1].records == []  # nothing salvaged from the bad cell
        for c in (res[0], res[2], res[3]):
            assert c.error is None and len(c.records) == 2

    def test_error_cells_identical_across_worker_counts(self, parallel_workers):
        one = ParallelRunner(workers=1).sweep(fail_on_20, POINTS, seeds=[1])
        many = ParallelRunner(workers=parallel_workers).sweep(
            fail_on_20, POINTS, seeds=[1]
        )
        assert _dump(one) == _dump(many)

    def test_error_round_trips_through_dict(self):
        cell = ExperimentResult({"n": 1}, [], error="ValueError: boom")
        assert ExperimentResult.from_dict(cell.to_dict()) == cell
        # Clean cells serialize without the key (artifact-byte compat).
        assert "error" not in ExperimentResult({"n": 1}, []).to_dict()

    def test_repeat_still_raises_the_original_exception(self):
        def bad(seed):
            raise KeyError("nope")

        with pytest.raises(KeyError):
            ParallelRunner(workers=1).repeat(bad, range(3))


class TestRetries:
    def test_transient_failure_recovers_within_max_retries(self):
        calls = {"n": 0}

        def flaky(seed, n):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return {"v": 1.0}

        res = ParallelRunner(
            workers=1, max_retries=2, retry_backoff=0.0
        ).sweep(flaky, [{"n": 1}], seeds=[0])
        assert res[0].error is None and calls["n"] == 3

    def test_exhausted_retries_record_the_error(self):
        calls = {"n": 0}

        def always_bad(seed, n):
            calls["n"] += 1
            raise RuntimeError("permanent")

        res = ParallelRunner(
            workers=1, max_retries=2, retry_backoff=0.0
        ).sweep(always_bad, [{"n": 1}], seeds=[0])
        assert res[0].error is not None and "permanent" in res[0].error
        assert calls["n"] == 3  # initial attempt + 2 retries

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=1, max_retries=-1)

    @pytest.mark.parametrize("backoff", [-0.5, math.nan, math.inf])
    def test_bad_backoff_rejected(self, backoff):
        # time.sleep would raise on it only when a retry comes due.
        with pytest.raises(ValueError, match="retry_backoff"):
            ParallelRunner(workers=2, max_retries=1, retry_backoff=backoff)


class TestTimeout:
    @pytest.mark.parametrize("timeout", [-1.0, 0.0, math.nan, math.inf, 1e300])
    def test_bad_timeout_rejected(self, timeout):
        # Each once failed every pool-mode cell (negative, zero and NaN
        # as instant timeouts, the huge ones as OverflowError).
        with pytest.raises(ValueError, match="timeout"):
            ParallelRunner(workers=2, timeout=timeout)

    def test_largest_timeout_accepted(self):
        res = ParallelRunner(workers=2, timeout=threading.TIMEOUT_MAX).sweep(
            measure_point, POINTS[:2], seeds=[0]
        )
        assert [r.error for r in res] == [None, None]

    def test_overdue_cell_becomes_error_record(self):
        res = ParallelRunner(workers=2, timeout=1.5).sweep(
            slow_on_20, POINTS[:2], seeds=[0]
        )
        assert res[0].error is None
        assert res[1].error is not None and "Timeout" in res[1].error


class TestArtifactSealing:
    def test_summary_row_closes_the_artifact(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ParallelRunner(workers=1).sweep(
            measure_point, POINTS, seeds=[1], artifact=str(path)
        )
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[-1]["_summary"] == {
            "cells": 4, "written": 4, "errors": 0, "complete": True,
        }
        assert not os.path.exists(str(path) + ".tmp")  # renamed away

    def test_summary_counts_error_cells(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ParallelRunner(workers=1).sweep(
            fail_on_20, POINTS, seeds=[1], artifact=str(path)
        )
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[-1]["_summary"]["errors"] == 1
        assert rows[-1]["_summary"]["complete"] is True

    def test_load_rejects_artifact_without_summary(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text('{"params": {"n": 1}, "records": [{"v": 1.0}]}\n')
        with pytest.raises(PartialArtifactError, match="no _summary"):
            load_artifact(path)
        cells = load_artifact(path, allow_partial=True)
        assert len(cells) == 1 and cells[0].params == {"n": 1}

    def test_load_rejects_interrupted_artifact(self, tmp_path):
        path = tmp_path / "interrupted.jsonl"
        path.write_text(
            '{"params": {"n": 1}, "records": []}\n'
            '{"_summary": {"cells": 3, "written": 1, "errors": 0, '
            '"complete": false}}\n'
        )
        with pytest.raises(PartialArtifactError, match="1/3"):
            load_artifact(path)
        assert len(load_artifact(path, allow_partial=True)) == 1


class TestResume:
    def test_resume_reruns_only_failed_and_missing_cells(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        marker = tmp_path / "marker"
        marker.touch()
        first = ParallelRunner(workers=1).sweep(
            fail_if_marker, POINTS, seeds=[1, 2],
            common={"marker": str(marker)}, artifact=str(art),
        )
        assert first[1].error is not None
        marker.unlink()  # "fix the bug", then resume
        second = ParallelRunner(workers=1).sweep(
            fail_if_marker, POINTS, seeds=[1, 2],
            common={"marker": str(marker)}, artifact=str(art), resume=True,
        )
        assert all(c.error is None for c in second)
        # Clean cells were reused verbatim, not recomputed.
        assert [c.records for c in second][0] == first[0].records
        # The sealed artifact round-trips as a complete sweep.
        assert _dump(load_artifact(art)) == _dump(second)

    def test_resume_skips_completed_cells_entirely(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        tally = tmp_path / "tally.txt"
        common = {"tally": str(tally)}
        ParallelRunner(workers=1).sweep(
            tallied, POINTS, seeds=[1], common=common, artifact=str(art)
        )
        assert len(tally.read_text().splitlines()) == len(POINTS)
        ParallelRunner(workers=1).sweep(
            tallied, POINTS, seeds=[1], common=common, artifact=str(art),
            resume=True,
        )
        # No cell ran again: the tally did not grow.
        assert len(tally.read_text().splitlines()) == len(POINTS)

    def test_resume_without_existing_artifact_runs_everything(self, tmp_path):
        art = tmp_path / "fresh.jsonl"
        res = ParallelRunner(workers=1).sweep(
            measure_point, POINTS, seeds=[1], artifact=str(art), resume=True
        )
        assert len(res) == len(POINTS)
        assert _dump(load_artifact(art)) == _dump(res)

    def test_resumed_artifact_matches_uninterrupted_run(self, tmp_path):
        """Resume must not perturb artifact bytes vs a clean one-shot run."""
        clean = tmp_path / "clean.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        ParallelRunner(workers=1).sweep(
            measure_point, POINTS, seeds=[3], artifact=str(clean)
        )
        ParallelRunner(workers=1).sweep(
            measure_point, POINTS[:2], seeds=[3], artifact=str(resumed)
        )
        # Rewrite the half artifact as "interrupted" (no summary), then
        # resume over the full point list.
        rows = [l for l in resumed.read_text().splitlines()
                if "_summary" not in l]
        resumed.write_text("\n".join(rows) + "\n")
        ParallelRunner(workers=1).sweep(
            measure_point, POINTS, seeds=[3], artifact=str(resumed),
            resume=True,
        )
        assert clean.read_bytes() == resumed.read_bytes()


class TestKeyboardInterrupt:
    def test_interrupt_seals_partial_artifact_and_reraises(self, tmp_path):
        art = tmp_path / "sweep.jsonl"
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(workers=1).sweep(
                interrupt_on_30, POINTS, seeds=[1], artifact=str(art)
            )
        # The partial marker was flushed and the tmp renamed into place.
        assert art.exists() and not os.path.exists(str(art) + ".tmp")
        with pytest.raises(PartialArtifactError):
            load_artifact(art)
        cells = load_artifact(art, allow_partial=True)
        assert [c.params["n"] for c in cells] == [10, 20]
        # And the sweep is resumable to completion afterwards.
        res = ParallelRunner(workers=1).sweep(
            measure_point, POINTS, seeds=[1], artifact=str(art), resume=True
        )
        assert len(load_artifact(art)) == len(res) == len(POINTS)
