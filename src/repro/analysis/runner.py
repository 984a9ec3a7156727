"""Seeded repetition and parameter sweeps for experiments.

The workhorse is :class:`ParallelRunner`, which fans the cells of a
parameter sweep out over ``multiprocessing`` workers.  Determinism is
by construction: every cell is a pure function of its parameter point
and seed list, results are consumed in submission order, and per-cell
seeds are derived by spawning a ``SeedSequence`` per cell index — so
1 worker and N workers produce identical records, and a re-run with
the same root seed reproduces the sweep byte for byte.

Crash safety (ISSUE 10): a worker exception no longer aborts the whole
sweep.  Worker payloads travel back as ``("ok", records)`` /
``("error", message)`` pairs, failed cells land in the output with
:attr:`ExperimentResult.error` set (and their surviving records, if
any chunk succeeded), and the runner can retry failed tasks
(``max_retries`` with exponential backoff) and bound each task's wait
(``timeout``, pool mode only — an in-process call cannot be
interrupted).  :meth:`ParallelRunner.repeat` keeps its historical
contract instead: the original exception propagates (after retries).

Results can be streamed to a JSON-lines artifact as cells complete
(:meth:`ParallelRunner.sweep` with ``artifact=``): rows are written to
``<artifact>.tmp`` with an ``fsync`` per cell, a trailing ``_summary``
row marks the sweep complete (or interrupted), and the tmp file is
atomically renamed onto ``artifact`` — on ``KeyboardInterrupt`` too,
so a partial artifact is always a well-formed prefix plus a partial
marker.  ``sweep(..., resume=True)`` reads such an artifact back and
skips every error-free cell already present (keyed by the parameter
point), re-running only failed or missing cells.  :func:`load_artifact`
refuses partial artifacts unless told otherwise.

Seed batching (ISSUE 4): ``repeat``/``sweep`` accept ``seed_batch=k``,
which dispatches **one task per chunk of k seeds** (instead of one per
seed) to a *batch-aware* experiment function receiving the whole seed
list.  That is the seam through which seed-axis batched execution
(:class:`repro.distributed.backends.BatchedArrayBackend`) reaches the
harness: a batch-aware fn can run its chunk as one vectorized
execution, and a correct one returns records byte-identical to the
per-seed mode.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np


class PartialArtifactError(RuntimeError):
    """A sweep artifact is missing its ``_summary`` row (or marked
    incomplete): the sweep that wrote it was interrupted or is still
    running.  Load it with ``allow_partial=True`` or finish it with
    ``sweep(..., resume=True)``."""


@dataclass
class ExperimentResult:
    """One experiment cell: a parameter point and its per-seed records.

    ``error`` is ``None`` for a clean cell; a failed cell carries the
    worker's error message(s) here and keeps whatever records its
    successful chunks produced (possibly none).
    """

    params: dict[str, Any]
    records: list[dict[str, float]] = field(default_factory=list)
    error: str | None = None

    def column(self, key: str) -> list[float]:
        """All per-seed values of a measured quantity."""
        return [r[key] for r in self.records]

    def mean(self, key: str) -> float:
        """Mean of a measured quantity over seeds."""
        col = self.column(key)
        if not col:
            raise ValueError(
                f"cannot average {key!r}: cell {self.params!r} has no records"
            )
        return sum(col) / len(col)

    def min(self, key: str) -> float:
        """Minimum over seeds (for 'holds on every seed' claims)."""
        col = self.column(key)
        if not col:
            raise ValueError(
                f"cannot take min of {key!r}: cell {self.params!r} has no records"
            )
        return min(col)

    def max(self, key: str) -> float:
        """Maximum over seeds."""
        col = self.column(key)
        if not col:
            raise ValueError(
                f"cannot take max of {key!r}: cell {self.params!r} has no records"
            )
        return max(col)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`).

        ``error`` is emitted only when set, so clean cells serialize
        exactly as they did before the error field existed (artifact
        bytes are part of the determinism contract).
        """
        d: dict[str, Any] = {"params": self.params, "records": self.records}
        if self.error is not None:
            d["error"] = self.error
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExperimentResult":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(
            params=dict(d["params"]),
            records=list(d["records"]),
            error=d.get("error"),
        )


def cell_seeds(root_seed: int, n_cells: int, seeds_per_cell: int) -> list[list[int]]:
    """Deterministic per-cell seed lists via ``SeedSequence`` spawning.

    Cell ``i`` gets ``seeds_per_cell`` 32-bit seeds from the ``i``-th
    spawned child of ``SeedSequence(root_seed)`` — independent streams
    across cells, reproducible regardless of how cells are scheduled.
    """
    seq = np.random.SeedSequence(root_seed)
    return [
        [int(x) for x in child.generate_state(seeds_per_cell)]
        for child in seq.spawn(n_cells)
    ]


def _chunked(seq: Sequence, size: int) -> list[list]:
    """Split ``seq`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"seed_batch must be >= 1, got {size}")
    return [list(seq[i: i + size]) for i in range(0, len(seq), size)]


def _check_batch(recs, seeds) -> list[dict[str, float]]:
    """Validate a batch-aware fn's return: one record per seed."""
    recs = list(recs)
    if len(recs) != len(seeds):
        raise ValueError(
            f"batched experiment fn returned {len(recs)} record(s) "
            f"for {len(seeds)} seed(s)"
        )
    return recs


def _run_repeat_cell(job: tuple) -> list[dict[str, float]]:
    """Worker: ``fn(seed)`` for each seed of one repeat cell."""
    fn, seeds = job
    return [fn(s) for s in seeds]


def _run_repeat_batch(job: tuple) -> list[dict[str, float]]:
    """Worker: one batch-aware ``fn(seeds)`` call for a whole seed chunk."""
    fn, seeds = job
    return _check_batch(fn(list(seeds)), seeds)


def _run_sweep_cell(job: tuple) -> list[dict[str, float]]:
    """Worker: ``fn(seed=s, **point)`` for each seed of one sweep cell."""
    fn, point, seeds = job
    return [fn(seed=s, **point) for s in seeds]


def _run_sweep_chunk(job: tuple) -> list[dict[str, float]]:
    """Worker: one batch-aware ``fn(seeds=chunk, **point)`` call."""
    fn, point, chunk = job
    return _check_batch(fn(seeds=list(chunk), **point), chunk)


def _describe_error(exc: BaseException) -> str:
    """One-line error description with the innermost frame location."""
    tb = traceback.extract_tb(exc.__traceback__)
    loc = ""
    if tb:
        frame = tb[-1]
        loc = f" at {os.path.basename(frame.filename)}:{frame.lineno}"
    return f"{type(exc).__name__}: {exc}{loc}"


def _guarded(args: tuple) -> tuple[str, Any]:
    """Pool worker shim: never lets a task exception escape the worker.

    Returns ``("ok", records)`` or ``("error", message)`` so one bad
    cell cannot abort the whole sweep (the old ``pool.imap`` path
    propagated the first worker exception and killed every other
    in-flight cell with it).
    """
    worker, job = args
    try:
        return ("ok", worker(job))
    except KeyboardInterrupt:  # let pool teardown proceed
        raise
    except BaseException as exc:  # noqa: BLE001 — the whole point is capture
        return ("error", _describe_error(exc))


class ParallelRunner:
    """Fans experiment cells out over ``multiprocessing`` workers.

    Parameters
    ----------
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  With
        ``workers <= 1`` everything runs in-process (no pickling, so
        lambdas and closures are fine).  With more, the experiment
        function and its records must be picklable.
    max_retries:
        How many times to re-run a failed task before recording (in
        :meth:`sweep`) or raising (in :meth:`repeat`) the failure.
        Retries back off exponentially: ``retry_backoff * 2**attempt``
        seconds before attempt ``attempt + 1``.
    retry_backoff:
        Base of the exponential backoff, in seconds (finite, >= 0).
    timeout:
        Pool mode only: maximum seconds to wait for one task's result,
        in ``(0, threading.TIMEOUT_MAX]``; an overdue task counts as
        failed (and is retried like any other failure).  The in-process
        path cannot interrupt a running experiment function, so there
        the timeout is not enforced.

    Records are returned in cell submission order in both modes, so the
    worker count never changes the output — only the wall clock.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        timeout: float | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not (math.isfinite(retry_backoff) and retry_backoff >= 0):
            raise ValueError(
                f"retry_backoff must be finite and >= 0, got {retry_backoff}"
            )
        if timeout is not None and not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be None or in (0, {threading.TIMEOUT_MAX:g}] "
                f"seconds, got {timeout}"
            )
        self.workers = workers
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout

    # -- task dispatch -------------------------------------------------

    def _run_jobs(
        self,
        worker: Callable[[tuple], list[dict[str, float]]],
        jobs: list[tuple],
        capture: bool,
    ) -> Iterator[tuple[str, Any]]:
        """Run ``jobs``, yielding ``("ok", records)`` / ``("error", msg)``
        per job in submission order.

        With ``capture=False`` a job that still fails after
        ``max_retries`` re-raises its exception instead (the historical
        :meth:`repeat` contract, where error records make no sense).
        In pool mode every task is submitted up front via
        ``apply_async`` and collected in order, so a failure or timeout
        of one task never cancels the others; retries are resubmitted
        to the same pool.
        """
        if self.workers <= 1 or len(jobs) <= 1:
            for job in jobs:
                yield self._run_one_local(worker, job, capture)
            return
        with multiprocessing.Pool(min(self.workers, len(jobs))) as pool:
            pending = [
                pool.apply_async(_guarded, ((worker, job),)) for job in jobs
            ]
            for job, handle in zip(jobs, pending):
                attempt = 0
                while True:
                    try:
                        status, payload = handle.get(self.timeout)
                        exc: BaseException | None = None
                    except multiprocessing.TimeoutError:
                        status = "error"
                        payload = f"TimeoutError: no result within {self.timeout}s"
                        exc = None
                    except KeyboardInterrupt:
                        raise
                    except BaseException as e:  # unpicklable result, dead worker
                        status, payload, exc = "error", _describe_error(e), e
                    if status == "ok" or attempt >= self.max_retries:
                        break
                    time.sleep(self.retry_backoff * (2 ** attempt))
                    attempt += 1
                    handle = pool.apply_async(_guarded, ((worker, job),))
                if status == "error" and not capture:
                    raise exc if exc is not None else RuntimeError(payload)
                yield status, payload

    def _run_one_local(
        self, worker: Callable, job: tuple, capture: bool
    ) -> tuple[str, Any]:
        """In-process task execution with the same retry semantics."""
        attempt = 0
        while True:
            try:
                return ("ok", worker(job))
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # noqa: BLE001
                if attempt >= self.max_retries:
                    if not capture:
                        raise
                    return ("error", _describe_error(exc))
                time.sleep(self.retry_backoff * (2 ** attempt))
                attempt += 1

    # -- public API ----------------------------------------------------

    def repeat(
        self,
        fn: Callable[..., Any],
        seeds: Iterable[int],
        params: dict[str, Any] | None = None,
        seed_batch: int | None = None,
    ) -> ExperimentResult:
        """Run ``fn`` over seeds, split across workers.

        Without ``seed_batch`` (the classic mode), ``fn(seed)`` is one
        per-seed task.  With ``seed_batch=k``, seeds are chunked into
        groups of ``k`` and ``fn`` must be **batch-aware** —
        ``fn(seeds) -> list of records`` (one per seed, in order) — so
        each chunk is *one* process-level task and ``fn`` may execute
        the whole chunk as a single batched run (e.g.
        :func:`repro.baselines.luby_mis.luby_mis_batched`).  Records
        are identical to the per-seed mode for a correct batched fn;
        only the wall clock changes.

        A task failure propagates as an exception (after
        ``max_retries``); error *records* are a :meth:`sweep` concept.
        """
        seeds = list(seeds)
        res = ExperimentResult(params or {})
        if seed_batch is None:
            worker, jobs = _run_repeat_cell, [(fn, [s]) for s in seeds]
        else:
            worker = _run_repeat_batch
            jobs = [(fn, chunk) for chunk in _chunked(seeds, seed_batch)]
        for _status, recs in self._run_jobs(worker, jobs, capture=False):
            res.records.extend(recs)
        return res

    def sweep(
        self,
        fn: Callable[..., dict[str, float]],
        points: Iterable[dict[str, Any]],
        seeds: Iterable[int] | None = None,
        root_seed: int = 0,
        seeds_per_cell: int = 3,
        artifact: str | os.PathLike | None = None,
        common: dict[str, Any] | None = None,
        seed_batch: int | None = None,
        resume: bool = False,
    ) -> list[ExperimentResult]:
        """Full sweep: each parameter point is one cell, fanned out.

        ``fn`` is called as ``fn(seed=s, **point)``.  With explicit
        ``seeds`` every cell repeats over that same list (the classic
        :func:`sweep` semantics); with ``seeds=None`` each cell gets
        its own independent ``seeds_per_cell`` seeds via
        :func:`cell_seeds` spawned from ``root_seed``.

        ``common`` holds sweep-wide parameters merged into every point
        (a point's own value wins on collision) — how run-wide knobs
        like the execution ``backend`` ride through the fan-out and land
        in every cell's recorded ``params``.

        With ``seed_batch=k``, ``fn`` must be **batch-aware**: each
        cell's seeds are split into consecutive chunks of at most ``k``
        and every chunk is dispatched as its *own* process-level task
        calling ``fn(seeds=chunk, **point)`` once, returning one record
        per seed in order.  This hands the fn whole seed groups so it
        can execute them as a single batched run (seed-axis batching,
        ISSUE 4), while a many-seed cell still spreads its chunks
        across workers; a correct batched fn produces records identical
        to the per-seed mode.

        A failed task (exception or pool-mode timeout, after the
        runner's ``max_retries``) does **not** abort the sweep: its
        cell is returned with :attr:`ExperimentResult.error` set and
        whatever records its other chunks produced.  Callers decide
        whether errors are fatal (the CLI exits nonzero and prints a
        failed-cell summary).

        When ``artifact`` names a path, one JSON line per cell is
        streamed to ``<artifact>.tmp`` (``fsync``\\ ed per cell) as cells
        complete in submission order; a trailing ``_summary`` row and
        an atomic rename onto ``artifact`` seal the file — also on
        ``KeyboardInterrupt``, where the summary is marked incomplete,
        the pool is torn down cleanly, and the interrupt re-raises.  So
        a long sweep is inspectable mid-flight (tail the ``.tmp``) and
        recoverable afterwards: ``resume=True`` reads an existing
        ``artifact`` back and skips every error-free cell whose
        parameter point matches, re-running only failed and missing
        cells (skipped cells are re-emitted verbatim, so the finished
        artifact is complete and in submission order).
        """
        points = [{**(common or {}), **dict(p)} for p in points]
        if seeds is not None:
            seed_lists = [list(seeds)] * len(points)
        else:
            seed_lists = cell_seeds(root_seed, len(points), seeds_per_cell)

        done: dict[str, ExperimentResult] = {}
        if resume and artifact is not None and os.path.exists(artifact):
            for cell in load_artifact(artifact, allow_partial=True):
                if cell.error is None:  # failed cells re-run on resume
                    done[json.dumps(cell.params, sort_keys=True)] = cell

        keys = [json.dumps(p, sort_keys=True) for p in points]
        if seed_batch is None:
            worker = _run_sweep_cell
            cell_jobs = [
                [(fn, p, s)] if k not in done else []
                for p, s, k in zip(points, seed_lists, keys)
            ]
        else:
            worker = _run_sweep_chunk
            cell_jobs = []
            for p, s, k in zip(points, seed_lists, keys):
                if k in done:
                    cell_jobs.append([])
                    continue
                cell_jobs.append(
                    [(fn, p, chunk) for chunk in _chunked(s, seed_batch)]
                )
        jobs = [job for jl in cell_jobs for job in jl]

        out: list[ExperimentResult] = []
        n_errors = 0
        sink = tmp_path = None
        if artifact is not None:
            tmp_path = f"{os.fspath(artifact)}.tmp"
            sink = open(tmp_path, "w")

        def emit(cell: ExperimentResult) -> None:
            if sink is None:
                return
            json.dump(cell.to_dict(), sink, sort_keys=True)
            sink.write("\n")
            sink.flush()
            os.fsync(sink.fileno())

        results = self._run_jobs(worker, jobs, capture=True)
        try:
            for point, key, jl in zip(points, keys, cell_jobs):
                if not jl and key in done:
                    cell = done[key]
                else:
                    recs: list[dict[str, float]] = []
                    errors: list[str] = []
                    for _ in jl:  # chunk results in submission order
                        status, payload = next(results)
                        if status == "ok":
                            recs.extend(payload)
                        else:
                            errors.append(payload)
                    cell = ExperimentResult(
                        point, recs, error="; ".join(errors) or None
                    )
                n_errors += cell.error is not None
                out.append(cell)
                emit(cell)
        finally:
            results.close()  # tears the pool down if still up
            if sink is not None:
                summary = {
                    "_summary": {
                        "cells": len(points),
                        "written": len(out),
                        "errors": n_errors,
                        "complete": len(out) == len(points),
                    }
                }
                json.dump(summary, sink, sort_keys=True)
                sink.write("\n")
                sink.flush()
                os.fsync(sink.fileno())
                sink.close()
                os.replace(tmp_path, artifact)
        return out


def load_artifact(
    path: str | os.PathLike, allow_partial: bool = False
) -> list[ExperimentResult]:
    """Load the JSON-lines artifact written by :meth:`ParallelRunner.sweep`.

    An artifact is *complete* when its trailing ``_summary`` row says
    so; anything else (no summary at all — truncated mid-write or
    predating the summary format — or a summary with ``complete:
    false`` from an interrupted sweep) raises
    :class:`PartialArtifactError` unless ``allow_partial=True``, so a
    half-finished sweep can't silently impersonate a complete one.
    """
    out = []
    summary = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if "_summary" in row:
                summary = row["_summary"]
                continue
            out.append(ExperimentResult.from_dict(row))
    if summary is None or not summary.get("complete", False):
        if not allow_partial:
            state = (
                "has no _summary row (truncated or pre-summary format)"
                if summary is None
                else f"is marked incomplete ({summary.get('written', '?')}"
                f"/{summary.get('cells', '?')} cells)"
            )
            raise PartialArtifactError(
                f"artifact {os.fspath(path)!r} {state}; the sweep that wrote "
                "it did not finish — load with allow_partial=True or finish "
                "it with sweep(..., resume=True)"
            )
    return out

