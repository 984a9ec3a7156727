"""Shared fixtures of the paper benches (``bench_e*``, ``bench_a*``,
``bench_f*`` and ``bench_s1_scenarios``).

Every such bench prints a claim-vs-measured table *live* (bypassing
pytest capture), so naming the files records the reproduction evidence
alongside pytest-benchmark's timing table::

    PYTHONPATH=src python -m pytest benchmarks/bench_e1_generic_mcm.py | tee e1.txt

The file names do not match ``test_*.py``, so ``pytest benchmarks/``
collects nothing; pass each file by path.  The ``bench_s3``–``bench_s10``
perf scripts do not use pytest: they run as scripts on
``benchmarks/harness.py`` (``--quick --check``).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def report(capsys):
    """`report(fn)` runs fn with capture disabled (live printing)."""

    def _run(fn, *args, **kwargs):
        with capsys.disabled():
            return fn(*args, **kwargs)

    return _run


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
