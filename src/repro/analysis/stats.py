"""Statistics for the round-complexity and ratio analyses.

The paper's time bounds are all Θ(log n) in n for fixed k/ε; we test
that shape two ways:

* :func:`log_fit` — least-squares fit ``rounds ≈ a·log₂(n) + b``; the
  report includes R² so benches can show the fit is good;
* :func:`doubling_ratios` — rounds(2n) − rounds(n) should be roughly
  the constant a (additive growth per doubling), a slope-free check.
"""

from __future__ import annotations

import math

import numpy as np


def mean_ci(values: list[float], z: float = 1.96) -> tuple[float, float]:
    """Mean and half-width of a normal-approximation confidence interval."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    if arr.size == 1:
        return float(arr[0]), 0.0
    half = z * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return float(arr.mean()), half


def log_fit(ns: list[float], ys: list[float]) -> dict[str, float]:
    """Least squares ``y ≈ a·log₂(n) + b``; returns a, b and R²."""
    if len(ns) != len(ys) or len(ns) < 2:
        raise ValueError("need >= 2 aligned points")
    x = np.log2(np.asarray(ns, dtype=float))
    y = np.asarray(ys, dtype=float)
    a, b = np.polyfit(x, y, 1)
    pred = a * x + b
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"a": float(a), "b": float(b), "r2": r2}


def doubling_ratios(ns: list[float], ys: list[float]) -> list[float]:
    """``y(2n) − y(n)`` for consecutive doubling points.

    For Θ(log n) growth these differences are ≈ the log coefficient;
    for linear growth they double each step — an easy visual check.
    """
    pairs = sorted(zip(ns, ys))
    out = []
    for (n1, y1), (n2, y2) in zip(pairs, pairs[1:]):
        if abs(n2 - 2 * n1) <= 0.25 * n1:  # ~doubling steps only
            out.append(y2 - y1)
    return out
