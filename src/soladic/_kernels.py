"""Hot numeric loops of the Monte Carlo layer, in plain numpy.

Two kernels matter for large draws: the empirical characteristic-function
sums (n draws times k characters) and the Kuiper two-sample merge scan.
Each has one implementation, so a fixed seed gives the same bytes wherever
the same numpy runs.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi


def cf_sums(coords: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Mean of exp(2 pi i m t) over coords, for each integer multiplier m."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    multipliers = np.ascontiguousarray(multipliers, dtype=np.float64)
    n = coords.shape[0]
    out = np.empty(multipliers.shape[0], dtype=np.complex128)
    chunk = 1 << 16
    for j, m in enumerate(multipliers):
        total = 0j
        for start in range(0, n, chunk):
            block = coords[start : start + chunk] * m
            block -= np.floor(block)
            total += np.exp(1j * _TWO_PI * block).sum()
        out[j] = total / n
    return out


def kuiper_deltas(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(D+, D-) between the empirical cdfs of two unsorted samples."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    pool = np.concatenate([a, b])
    pool.sort(kind="mergesort")
    fa = np.searchsorted(a, pool, side="right") / a.shape[0]
    fb = np.searchsorted(b, pool, side="right") / b.shape[0]
    diff = fa - fb
    return float(max(diff.max(), 0.0)), float(max(-diff.min(), 0.0))
