"""Hot numeric loops of the Monte Carlo layer, in plain numpy.

Two kernels matter for large draws: the empirical characteristic-function
sums (n draws times k characters) and the Kuiper two-sample scan.  Each has
one implementation, so a fixed seed gives the same bytes wherever the same
numpy runs.

Lattice laws put a large batch on a handful of atoms, so per-element work is
done once per distinct value where that is cheaper: ``cf_sums`` evaluates
its phases on the atoms and gathers them back per chunk, and
``kuiper_deltas`` compares the two cdfs only at the last copy of each value.
The gathered arrays and the points scanned give the same floats as the
element-by-element definitions, so the results are unchanged byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi

#: draws per block of cf_sums; the block sums fix its summation order
CF_CHUNK_ROWS = 1 << 16


def atom_keys(coords: np.ndarray) -> np.ndarray | None:
    """The distinct values of coords as sorted float64 bit patterns (uint64).

    Keying by bit pattern keeps -0.0 and 0.0 apart, so each key stands for
    exactly one float and one ``repr``.  Returns None when the distinct
    values are more than half the draws, where per-value work saves little.
    """
    # a sort and a run mask: np.unique hashes (numpy 2.x), ~30x slower on 1e6 distinct values
    bits = np.sort(np.ascontiguousarray(coords, dtype=np.float64).view(np.uint64))
    starts = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if 2 * np.count_nonzero(starts) > bits.shape[0]:
        return None
    return bits[starts]


def _phases(t: np.ndarray, m: float) -> np.ndarray:
    """exp(2 pi i m t) with m t reduced to [0, 1) first."""
    block = t * m
    block -= np.floor(block)
    return np.exp(1j * _TWO_PI * block)


def cf_sums(coords: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Mean of exp(2 pi i m t) over coords, for each integer multiplier m."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    multipliers = np.ascontiguousarray(multipliers, dtype=np.float64)
    n = coords.shape[0]
    keys = atom_keys(coords)
    if keys is not None:
        table = [_phases(keys.view(np.float64), m) for m in multipliers]
    totals = [0j] * multipliers.shape[0]
    for start in range(0, n, CF_CHUNK_ROWS):
        block = coords[start : start + CF_CHUNK_ROWS]
        if keys is None:
            for j, m in enumerate(multipliers):
                totals[j] += _phases(block, m).sum()
        else:
            where = np.searchsorted(keys, block.view(np.uint64))
            for j, phases in enumerate(table):
                totals[j] += phases[where].sum()
    out = np.empty(multipliers.shape[0], dtype=np.complex128)
    for j, total in enumerate(totals):
        out[j] = total / n
    return out


def kuiper_deltas(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(D+, D-) between the empirical cdfs of two unsorted samples.

    F_a - F_b rises only at values of a, so its maximum over the pooled
    sample is attained at the last copy of some value of a; likewise for
    F_b - F_a and b.  Only those points are scanned.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    return _max_gap(a, b), _max_gap(b, a)


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max(0, max of F_a - F_b) for sorted samples, scanned at run ends of a."""
    ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
    fa = (ends + 1) / a.shape[0]
    fb = np.searchsorted(b, a[ends], side="right") / b.shape[0]
    return float(max((fa - fb).max(), 0.0))
