"""Hot numeric loops of the Monte Carlo layer, in plain numpy.

Two kernels matter for large draws: the empirical characteristic-function
sums (n draws times k characters) and the Kuiper two-sample scan.  Each has
one implementation, so a fixed seed gives the same bytes wherever the same
numpy runs.

Lattice laws put a large batch on a handful of atoms, so per-element work is
done once per distinct value where that is cheaper.  ``atom_keys`` sorts a
batch once to find its atoms and their counts; a batch keeps the result, so
each caller reads the same sort.  ``cf_sums`` evaluates its phases on the
atoms and gathers them back per chunk, and ``kuiper_deltas`` takes either
draws or values with counts and compares the two cdfs only at the last copy
of each value.  The gathered arrays and the counts give the same floats as
the element-by-element definitions, so the results are unchanged byte for
byte.
"""

from __future__ import annotations

import math

from ._numpy import np

_TWO_PI = 2.0 * math.pi

#: draws per block of cf_sums; the block sums fix its summation order
CF_CHUNK_ROWS = 1 << 16


def atom_keys(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct values of coords as sorted float64 bit patterns (uint64), with their counts.

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
    first = np.flatnonzero(starts)
    return bits[first], np.diff(first, append=bits.shape[0])


def _phases(t: np.ndarray, m: float) -> np.ndarray:
    """exp(2 pi i m t) with m t reduced to [0, 1) first."""
    block = t * m
    block -= np.floor(block)
    return np.exp(1j * _TWO_PI * block)


_FIND = object()


def cf_sums(coords: np.ndarray, multipliers: np.ndarray, atoms=_FIND) -> np.ndarray:
    """Mean of exp(2 pi i m t) over coords, for each integer multiplier m.

    ``atoms`` is ``atom_keys(coords)`` when the caller already has it; it is
    found here otherwise.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    multipliers = np.ascontiguousarray(multipliers, dtype=np.float64)
    n = coords.shape[0]
    if atoms is _FIND:
        atoms = atom_keys(coords)
    if atoms is not None:
        keys = atoms[0]
        table = [_phases(keys.view(np.float64), m) for m in multipliers]
    totals = [0j] * multipliers.shape[0]
    for start in range(0, n, CF_CHUNK_ROWS):
        block = coords[start : start + CF_CHUNK_ROWS]
        if atoms is None:
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


def kuiper_deltas(
    a: np.ndarray, b: np.ndarray, a_counts: np.ndarray | None = None, b_counts: np.ndarray | None = None
) -> tuple[float, float]:
    """(D+, D-) between the empirical cdfs of two unsorted samples.

    A sample is its draws, or with ``counts`` a list of values that each
    stand for that many draws; values may repeat.  F_a - F_b rises only at
    values of a, so its maximum over the pooled sample is attained at the
    last copy of some value of a; likewise for F_b - F_a and b.  Only those
    points are scanned, and F there is the number of draws at or below the
    point over the sample size: the same integers over the same size, so the
    same floats, whichever form a sample comes in.
    """
    a, b = _sorted_sample(a, a_counts), _sorted_sample(b, b_counts)
    return _max_gap(a, b), _max_gap(b, a)


def _sorted_sample(values: np.ndarray, counts: np.ndarray | None):
    """(sorted values, draws below each sorted position or None for one draw each, size).

    ``below[k]`` counts the draws held by the first k sorted values; with
    one draw per value that is k itself, so no array is built.
    """
    values = np.asarray(values, dtype=np.float64)
    if counts is None:
        return np.sort(values), None, values.shape[0]
    order = np.argsort(values, kind="stable")
    below = np.zeros(values.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64)[order], out=below[1:])
    return values[order], below, int(below[-1])


def _max_gap(a: tuple, b: tuple) -> float:
    """max(0, max of F_a - F_b) for sorted samples, scanned at run ends of a.

    Values that compare equal form one run, so a value split across several
    entries (and -0.0 beside 0.0) is scanned once, at its last entry.
    """
    (a, a_below, na), (b, b_below, nb) = a, b
    ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
    fa = _share_below(a_below, ends + 1, na)
    fb = _share_below(b_below, np.searchsorted(b, a[ends], side="right"), nb)
    return float(max((fa - fb).max(), 0.0))


def _share_below(below, k: np.ndarray, n: int) -> np.ndarray:
    """Share of a sample's n draws held by its first k sorted values."""
    return (k if below is None else below[k]) / n
