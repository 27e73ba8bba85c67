"""The numeric kernels against brute-force definitions."""

import ast
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soladic import INFINITE, SteinitzSpec, _kernels, sampler
from soladic.sampler import GaussianLine, _snap, kuiper_two_sample, sample
from soladic._kernels import (
    BLOCK_ROWS,
    REPR_WIDTH,
    _frac,
    build_batch,
    cf_sums,
    kuiper_deltas,
    repr_matrix,
    row_blocks,
)


def ecdf_deltas(a, b):
    """(D+, D-) by evaluating both empirical cdfs at every distinct pooled value."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    dplus = dminus = 0.0
    for x in np.unique(np.concatenate([a, b])):
        d = np.count_nonzero(a <= x) / a.size - np.count_nonzero(b <= x) / b.size
        dplus, dminus = max(dplus, d), max(dminus, -d)
    return dplus, dminus


def dense_cf_sums(coords, multipliers):
    """cf_sums one draw at a time: phases of every draw, summed per 65,536-row chunk."""
    n = coords.shape[0]
    out = np.empty(multipliers.shape[0], dtype=np.complex128)
    for j, m in enumerate(multipliers):
        total = 0j
        for start in range(0, n, 1 << 16):
            block = coords[start : start + (1 << 16)] * m
            block -= np.floor(block)
            total += np.exp(1j * 2.0 * math.pi * block).sum()
        out[j] = total / n
    return out


@pytest.mark.parametrize("seed", range(6))
def test_kuiper_deltas_match_ecdf_scan_with_ties(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 8, size=rng.integers(1, 40)) / 8
    b = rng.integers(0, 8, size=rng.integers(1, 40)) / 8
    assert kuiper_deltas(a, b) == ecdf_deltas(a, b)


_rng = np.random.default_rng(11)
KUIPER_CASES = {
    "unequal_sizes": (_rng.integers(0, 5, 7) / 5, _rng.integers(0, 5, 53) / 5),
    "one_element_each": (np.array([0.25]), np.array([0.75])),
    "one_against_many": (np.array([0.5]), _rng.integers(0, 4, 30) / 4),
    "all_tied": (np.full(9, 0.375), np.full(4, 0.375)),
    "disjoint_a_below": (_rng.random(12) / 2, 0.5 + _rng.random(20) / 2),
    "disjoint_a_above": (0.5 + _rng.random(20) / 2, _rng.random(12) / 2),
    "interleaved_continuous": (_rng.random(37), _rng.random(41)),
    "alternating": (np.arange(0, 40, 2) / 40, np.arange(1, 40, 2) / 40),
}


@pytest.mark.parametrize("case", KUIPER_CASES)
def test_kuiper_deltas_match_ecdf_scan(case):
    a, b = KUIPER_CASES[case]
    assert kuiper_deltas(a, b) == ecdf_deltas(a, b)
    assert kuiper_deltas(b, a) == ecdf_deltas(b, a)


@pytest.mark.parametrize("seed", range(6))
def test_kuiper_deltas_on_counts_equal_the_expanded_draws(seed):
    # values may repeat and come unsorted; each stands for its count of draws
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 6, rng.integers(1, 12)) / 6
    b = rng.integers(0, 6, rng.integers(1, 12)) / 6
    a_counts = rng.integers(1, 9, a.shape[0])
    b_counts = rng.integers(1, 9, b.shape[0])
    a_draws, b_draws = np.repeat(a, a_counts), np.repeat(b, b_counts)
    want = ecdf_deltas(a_draws, b_draws)
    assert kuiper_deltas(a, b, a_counts, b_counts) == want
    assert kuiper_deltas(a, b_draws, a_counts) == want
    assert kuiper_deltas(a_draws, b, None, b_counts) == want


def test_kuiper_deltas_count_values_that_compare_equal_as_one_run():
    # -0.0 with 0.0 and the two 0.5 entries are one value each; 0.25 and its neighbour are two
    a = np.array([0.5, -0.0, 0.25, 0.0, np.nextafter(0.25, 1.0), 0.5])
    b = np.array([0.0, 0.75])
    a_counts, b_counts = np.arange(1, 7), np.array([2, 2])
    assert kuiper_deltas(a, b, a_counts, b_counts) == ecdf_deltas(np.repeat(a, a_counts), np.repeat(b, b_counts))
    # equal samples: scanned inside a run, after a's entries and before b's, D+ would be 1/2
    a = np.array([-0.0, -0.0, 0.0, 0.5, 0.5, 0.5])
    b = np.array([0.0, 0.0, -0.0, 0.5, 0.5, 0.5])
    assert kuiper_deltas(a, b) == ecdf_deltas(a, b) == (0.0, 0.0)
    assert kuiper_deltas(a[[0, 3]], b[[0, 3]], [3, 3], [3, 3]) == (0.0, 0.0)
    assert kuiper_deltas(a, b, np.ones(6, dtype=np.int64)) == (0.0, 0.0)
    # a value split across entries with counts is one run too
    assert kuiper_deltas([0.25, 0.5, 0.25, 0.25], [0.25, 0.5], [1, 6, 3, 2], [6, 6]) == (0.0, 0.0)
    # ...while a value one ulp above zero is a run of its own
    above = np.nextafter(0.0, 1.0)
    assert kuiper_deltas([0.0, 0.5], [above, 0.5]) == ecdf_deltas([0.0, 0.5], [above, 0.5]) == (0.5, 0.0)


def test_kuiper_deltas_refuse_values_the_keys_cannot_order():
    for bad in (-0.25, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            kuiper_deltas(np.array([0.5, bad]), np.array([0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            kuiper_deltas(np.array([0.5]), np.array([bad]), None, [2])


def _chunk_case(pooled, form, seed):
    """(a, b, a_counts, b_counts) with `pooled` entries in all, drawn on a coarse grid so runs cross chunks."""
    rng = np.random.default_rng(seed)
    if form == "tied":  # one run: scanned where a chunk ends inside it, D would be positive
        return np.full(pooled * 3 // 5, 0.25), np.full(pooled - pooled * 3 // 5, 0.25), None, None
    na = pooled // 3
    a = rng.integers(0, 97, na) / 97
    b = rng.integers(0, 97, pooled - na) ** 2 / 97**2  # a different law, so D is not 0
    a[::5] = -0.0
    b[::11] = rng.random(b[::11].shape[0])  # values of one entry each
    if form == "draws":
        return a, b, None, None
    a_counts = rng.integers(1, 5, a.shape[0])
    if form == "mixed":
        return a, b, a_counts, None
    return a, b, a_counts, rng.integers(1, 5, b.shape[0])


@pytest.mark.parametrize("form", ["draws", "counts", "mixed", "tied"])
@pytest.mark.parametrize("pooled", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_kuiper_deltas_match_ecdf_scan_across_a_scan_chunk(pooled, form):
    a, b, a_counts, b_counts = _chunk_case(pooled, form, pooled)
    a_draws = a if a_counts is None else np.repeat(a, a_counts)
    b_draws = b if b_counts is None else np.repeat(b, b_counts)
    want = ecdf_deltas(a_draws, b_draws)
    assert (want == (0.0, 0.0)) == (form == "tied")
    assert kuiper_deltas(a, b, a_counts, b_counts) == want
    assert kuiper_deltas(b, a, b_counts, a_counts) == want[::-1]


@pytest.mark.parametrize("n", [1, (1 << 16) - 1, 1 << 16, (1 << 17) + 3])
def test_cf_sums_match_one_shot_mean_across_chunks(n):
    t = np.random.default_rng(n).random(n)
    multipliers = np.array([0.0, 1.0, -3.0, 8.0, 243.0])
    got = built_cf_sums(t, multipliers)
    want = [np.exp(2j * np.pi * m * t).mean() for m in multipliers]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


MULTIPLIERS = np.array([0.0, 1.0, -3.0, 8.0, 243.0, 1296.0])


def built(t):
    """The batch build_batch forms from t, fed a block of rows at a time: its draws, or (atoms, counts, index)."""
    t = np.asarray(t, dtype=np.float64)
    return build_batch(t.shape[0], ((rows, t[rows]) for rows in row_blocks(t.shape[0])))


def built_cf_sums(t, multipliers):
    """cf_sums as a batch of t takes it: on its atom index when it has atoms, else on its draws."""
    draws = built(t)
    if isinstance(draws, np.ndarray):
        return cf_sums(draws, multipliers)
    values, _, index = draws
    return cf_sums(index, multipliers, values)


@pytest.mark.parametrize("n", [100, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 17) + 3])
def test_cf_sums_on_lattice_equal_the_dense_loop(n):
    rng = np.random.default_rng(n)
    # 12 atoms, with an ulp-shifted copy of some, as a linear form of draws leaves them
    t = rng.integers(0, 12, n) / 12
    t[::7] = np.nextafter(t[::7], 1.0)
    assert not isinstance(built(t), np.ndarray)
    assert np.array_equal(built_cf_sums(t, MULTIPLIERS), dense_cf_sums(t, MULTIPLIERS))


@pytest.mark.parametrize("extra", [0, 1])
def test_cf_sums_equal_the_dense_loop_on_both_sides_of_the_atom_cutoff(extra):
    # min(n // 2, BLOCK_ROWS) distinct values take the per-atom path, one more the
    # per-draw one: n // 2 binds below two blocks of draws, one block above
    for n in (BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 6, 3 * BLOCK_ROWS + 7):
        distinct = min(n // 2, BLOCK_ROWS) + extra
        t = np.random.default_rng(extra).permutation(np.resize(np.arange(distinct) / distinct, n))
        assert isinstance(built(t), np.ndarray) == bool(extra), n
        assert np.array_equal(built_cf_sums(t, MULTIPLIERS), dense_cf_sums(t, MULTIPLIERS))


def test_build_batch_sorts_a_block_at_a_time(monkeypatch):
    # a block's sorted copy, run mask and compare passes, a table of 4 atoms, and one byte of
    # index per draw, held a block at a time and then once for the batch; a sorted copy
    # of the whole batch and its run mask took 9 bytes a draw
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4096)
    n = 200_000
    t = np.random.default_rng(0).integers(0, 4, n) / 4
    built(t[:100])  # keep first-use imports out
    tracemalloc.start()
    try:
        values, counts, index = built(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == [0.0, 0.25, 0.5, 0.75]
    assert counts.tolist() == [np.count_nonzero(t == x) for x in (0.0, 0.25, 0.5, 0.75)]
    assert index.dtype == np.uint8 and values[index].tobytes() == t.tobytes()
    assert peak < 2 * n + (256 << 10)


def test_build_batch_keeps_signed_zeros_apart():
    t = np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 0.5, 0.5])
    values, counts, index = built(t)
    assert values.dtype == np.float64
    assert values.tolist() == [0.0, 0.5, -0.0]
    assert [math.copysign(1.0, x) for x in values] == [1.0, 1.0, -1.0]
    assert counts.tolist() == [2, 4, 2]
    assert index.tolist() == [0, 2, 1, 0, 2, 1, 1, 1]


def test_cf_sums_evaluates_phases_once_per_atom(monkeypatch):
    points = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        points.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(_kernels.np, "exp", counting_exp)
    n = (1 << 17) + 3
    lattice = np.random.default_rng(0).integers(0, 12, n) / 12
    built_cf_sums(lattice, MULTIPLIERS)
    assert 0 < sum(points) <= 12 * MULTIPLIERS.shape[0]
    points.clear()
    draws = np.random.default_rng(0).random(n)
    built_cf_sums(draws, MULTIPLIERS)
    assert sum(points) == n * MULTIPLIERS.shape[0]


CORES = [1, 2, 3, 5]


def with_cores(monkeypatch, cores):
    monkeypatch.setattr(_kernels, "_cores", lambda: cores)


@pytest.fixture
def fast_switching():
    """Threads switched as often as the interpreter allows, so that workers interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", CORES)
def test_map_blocks_stride_the_blocks_over_the_workers_and_keep_their_order(monkeypatch, cores):
    with_cores(monkeypatch, cores)
    n = 3 * BLOCK_ROWS + 7
    got = _kernels.map_blocks(lambda buffer, rows: (rows, buffer, threading.get_ident()), n, lambda size: [size])
    assert [rows for rows, _, _ in got] == list(row_blocks(n))
    workers = min(cores, 4)
    assert all(buffer == [BLOCK_ROWS] for _, buffer, _ in got)
    # block i runs on worker i mod W, with that worker's own buffer, and on the
    # calling thread only when there is one worker
    for i, (_, buffer, thread) in enumerate(got):
        assert (buffer is got[i % workers][1]) and (thread == got[i % workers][2])
    assert len({id(buffer) for _, buffer, _ in got}) == workers
    assert all((thread == threading.get_ident()) == (workers == 1) for _, _, thread in got)


@pytest.mark.usefixtures("fast_switching")
@pytest.mark.parametrize("cores", CORES)
def test_cf_sums_on_draws_are_the_same_floats_on_any_number_of_cores(monkeypatch, cores):
    with_cores(monkeypatch, cores)
    t = np.random.default_rng(cores).random(3 * BLOCK_ROWS + 7)  # a ragged last block
    assert isinstance(built(t), np.ndarray)
    got = cf_sums(t, MULTIPLIERS)
    assert got.view(np.uint64).tolist() == dense_cf_sums(t, MULTIPLIERS).view(np.uint64).tolist()


@pytest.mark.usefixtures("fast_switching")
@pytest.mark.parametrize("cores", CORES[1:])
def test_kuiper_two_sample_is_the_same_on_any_number_of_cores(monkeypatch, cores):
    spec = SteinitzSpec.of({2: INFINITE})
    a, b = (sample(GaussianLine(spec, Fraction(1, 3)), 6, 2 * BLOCK_ROWS + 5, seed) for seed in (0, 1))
    with_cores(monkeypatch, 1)
    want = [kuiper_two_sample(a, b, depth) for depth in range(7)]
    with_cores(monkeypatch, cores)
    assert [kuiper_two_sample(a, b, depth) for depth in range(7)] == want


@pytest.mark.parametrize("cores", [1, 2])
def test_cf_sums_on_draws_hold_one_block_buffer_per_worker(monkeypatch, cores):
    # one complex block buffer per worker, allocated by the caller, and a few
    # small objects per block: no second buffer, no block-sized temporary
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4096)
    with_cores(monkeypatch, cores)
    t = np.random.default_rng(0).random(20 * 4096)
    cf_sums(t[: 2 * 4096], MULTIPLIERS, None)  # keep the pool's first use out
    tracemalloc.start()
    try:
        cf_sums(t, MULTIPLIERS, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cores * 4096 * 16 + (16 << 10)


def test_a_worker_error_reaches_the_caller_and_the_pool_lives_on(monkeypatch):
    with_cores(monkeypatch, 2)
    phases = _kernels._phases
    error = ArithmeticError("the ragged block")

    def failing(t, m, buffer):
        if t.shape[0] == 7:
            raise error
        return phases(t, m, buffer)

    monkeypatch.setattr(_kernels, "_phases", failing)
    t = np.random.default_rng(1).random(3 * BLOCK_ROWS + 7)
    pool = _kernels._pool()
    with pytest.raises(ArithmeticError) as caught:
        cf_sums(t, MULTIPLIERS, None)
    assert caught.value is error
    monkeypatch.setattr(_kernels, "_phases", phases)
    got = cf_sums(t, MULTIPLIERS, None)
    assert _kernels._pool() is pool
    assert got.view(np.uint64).tolist() == dense_cf_sums(t, MULTIPLIERS).view(np.uint64).tolist()


def test_build_batch_indexes_each_row_by_its_own_atom():
    # signed zeros and ulp-split neighbours are distinct atoms, and the rows of
    # a block past the first BLOCK_ROWS find theirs as the first block's do; the
    # first block meets four of the six atoms, so its index is renumbered in the join
    split = np.nextafter(0.5, 1.0)
    atoms = [0.0, -0.0, 0.5, split, np.nextafter(0.5, 0.0), 0.75]
    n = BLOCK_ROWS + 1000
    t = np.resize(np.array(atoms), n)
    t[4:BLOCK_ROWS:6], t[5:BLOCK_ROWS:6] = 0.0, -0.0
    values, counts, index = built(t)
    assert len(values) == len(atoms) and counts.sum() == n
    assert counts.tolist() == [np.count_nonzero(index == i) for i in range(len(atoms))]
    assert len(list(row_blocks(n))) == 2
    assert values[index].tobytes() == t.tobytes()
    where = index[:4]  # the rows 0.0, -0.0, 0.5 and its neighbour above
    assert len(set(where.tolist())) == 4
    assert [math.copysign(1.0, x) for x in values[where[:2]]] == [1.0, -1.0]


def test_build_batch_rebuilds_the_earlier_blocks_when_it_falls_back_to_draws(monkeypatch):
    # the table passes min(n // 2, BLOCK_ROWS) in the third block: the first two blocks'
    # rows come back from their atoms, bit for bit, and the later blocks are copied
    monkeypatch.setattr(_kernels, "BLOCK_ROWS", 64)
    t = np.resize(np.array([0.0, -0.0, 0.25, np.nextafter(0.25, 1.0)]), 64 * 5 + 9)
    t[2 * 64 + 3 : 2 * 64 + 3 + 70] = np.random.default_rng(3).random(70)
    draws = built(t)
    assert isinstance(draws, np.ndarray) and draws.dtype == np.float64
    assert draws.tobytes() == t.tobytes()


def assert_frac_is_mod(values):
    """_frac, out of place, in place and with scratch, gives the bits of np.mod(values, 1.0)."""
    values = np.asarray(values, dtype=np.float64)
    want = np.mod(values, 1.0).tobytes()
    assert _frac(values, np.empty_like(values)).tobytes() == want
    scratch, inplace = np.empty_like(values), values.copy()
    assert _frac(inplace, inplace, scratch) is inplace
    assert inplace.tobytes() == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_frac_is_mod_one_bit_for_bit_on_any_finite_floats(values):
    assert_frac_is_mod(values)


def test_frac_is_mod_one_on_random_bit_patterns():
    # every finite float64 equally likely, half of them negative
    bits = np.random.default_rng(30).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_frac_is_mod(values[np.isfinite(values)])


FRAC_EDGES = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0), -2.2250738585072014e-308],
    "tiny negatives": [-1e-300, -(2.0**-60), -(2.0**-54), -(2.0**-53)],  # x + 1 rounds to 1.0, or just below
    "negative integers": [-1.0, -2.0, -3.0, -(2.0**52), -(2.0**53), -1e300],
    "around 2^52": [np.nextafter(2.0**52, 0.0), 2.0**52, 2.0**52 + 1, -(2.0**52) + 0.5, -np.nextafter(2.0**52, 0.0)],
    "below 1": [np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0, -1.0 + 2.0**-53],
    "halves": [0.5, -0.5, 1.5, -1.5, 2.0**52 - 0.5],
    "huge": [1.7976931348623157e308, -1.7976931348623157e308],
}


@pytest.mark.parametrize("family", FRAC_EDGES)
def test_frac_is_mod_one_on_edges(family):
    assert_frac_is_mod(FRAC_EDGES[family])


def test_frac_of_a_tiny_negative_is_one_and_of_an_integer_is_plus_zero():
    # the rounding of x + 1 for x = -1e-300 is 1.0, outside [0, 1), in np.mod as here
    assert _frac(np.array([-1e-300, -(2.0**-60)]), np.empty(2)).tolist() == [1.0, 1.0]
    out = _frac(np.array([-0.0, -2.0, 3.0]), np.empty(3))
    assert [math.copysign(1.0, x) for x in out] == [1.0, 1.0, 1.0]


def snap_by_mod(t):
    """The tie-grid snap by numpy's mod: the grid point's index taken mod 2^40, then scaled."""
    grid = 2.0**40
    return np.mod(np.round(np.asarray(t, dtype=np.float64) * grid), grid) / grid


SNAP_CASES = {
    "zero and one": [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0)],
    "just below one": [1 - 2.0**-41, 1 - 2.0**-42, 1 - 2.0**-40, 1 - 3 * 2.0**-42],
    "grid points": [k * 2.0**-40 for k in (1, 2, 3, 2**39, 2**40 - 1)] + [0.25, 0.5, 0.75],
    "halfway between grid points": [(k + 0.5) * 2.0**-40 for k in (0, 1, 2, 2**39)],
    "past 2^13": [2.0**13, 2.0**13 + 0.5, 8193.25, 2.0**20 + 1 / 3, 1e6, 2.0**52 + 1],
    "negatives": [-(2.0**-42), -0.25, -1 / 3, -(2.0**13) - 0.125],
}


@pytest.mark.parametrize("case", SNAP_CASES)
def test_snap_is_the_grid_index_mod_2_40(case):
    t = np.array(SNAP_CASES[case])
    want = snap_by_mod(t).tobytes()
    assert _snap(t).tobytes() == want
    out, scratch = np.empty_like(t), np.empty_like(t)
    assert _snap(t, out, scratch) is out and out.tobytes() == want
    assert _snap(t, t).tobytes() == want  # in place


def test_snap_is_the_grid_index_mod_2_40_on_draws():
    rng = np.random.default_rng(30)
    t = np.concatenate([rng.random(50_000), rng.random(1000) * 2.0**14 - 2.0**13])
    assert _snap(t).tobytes() == snap_by_mod(t).tobytes()


MOD_CALLS = {"mod", "remainder", "fmod"}


@pytest.mark.parametrize("module", [_kernels, sampler], ids=["_kernels", "sampler"])
def test_no_numpy_mod_in_the_monte_carlo_modules(module):
    # numpy's float mod is a scalar fmod loop, many times slower than _frac's two vector passes
    with open(module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    found = [
        f"np.{node.attr} on line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MOD_CALLS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert found == []


def reprs(values):
    """The rows of repr_matrix as text, NUL bytes dropped."""
    matrix = repr_matrix(np.asarray(values, dtype=np.float64))
    assert matrix.shape == (len(values), REPR_WIDTH)
    return [row[row != 0].tobytes().decode() for row in matrix]


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    assert reprs(values) == [repr(x) for x in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_repr_matrix_is_repr_on_any_floats(values):
    assert_reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=40))
def test_repr_matrix_is_repr_on_floats_of_the_exact_path(values):
    assert_reprs(values)


def test_repr_matrix_is_repr_on_random_bit_patterns():
    # every float64 in [1e-4, 1) equally likely, not every real
    start, stop = np.array([1e-4, 1.0]).view(np.uint64)
    assert_reprs(np.random.default_rng(26).integers(start, stop, 100_000, dtype=np.uint64).view(np.float64))


EDGES = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0.0)],
    "infinities": [math.inf, -math.inf],
    "around 1e-4": [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)],
    "below 1": [np.nextafter(1.0, 0.0), 1.0],
    "around the decades": [np.nextafter(d, side) for d in (1e-3, 1e-2, 0.1) for side in (0.0, 1.0)] + [1e-3, 1e-2, 0.1],
    "powers of two": [2.0**-k for k in range(1, 15)],
    "negatives": [-0.5, -0.1, -1e-4],
}


@pytest.mark.parametrize("family", EDGES)
def test_repr_matrix_is_repr_on_edges(family):
    assert_reprs(EDGES[family])


def test_repr_matrix_is_repr_on_short_dyadic_rationals():
    # k / 2^p with few bits, as lattice atoms are: X = x 10^s can be an integer or lie halfway
    # between two, where the two closest candidates tie and the row takes repr
    rng = np.random.default_rng(26)
    values = np.concatenate([rng.integers(1, 2**p, 200) / 2.0**p for p in range(10, 53)])
    assert_reprs(values[(values >= 1e-4) & (values < 1.0)])


def significant_digits(text):
    return len(text.split("e")[0].replace(".", "").lstrip("0"))


def test_repr_matrix_is_repr_for_each_length_of_digits():
    rng = np.random.default_rng(26)
    values = []
    for k in range(1, 16):  # a decimal of at most 15 digits is its float's repr
        for zeros in range(4):
            values += [float(f"0.{'0' * zeros}{d}") for d in rng.integers(10 ** (k - 1), 10**k, 30).tolist() if d % 10]
    values += rng.random(2000).tolist()  # 16 and 17 digits
    assert {significant_digits(repr(x)) for x in values} == set(range(1, 18))
    assert_reprs(values)


def test_repr_matrix_falls_back_on_under_one_percent_of_uniform_draws(monkeypatch):
    # a fault that sent every row to repr would still print repr; the count of repr calls shows it
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(_kernels, "repr", counting_repr, raising=False)
    draws = np.random.default_rng(26).random(BLOCK_ROWS)
    assert reprs(draws) == [repr(x) for x in draws.tolist()]
    fallback_rows = len(calls)
    assert fallback_rows < BLOCK_ROWS // 100
