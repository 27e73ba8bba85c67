"""Hot numeric loops of the Monte Carlo layer, in plain numpy.

Three kernels matter for large draws: the empirical characteristic-function
sums (n draws times k characters), the Kuiper two-sample scan, and the
shortest-repr text of the draws that the CSV artifacts hold.  Each has one
implementation, so a fixed seed gives the same bytes wherever the same
numpy runs.

Every row loop here, in the sampler and in the CSV writer walks
``row_blocks``.  Lattice laws
put a large batch on a handful of atoms, so per-element work is done once
per distinct value where that is cheaper.  ``atom_keys`` finds a batch's
atoms, a block at a time, merging each sorted block's distinct values into
a running table that it gives up on once the table outgrows a block; a
batch keeps the result.  Only this module reads the atoms' bit-pattern
order: ``atom_rows`` gives each row its atom.  ``cf_sums`` evaluates its
phases on the atoms and gathers them back per block.  On continuous draws
its blocks are shared among the cores by ``map_blocks``: each worker sums
its blocks' phases in one complex block buffer that the caller allocates,
and the caller adds the block sums in block order, so the floats do not
depend on the number of cores.  The sampler's Kuiper pass shares its
push-down and snap the same way, each block writing its own slice of the
pooled keys and taking its floors in its worker's buffer.  Everything else
runs on the calling thread.  Every float taken mod 1 is taken by ``_frac``,
as x - floor(x), the floats of np.mod(x, 1.0) in vector passes.
``kuiper_deltas`` pools both samples, draws or atoms with counts, into one
array of sort keys, sorts it once (in place for draws, by one argsort with
counts) and scans it a block at a time, so its temporaries beyond the keys
are bounded by the block.  The same integers over the same sizes give the
same floats as the element-by-element definitions, so the results are
unchanged byte for byte.  ``repr_matrix`` reads float bit patterns too: it
prints a block of values as ``repr`` does, exactly, in array passes.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, Iterator, TypeVar

from ._numpy import np

_TWO_PI = 2.0 * math.pi

T = TypeVar("T")

#: rows per block of every row loop: the sampler's draws, atom_keys, cf_sums and the
#: Kuiper scan.  The block sums fix cf_sums' summation order, and atom_keys keeps at
#: most this many atoms; neither the draws nor the scan depend on the block size
BLOCK_ROWS = 1 << 16


def row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``BLOCK_ROWS`` rows that cover range(n)."""
    step = BLOCK_ROWS  # read once, so a walk keeps one size
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _pool():
    """The thread pool of ``map_blocks``, built on first use; concurrent.futures is imported only then."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_cores(), thread_name_prefix="soladic-blocks")


def map_blocks(fn: Callable[[object, slice], T], n: int, scratch: Callable[[int], object] | None = None) -> list[T]:
    """[fn(buffer, rows) for rows in row_blocks(n)], the blocks shared among W = min(cores, blocks) workers.

    Worker w takes blocks w, w + W, w + 2W, ... on one thread of the pool,
    and the results come back in block order.  With ``scratch``, each worker
    gets its own buffer, scratch(rows of the first block), allocated here on
    the calling thread: a worker thread's allocations land in its own glibc
    arena and stay in the process's resident memory.  With fewer than two
    workers the blocks run on the calling thread.  A worker's exception is
    raised here once every worker has stopped.
    """
    blocks = list(row_blocks(n))
    workers = min(_cores(), len(blocks))
    buffers = [scratch(blocks[0].stop) if scratch else None for _ in range(workers)]
    if workers < 2:
        return [fn(buffers[0], rows) for rows in blocks]

    def stride(w: int) -> list[T]:
        return [fn(buffers[w], rows) for rows in blocks[w::workers]]

    futures = [_pool().submit(stride, w) for w in range(workers)]
    results: list = [None] * len(blocks)
    for w, future in enumerate(futures):
        try:
            results[w::workers] = future.result()
        except BaseException:
            for other in futures:  # no worker may go on writing into the caller's arrays
                if not other.cancel():
                    other.exception()
            raise
    return results


def atom_keys(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct values of coords (float64, in the order of their bit patterns), with their counts.

    Keying by bit pattern keeps -0.0 and 0.0 apart, so each atom stands for
    exactly one float and one ``repr``.  The draws are sorted a block at a
    time, and each block's distinct keys and counts are merged into a
    running table.  Returns None as soon as that table holds more than
    min(n // 2, BLOCK_ROWS) keys, where per-value work saves little, so the
    table never outgrows one block.
    """
    n = coords.shape[0]
    cap = min(n // 2, BLOCK_ROWS)
    keys, counts = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    for rows in row_blocks(n):
        block = np.ascontiguousarray(coords[rows], dtype=np.float64)
        # a sort and a run mask: np.unique hashes (numpy 2.x), ~30x slower on 1e6 distinct values
        bits = np.sort(block.view(np.uint64))
        starts = np.ones(bits.shape, dtype=bool)
        np.not_equal(bits[1:], bits[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        runs = bits[first], np.diff(first, append=bits.shape[0])
        keys, counts = _merge_runs(keys, counts, *runs) if rows.start else runs
        if keys.shape[0] > cap:
            return None
    return keys.view(np.float64), counts


def atom_rows(values: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The index in ``values``, the atoms of ``atom_keys``, of each row of a block of their batch."""
    return np.searchsorted(values.view(np.uint64), np.ascontiguousarray(block, dtype=np.float64).view(np.uint64))


def _merge_runs(keys, counts, new_keys, new_counts) -> tuple[np.ndarray, np.ndarray]:
    """Two sorted tables of distinct keys with their counts, merged into one."""
    at = np.searchsorted(keys, new_keys)
    seen = at < keys.shape[0]
    seen[seen] = keys[at[seen]] == new_keys[seen]
    counts[at[seen]] += new_counts[seen]  # distinct new keys meet distinct old ones
    fresh = ~seen
    return np.insert(keys, at[fresh], new_keys[fresh]), np.insert(counts, at[fresh], new_counts[fresh])


def _frac(values: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """values mod 1 into ``out`` (which may be ``values``), as values - floor(values); the floor goes to ``scratch``.

    The one way the package takes a float mod 1.  For every finite float64
    it gives the floats of np.mod(values, 1.0), bit for bit: for x >= 0,
    fmod(x, 1) = x - trunc(x) = x - floor(x) exactly; for x < 0 numpy adds
    1 to the exact fmod, one rounding of the same real x - floor(x); and a
    zero result is +0 both ways (copysign(0, 1), and -0.0 - -0.0).  It runs
    as two vector passes, where np.mod is a scalar fmod loop.  ``scratch``,
    of values' length, saves the allocation of the floor; a caller with a
    full-length array goes a block at a time, so that no third n-sized
    array appears.
    """
    return np.subtract(values, np.floor(values, out=scratch), out=out)


def _phases(t: np.ndarray, m: float, buffer: np.ndarray) -> np.ndarray:
    """exp(2 pi i m t) in place in ``buffer``, complex of t's length, with m t reduced to [0, 1) first.

    The imaginary part takes 2 pi frac(m t), its floor taken in the real
    part, which is then reset to +0, and exp runs in place.  That is the
    number ``1j * 2 pi * frac`` gives, real part 0*x - 2pi*0 = +0 and
    imaginary part fl(2pi x), fused or not, so the phases are the same
    floats.
    """
    frac, floor = buffer.imag, buffer.real
    np.multiply(t, m, out=frac)
    _frac(frac, frac, floor)
    frac *= _TWO_PI
    floor.fill(0.0)
    return np.exp(buffer, out=buffer)


def cf_sums(coords: np.ndarray, multipliers: np.ndarray, atoms) -> np.ndarray:
    """Mean of exp(2 pi i m t) over coords, for each integer multiplier m; ``atoms`` is ``atom_keys(coords)``.

    On atoms the phases are evaluated once per atom and gathered per block.
    On draws each block's sums, one per multiplier, are computed by
    ``map_blocks`` in its worker's buffer, and added into the totals in
    block order, so every float is the same on any number of cores.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    multipliers = np.ascontiguousarray(multipliers, dtype=np.float64)
    n = coords.shape[0]
    totals = [0j] * multipliers.shape[0]
    if atoms is None:

        def block_sums(buffer, rows):
            block = coords[rows]
            phases = buffer[: block.shape[0]]
            return [_phases(block, m, phases).sum() for m in multipliers]

        for sums in map_blocks(block_sums, n, lambda size: np.empty(size, dtype=np.complex128)):
            for j, total in enumerate(sums):
                totals[j] += total
    else:
        values = atoms[0]
        table = [_phases(values, m, np.empty(values.shape[0], dtype=np.complex128)) for m in multipliers]
        for rows in row_blocks(n):
            where = atom_rows(values, coords[rows])
            for j, phases in enumerate(table):
                totals[j] += phases[where].sum()
    out = np.empty(multipliers.shape[0], dtype=np.complex128)
    for j, total in enumerate(totals):
        out[j] = total / n
    return out


def kuiper_deltas(
    a: np.ndarray,
    b: np.ndarray,
    a_counts: np.ndarray | None = None,
    b_counts: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[float, float]:
    """(D+, D-) between the empirical cdfs of two unsorted samples of nonnegative values.

    A sample is its draws, or with ``counts`` a list of values that each
    stand for that many draws; values may repeat.  Both samples are pooled
    as sort keys: a value's float64 bit pattern shifted up one bit, with the
    sample label (a 0, b 1) in bit 0.  For nonnegative floats the bit
    patterns keep the order, and the shift pushes out the sign bit, the one
    bit in which -0.0 differs from 0.0.  So one sort of the keys sorts the
    pooled sample, and values that compare equal form one run of keys.
    Scanning the runs' last keys with the running draw counts ca and cb
    gives d = ca/na - cb/nb at every pooled value, and D+ = max(0, max d),
    D- = max(0, max -d): the same integers over the same sizes, so the same
    floats, whichever form a sample comes in.  A negative or NaN value is a
    ValueError.

    The keys are built in ``out`` when it is given: a uint64 array of
    len(a) + len(b) entries, which ``a`` and ``b`` may be the float64 halves
    of (they are then overwritten).  A caller that computes the values into
    those halves holds one pooled array, not three.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    keys = np.empty(a.shape[0] + b.shape[0], dtype=np.uint64) if out is None else out
    for label, values, part in ((0, a, keys[: a.shape[0]]), (1, b, keys[a.shape[0] :])):
        floats = part.view(np.float64)
        np.copyto(floats, values)
        if floats.shape[0] and not floats.min() >= 0.0:
            raise ValueError("kuiper_deltas needs nonnegative values")
        part <<= np.uint64(1)
        part |= np.uint64(label)
    if a_counts is None and b_counts is None:
        keys.sort()
        return _scan(keys, None, a.shape[0], b.shape[0])
    a_counts, b_counts = _counts(a, a_counts), _counts(b, b_counts)
    order = np.argsort(keys)
    weights = np.concatenate([a_counts, b_counts])[order]
    return _scan(keys[order], weights, int(a_counts.sum()), int(b_counts.sum()))


def _counts(values: np.ndarray, counts: np.ndarray | None) -> np.ndarray:
    """A sample's draws per value: its counts, or one each."""
    if counts is None:
        return np.ones(values.shape[0], dtype=np.int64)
    return np.asarray(counts, dtype=np.int64)


def _scan(keys: np.ndarray, weights: np.ndarray | None, na: int, nb: int) -> tuple[float, float]:
    """(D+, D-) from sorted pooled keys, their draw counts (None for one draw each) and the sample sizes.

    The keys are read a chunk at a time; the draws below the chunk are
    carried into the next one, so the temporaries are chunk-sized.  D- is
    taken as -min d: negation is exact, and a -0.0 there loses to the
    starting 0.0 as +0.0 would.
    """
    total = keys.shape[0]
    below = below_b = 0  # draws of both samples, and of b alone, below the chunk
    dplus = dminus = 0.0
    for rows in row_blocks(total):
        chunk = keys[rows]
        # a run ends where the key changes above the label bit
        ends = np.empty(chunk.shape[0], dtype=bool)
        np.greater(chunk[1:] ^ chunk[:-1], 1, out=ends[:-1])
        ends[-1] = rows.stop == total or (keys[rows.stop] ^ chunk[-1]) > 1
        cb = (chunk & np.uint64(1)).view(np.int64)
        if weights is None:
            both = np.arange(below + 1, below + chunk.shape[0] + 1)
        else:
            w = weights[rows]
            cb *= w
            both = np.cumsum(w)
            both += below
        np.cumsum(cb, out=cb)
        cb += below_b
        below, below_b = int(both[-1]), int(cb[-1])
        cb, ca = cb[ends], both[ends]
        if not cb.shape[0]:
            continue
        ca -= cb
        d = ca / na
        d -= cb / nb
        dplus, dminus = max(dplus, float(d.max())), max(dminus, -float(d.min()))
    return dplus, dminus


#: bytes per row of ``repr_matrix``: the longest float64 repr, '-2.2250738585072014e-308', has 24
REPR_WIDTH = 24

_SPLIT = float((1 << 27) + 1)  # Veltkamp's splitter: halves of at most 26 bits, whose products are exact
_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF << 52


@functools.cache
def _repr_tables() -> tuple[np.ndarray, ...]:
    """The constants of ``repr_matrix``, built on its first call so that importing this module loads no numpy.

    * heads: 8 bytes per (z, d), index 10 z + d: '0.' and z zeros, NUL
      padding, then the leading digit d;
    * groups: 4 bytes per four-digit group g, index g, and index 10^4 + g
      for g with its trailing zeros made NUL, for the last nonzero group;
    * the scales 10^(17 + z) for z = 0..3 leading zeros, with their Veltkamp
      halves; each is exact, as every power of ten up to 10^22 is.
    """
    heads = b"".join(("0." + "0" * z).encode().ljust(7, b"\0") + str(d).encode() for z in range(4) for d in range(10))
    group = np.arange(10_000, dtype=np.int16)[:, None]
    powers = np.array([1000, 100, 10, 1], dtype=np.int16)
    chars = (group // powers % 10 + ord("0")).astype(np.uint8)
    stripped = np.where(group % (10 * powers) != 0, chars, 0).astype(np.uint8)  # a digit with nonzero ones from it on
    scales = np.array([10.0**s for s in range(17, 21)])
    high = scales * _SPLIT
    high -= high - scales
    groups = np.concatenate([chars, stripped]).view(np.uint32).ravel()
    return np.frombuffer(heads, dtype=np.uint64), groups, scales, high, scales - high


def repr_matrix(values: np.ndarray) -> np.ndarray:
    """A uint8 matrix of ``REPR_WIDTH`` columns whose row i, with its NUL bytes dropped, is ``repr(values[i])``.

    Values x in [1e-4, 1) take an exact path in array passes.  The exact
    power of ten 10^s that brings x to [1e16, 1e17) scales it to X = hi + lo,
    held exactly by Dekker's two-product, and every real that reads back as
    x lies within D = 10^s ulp(x) / 2 of X, scaled by the same 10^s; lo - D
    and lo + D are exact, which two-sums confirm.  The shortest digits that
    read back as x are those of the integer in that interval with the most
    trailing zeros: a multiple of 100 if there is one (the interval is
    narrower than 23, so there is at most one), otherwise the multiple of 10
    or else the integer nearest X, which are the closest of their length
    (Adams's Ryu rule).  A row falls back to ``repr`` when its value is
    outside that range or a power of two (an asymmetric interval), an integer
    lies on an interval end, the closest candidates tie, or an exactness
    check fails; so every row is ``repr`` by construction.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    heads, groups, scales, scales_high, scales_low = _repr_tables()
    # each temporary is dropped once dead, so a block holds about ten float64 arrays at a time
    ok = (values >= 1e-4) & (values < 1.0) & (values.view(np.uint64) & np.uint64(_MANTISSA) != 0)
    x = np.where(ok, values, 0.5)  # keeps the other rows' arithmetic finite; they take repr
    zeros = (x < 0.1).view(np.uint8)  # the zeros after '0.': 1e-4 <= x < 1 prints without exponent
    zeros += x < 0.01
    zeros += x < 0.001
    scale = scales[zeros]
    hi = x * scale
    ok &= (hi >= 1e16) & (hi < 1e17)
    half_ulp = (x.view(np.uint64) & np.uint64(_EXPONENT)).view(np.float64)  # 2^e for x in [2^e, 2^(e + 1))
    half_ulp *= 2.0**-53
    half_ulp *= scale  # a power of two times 10^s: exact
    del scale
    lo = _two_product_error(x, hi, scales_high[zeros], scales_low[zeros])
    del x
    below, above = _exact_sum(lo, -half_ulp, ok), _exact_sum(lo, half_ulp, ok)
    del half_ulp
    ok &= (np.floor(below) != below) & (np.floor(above) != above)  # no integer on an end
    # offsets from hi, an integer: N = hi + nearest is the integer nearest X, which lies up or down from it
    nearest = np.rint(lo)
    up, down = lo > nearest, lo < nearest
    tie = np.abs(lo - nearest) == 0.5  # X halfway between two integers
    del lo
    digits = hi.astype(np.int64)
    del hi
    ends = (digits - digits // 100 * 100).astype(np.float64)
    ends += nearest  # N's last two digits, less a borrow or plus a carry: in [-8, 108)
    offset = nearest.copy()
    for unit in (10.0, 100.0):  # the multiple of unit nearest X, taken when it lies inside
        rem = ends - unit * np.floor(ends / unit)
        halfway = rem == unit / 2
        candidate = nearest - rem
        candidate += unit * ((rem > unit / 2) | (halfway & up))
        del rem
        inside = (candidate > below) & (candidate < above)
        candidate -= offset
        candidate *= inside
        offset += candidate
        halfway &= ~(up | down)
        tie = (tie & ~inside) | (halfway & inside)
    del below, above, nearest, ends, candidate
    digits += offset.astype(np.int64)
    del offset
    ok &= ~tie & (digits >= 10**16) & (digits < 10**17)
    lead = digits // 10**16
    digits -= lead * 10**16
    lead += zeros * np.int64(10)
    # a row: 8 bytes of head, then the four groups of four digits; words of 8 and 4 aligned bytes
    out = np.empty((values.shape[0], REPR_WIDTH), dtype=np.uint8)
    out.view(np.uint64)[:, 0] = heads[lead]
    del lead
    upper = digits // 10**8
    digits -= upper * 10**8
    words = out.view(np.uint32)
    tail = np.ones(values.shape[0], dtype=bool)  # the groups after this one are zero
    for column, group in ((5, digits), (3, upper)):
        high = group // 10**4
        group -= high * 10**4
        words[:, column] = groups[group + 10_000 * tail]
        tail &= group == 0
        words[:, column - 1] = groups[high + 10_000 * tail]
        tail &= high == 0
    slow = np.flatnonzero(~ok)
    if slow.shape[0]:
        texts = [repr(v) for v in values[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{REPR_WIDTH}").view(np.uint8).reshape(-1, REPR_WIDTH)
    return out


def _two_product_error(x: np.ndarray, product: np.ndarray, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """x y - fl(x y) exactly, for y = high + low split in halves of at most 26 bits (Dekker, without fma).

    ``high`` and ``low`` are overwritten.
    """
    split = x * _SPLIT
    x_high = split - (split - x)
    x_low = np.subtract(x, x_high, out=split)
    error = x_high * high
    error -= product
    x_high *= low
    error += x_high
    high *= x_low
    error += high
    x_low *= low
    error += x_low
    return error


def _exact_sum(a: np.ndarray, b: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """fl(a + b); clears ok where the sum is not exact (Knuth's two-sum error is nonzero)."""
    total = a + b
    b_part = total - a
    error = (a - (total - b_part)) + (b - b_part)
    ok &= error == 0
    return total
