"""Seeded Monte Carlo realization of solenoid laws, and equidistribution tests.

A law is a tree of ``laws`` variants, which ``_block_adder`` draws as
depth-N circle coordinates in [0,1), reproducible bit-for-bit from (law,
depth, n, seed) via independent split random streams.

``draw`` sets a draw up once: it refuses what the law cannot draw at the
depth and builds the law's block step, before any row is drawn.
``Draw.blocks`` is the sampler's one draw loop: it yields a draw's
coordinates over ``_kernels.row_blocks``, each stream continuing from block
to block, so the draws do not depend on the block size; a composite law
sums its parts in a block by ``_add_sum``.  It serves both consumers:
``sample`` forms a batch from its blocks, and ``linear_form`` adds one
block of every part, scaled, into that block's sum, which it takes mod 1
and down the tower in place before the next block is drawn.  Every batch
is formed by ``_kernels.build_batch``, a block at a time: a batch on few
atoms is held as one uint8 or uint16 atom index per draw, any other as
its float64 coordinates.  So ``monte_carlo_equidist`` holds its reference
and combined batches, 1, 2 or 8 bytes per draw each, plus block-sized
temporaries, whatever the law tree and however many coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import _kernels
from ._numpy import np
from .errors import CharacterOutsideGroup, CharacterTooDeep, DepthInsufficient, SpecMismatch
from .laws import ConvolutionOf, Degenerate, GaussianLine, HaarAnnihilator, Mixture, SamplerSpec, Shifted, fiber_order
from .steinitz import CoefficientSystem, Rational, SteinitzSpec, _split_by_table, in_dual_group, is_automorphism

BIT_GENERATOR = "PCG64"


# ---------------------------------------------------------------------------
# the block step of a law


def _add_sum(out: np.ndarray, adders: Sequence[Callable], counts: Iterable) -> None:
    """Add to `out` the sum mod 1 of the parts' draws, part i drawn by ``adders[i]`` with counts i.

    The sum and its floor are block-sized, as `out` is; the sum is taken
    mod 1 by ``_kernels._frac`` in place.
    """
    total = np.zeros(len(out))
    for add_part, k in zip(adders, counts):
        add_part(total, k)
    out += _kernels._frac(total, total)


def _multiples(r: Fraction, counts, level: int) -> np.ndarray:
    """k*r/level mod 1 for each count k, exact in Fractions per distinct k.

    Every exact shift enters a draw here: a point, an offset or a gaussian mean.
    """
    unit = r / level
    ks, inverse = np.unique(counts, return_inverse=True)
    return np.array([float(int(k) * unit % 1) for k in ks])[inverse]


def _block_adder(law: SamplerSpec, depth: int, rng: np.random.Generator) -> Callable[[np.ndarray, object], None]:
    """The block step of one draw of `law` at `depth` from `rng`.

    This runs once per draw: it spawns the streams of the law's parts and
    refuses what the draw cannot do (a haar fiber past int64, a sigma past
    the float range; TypeError for an unknown variant).  The step ``add(out,
    counts)`` then adds to each row of `out` the sum of its `counts` i.i.d.
    copies of the law, `counts` one int or an int64 array of len(out); a
    count of 0 adds exactly 0.  Each sum is drawn in closed form, so the cost
    does not grow with the count.  Consecutive steps continue every stream,
    so the rows do not depend on how a draw is cut into blocks.
    """
    if isinstance(law, Degenerate):
        x, level = law.x.real_value, law.ambient.level(depth)

        def add(out, counts):
            out += _multiples(x, counts, level)

    elif isinstance(law, HaarAnnihilator):
        d = None if law.E.trivial else fiber_order(law.E, depth)

        def add(out, counts):
            x = rng.random(len(out)) if d is None else rng.integers(0, d, size=len(out)) / d
            x *= np.asarray(counts) > 0
            out += x

    elif isinstance(law, GaussianLine):
        # k copies sum to a normal law with mean k*mean and deviation sqrt(k)*s;
        # the mean enters exactly, however large it is
        s, level, mean = law.s, law.spec.level(depth), law.mean

        def add(out, counts):
            z = rng.standard_normal(len(out))
            z *= np.sqrt(counts) * s
            z /= float(level)
            if mean:  # a zero mean shifts nothing; skip the sort of array counts
                z += _multiples(mean, counts, level)
            out += _kernels._frac(z, z)

    elif isinstance(law, Mixture):
        # split each draw's copies among the parts; a part that receives
        # none of a draw's copies adds exactly 0 to it
        probs = np.array([float(w) for w in law.weights])
        probs /= probs.sum()
        adders = [_block_adder(part, depth, child) for part, child in zip(law.parts, rng.spawn(len(law.parts)))]

        def add(out, counts):
            split = rng.multinomial(counts, probs, size=None if np.ndim(counts) else len(out))
            _add_sum(out, adders, split.T)

    elif isinstance(law, (Shifted, ConvolutionOf)):
        if isinstance(law, Shifted):  # the law draws on this law's own stream; the point draws nothing
            adders = [_block_adder(law.law, depth, rng), _block_adder(Degenerate(law.x), depth, rng)]
        else:
            adders = [_block_adder(part, depth, child) for part, child in zip(law.parts, rng.spawn(len(law.parts)))]

        def add(out, counts):
            _add_sum(out, adders, (counts,) * len(adders))

    else:
        raise TypeError(f"cannot draw sampling law {law!r}")
    return add


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Depth-N circle coordinates of i.i.d. draws, with their seed record.

    ``draws`` holds the coordinates as float64, or for a batch on few atoms
    as ``(atoms, counts, index)``: its distinct coordinates, the draws on
    each, and each row's atom as a uint8 or uint16 index, which
    ``_kernels.build_batch`` forms from the blocks that ``sample``,
    ``project`` and ``linear_form`` pass it.  A batch made from float64
    coordinates keeps them as given.  The cf sums and the CSV writer gather
    by the index, and the Kuiper test reads atoms and counts.
    """

    spec: SteinitzSpec
    depth: int
    draws: np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]
    seed_record: str

    @property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(atoms, counts, index)``, or None for a batch held as its float64 coordinates."""
        return None if isinstance(self.draws, np.ndarray) else self.draws

    @property
    def coords(self) -> np.ndarray:
        """The float64 coordinates; a batch on atoms builds them anew at each read."""
        return self.draws if self.atoms is None else self.draws[0][self.draws[2]]

    @property
    def n(self) -> int:
        return int((self.draws if self.atoms is None else self.draws[2]).shape[0])

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """The coordinates as ``(rows, values)`` pairs, a block of rows at a time, as a ``Draw`` yields them."""
        for rows in _kernels.row_blocks(self.n):
            yield rows, self.draws[rows] if self.atoms is None else self.draws[0][self.draws[2][rows]]

    def project(self, depth: int) -> "SampleBatch":
        """Push the batch down the tower to a shallower depth."""
        if depth == self.depth:
            return self
        scratch = np.empty(min(self.n, _kernels.BLOCK_ROWS))
        pushed = (
            (rows, _push_down(self.spec, self.depth, values, depth, scratch=scratch[: values.shape[0]]))
            for rows, values in self.blocks()
        )
        return SampleBatch(self.spec, depth, _kernels.build_batch(self.n, pushed), self.seed_record)


def _push_down(
    spec: SteinitzSpec,
    from_depth: int,
    values: np.ndarray,
    depth: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Coordinates at `from_depth` taken down the tower to `depth`, by the float steps of project.

    The step is t * (level(from_depth) / level(depth)) mod 1, the mod taken
    by ``_kernels._frac`` with its floor in ``scratch`` (of values' length)
    when it is given, else in a temporary of that length; so a caller with
    a full-length array goes a block at a time.  With ``out`` the result is
    written there, else a new array is made unless the depths are equal.
    """
    if depth > from_depth:
        raise DepthInsufficient(f"cannot project depth {from_depth} up to {depth}")
    if depth == from_depth:
        if out is None:
            return values
        np.copyto(out, values)
        return out
    ratio = spec.level(from_depth) // spec.level(depth)
    out = np.multiply(values, float(ratio), out=out)
    return _kernels._frac(out, out, scratch)


def _refuse_deep_level(spec: SteinitzSpec, depth: int) -> None:
    """Refuse a depth whose tower level exceeds int64.

    Every tower term is at least 2, so level(d) >= 2^d exceeds int64 from
    d = 63 on, refused before any level is built; building a lower one
    raises DepthUnavailable for an invalid depth.
    """
    if 63 <= depth <= spec.max_depth or spec.level(depth) > np.iinfo(np.int64).max:
        raise DepthInsufficient(f"the tower level at depth {depth} exceeds int64")


@dataclass(frozen=True, eq=False)
class Draw:
    """n i.i.d. depth-N coordinates of a law, seeded and checked but drawn only as they are read.

    ``add`` is the law's block step, set up by ``draw``.  ``blocks()``, the
    sampler's one block loop, draws the coordinates with it as ``(rows,
    values)`` pairs, a block of rows at a time, each stream continuing from
    block to block; a draw is read once.  ``sample`` fills a batch from it,
    and ``linear_form`` takes a draw in place of a batch, so that no part of
    its sum is ever held whole.
    """

    spec: SteinitzSpec
    depth: int
    n: int
    copies: int
    seed_record: str
    add: Callable[[np.ndarray, object], None] = field(repr=False)

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        for rows in _kernels.row_blocks(self.n):
            yield rows, self._block(rows.stop - rows.start)

    def _block(self, size: int) -> np.ndarray:
        # a function of its own, so that a suspended blocks() holds no block
        values = np.zeros(size)
        self.add(values, self.copies)
        return values


def draw(law: SamplerSpec, depth: int, n: int, seed, copies: int = 1) -> Draw:
    """The draw that ``sample`` makes, set up but not yet drawn.

    The law is refused here if it cannot be drawn at `depth`: a tower level
    past int64 (``_refuse_deep_level``), then whatever the set-up of its
    block step refuses (a haar fiber past int64, a sigma past the float
    range).  With `copies` = k each coordinate is the sum of k independent
    draws of the law, drawn in closed form as one draw of the k-fold
    convolution, so the cost does not grow with k.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if copies < 1:
        raise ValueError("need at least one copy")
    _refuse_deep_level(law.ambient, depth)
    if isinstance(seed, np.random.SeedSequence):
        record = f"{BIT_GENERATOR}(entropy={seed.entropy}, spawn_key={seed.spawn_key})"
        # a fresh copy of the seed its record names: the law's parts spawn their streams
        # from it, and spawning from the caller's object would change a second call's draws
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    else:
        record = f"{BIT_GENERATOR}(seed={seed})"
        seed = np.random.SeedSequence(seed)
    add = _block_adder(law, depth, np.random.Generator(np.random.PCG64(seed)))
    return Draw(law.ambient, depth, n, copies, record, add)


def sample(law: SamplerSpec, depth: int, n: int, seed, copies: int = 1) -> SampleBatch:
    """Draw n i.i.d. depth-N coordinates of the law, reproducibly from seed.

    The coordinates are those of ``draw(law, depth, n, seed, copies)``,
    formed from its blocks by ``_kernels.build_batch`` after the law is
    checked.
    """
    part = draw(law, depth, n, seed, copies)
    return SampleBatch(part.spec, depth, _kernels.build_batch(n, part.blocks()), part.seed_record)


# ---------------------------------------------------------------------------
# linear forms in independent draws


def _refuse_unsampled(spec: SteinitzSpec, distinct: Iterable[Fraction]) -> None:
    """ValueError unless each coefficient is an automorphism with a numerator of at most 2^53 in absolute value.

    That is the bound ``empirical_cf`` applies to character multipliers: a
    coordinate times a larger one keeps no fractional bits.
    """
    for c in distinct:
        if not is_automorphism(spec, c):
            raise ValueError(f"coefficient {c} is not an automorphism of this solenoid")
        if abs(c.numerator) > 2**53:
            raise ValueError(
                f"coefficient {c} has a numerator beyond 2^53, which a float coordinate cannot resolve"
            )


def required_depth(spec: SteinitzSpec, coeffs: Iterable[Fraction | int], depth: int) -> int:
    """Sampling depth that makes a linear form exact down at `depth` for coefficients given as Fractions or ints.

    The unseen digits of a draw beyond its sampling depth M contribute
    alpha * A_M * (integer) to the sum; those terms vanish modulo A_depth
    exactly when every coefficient denominator divides A_M / A_depth.
    """
    need = math.lcm(*(c.denominator for c in coeffs))
    exponents, rest = _split_by_table(spec, need)
    # a prime outside the table never occurs in the tower; each table prime
    # power r^e must fit among the tower's factors of r above level `depth`
    if rest != 1 or any(
        depth > spec.max_depth or spec.multiplicity(r) - spec.level_valuation(r, depth) < e
        for r, e in exponents.items()
    ):
        raise DepthInsufficient(
            f"tower cannot absorb coefficient denominators {need} above depth {depth}"
        )
    m = depth
    ratio = 1
    while ratio % need:
        ratio *= spec.tower_prefix(m + 1)[m]
        m += 1
    return m


def linear_form(
    batches: Iterable[SampleBatch | Draw], coeffs: CoefficientSystem | Sequence[Rational], depth: int | None = None
) -> SampleBatch:
    """Per-draw sum of coefficient-scaled parts, taken down to `depth`.

    ``batches`` may be any iterable with one part per entry of the system,
    flat or built, in its order: drawn batches, or ``Draw``s, whose rows are
    drawn as they are added.  The parts are read whole before the first
    sum, so a generator of batches has all of them alive at once.  The sum is formed a block of rows at a
    time: each part's block, scaled, is added into the block's sum, part
    after part, which is taken mod 1 (``_kernels._frac``) and down to
    `depth` in place once the parts' blocks are drawn, and handed to
    ``_kernels.build_batch``; so no n-sized array but the result appears.
    All parts must share spec, depth and size.  `depth` defaults to the
    parts' own.  When the first part arrives, before any further one, the
    coefficients pass the check ``monte_carlo_equidist`` applies
    (ValueError otherwise: each is an automorphism with a numerator of at
    most 2^53), and the parts must be at least ``required_depth`` deep for
    `depth` (DepthInsufficient otherwise), so that the truncated coordinate
    arithmetic agrees with the true law of the linear form there.
    """
    system = CoefficientSystem.of(coeffs)
    parts = iter(batches)
    held = []
    for _ in range(system.size):
        part = next(parts, None)
        if part is None:
            raise ValueError("need one batch per coefficient")
        if not held:
            spec, m_depth, n, record = part.spec, part.depth, part.n, part.seed_record
            depth = m_depth if depth is None else depth
            distinct = system.distinct
            _refuse_unsampled(spec, distinct)
            if required_depth(spec, distinct, depth) > m_depth:
                raise DepthInsufficient(
                    f"batches at depth {m_depth} are too shallow for an exact depth-{depth} linear form"
                )
        elif part.spec != spec:
            raise SpecMismatch("batches live over different solenoids")
        elif part.depth != m_depth or part.n != n:
            raise ValueError("batches must share depth and size")
        held.append(part)
    if next(parts, None) is not None:
        raise ValueError("need one coefficient per batch")
    streams = [(float(c), part.blocks()) for c, part in zip(system.expanded(), held)]

    def sums() -> Iterator[tuple[slice, np.ndarray]]:
        for rows in _kernels.row_blocks(n):
            total = np.zeros(rows.stop - rows.start)
            for scale, blocks in streams:
                total += next(blocks)[1] * scale
            yield rows, _push_down(spec, m_depth, _kernels._frac(total, total), depth, out=total)

    return SampleBatch(spec, depth, _kernels.build_batch(n, sums()), record)


# ---------------------------------------------------------------------------
# empirical characteristic function


@dataclass(frozen=True, eq=False)
class EmpiricalCF:
    chars: tuple[Fraction, ...]
    estimates: np.ndarray
    radius: float  # 3/sqrt(n) confidence disk around each estimate


def _multipliers(spec: SteinitzSpec, depth: int, ys: Sequence[Fraction]) -> list[float]:
    """Integer multipliers y * A_depth of the characters on depth-`depth` coordinates.

    CharacterOutsideGroup for a y outside the dual group, CharacterTooDeep
    for one the depth does not resolve or whose multiplier exceeds 2^53.
    """
    level = spec.level(depth)
    multipliers = []
    for y in ys:
        if not in_dual_group(spec, y):
            raise CharacterOutsideGroup(f"{y} is not a character of this solenoid")
        m = y * level
        if m.denominator != 1:
            raise CharacterTooDeep(
                f"character {y} needs more than the batch's {depth} levels"
            )
        if abs(m) > 2**53:  # m*t keeps no fractional bits for t >= 1/2
            raise CharacterTooDeep(
                f"character {y} has multiplier {m} beyond 2^53 at depth {depth}, "
                f"which a float coordinate cannot resolve"
            )
        multipliers.append(float(m))
    return multipliers


def empirical_cf(batch: SampleBatch, ys: Sequence[Rational]) -> EmpiricalCF:
    """Mean of the character values over the batch, for each character."""
    ys = [Fraction(y) for y in ys]
    multipliers = _multipliers(batch.spec, batch.depth, ys)
    values, _, draws = batch.atoms or (None, None, batch.draws)
    estimates = _kernels.cf_sums(draws, np.array(multipliers), values)
    return EmpiricalCF(tuple(ys), estimates, 3.0 / math.sqrt(batch.n))


# ---------------------------------------------------------------------------
# Kuiper two-sample test


def _kuiper_p(v: float, n_eff: float) -> float:
    """Asymptotic tail probability for the Kuiper V statistic.

    The usual series with the finite-sample scale factor; conservative for
    heavily tied (lattice-valued) data, which only makes the test less
    likely to reject.
    """
    root = math.sqrt(n_eff)
    lam = (root + 0.155 + 0.24 / root) * v
    if lam < 0.4:
        return 1.0
    total = 0.0
    for m in range(1, 200):
        t = 2.0 * (m * lam) ** 2
        term = (2.0 * t - 1.0) * math.exp(-t)
        total += term
        if m > 3 and abs(term) < 1e-14:
            break
    return min(1.0, max(0.0, 2.0 * total))


_TIE_GRID = float(1 << 40)


def _refuse_past_tie_grid(spec: SteinitzSpec, depth: int) -> None:
    """Refuse a Kuiper depth whose tower level exceeds the tie grid: there it no longer separates atoms."""
    if spec.level(depth) > _TIE_GRID:
        raise DepthInsufficient(f"the tower level at depth {depth} exceeds 2^40, the tie grid of the Kuiper test")


def _snap(coords: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """Quantize circle coordinates to a fixed binary grid.

    Lattice-valued laws produce atoms, and different arithmetic paths (direct
    sampling vs. a linear form) can land on the same atom one ulp apart;
    left unquantized, that splits ties and fabricates a huge ECDF gap.  The
    grid of 2^-40 is far below any statistical resolution yet far above
    accumulated rounding error, and the modulus keeps wrap-around values on
    the zero atom.  A coordinate t becomes frac(round(t 2^40) / 2^40): for
    the integer r = round(t 2^40) the division is exact and so is the
    subtraction of the floor, whose result (r mod 2^40) / 2^40 is a float,
    so these are the floats of np.mod(r, 2^40) / 2^40.  The result goes to
    ``out`` (which may be ``coords``), or to the one new array; the floor
    goes to ``scratch`` (of coords' length), or to a temporary.
    """
    out = np.multiply(coords, _TIE_GRID, out=out)  # the rest works in place
    np.round(out, out=out)
    out /= _TIE_GRID
    return _kernels._frac(out, out, scratch)


def kuiper_two_sample(batch1: SampleBatch, batch2: SampleBatch, depth: int | None = None) -> tuple[float, float]:
    """Kuiper V statistic and asymptotic p-value for two coordinate batches.

    Both batches are taken down the tower to `depth` (by default their own)
    and snapped to the tie grid; a depth whose tower level exceeds the grid
    is refused (DepthInsufficient).  A batch with atoms is compared through
    them, each atom standing for its count of draws, and one without
    through its draws; either way V and p are the floats of the
    draw-by-draw comparison.  Atom values take the float steps of project
    and _snap that their draws would take, so each count lands on the value
    its draws would have.  The steps run in place in the halves of one
    pooled array, in which the kernel then builds its sort keys, a block at
    a time on the calling thread, with the floors in one block of scratch.
    """
    if batch1.spec != batch2.spec:
        raise SpecMismatch("batches live over different solenoids")
    if batch1.depth != batch2.depth:
        raise ValueError("batches must share a depth")
    depth = batch1.depth if depth is None else depth
    _refuse_past_tie_grid(batch1.spec, depth)
    (a, a_counts), (b, b_counts) = ((batch.atoms or (batch.draws, None))[:2] for batch in (batch1, batch2))
    keys = np.empty(a.shape[0] + b.shape[0], dtype=np.uint64)
    a_out, b_out = np.split(keys.view(np.float64), [a.shape[0]])
    scratch = np.empty(min(max(a.shape[0], b.shape[0]), _kernels.BLOCK_ROWS))
    for values, out in ((a, a_out), (b, b_out)):
        for rows in _kernels.row_blocks(values.shape[0]):
            block, floor = out[rows], scratch[: rows.stop - rows.start]
            _snap(_push_down(batch1.spec, batch1.depth, values[rows], depth, out=block, scratch=floor), block, floor)
    dplus, dminus = _kernels.kuiper_deltas(a_out, b_out, a_counts, b_counts, out=keys)
    v = dplus + dminus
    n_eff = batch1.n * batch2.n / (batch1.n + batch2.n)
    return v, _kuiper_p(v, n_eff)


# ---------------------------------------------------------------------------
# Monte Carlo equidistribution check


@dataclass(frozen=True)
class CharacterGap:
    char: Fraction
    reference: complex
    combined: complex
    gap: float
    p_value: float
    adjusted_p: float


@dataclass(frozen=True)
class KuiperRow:
    depth: int
    statistic: float
    p_value: float
    adjusted_p: float


@dataclass(frozen=True, eq=False)
class EquidistReport:
    law: SamplerSpec
    coeffs: CoefficientSystem
    n: int
    depth: int
    seed: int
    alpha: float
    bit_generator: str
    character_rows: tuple[CharacterGap, ...]
    kuiper_rows: tuple[KuiperRow, ...]
    verdict: str  # "consistent" | "inconsistent"
    reference: SampleBatch = field(repr=False)
    combined: SampleBatch = field(repr=False)


def _two_sample_cf_p(n: int, gap: float) -> float:
    """Hoeffding bound on seeing this empirical cf gap between equal laws.

    Real and imaginary parts of each mean concentrate within
    2 exp(-n t^2 / 2); a union bound over both parts of both batches gives
    8 exp(-n gap^2 / 16).
    """
    return min(1.0, 8.0 * math.exp(-n * gap * gap / 16.0))


def default_charset(spec: SteinitzSpec, depth: int) -> tuple[Fraction, ...]:
    """Small deterministic character panel resolvable at the given depth."""
    ys = {Fraction(m) * Fraction(1, spec.level(d)) for d in range(depth + 1) for m in (1, 2, 3)}
    return tuple(sorted(ys))


def monte_carlo_equidist(
    law: SamplerSpec,
    coeffs: CoefficientSystem | Sequence[Rational],
    n: int = 100_000,
    depth: int = 4,
    charset: Sequence[Rational] | None = None,
    seed: int = 0,
    alpha: float = 0.01,
) -> EquidistReport:
    """Compare one draw's law against the linear form of independent copies.

    Draws a reference batch of the law and, for each distinct coefficient
    alpha with count k, one draw whose coordinates are sums of k independent
    copies; the linear form is the sum of alpha times those draws, each
    added into it a block at a time.  The seed spawns one child stream per
    draw: the first for the reference, then one per distinct coefficient in
    increasing order.  The two resulting samples are tested for equality in
    law: empirical characteristic-function gaps on the character panel
    (Hoeffding p-values) plus Kuiper two-sample tests at every depth down
    the tower.
    The verdict applies a Bonferroni correction across all tests at the
    given level alpha, which must lie strictly between 0 and 1 (ValueError
    otherwise, NaN included).  Coefficients must be automorphisms with
    numerators of at most 2^53 (ValueError).  A depth whose tower level
    exceeds the 2^40 tie grid is refused before any draw (DepthInsufficient):
    there the grid no longer separates the lattice's atoms.  So are a law
    that cannot be drawn at the coefficients' sampling depth, which covers
    the test depth (the refusals of ``draw``, as the parts are set up), and
    a character the depth cannot resolve (the errors of ``empirical_cf``).
    The report keeps the reference and combined batches that were tested,
    and the coefficient system.
    """
    if not 0 < alpha < 1:  # NaN fails both comparisons
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    system = CoefficientSystem.of(coeffs)
    spec = law.ambient
    counts = system.counts
    distinct = [c for c, _ in counts]
    _refuse_unsampled(spec, distinct)
    _refuse_deep_level(spec, depth)
    _refuse_past_tie_grid(spec, depth)
    deep = required_depth(spec, distinct, depth)
    children = np.random.SeedSequence(seed).spawn(len(counts) + 1)
    # one draw per distinct coefficient, set up (and so checked) here, drawn
    # into the sum a block at a time; the law's refusals only grow with
    # depth, so these cover the reference's at `depth`
    parts = [draw(law, deep, n, child, copies=k) for (_, k), child in zip(counts, children[1:])]
    chars = tuple(Fraction(y) for y in charset) if charset is not None else default_charset(spec, depth)
    _multipliers(spec, depth, chars)  # both batches are tested at `depth`
    reference = sample(law, depth, n, children[0])
    combined = linear_form(parts, distinct, depth=depth)

    ref_cf = empirical_cf(reference, chars)
    comb_cf = empirical_cf(combined, chars)
    kuiper_depths = list(range(1, depth + 1)) if depth >= 1 else [0]
    tests = len(chars) + len(kuiper_depths)

    char_rows = []
    for y, a, b in zip(chars, ref_cf.estimates, comb_cf.estimates):
        gap = abs(a - b)
        p = _two_sample_cf_p(n, gap)
        char_rows.append(CharacterGap(y, complex(a), complex(b), float(gap), p, min(1.0, p * tests)))
    kuiper_rows = []
    for d in kuiper_depths:
        v, p = kuiper_two_sample(reference, combined, d)
        kuiper_rows.append(KuiperRow(d, v, p, min(1.0, p * tests)))

    worst = min(r.adjusted_p for r in char_rows + kuiper_rows)
    verdict = "consistent" if worst >= alpha else "inconsistent"
    return EquidistReport(law, system, n, depth, seed, alpha, BIT_GENERATOR, tuple(char_rows), tuple(kuiper_rows),
                          verdict, reference, combined)
