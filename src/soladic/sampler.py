"""Seeded Monte Carlo realization of solenoid laws, and equidistribution tests.

A sampling law is described by a small tree of variants (point mass, Haar
measure of an annihilator subgroup, pushed-forward line Gaussian, mixture,
shift, convolution).  Every variant knows its own exact characteristic
function, which is what the statistical checks compare against: draws are
depth-N circle coordinates in [0,1), reproducible bit-for-bit from
(law, depth, n, seed) via independent split random streams.

``draw`` sets a draw up once: it refuses what the law cannot draw at the
depth and builds the law's block step, before any row is drawn.
``Draw.blocks`` is the sampler's one draw loop: it yields a draw's
coordinates over ``_kernels.row_blocks``, each stream continuing from block
to block, so the draws do not depend on the block size; a composite law
sums its parts in a block by ``_add_sum``.  It serves both consumers:
``sample`` fills a batch from it, allocated once, and ``linear_form`` adds
each part's blocks, scaled, straight into its running sum, which it then
takes mod 1 and down the tower in place.  So ``monte_carlo_equidist``
holds two n-sized arrays, the reference batch and the combined sum, 8
bytes per draw each, plus block-sized temporaries, whatever the law tree
and however many coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import _kernels
from ._numpy import np
from .charfun import StratifiedCF, SubgroupSpec, _mixture_weights, gaussian_cf, haar_cf
from .charfun import mixture as cf_mixture
from .errors import (
    CharacterOutsideGroup,
    CharacterTooDeep,
    DepthInsufficient,
    SpecMismatch,
)
from .steinitz import Rational, SteinitzSpec, _split_by_table, coefficient_counts, in_dual_group, is_automorphism
from .tower import SolenoidPoint

BIT_GENERATOR = "PCG64"


# ---------------------------------------------------------------------------
# sampling laws


class SamplerSpec:
    """Base class for sampling-law descriptions."""

    @property
    def ambient(self) -> SteinitzSpec:
        raise NotImplementedError

    def exact_cf(self) -> StratifiedCF:
        raise NotImplementedError

    def _block_adder(self, depth: int, rng: np.random.Generator) -> Callable[[np.ndarray, object], None]:
        """The block step of one draw of the law at `depth` from `rng`.

        This runs once per draw: it spawns the streams of the law's parts and
        refuses what the draw cannot do (a haar fiber past int64, a sigma
        past the float range).  The step ``add(out, counts)`` then adds to
        each row of `out` the sum of its `counts` i.i.d. copies of the law,
        `counts` being one int or an int64 array of len(out); a count of 0
        adds exactly 0.  Every variant draws the sum in closed form, so the
        cost does not grow with the count.  Consecutive steps continue every
        stream, so the rows do not depend on how a draw is cut into blocks.
        """
        raise NotImplementedError


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


@dataclass(frozen=True)
class Degenerate(SamplerSpec):
    """Point mass at an exactly representable point."""

    x: SolenoidPoint

    @property
    def ambient(self) -> SteinitzSpec:
        return self.x.spec

    def exact_cf(self) -> StratifiedCF:
        return gaussian_cf(self.ambient, 0, self.x)

    def _block_adder(self, depth, rng):
        x, level = self.x.real_value, self.ambient.level(depth)

        def add(out, counts):
            out += _multiples(x, counts, level)

        return add


@dataclass(frozen=True)
class HaarAnnihilator(SamplerSpec):
    """Haar measure of the closed subgroup annihilating E.

    The depth-N marginal is uniform on the fiber {j/d_N : 0 <= j < d_N} with
    d_N the least positive integer m such that m/A_N lies in E; when E is the
    zero subgroup the fiber degenerates to the whole circle and the draw is
    continuous uniform (the law is Haar measure of the full solenoid).  Haar
    measure convolved with itself is itself, so a sum of k >= 1 copies is one
    draw.
    """

    E: SubgroupSpec

    @property
    def ambient(self) -> SteinitzSpec:
        return self.E.spec

    def exact_cf(self) -> StratifiedCF:
        return haar_cf(self.E)

    def _block_adder(self, depth, rng):
        d = None if self.E.trivial else fiber_order(self.E, depth)

        def add(out, counts):
            x = rng.random(len(out)) if d is None else rng.integers(0, d, size=len(out)) / d
            x *= np.asarray(counts) > 0
            out += x

        return add


def fiber_order(subgroup: SubgroupSpec, depth: int) -> int:
    """Least positive m with m/A_depth inside the subgroup.

    DepthInsufficient when m - 1 exceeds int64, in which rng.integers draws
    residues.  p^e >= 2^(e (bits(p) - 1)), so an oversize prime power is
    refused before it is built.
    """
    spec = subgroup.spec
    if subgroup.trivial:
        raise DepthInsufficient("the zero subgroup has no finite fiber at any depth")
    d = 1
    for p, t in subgroup.thresholds:
        e = t + spec.level_valuation(p, depth)
        if e > 0:
            if e * (p.bit_length() - 1) > 63 or (d := d * p**e) > 1 << 63:
                raise DepthInsufficient(
                    f"the haar fiber of {subgroup} at depth {depth} has an order beyond int64"
                )
    return d


@dataclass(frozen=True)
class GaussianLine(SamplerSpec):
    """Pushforward of a real-line normal law through the canonical embedding.

    Parameterized by the rational decay sigma of its characteristic function
    exp(-sigma y^2); the line standard deviation is the derived float
    s = sqrt(sigma / (2 pi^2)), so sigma = 2 pi^2 s^2 holds exactly in the
    symbolic layer and to double precision in the sampling layer.  The mean
    enters the draws exactly, through ``_multiples``, however large it is.
    """

    spec: SteinitzSpec
    sigma: Fraction
    mean: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))
        object.__setattr__(self, "mean", Fraction(self.mean))
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def ambient(self) -> SteinitzSpec:
        return self.spec

    @property
    def s(self) -> float:
        """The line standard deviation; ValueError for a sigma past the float range."""
        try:
            return math.sqrt(float(self.sigma) / (2 * math.pi**2))
        except OverflowError:
            raise ValueError(
                "gaussian draws leave the float range of the sampler: sigma is beyond about 1.8e308"
            ) from None

    def exact_cf(self) -> StratifiedCF:
        return gaussian_cf(self.spec, self.sigma, self.mean)

    def _block_adder(self, depth, rng):
        # k copies sum to a normal law with mean k*mean and deviation sqrt(k)*s
        s, level = self.s, self.spec.level(depth)

        def add(out, counts):
            z = rng.standard_normal(len(out))
            z *= np.sqrt(counts) * s
            z /= float(level)
            if self.mean:  # a zero mean shifts nothing; skip the sort of array counts
                z += _multiples(self.mean, counts, level)
            out += _kernels._frac(z, z)

        return add


@dataclass(frozen=True)
class Mixture(SamplerSpec):
    weights: tuple[Fraction, ...]
    parts: tuple[SamplerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        specs = [p.ambient for p in self.parts]
        object.__setattr__(self, "weights", _mixture_weights(tuple(self.weights), specs))

    @property
    def ambient(self) -> SteinitzSpec:
        return self.parts[0].ambient

    def exact_cf(self) -> StratifiedCF:
        return cf_mixture(self.weights, [p.exact_cf() for p in self.parts])

    def _block_adder(self, depth, rng):
        # split each draw's copies among the parts; a part that receives
        # none of a draw's copies adds exactly 0 to it
        probs = np.array([float(w) for w in self.weights])
        probs /= probs.sum()
        adders = [part._block_adder(depth, child) for part, child in zip(self.parts, rng.spawn(len(self.parts)))]

        def add(out, counts):
            split = rng.multinomial(counts, probs, size=None if np.ndim(counts) else len(out))
            _add_sum(out, adders, split.T)

        return add


@dataclass(frozen=True)
class Shifted(SamplerSpec):
    """A law translated by an exactly representable point."""

    x: SolenoidPoint
    law: SamplerSpec

    def __post_init__(self):
        if self.x.spec != self.law.ambient:
            raise SpecMismatch("shift point lives over a different solenoid")

    @property
    def ambient(self) -> SteinitzSpec:
        return self.law.ambient

    def exact_cf(self) -> StratifiedCF:
        return gaussian_cf(self.ambient, 0, self.x) * self.law.exact_cf()

    def _block_adder(self, depth, rng):
        # the law draws on this law's own stream; the point draws nothing
        adders = self.law._block_adder(depth, rng), Degenerate(self.x)._block_adder(depth, rng)

        def add(out, counts):
            _add_sum(out, adders, (counts, counts))

        return add


@dataclass(frozen=True)
class ConvolutionOf(SamplerSpec):
    """Sum of independent draws, one from each part."""

    parts: tuple[SamplerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("need at least one part")
        if any(p.ambient != self.parts[0].ambient for p in self.parts):
            raise SpecMismatch("convolution parts live over different solenoids")

    @property
    def ambient(self) -> SteinitzSpec:
        return self.parts[0].ambient

    def exact_cf(self) -> StratifiedCF:
        out = self.parts[0].exact_cf()
        for p in self.parts[1:]:
            out = out * p.exact_cf()
        return out

    def _block_adder(self, depth, rng):
        adders = [part._block_adder(depth, child) for part, child in zip(self.parts, rng.spawn(len(self.parts)))]

        def add(out, counts):
            _add_sum(out, adders, (counts,) * len(adders))

        return add


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Depth-N circle coordinates of i.i.d. draws, with their seed record.

    A batch finds its atoms once, on first use, and keeps them: its distinct
    coordinates with their counts (``_kernels.atom_keys``), or None when they
    are more than half the draws or more than ``_kernels.BLOCK_ROWS``.  The
    cf sums, the CSV writer (each row's atom by ``_kernels.atom_rows``) and
    the Kuiper test all read that one result, so a batch is sorted once.
    """

    spec: SteinitzSpec
    depth: int
    coords: np.ndarray
    seed_record: str

    @property
    def n(self) -> int:
        return int(self.coords.shape[0])

    @functools.cached_property
    def _atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        return _kernels.atom_keys(self.coords)

    def blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """The coordinates as ``(rows, values)`` pairs, a block of rows at a time, as a ``Draw`` yields them."""
        return ((rows, self.coords[rows]) for rows in _kernels.row_blocks(self.n))

    def project(self, depth: int) -> "SampleBatch":
        """Push the batch down the tower to a shallower depth."""
        if depth == self.depth:
            return self
        coords, scratch = np.empty(self.n), np.empty(min(self.n, _kernels.BLOCK_ROWS))
        for rows, values in self.blocks():
            _push_down(self.spec, self.depth, values, depth, out=coords[rows], scratch=scratch[: values.shape[0]])
        return SampleBatch(self.spec, depth, coords, self.seed_record)


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
            values = np.zeros(rows.stop - rows.start)
            self.add(values, self.copies)
            yield rows, values


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
    add = law._block_adder(depth, np.random.Generator(np.random.PCG64(seed)))
    return Draw(law.ambient, depth, n, copies, record, add)


def sample(law: SamplerSpec, depth: int, n: int, seed, copies: int = 1) -> SampleBatch:
    """Draw n i.i.d. depth-N coordinates of the law, reproducibly from seed.

    The coordinates are those of ``draw(law, depth, n, seed, copies)``,
    allocated once, after the law is checked, and filled from its blocks.
    """
    part = draw(law, depth, n, seed, copies)
    coords = np.empty(n)
    for rows, values in part.blocks():
        coords[rows] = values
    return SampleBatch(part.spec, depth, coords, part.seed_record)


# ---------------------------------------------------------------------------
# linear forms in independent draws


def _sampled_counts(spec: SteinitzSpec, coeffs: Iterable[Rational]) -> list[tuple[Fraction, int]]:
    """A coefficient system the float linear form can apply, as (coefficient, count) pairs.

    Every coefficient must be an automorphism of the solenoid, with a
    numerator of at most 2^53 in absolute value, the bound ``empirical_cf``
    applies to character multipliers: a coordinate times a larger one keeps
    no fractional bits.  Raises ValueError otherwise.
    """
    counts = coefficient_counts(coeffs)
    for c, _ in counts:
        if not is_automorphism(spec, c):
            raise ValueError(f"coefficient {c} is not an automorphism of this solenoid")
        if abs(c.numerator) > 2**53:
            raise ValueError(
                f"coefficient {c} has a numerator beyond 2^53, which a float coordinate cannot resolve"
            )
    return counts


def required_depth(spec: SteinitzSpec, coeffs: Sequence[Rational], depth: int) -> int:
    """Sampling depth that makes a linear form exact down at `depth`.

    The unseen digits of a draw beyond its sampling depth M contribute
    alpha * A_M * (integer) to the sum; those terms vanish modulo A_depth
    exactly when every coefficient denominator divides A_M / A_depth.
    """
    need = math.lcm(*(Fraction(c).denominator for c in coeffs))
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


def linear_form(batches: Iterable[SampleBatch | Draw], coeffs: Sequence[Rational], depth: int | None = None) -> SampleBatch:
    """Per-draw sum of coefficient-scaled parts, taken down to `depth`.

    ``batches`` may be any iterable with one part per coefficient: drawn
    batches, or ``Draw``s, whose rows are drawn as they are added.  Each
    part is read a block of rows at a time and scaled into the running sum,
    part after part, so the sum is the one n-sized array the linear form
    holds; a generator of batches has one batch alive at a time.  The sum
    is taken mod 1 and down to `depth` in place, in one pass a block at a
    time, each block's floors taken in one block of scratch
    (``_kernels._frac``), so no n-sized temporary appears.  All parts must share
    spec, depth and size.  `depth` defaults to the parts' own.  When the
    first part arrives, before any sum, the coefficients pass the check
    ``monte_carlo_equidist`` applies (ValueError otherwise: each is an
    automorphism with a numerator of at most 2^53), and the parts must be at
    least ``required_depth`` deep for `depth` (DepthInsufficient otherwise),
    so that the truncated coordinate arithmetic agrees with the true law of
    the linear form there.
    """
    coeffs = [Fraction(c) for c in coeffs]
    # A plain iterator, not zip(): zip's recycled result tuple would keep the
    # previous part alive while the next one is drawn.
    parts = iter(batches)
    total = None
    for c in coeffs:
        part = next(parts, None)
        if part is None:
            raise ValueError("need one batch per coefficient")
        if total is None:
            spec, m_depth, n, record = part.spec, part.depth, part.n, part.seed_record
            depth = m_depth if depth is None else depth
            _sampled_counts(spec, coeffs)
            if required_depth(spec, coeffs, depth) > m_depth:
                raise DepthInsufficient(
                    f"batches at depth {m_depth} are too shallow for an exact depth-{depth} linear form"
                )
            total = np.zeros(n)
        elif part.spec != spec:
            raise SpecMismatch("batches live over different solenoids")
        elif part.depth != m_depth or part.n != n:
            raise ValueError("batches must share depth and size")
        scale = float(c)
        for rows, values in part.blocks():
            total[rows] += values * scale
        # a block of a drawn batch is a view that keeps the whole batch alive
        part = values = None
    if next(parts, None) is not None:
        raise ValueError("need one coefficient per batch")
    if total is None:
        raise ValueError("need at least one batch")
    scratch = np.empty(min(n, _kernels.BLOCK_ROWS))
    for rows in _kernels.row_blocks(n):
        block, floor = total[rows], scratch[: rows.stop - rows.start]
        _push_down(spec, m_depth, _kernels._frac(block, block, floor), depth, out=block, scratch=floor)
    return SampleBatch(spec, depth, total, record)


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
    estimates = _kernels.cf_sums(batch.coords, np.array(multipliers), batch._atoms)
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
    pooled array, in which the kernel then builds its sort keys; they are
    taken a block at a time by ``_kernels.map_blocks``, each block writing
    its own slice, so the keys are the same on any number of cores, and
    taking its floors in its worker's block of scratch, which the caller
    allocates.
    """
    if batch1.spec != batch2.spec:
        raise SpecMismatch("batches live over different solenoids")
    if batch1.depth != batch2.depth:
        raise ValueError("batches must share a depth")
    depth = batch1.depth if depth is None else depth
    _refuse_past_tie_grid(batch1.spec, depth)
    (a, a_counts), (b, b_counts) = (batch._atoms or (batch.coords, None) for batch in (batch1, batch2))
    keys = np.empty(a.shape[0] + b.shape[0], dtype=np.uint64)
    a_out, b_out = np.split(keys.view(np.float64), [a.shape[0]])
    for batch, values, out in ((batch1, a, a_out), (batch2, b, b_out)):

        def snap_block(scratch, rows, batch=batch, values=values, out=out):
            block, floor = out[rows], scratch[: rows.stop - rows.start]
            _snap(_push_down(batch.spec, batch.depth, values[rows], depth, out=block, scratch=floor), block, floor)

        _kernels.map_blocks(snap_block, values.shape[0], np.empty)
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
    coeffs: tuple[Fraction, ...]
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
    coeffs: Sequence[Rational],
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
    and the flat coefficient system.
    """
    if not 0 < alpha < 1:  # NaN fails both comparisons
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    coeffs = [Fraction(c) for c in coeffs]
    spec = law.ambient
    counts = _sampled_counts(spec, coeffs)
    distinct = [c for c, _ in counts]
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
    return EquidistReport(
        law,
        tuple(coeffs),
        n,
        depth,
        seed,
        alpha,
        BIT_GENERATOR,
        tuple(char_rows),
        tuple(kuiper_rows),
        verdict,
        reference,
        combined,
    )
