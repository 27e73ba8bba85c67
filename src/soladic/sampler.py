"""Seeded Monte Carlo realization of solenoid laws, and equidistribution tests.

A sampling law is described by a small tree of variants (point mass, Haar
measure of an annihilator subgroup, pushed-forward line Gaussian, mixture,
shift, convolution).  Every variant knows its own exact characteristic
function, which is what the statistical checks compare against: draws are
depth-N circle coordinates in [0,1), reproducible bit-for-bit from
(law, depth, n, seed) via independent split random streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .charfun import StratifiedCF, SubgroupSpec, gaussian_cf, haar_cf
from .charfun import mixture as cf_mixture
from .errors import (
    BadWeights,
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

    def _draw_sum(self, n: int, counts, depth: int, rng: np.random.Generator) -> np.ndarray:
        """n depth-N coordinates, each the sum of `counts` i.i.d. copies of the law.

        `counts` is one int for all n draws, or an int64 array of length n;
        a count of 0 gives exactly 0.  Every variant draws the sum in closed
        form, so the cost does not grow with the count.
        """
        raise NotImplementedError


def _multiples(x: SolenoidPoint, counts, depth: int):
    """k*x as a depth-N coordinate for each count k, exact in Fractions per distinct k."""
    unit = x.real_value / x.spec.level(depth)
    if np.ndim(counts) == 0:
        return float(int(counts) * unit % 1)
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

    def _draw_sum(self, n, counts, depth, rng):
        out = np.zeros(n)
        out += _multiples(self.x, counts, depth)
        return out


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

    def _draw_sum(self, n, counts, depth, rng):
        if self.E.trivial:
            out = rng.random(n)
        else:
            d = fiber_order(self.E, depth)
            if d - 1 > np.iinfo(np.int64).max:  # rng.integers draws residues as int64
                raise DepthInsufficient(
                    f"the haar fiber of {self.E} at depth {depth} has order {d}, beyond int64"
                )
            out = rng.integers(0, d, size=n) / d
        out *= np.asarray(counts) > 0
        return out


def fiber_order(subgroup: SubgroupSpec, depth: int) -> int:
    """Least positive m with m/A_depth inside the subgroup."""
    spec = subgroup.spec
    if subgroup.trivial:
        raise DepthInsufficient("the zero subgroup has no finite fiber at any depth")
    d = 1
    for p, t in subgroup.thresholds:
        e = t + spec.level_valuation(p, depth)
        if e > 0:
            d *= p**e
    return d


@dataclass(frozen=True)
class GaussianLine(SamplerSpec):
    """Pushforward of a real-line normal law through the canonical embedding.

    Parameterized by the rational decay sigma of its characteristic function
    exp(-sigma y^2); the line standard deviation is the derived float
    s = sqrt(sigma / (2 pi^2)), so sigma = 2 pi^2 s^2 holds exactly in the
    symbolic layer and to double precision in the sampling layer.
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
        return math.sqrt(float(self.sigma) / (2 * math.pi**2))

    def exact_cf(self) -> StratifiedCF:
        return gaussian_cf(self.spec, self.sigma, self.mean)

    def _draw_sum(self, n, counts, depth, rng):
        # k copies sum to a normal law with mean k*mean and deviation sqrt(k)*s
        z = rng.standard_normal(n)
        try:
            with np.errstate(over="raise"):
                z *= np.sqrt(counts) * self.s
                z += np.multiply(counts, float(self.mean))
        except (OverflowError, FloatingPointError):
            raise ValueError(
                "gaussian draws leave the float range of the sampler: sigma, or the "
                "mean times the copies summed, is beyond about 1.8e308"
            ) from None
        z /= float(self.spec.level(depth))
        return np.mod(z, 1.0, out=z)


@dataclass(frozen=True)
class Mixture(SamplerSpec):
    weights: tuple[Fraction, ...]
    parts: tuple[SamplerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.weights) != len(self.parts) or not self.parts:
            raise BadWeights("need matching, nonempty weights and parts")
        if any(w < 0 for w in self.weights) or sum(self.weights) != 1:
            raise BadWeights("weights must be nonnegative rationals summing to 1")
        if any(p.ambient != self.parts[0].ambient for p in self.parts):
            raise SpecMismatch("mixture parts live over different solenoids")

    @property
    def ambient(self) -> SteinitzSpec:
        return self.parts[0].ambient

    def exact_cf(self) -> StratifiedCF:
        return cf_mixture(self.weights, [p.exact_cf() for p in self.parts])

    def _draw_sum(self, n, counts, depth, rng):
        # split each draw's copies among the parts; a part that receives
        # none of a draw's copies adds exactly 0 to it
        probs = np.array([float(w) for w in self.weights])
        probs /= probs.sum()
        split = rng.multinomial(counts, probs, size=None if np.ndim(counts) else n)
        out = np.zeros(n)
        for part, child, k in zip(self.parts, rng.spawn(len(self.parts)), split.T):
            out += part._draw_sum(n, k, depth, child)
        return np.mod(out, 1.0, out=out)


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

    def _draw_sum(self, n, counts, depth, rng):
        out = self.law._draw_sum(n, counts, depth, rng)
        out += _multiples(self.x, counts, depth)
        return np.mod(out, 1.0, out=out)


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

    def _draw_sum(self, n, counts, depth, rng):
        total = np.zeros(n)
        for part, child in zip(self.parts, rng.spawn(len(self.parts))):
            total += part._draw_sum(n, counts, depth, child)
        return np.mod(total, 1.0, out=total)


def exact_cf_of(law: SamplerSpec) -> StratifiedCF:
    """The true characteristic function of the sampling law."""
    return law.exact_cf()


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Depth-N circle coordinates of i.i.d. draws, with their seed record.

    A batch finds its atoms once, on first use, and keeps them: the sorted
    distinct coordinates with their counts (``_kernels.atom_keys``), or None
    when more than half the draws are distinct.  The cf sums, the CSV writer
    and the Kuiper test all read that one result, so a batch is sorted once.
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

    def project(self, depth: int) -> "SampleBatch":
        """Push the batch down the tower to a shallower depth."""
        if depth == self.depth:
            return self
        return SampleBatch(self.spec, depth, self._push_down(self.coords, depth), self.seed_record)

    def _push_down(self, values: np.ndarray, depth: int) -> np.ndarray:
        """Coordinates at this batch's depth taken down to `depth`, by the float steps of project."""
        if depth > self.depth:
            raise DepthInsufficient(f"cannot project depth {self.depth} up to {depth}")
        if depth == self.depth:
            return values
        ratio = self.spec.level(self.depth) // self.spec.level(depth)
        return np.mod(values * float(ratio), 1.0)


def _refuse_int64_depth(spec: SteinitzSpec, depth: int) -> None:
    """Refuse a depth whose tower level exceeds int64.

    Every term of the defining sequence is at least 2, so level(d) >= 2^d
    exceeds int64 from d = 63 on, refused before any level is built.  Below
    that, building the level raises DepthUnavailable for an invalid depth.
    """
    if 63 <= depth <= spec.max_depth or spec.level(depth) > np.iinfo(np.int64).max:
        raise DepthInsufficient(f"the tower level at depth {depth} exceeds int64")


def sample(law: SamplerSpec, depth: int, n: int, seed, copies: int = 1) -> SampleBatch:
    """Draw n i.i.d. depth-N coordinates of the law, reproducibly from seed.

    With `copies` = k each coordinate is the sum of k independent draws of
    the law, drawn in closed form as one draw of the k-fold convolution, so
    the cost does not grow with k.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if copies < 1:
        raise ValueError("need at least one copy")
    spec = law.ambient
    _refuse_int64_depth(spec, depth)
    if isinstance(seed, np.random.SeedSequence):
        record = f"{BIT_GENERATOR}(entropy={seed.entropy}, spawn_key={seed.spawn_key})"
        rng = np.random.Generator(np.random.PCG64(seed))
    else:
        record = f"{BIT_GENERATOR}(seed={seed})"
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    coords = law._draw_sum(n, copies, depth, rng)
    return SampleBatch(spec, depth, coords, record)


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


def linear_form(batches: Iterable[SampleBatch], coeffs: Sequence[Rational], depth: int | None = None) -> SampleBatch:
    """Per-draw sum of coefficient-scaled batches, reported at a sound depth.

    ``batches`` may be any iterable with one batch per coefficient, such as
    a generator that draws them on demand; one batch is held at a time.
    All batches must share spec, depth and size, and the coefficients pass
    the check ``monte_carlo_equidist`` applies (ValueError otherwise): each
    is an automorphism with a numerator of at most 2^53.  The result's depth
    is the deepest level at which the truncated coordinate arithmetic agrees
    with the true law of the linear form; pass `depth` to pick a shallower
    one.
    """
    coeffs = [Fraction(c) for c in coeffs]
    # A plain iterator, not zip(): zip's recycled result tuple would keep the
    # previous batch alive while the next one is drawn.
    batches = iter(batches)
    total = None
    for c in coeffs:
        b = next(batches, None)
        if b is None:
            raise ValueError("need one batch per coefficient")
        if total is None:
            spec, m_depth, n, record = b.spec, b.depth, b.n, b.seed_record
            total = np.zeros(n)
        elif b.spec != spec:
            raise SpecMismatch("batches live over different solenoids")
        elif b.depth != m_depth or b.n != n:
            raise ValueError("batches must share depth and size")
        total += b.coords * float(c)
        del b
    if next(batches, None) is not None:
        raise ValueError("need one coefficient per batch")
    if total is None:
        raise ValueError("need at least one batch")
    need = math.lcm(*(c.denominator for c, _ in _sampled_counts(spec, coeffs)))
    if depth is None:
        depth = next(
            (d for d in range(m_depth, -1, -1) if (spec.level(m_depth) // spec.level(d)) % need == 0),
            None,
        )
        if depth is None:
            raise DepthInsufficient(
                f"no depth at or below {m_depth} absorbs coefficient denominators {need}"
            )
    elif depth > m_depth or (spec.level(m_depth) // spec.level(depth)) % need:
        raise DepthInsufficient(
            f"batches at depth {m_depth} are too shallow for an exact depth-{depth} linear form"
        )
    combined = SampleBatch(spec, m_depth, np.mod(total, 1.0), record)
    return combined.project(depth)


# ---------------------------------------------------------------------------
# empirical characteristic function


@dataclass(frozen=True, eq=False)
class EmpiricalCF:
    chars: tuple[Fraction, ...]
    estimates: np.ndarray
    radius: float  # 3/sqrt(n) confidence disk around each estimate


def empirical_cf(batch: SampleBatch, ys: Sequence[Rational]) -> EmpiricalCF:
    """Mean of the character values over the batch, for each character."""
    ys = [Fraction(y) for y in ys]
    level = batch.spec.level(batch.depth)
    multipliers = []
    for y in ys:
        if not in_dual_group(batch.spec, y):
            raise CharacterOutsideGroup(f"{y} is not a character of this solenoid")
        m = y * level
        if m.denominator != 1:
            raise CharacterTooDeep(
                f"character {y} needs more than the batch's {batch.depth} levels"
            )
        if abs(m) > 2**53:  # m*t keeps no fractional bits for t >= 1/2
            raise CharacterTooDeep(
                f"character {y} has multiplier {m} beyond 2^53 at depth {batch.depth}, "
                f"which a float coordinate cannot resolve"
            )
        multipliers.append(float(m))
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


def _snap(coords: np.ndarray) -> np.ndarray:
    """Quantize circle coordinates to a fixed binary grid.

    Lattice-valued laws produce atoms, and different arithmetic paths (direct
    sampling vs. a linear form) can land on the same atom one ulp apart;
    left unquantized, that splits ties and fabricates a huge ECDF gap.  The
    grid of 2^-40 is far below any statistical resolution yet far above
    accumulated rounding error, and the modulus keeps wrap-around values on
    the zero atom.
    """
    out = coords * _TIE_GRID  # the one n-sized copy; the rest works in place
    np.round(out, out=out)
    np.mod(out, _TIE_GRID, out=out)
    out /= _TIE_GRID
    return out


def _kuiper_sample(batch: SampleBatch, depth: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The batch at `depth` on the tie grid: (atom values, counts), or (draws, None) without atoms.

    Atom values take the float steps of project and _snap that their draws
    would take, so each count lands on the value its draws would have.
    """
    if batch._atoms is None:
        values, counts = batch.coords, None
    else:
        keys, counts = batch._atoms
        values = keys.view(np.float64)
    return _snap(batch._push_down(values, depth)), counts


def kuiper_two_sample(batch1: SampleBatch, batch2: SampleBatch, depth: int | None = None) -> tuple[float, float]:
    """Kuiper V statistic and asymptotic p-value for two coordinate batches.

    Both batches are taken down the tower to `depth` (by default their own)
    and snapped to the tie grid.  A batch with atoms is compared through
    them, each atom standing for its count of draws, and one without
    through its draws; either way V and p are the floats of the
    draw-by-draw comparison.
    """
    if batch1.spec != batch2.spec:
        raise SpecMismatch("batches live over different solenoids")
    if batch1.depth != batch2.depth:
        raise ValueError("batches must share a depth")
    depth = batch1.depth if depth is None else depth
    (a, a_counts), (b, b_counts) = _kuiper_sample(batch1, depth), _kuiper_sample(batch2, depth)
    dplus, dminus = _kernels.kuiper_deltas(a, b, a_counts, b_counts)
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

    @property
    def min_adjusted_p(self) -> float:
        rows = list(self.character_rows) + list(self.kuiper_rows)
        return min(r.adjusted_p for r in rows)


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
    alpha with count k, one batch whose draws are sums of k independent
    copies; the linear form is the sum of alpha times those batches.  The
    seed spawns one child stream per batch: the first for the reference,
    then one per distinct coefficient in increasing order.  The two
    resulting samples are tested for equality in law: empirical
    characteristic-function gaps on the character panel (Hoeffding
    p-values) plus Kuiper two-sample tests at every depth down the tower.
    The verdict applies a Bonferroni correction across all tests at the
    given level alpha, which must lie strictly between 0 and 1 (ValueError
    otherwise, NaN included).  Coefficients must be automorphisms with
    numerators of at most 2^53 (ValueError).  The report keeps the reference
    and combined batches that were tested, and the flat coefficient system.
    """
    if not 0 < alpha < 1:  # NaN fails both comparisons
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    coeffs = [Fraction(c) for c in coeffs]
    spec = law.ambient
    counts = _sampled_counts(spec, coeffs)
    distinct = [c for c, _ in counts]
    _refuse_int64_depth(spec, depth)
    deep = required_depth(spec, distinct, depth)
    children = np.random.SeedSequence(seed).spawn(len(counts) + 1)
    reference = sample(law, depth, n, children[0])
    # one batch per distinct coefficient, drawn and summed one at a time
    parts = (sample(law, deep, n, child, copies=k) for (_, k), child in zip(counts, children[1:]))
    combined = linear_form(parts, distinct, depth=depth)

    chars = tuple(Fraction(y) for y in charset) if charset is not None else default_charset(spec, depth)
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
