"""Laws on a solenoid as trees of variants, with their exact interpretations.

A law is a small tree of variants: point mass, Haar measure of an
annihilator subgroup, pushed-forward line Gaussian, mixture, shift and
convolution.  Every variant knows its ambient solenoid and its own exact
characteristic function, which the statistical checks compare against.
Every other interpretation of a tree is one function over the variants:
the block step of a draw is ``sampler._block_adder``, the JSON form
``serialize.law_to_json`` and ``law_from_json``.  This module is exact: it
imports neither numpy nor the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .charfun import StratifiedCF, SubgroupSpec, _mixture_weights, gaussian_cf, haar_cf, mixture as cf_mixture
from .errors import DepthInsufficient, SpecMismatch
from .steinitz import SteinitzSpec
from .tower import SolenoidPoint


class SamplerSpec:
    """Base class for law descriptions."""

    @property
    def ambient(self) -> SteinitzSpec:
        raise NotImplementedError

    def exact_cf(self) -> StratifiedCF:
        raise NotImplementedError


@dataclass(frozen=True)
class Degenerate(SamplerSpec):
    """Point mass at an exactly representable point."""

    x: SolenoidPoint

    @property
    def ambient(self) -> SteinitzSpec:
        return self.x.spec

    def exact_cf(self) -> StratifiedCF:
        return gaussian_cf(self.ambient, 0, self.x)


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
        """The line standard deviation; ValueError for a sigma past the float range."""
        try:
            return math.sqrt(float(self.sigma) / (2 * math.pi**2))
        except OverflowError:
            raise ValueError(
                "gaussian draws leave the float range of the sampler: sigma is beyond about 1.8e308"
            ) from None

    def exact_cf(self) -> StratifiedCF:
        return gaussian_cf(self.spec, self.sigma, self.mean)


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
