"""A seeded corpus of law trees over small solenoids, with coefficient systems.

``law_corpus(seed, size)`` returns ``size`` entries ``(spec, coeffs, law)``,
the same ones for the same seed.  The solenoids are ``{2: inf}``,
``{3: inf}``, ``{5: inf}``, ``{2: inf, 3: 1}``, ``{2: 1, 3: inf}`` and the
circle.  Each gets the coefficient systems of its unbounded prime, copies of
``1/p``: ``[1/2]*4``, ``[1/2]*2 + [1/4]*8``, ``[1/2]*3``, ``[1/3]*9``,
``[1/3]*8`` and ``[1/5]*25``.  The circle, whose only automorphisms are the
sign flips, gets the signed sums ``[1, 1]`` and ``[1, -1]``.

A law is a tree of up to three levels: points, Haar laws of non-zero
annihilators, gaussians (sigma 0 included), two-part mixtures, shifts and
two-part convolutions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

from soladic import (
    ConvolutionOf,
    Degenerate,
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    Shifted,
    SolenoidPoint,
    SteinitzSpec,
    SubgroupSpec,
)

_SYSTEMS = {
    2: ([F(1, 2)] * 4, [F(1, 2)] * 2 + [F(1, 4)] * 8, [F(1, 2)] * 3),
    3: ([F(1, 3)] * 9, [F(1, 3)] * 8),
    5: ([F(1, 5)] * 25,),
    None: ([F(1)] * 2, [F(1), F(-1)]),
}
# (table, the prime whose systems it takes; None for the circle)
SOLENOIDS = (
    ({2: math.inf}, 2),
    ({3: math.inf}, 3),
    ({5: math.inf}, 5),
    ({2: math.inf, 3: 1}, 2),
    ({2: 1, 3: math.inf}, 3),
    ({}, None),
)
_SIGMAS = (F(0), F(1, 5), F(3, 10), F(1), F(3, 2), F(2))
_MEANS = (F(0), F(0), F(1, 2), F(7, 3))
_WEIGHTS = (F(1, 4), F(1, 3), F(1, 2), F(2, 3))


def _point(rng: random.Random, spec: SteinitzSpec) -> SolenoidPoint:
    depth = rng.randrange(min(2, spec.max_depth) + 1)
    den = rng.randrange(1, 6)
    return SolenoidPoint(spec, depth, F(rng.randrange(den), den))


def _leaf(rng: random.Random, spec: SteinitzSpec):
    kind = rng.choice(("point", "haar", "gaussian"))
    if kind == "point":
        return Degenerate(_point(rng, spec))
    if kind == "haar":
        prime = rng.choice(sorted({*spec.primes, 2, 3}))
        # a threshold the table leaves no room for drops out: point mass at 0
        return HaarAnnihilator(SubgroupSpec.of(spec, {prime: rng.randrange(-2, 3)}))
    return GaussianLine(spec, rng.choice(_SIGMAS), rng.choice(_MEANS))


def _tree(rng: random.Random, spec: SteinitzSpec, levels: int):
    if levels == 1 or rng.random() < 0.4:
        return _leaf(rng, spec)
    kind = rng.choice(("mixture", "shifted", "convolution"))
    if kind == "shifted":
        return Shifted(_point(rng, spec), _tree(rng, spec, levels - 1))
    parts = (_tree(rng, spec, levels - 1), _tree(rng, spec, levels - 1))
    if kind == "mixture":
        w = rng.choice(_WEIGHTS)
        return Mixture((w, 1 - w), parts)
    return ConvolutionOf(parts)


def law_corpus(seed: int, size: int) -> list:
    """``size`` seeded (spec, coefficients, law) triples, cycling through the solenoids."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        table, prime = SOLENOIDS[i % len(SOLENOIDS)]
        spec = SteinitzSpec.of(table)
        coeffs = rng.choice(_SYSTEMS[prime])
        out.append((spec, coeffs, _tree(rng, spec, 3)))
    return out
