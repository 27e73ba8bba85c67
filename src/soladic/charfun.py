"""Piecewise characteristic functions on the dual group, in exact arithmetic.

A function is stored as finitely many pairwise-disjoint strata (conjunctions
of per-prime valuation constraints) each carrying a formal sum of terms
``weight * exp(-decay * y^2) * exp(2 pi i shift y)``, with an implicit value
of zero off all strata.  Weights, decays and shifts are exact rationals, so
products, mixtures, precompositions by automorphisms and equality checks can
all be decided symbolically; equality returns a first-class "unknown" rather
than guessing whenever the symbolic comparison is inconclusive.

Shifts are real-line embed values: every exactly representable point of the
solenoid pairs with a character y as exp(2 pi i r y) for its embedded real
r, so a single rational per term captures the whole shift factor.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cyclotomic import phase_sum_is_zero
from .errors import (
    BadWeights,
    CharacterOutsideGroup,
    SpecMismatch,
    TermBudgetExceeded,
)
from .steinitz import (
    Rational,
    SteinitzSpec,
    classify_solenoid,
    coefficient_counts,
    in_dual_group,
    is_automorphism,
    valuation,
)
from .tower import SolenoidPoint

NEG_INF = -math.inf
POS_INF = math.inf

#: cap on formal terms carried by a single stratum
MAX_TERMS = 64
#: characters ``compare`` probes on a cell whose canonical forms differ
COMPARE_PROBES = 48
#: characters per stratum that ``support_as_subgroup`` pairs up in its witness hunt
SUPPORT_PROBES = 24


# ---------------------------------------------------------------------------
# strata


@dataclass(frozen=True)
class Stratum:
    """Conjunction of per-prime valuation window constraints.

    ``bounds`` is a sorted tuple of (prime, lo, hi) with lo <= hi, meaning
    lo <= v_p(y) <= hi (infinite endpoints drop the constraint on that side).
    ``only_zero`` restricts to the zero character alone; ``minus_zero``
    removes the zero character from an otherwise ordinary window.  These two
    flags exist so refinements of partitions stay exact partitions.
    """

    bounds: tuple[tuple[int, int | float, int | float], ...] = ()
    only_zero: bool = False
    minus_zero: bool = False

    @classmethod
    def whole(cls) -> "Stratum":
        return cls()

    @classmethod
    def zero_only(cls) -> "Stratum":
        return cls((), only_zero=True)

    @classmethod
    def of(cls, windows: Mapping[int, tuple], *, minus_zero: bool = False) -> "Stratum":
        bounds = []
        for p in sorted(windows):
            lo, hi = windows[p]
            if lo > hi:
                raise ValueError(f"empty window for prime {p}")
            if lo == NEG_INF and hi == POS_INF:
                continue
            bounds.append((p, lo, hi))
        if minus_zero and any(hi != POS_INF for _, _, hi in bounds):
            minus_zero = False  # zero was never inside; keep the form canonical
        return cls(tuple(bounds), minus_zero=minus_zero)

    def window(self, p: int) -> tuple:
        for q, lo, hi in self.bounds:
            if q == p:
                return (lo, hi)
        return (NEG_INF, POS_INF)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _, _ in self.bounds)

    def contains(self, y: Rational) -> bool:
        y = Fraction(y)
        if self.only_zero:
            return y == 0
        if y == 0:
            return self.contains_zero()
        for p, lo, hi in self.bounds:
            if not (lo <= valuation(y, p) <= hi):
                return False
        return True

    def contains_zero(self) -> bool:
        if self.only_zero:
            return True
        if self.minus_zero:
            return False
        return all(hi == POS_INF for _, _, hi in self.bounds)

    def intersect(self, other: "Stratum") -> "Stratum | None":
        if self.only_zero or other.only_zero:
            box = other if self.only_zero else self
            return Stratum.zero_only() if box.contains_zero() else None
        windows: dict[int, tuple] = {}
        for p, lo, hi in self.bounds + other.bounds:
            l0, h0 = windows.get(p, (NEG_INF, POS_INF))
            windows[p] = (max(l0, lo), min(h0, hi))
        if any(lo > hi for lo, hi in windows.values()):
            return None
        return Stratum.of(windows, minus_zero=self.minus_zero or other.minus_zero)

    def feasible(self, spec: SteinitzSpec) -> bool:
        """Whether the stratum holds at least one nonzero character."""
        if self.only_zero:
            return False
        for p, lo, hi in self.bounds:
            if max(lo, -spec.multiplicity(p)) > hi:
                return False
        return True

    def occupied(self, spec: SteinitzSpec) -> bool:
        return self.contains_zero() or self.feasible(spec)

    def members(self, spec: SteinitzSpec, limit: int = 48) -> list[Fraction]:
        """Deterministic nonzero members, small denominators first.

        Used for witness probing, so diversity matters more than coverage:
        exponents sweep the window edges and the unit part runs over signed
        integers coprime to the constrained primes.
        """
        if self.only_zero or not self.feasible(spec):
            return []
        axes: list[list[int]] = []
        for p, lo, hi in self.bounds:
            eff_lo = max(lo, -spec.multiplicity(p))
            if eff_lo == NEG_INF:
                top = 0 if hi == POS_INF else int(hi)
                exps = [top, top - 1, top - 3]
            else:
                exps = [int(eff_lo) + d for d in range(3) if eff_lo + d <= hi]
            axes.append(exps)
        units = [u for u in (1, 3, 5, 7, 11, 13, 2, 9) if math.gcd(u, math.prod(self.primes) if self.primes else 1) == 1]
        out: list[Fraction] = []
        seen = set()
        for combo in itertools.product(*axes) if axes else [()]:
            base = math.prod(Fraction(p) ** e for (p, _, _), e in zip(self.bounds, combo)) if axes else Fraction(1)
            for u in units:
                for sign in (1, -1):
                    y = sign * u * base
                    if y not in seen:
                        seen.add(y)
                        out.append(y)
                    if len(out) >= limit:
                        return out
        return out


def _subtract(box: Stratum, cutter: Stratum) -> list[Stratum]:
    """box minus cutter, as disjoint strata."""
    if cutter.only_zero:
        if not box.contains_zero():
            return [box]
        if box.only_zero:
            return []
        return [Stratum(box.bounds, minus_zero=True)]
    if box.only_zero:
        return [] if cutter.contains_zero() else [box]
    current = {p: box.window(p) for p in set(box.primes) | set(cutter.primes)}
    out: list[Stratum] = []
    for p, clo, chi in cutter.bounds:
        lo, hi = current[p]
        ilo, ihi = max(lo, clo), min(hi, chi)
        if ilo > ihi:
            return [box]  # no overlap at this prime: nothing to remove
        if ilo != NEG_INF and lo <= ilo - 1:
            piece = dict(current)
            piece[p] = (lo, ilo - 1)
            out.append(Stratum.of(piece, minus_zero=box.minus_zero))
        if ihi != POS_INF and ihi + 1 <= hi:
            piece = dict(current)
            piece[p] = (ihi + 1, hi)
            out.append(Stratum.of(piece, minus_zero=box.minus_zero))
        current[p] = (ilo, ihi)
    core_holds_zero = box.contains_zero() and all(hi == POS_INF for _, hi in current.values())
    if cutter.minus_zero and core_holds_zero:
        # the remaining core sits inside cutter's window but keeps its zero
        out.append(Stratum.zero_only())
    return out


def _subtract_many(box: Stratum, cutters: Iterable[Stratum]) -> list[Stratum]:
    pieces = [box]
    for cutter in cutters:
        pieces = [q for piece in pieces for q in _subtract(piece, cutter)]
    return pieces


# ---------------------------------------------------------------------------
# subgroups of the dual group


@dataclass(frozen=True)
class SubgroupSpec:
    """Subgroup cut out by lower valuation bounds, or the zero subgroup.

    Thresholds at or below the group's own bound -multiplicity(p) are dropped
    by ``of``, so subgroups built through it have equal canonical forms.
    """

    spec: SteinitzSpec
    thresholds: tuple[tuple[int, int], ...] = ()
    trivial: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.thresholds, tuple):
            raise TypeError(
                "thresholds must be a tuple of (prime, threshold) pairs; "
                "use SubgroupSpec.of(spec, mapping) to build one from a dict"
            )

    @classmethod
    def of(cls, spec: SteinitzSpec, table: Mapping[int, int]) -> "SubgroupSpec":
        kept = []
        for p in sorted(table):
            t = table[p]
            if t > -spec.multiplicity(p):
                kept.append((p, int(t)))
        return cls(spec, tuple(kept))

    @classmethod
    def whole(cls, spec: SteinitzSpec) -> "SubgroupSpec":
        return cls(spec)

    @classmethod
    def zero(cls, spec: SteinitzSpec) -> "SubgroupSpec":
        return cls(spec, (), trivial=True)

    def threshold(self, p: int) -> int | float:
        for q, t in self.thresholds:
            if q == p:
                return t
        return -self.spec.multiplicity(p)

    def contains(self, y: Rational) -> bool:
        y = Fraction(y)
        if self.trivial:
            return y == 0
        if not in_dual_group(self.spec, y):
            return False
        return all(valuation(y, p) >= t for p, t in self.thresholds)

    def stratum(self) -> Stratum:
        if self.trivial:
            return Stratum.zero_only()
        return Stratum.of({p: (t, POS_INF) for p, t in self.thresholds})

    def reduce_shift(self, r: Rational) -> Fraction:
        """Canonical representative of a shift modulo the annihilator.

        Two shifts r, r' produce the same character factor on this subgroup
        iff (r - r') * E lies in the integers; the set of such differences is
        g*Z for a computable rational g > 0, {0} when some unbounded prime is
        unconstrained, and all shifts collapse for the zero subgroup.
        """
        r = Fraction(r)
        if self.trivial:
            return Fraction(0)
        step = Fraction(1)
        for q in sorted(set(self.spec.primes) | {p for p, _ in self.thresholds}):
            floor = self.threshold(q)
            if floor == NEG_INF:
                return r
            step *= Fraction(q) ** int(-floor)
        return r % step

    def __str__(self):
        if self.trivial:
            return "{0}"
        if not self.thresholds:
            return "whole dual group"
        return " & ".join(f"v_{p}>={t}" for p, t in self.thresholds)


def subgroup_generated_by(spec: SteinitzSpec, stratum: Stratum) -> SubgroupSpec:
    """Smallest lower-bound subgroup containing the stratum."""
    if stratum.only_zero:
        return SubgroupSpec.zero(spec)
    table = {}
    for p, lo, hi in stratum.bounds:
        eff_lo = max(lo, -spec.multiplicity(p))
        if eff_lo != NEG_INF:
            table[p] = int(eff_lo)
    return SubgroupSpec.of(spec, table)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    """weight * exp(-decay * y^2) * exp(2 pi i shift y), all parameters rational."""

    weight: Fraction
    decay: Fraction
    shift: Fraction


def _merge_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[tuple[Fraction, Fraction], Fraction] = {}
    for t in terms:
        key = (t.decay, t.shift)
        acc[key] = acc.get(key, Fraction(0)) + t.weight
    merged = [Term(w, d, s) for (d, s), w in acc.items() if w != 0]
    merged.sort(key=lambda t: (t.decay, t.shift))
    if len(merged) > MAX_TERMS:
        raise TermBudgetExceeded(f"{len(merged)} terms exceed the cap of {MAX_TERMS}")
    return tuple(merged)


def _term_value(t: Term, y: Fraction) -> complex:
    try:
        mag = float(t.weight) * math.exp(-float(t.decay) * float(y) ** 2)
    except OverflowError:
        return 0j
    angle = float((t.shift * y) % 1)
    return mag * complex(math.cos(2 * math.pi * angle), math.sin(2 * math.pi * angle))


def _terms_value(terms: Sequence[Term], y: Fraction) -> complex:
    return sum((_term_value(t, y) for t in terms), 0j)


def _values_equal_exact(a: Sequence[Term], b: Sequence[Term], y: Fraction):
    """Exact pointwise comparison at nonzero y.

    Groups terms by decay (distinct decays stay independent at any fixed
    rational y != 0) and decides each group's phase sum with cyclotomic
    arithmetic.  Returns True/False, or None when a phase sum is too large
    to decide exactly.
    """
    groups: dict[Fraction, dict[Fraction, Fraction]] = {}
    for terms, sign in ((a, 1), (b, -1)):
        for t in terms:
            bucket = groups.setdefault(t.decay, {})
            angle = (t.shift * y) % 1
            bucket[angle] = bucket.get(angle, Fraction(0)) + sign * t.weight
    try:
        return all(phase_sum_is_zero(bucket) for bucket in groups.values())
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# stratified characteristic functions


@dataclass(frozen=True)
class StratifiedCF:
    """Finitely-stratified symbolic characteristic function (zero off-strata)."""

    spec: SteinitzSpec
    pieces: tuple[tuple[Stratum, tuple[Term, ...]], ...]

    def __call__(self, y: Rational) -> complex:
        y = Fraction(y)
        if not in_dual_group(self.spec, y):
            raise CharacterOutsideGroup(f"{y} is not a character of this solenoid")
        return _terms_value(self.piece_at(y), y)

    def piece_at(self, y: Rational) -> tuple[Term, ...]:
        y = Fraction(y)
        for stratum, terms in self.pieces:
            if stratum.contains(y):
                return terms
        return ()

    def __mul__(self, other: "StratifiedCF") -> "StratifiedCF":
        if not isinstance(other, StratifiedCF):
            return NotImplemented
        if self.spec != other.spec:
            raise SpecMismatch("cannot multiply functions over different solenoids")
        pieces = [
            (cell, [Term(x.weight * z.weight, x.decay + z.decay, x.shift + z.shift) for x in ta for z in tb])
            for cell, ta, tb in _refine(self.pieces, other.pieces)
            if ta and tb  # a product vanishes wherever one factor does
        ]
        return build_cf(self.spec, pieces)

    def __pow__(self, k: int) -> "StratifiedCF":
        """The k-fold product f * ... * f (k >= 1), by repeated squaring."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("exponent must be a positive integer")
        if k == 1:
            return self
        half = (self * self) ** (k // 2)
        return half * self if k % 2 else half

    def conjugate(self) -> "StratifiedCF":
        """The complex conjugate y -> f(-y) of a characteristic function."""
        return self.precompose(-1)

    def mod_square(self) -> "StratifiedCF":
        return self * self.conjugate()

    def precompose(self, alpha: Rational) -> "StratifiedCF":
        """The function y -> f(alpha * y); alpha must be an automorphism."""
        alpha = Fraction(alpha)
        if not is_automorphism(self.spec, alpha):
            raise ValueError(f"{alpha} is not an automorphism of this solenoid")
        pieces = []
        for stratum, terms in self.pieces:
            if stratum.only_zero:
                moved = stratum  # alpha * y = 0 iff y = 0
            else:
                windows = {}
                for p, lo, hi in stratum.bounds:
                    v = valuation(alpha, p)
                    windows[p] = (lo - v if lo != NEG_INF else lo, hi - v if hi != POS_INF else hi)
                moved = Stratum.of(windows, minus_zero=stratum.minus_zero)
            pieces.append(
                (moved, [Term(t.weight, t.decay * alpha**2, t.shift * alpha) for t in terms])
            )
        return build_cf(self.spec, pieces)


def build_cf(spec: SteinitzSpec, pieces: Iterable[tuple[Stratum, Iterable[Term]]]) -> StratifiedCF:
    """Normalize and validate a piece list into a StratifiedCF.

    Drops unoccupied strata and zero atoms, merges duplicate terms, checks
    pairwise disjointness, nonnegative parameters, and the value-one
    constraint at the zero character.
    """
    cleaned: list[tuple[Stratum, tuple[Term, ...]]] = []
    for stratum, terms in pieces:
        merged = _merge_terms(terms)
        if not stratum.occupied(spec) or not merged:
            continue
        for t in merged:
            if t.weight < 0:
                raise ValueError("term weights must be nonnegative")
            if t.decay < 0:
                raise ValueError("decay parameters must be nonnegative")
        cleaned.append((stratum, merged))
    cleaned.sort(key=lambda piece: (piece[0].only_zero, piece[0].bounds, piece[0].minus_zero))
    for (sa, _), (sb, _) in itertools.combinations(cleaned, 2):
        inter = sa.intersect(sb)
        if inter is not None and inter.occupied(spec):
            raise ValueError(f"strata overlap: {sa} and {sb}")
    at_zero = [terms for s, terms in cleaned if s.contains_zero()]
    total = sum((t.weight for terms in at_zero for t in terms), Fraction(0))
    if total != 1:
        raise ValueError("a characteristic function must equal 1 at the zero character")
    return StratifiedCF(spec, tuple(cleaned))


def gaussian_cf(
    spec: SteinitzSpec,
    sigma: Rational,
    shift: "Rational | SolenoidPoint" = 0,
) -> StratifiedCF:
    """exp(-sigma y^2) times the character factor of a shift, on all of the dual group."""
    sigma = Fraction(sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    r = shift.real_value if isinstance(shift, SolenoidPoint) else Fraction(shift)
    return build_cf(spec, [(Stratum.whole(), [Term(Fraction(1), sigma, r)])])


def haar_cf(subgroup: SubgroupSpec) -> StratifiedCF:
    """Indicator of a subgroup: the characteristic function of a Haar law."""
    piece = (subgroup.stratum(), [Term(Fraction(1), Fraction(0), Fraction(0))])
    return build_cf(subgroup.spec, [piece])


def mixture(weights: Sequence[Rational], parts: Sequence[StratifiedCF]) -> StratifiedCF:
    if len(weights) != len(parts) or not parts:
        raise BadWeights("need matching, nonempty weights and components")
    weights = [Fraction(w) for w in weights]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise BadWeights("weights must be nonnegative rationals summing to 1")
    spec = parts[0].spec
    if any(f.spec != spec for f in parts):
        raise SpecMismatch("mixture components live over different solenoids")
    acc: list[tuple[Stratum, tuple[Term, ...]]] = []
    for w, f in zip(weights, parts):
        if w == 0:
            continue
        scaled = [
            (s, tuple(Term(t.weight * w, t.decay, t.shift) for t in terms))
            for s, terms in f.pieces
        ]
        acc = [(cell, ta + tb) for cell, ta, tb in _refine(acc, scaled)]
    return build_cf(spec, acc)


def _refine(a, b):
    """Common refinement of two piece lists, as (cell, terms_a, terms_b).

    A side with no piece over the cell contributes ().  Cells come out in a
    fixed order, a's pieces cut by b's and then what b covers outside a,
    because ``compare`` reports the first probe that differs.
    """
    b_strata = [s for s, _ in b]
    for sa, ta in a:
        for sb, tb in b:
            inter = sa.intersect(sb)
            if inter is not None:
                yield inter, ta, tb
        for rest in _subtract_many(sa, b_strata):
            yield rest, ta, ()
    a_strata = [s for s, _ in a]
    for sb, tb in b:
        for rest in _subtract_many(sb, a_strata):
            yield rest, (), tb


# ---------------------------------------------------------------------------
# symbolic equality


@dataclass(frozen=True)
class Comparison:
    verdict: str  # "equal" | "differs" | "unknown"
    witness: Fraction | None = None
    note: str = ""


def _canonical_terms(
    spec: SteinitzSpec, cell: Stratum, terms: Sequence[Term]
) -> tuple[Term, ...]:
    anchor = subgroup_generated_by(spec, cell)
    return _merge_terms(Term(t.weight, t.decay, anchor.reduce_shift(t.shift)) for t in terms)


def compare(f: StratifiedCF, g: StratifiedCF) -> Comparison:
    """Exact decision of pointwise equality over the whole dual group.

    "equal" comes from identical canonical forms on every cell of the common
    refinement; "differs" always carries a probed witness whose two values
    are provably different; anything else is an honest "unknown".  A cell
    whose forms differ is probed at up to ``COMPARE_PROBES`` characters.
    """
    if f.spec != g.spec:
        raise SpecMismatch("cannot compare functions over different solenoids")
    spec = f.spec
    unknown_notes = []
    for cell, ta, tb in _refine(f.pieces, g.pieces):
        if not cell.feasible(spec):
            continue  # at most the zero character, where both sides are 1
        if _canonical_terms(spec, cell, ta) == _canonical_terms(spec, cell, tb):
            continue
        for y in cell.members(spec, COMPARE_PROBES):
            same = _values_equal_exact(ta, tb, y)
            if same is False:
                return Comparison("differs", y)
        unknown_notes.append(f"forms differ on {cell} but every probe agreed")
    if unknown_notes:
        return Comparison("unknown", None, "; ".join(unknown_notes))
    return Comparison("equal")


# ---------------------------------------------------------------------------
# the equidistribution identity


@dataclass(frozen=True)
class EquationCheck:
    """Outcome of checking f(y) = prod_j f(alpha_j y) symbolically."""

    verdict: str  # "holds" | "fails" | "unknown"
    witness: Fraction | None
    degenerate: bool  # single-coefficient systems satisfy the identity vacuously
    note: str = ""


def check_equidistribution(f: StratifiedCF, coeffs: Sequence[Rational]) -> EquationCheck:
    """Exact verdict on f(y) = prod_j f(alpha_j y) for a coefficient system.

    Repeated coefficients are precomposed once: a coefficient alpha with
    count k contributes f(alpha y)^k, by repeated squaring.  Every
    coefficient must be an automorphism (``precompose`` raises ValueError).
    """
    return _check_counts(f, coefficient_counts(coeffs))


def _check_counts(f: StratifiedCF, counts: Sequence[tuple[Fraction, int]]) -> EquationCheck:
    """``check_equidistribution`` on a system given as (coefficient, count) pairs, counts >= 1."""
    rhs = reduce(mul, (f.precompose(a) ** k for a, k in counts))
    cmp = compare(f, rhs)
    verdict = {"equal": "holds", "differs": "fails", "unknown": "unknown"}[cmp.verdict]
    degenerate = sum(k for _, k in counts) == 1
    return EquationCheck(verdict, cmp.witness, degenerate, cmp.note)


# ---------------------------------------------------------------------------
# support geometry


@dataclass(frozen=True)
class SupportCheck:
    kind: str  # "subgroup" | "not_subgroup" | "unknown"
    subgroup: SubgroupSpec | None = None
    witness: tuple[Fraction, Fraction] | None = None
    note: str = ""


def support_as_subgroup(f: StratifiedCF) -> SupportCheck:
    """Decide whether {y : f(y) != 0} is a lower-bound-form subgroup.

    It is one iff it covers the join of the subgroups its strata generate;
    else ``SUPPORT_PROBES`` characters per stratum are paired to find a sum
    outside it.  A multi-term piece's support can be smaller than its stratum
    (phases may cancel at points), so it yields an honest "unknown".
    """
    spec = f.spec
    pieces = [(s, terms) for s, terms in f.pieces if terms]
    if any(len(terms) > 1 for _, terms in pieces):
        return SupportCheck("unknown", note="multi-term strata may vanish at points")
    boxes = [s for s, _ in pieces]
    if all(s.only_zero for s in boxes):
        return SupportCheck("subgroup", SubgroupSpec.zero(spec))
    generated = [subgroup_generated_by(spec, s) for s in boxes if not s.only_zero]
    primes = {p for g in generated for p, _ in g.thresholds}
    candidate = SubgroupSpec.of(spec, {p: min(g.threshold(p) for g in generated) for p in primes})
    residual = _subtract_many(candidate.stratum(), boxes)
    if not any(r.feasible(spec) for r in residual):
        return SupportCheck("subgroup", candidate)
    # the union is a proper subset of the enveloping subgroup, so it cannot
    # be closed under addition; hunt for a concrete witness pair
    samples: list[Fraction] = []
    for s in boxes:
        samples.extend(s.members(spec, SUPPORT_PROBES))
    in_support = lambda y: any(s.contains(y) for s in boxes)
    for y1, y2 in itertools.combinations_with_replacement(samples, 2):
        if y1 + y2 != 0 and not in_support(y1 + y2):
            return SupportCheck("not_subgroup", None, (y1, y2))
    return SupportCheck(
        "unknown", note="support union is not quite its enveloping subgroup, no witness found"
    )


# ---------------------------------------------------------------------------
# Gaussian-times-Haar decomposition


@dataclass(frozen=True)
class Decomposition:
    kind: str  # "gaussian_haar" | "not_of_form" | "unknown"
    shift: Fraction | None = None
    sigma: Fraction | None = None
    subgroup: SubgroupSpec | None = None
    p_invariant: bool | None = None
    reason: str = ""
    witness: tuple[Fraction, Fraction] | Fraction | None = None
    support: SupportCheck | None = None


def _division_invariance(spec: SteinitzSpec, subgroup: SubgroupSpec) -> bool | None:
    """Whether the subgroup is closed under division by the unique unbounded prime."""
    klass = classify_solenoid(spec)
    if klass.kind != "unique_infinite_prime":
        return None
    if subgroup.trivial:
        return True
    return all(p != klass.unique_prime for p, _ in subgroup.thresholds)


def decompose_gaussian_haar(f: StratifiedCF) -> Decomposition:
    """Try to write f as exp(-sigma y^2) * (shift character) * (subgroup indicator).

    The support must be a subgroup and every weight 1.  The candidate takes
    sigma and the shift from a piece whose cell generates the support (one
    always does) and is then decided by ``compare``, so pieces whose shifts
    differ by characters trivial on their own cell still decompose.  The
    witness is the support's pair when it is not a subgroup, or the character
    where f and the candidate differ.  Every outcome carries the
    ``support_as_subgroup`` check it was decided from, so callers read the
    support from it instead of computing it again.
    """
    sc = support_as_subgroup(f)
    decided = partial(Decomposition, support=sc)
    if sc.kind == "not_subgroup":
        return decided(
            "not_of_form",
            reason=f"support is not a subgroup (witness pair {sc.witness})",
            witness=sc.witness,
        )
    if sc.kind == "unknown":
        return decided("unknown", reason=sc.note)
    subgroup = sc.subgroup
    invariant = _division_invariance(f.spec, subgroup)
    if subgroup.trivial:
        return decided("gaussian_haar", Fraction(0), Fraction(0), subgroup, invariant)
    pieces = [(s, terms[0]) for s, terms in f.pieces if terms and not s.only_zero]
    for _, term in pieces:  # single-term guaranteed by the support check
        if term.weight != 1:
            return decided(
                "not_of_form",
                reason=f"piecewise weights are not identically 1 (found {term.weight})",
            )
    base = next(t for s, t in pieces if subgroup_generated_by(f.spec, s) == subgroup)
    sigma, shift = base.decay, subgroup.reduce_shift(base.shift)
    cmp = compare(f, gaussian_cf(f.spec, sigma, shift) * haar_cf(subgroup))
    if cmp.verdict == "unknown":
        return decided("unknown", reason=cmp.note)
    if cmp.verdict == "differs":
        return decided(
            "not_of_form",
            reason=f"parameters vary across the support: at character {cmp.witness} f "
            f"differs from the gaussian of sigma {sigma} and shift {shift} on {subgroup}",
            witness=cmp.witness,
        )
    return decided("gaussian_haar", shift, sigma, subgroup, invariant)


# ---------------------------------------------------------------------------
# positive-definiteness spot check


@dataclass(frozen=True)
class PositivityReport:
    size: int
    trials: int
    seed: int
    tol: float
    min_eigenvalue: float
    passed: bool


def _random_characters(spec: SteinitzSpec, count: int, rng: random.Random) -> list[Fraction]:
    ys: list[Fraction] = []
    seen = set()
    while len(ys) < count:
        den = Fraction(1)
        for p, m in spec.multiplicities:
            e = rng.randint(0, int(min(m, 5)))
            den *= Fraction(p) ** e
        y = Fraction(rng.randint(-60, 60)) / den
        if y not in seen:
            seen.add(y)
            ys.append(y)
    return ys


def positivity_report(
    f: StratifiedCF,
    size: int = 8,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> PositivityReport:
    """Gram-matrix eigenvalue spot check of positive definiteness.

    Draws random character tuples, forms G_ij = f(y_i - y_j), and records the
    most negative eigenvalue seen across all trials.
    """
    rng = random.Random(seed)
    worst = math.inf
    for _ in range(trials):
        ys = _random_characters(f.spec, size, rng)
        gram = np.empty((size, size), dtype=complex)
        for i, a in enumerate(ys):
            for j, b in enumerate(ys):
                gram[i, j] = f(a - b)
        gram = (gram + gram.conj().T) / 2
        eigs = np.linalg.eigvalsh(gram)
        worst = min(worst, float(eigs[0]))
    return PositivityReport(size, trials, seed, tol, worst, worst >= -tol)
