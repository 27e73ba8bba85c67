"""Piecewise characteristic functions on the dual group, in exact arithmetic.

A function is stored as finitely many pairwise-disjoint strata (conjunctions
of per-prime valuation constraints) each carrying a formal sum of terms
``weight * exp(-decay * y^2) * exp(2 pi i shift y)``, with an implicit value
of zero off all strata.  No stratum holds the zero character, where every
characteristic function is 1.  Weights, decays and shifts are exact
rationals, so products, mixtures, precompositions by automorphisms and
equality checks can all be decided symbolically; equality returns a
first-class "unknown" rather than guessing whenever the symbolic comparison
is inconclusive.

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

from ._numpy import np
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
    _require_prime,
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
#: length cap of ``Stratum.members``, the one probe list of a cell
MAX_PROBES = 96


# ---------------------------------------------------------------------------
# strata


@dataclass(frozen=True)
class Stratum:
    """A cell: the nonzero characters inside per-prime valuation windows.

    ``bounds`` is a sorted tuple of (prime, lo, hi) with lo <= hi, meaning
    lo <= v_p(y) <= hi (infinite endpoints drop the constraint on that side).
    No cell holds the zero character: every characteristic function is 1
    there, so ``StratifiedCF`` places that value itself.
    """

    bounds: tuple[tuple[int, int | float, int | float], ...] = ()

    @classmethod
    def whole(cls) -> "Stratum":
        return cls()

    @classmethod
    def of(cls, windows: Mapping[int, tuple]) -> "Stratum":
        bounds = []
        for p in sorted(windows):
            lo, hi = windows[p]
            if lo > hi:
                raise ValueError(f"empty window for prime {p}")
            if lo == NEG_INF and hi == POS_INF:
                continue
            bounds.append((p, lo, hi))
        return cls(tuple(bounds))

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
        if y == 0:
            return False
        for p, lo, hi in self.bounds:
            if not (lo <= valuation(y, p) <= hi):
                return False
        return True

    def __str__(self):
        """The cell in the ``v_p>=k`` notation of ``SubgroupSpec``, for reasons and errors."""
        parts = []
        for p, lo, hi in self.bounds:
            if lo == hi:
                parts.append(f"v_{p}={int(lo)}")
            elif hi == POS_INF:
                parts.append(f"v_{p}>={int(lo)}")
            elif lo == NEG_INF:
                parts.append(f"v_{p}<={int(hi)}")
            else:
                parts.append(f"{int(lo)}<=v_{p}<={int(hi)}")
        return " & ".join(parts) or "whole dual group"

    def intersect(self, other: "Stratum") -> "Stratum | None":
        windows: dict[int, tuple] = {}
        for p, lo, hi in self.bounds + other.bounds:
            l0, h0 = windows.get(p, (NEG_INF, POS_INF))
            windows[p] = (max(l0, lo), min(h0, hi))
        if any(lo > hi for lo, hi in windows.values()):
            return None
        return Stratum.of(windows)

    def floor(self, p: int, spec: SteinitzSpec) -> int | float:
        """The least valuation at p of a character in the cell: the larger of lo_p and -multiplicity(p)."""
        return max(self.window(p)[0], -spec.multiplicity(p))

    def feasible(self, spec: SteinitzSpec) -> bool:
        """Whether the stratum holds at least one character."""
        return all(self.floor(p, spec) <= hi for p, _, hi in self.bounds)

    def members(self, spec: SteinitzSpec) -> list[Fraction]:
        """Deterministic members, the cell's one probe list, at most ``MAX_PROBES``.

        Used for witness probing, so diversity matters more than coverage.
        The integral members come first: exponents sweep the window edges
        and the unit part runs over signed integers coprime to the
        constrained primes.  Then come those divided by p, for every table
        prime p the stratum leaves unconstrained, then by p^2 and by p^3
        (as far as the table allows): the only probes below exponent 0 at p.
        Repeats are dropped.
        """
        if not self.feasible(spec):
            return []
        axes: list[list[int]] = []
        for p, _, hi in self.bounds:
            floor = self.floor(p, spec)
            if floor == NEG_INF:
                top = 0 if hi == POS_INF else int(hi)
                exps = [top, top - 1, top - 3]
            else:
                exps = [int(floor) + d for d in range(3) if floor + d <= hi]
            axes.append(exps)
        units = [u for u in (1, 3, 5, 7, 11, 13, 2, 9) if math.gcd(u, math.prod(self.primes)) == 1]
        signed = (
            sign * u * math.prod((Fraction(p) ** e for p, e in zip(self.primes, combo)), start=Fraction(1))
            for combo in itertools.product(*axes)
            for u in units
            for sign in (1, -1)
        )
        integral = list(itertools.islice(signed, MAX_PROBES))
        free = [p for p in spec.primes if p not in self.primes]
        divisors = [Fraction(p) ** k for k in (1, 2, 3) for p in free if k <= spec.multiplicity(p)]
        probes = dict.fromkeys(itertools.chain(integral, (y / d for d in divisors for y in integral)))
        return list(probes)[:MAX_PROBES]


def _subtract(box: Stratum, cutter: Stratum) -> list[Stratum]:
    """box minus cutter, as disjoint strata."""
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
            out.append(Stratum.of(piece))
        if ihi != POS_INF and ihi + 1 <= hi:
            piece = dict(current)
            piece[p] = (ihi + 1, hi)
            out.append(Stratum.of(piece))
        current[p] = (ilo, ihi)
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
            _require_prime(p)  # any prime, in the table or not
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

    def stratum(self) -> Stratum | None:
        """The subgroup's nonzero characters as a cell; None for the zero subgroup, which has none."""
        if self.trivial:
            return None
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
        return "{0}" if self.trivial else str(self.stratum())


def subgroup_generated_by(spec: SteinitzSpec, stratum: Stratum) -> SubgroupSpec:
    """Smallest lower-bound subgroup containing the stratum."""
    floors = {p: stratum.floor(p, spec) for p in stratum.primes}
    return SubgroupSpec.of(spec, {p: int(floor) for p, floor in floors.items() if floor != NEG_INF})


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
    """Finitely-stratified symbolic characteristic function (1 at zero, 0 off the strata)."""

    spec: SteinitzSpec
    pieces: tuple[tuple[Stratum, tuple[Term, ...]], ...]

    def __call__(self, y: Rational) -> complex:
        y = Fraction(y)
        if not in_dual_group(self.spec, y):
            raise CharacterOutsideGroup(f"{y} is not a character of this solenoid")
        if y == 0:
            return 1 + 0j  # every characteristic function is 1 at the zero character
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

    def precompose(self, alpha: Rational) -> "StratifiedCF":
        """The function y -> f(alpha * y); alpha must be an automorphism."""
        alpha = Fraction(alpha)
        if not is_automorphism(self.spec, alpha):
            raise ValueError(f"{alpha} is not an automorphism of this solenoid")
        pieces = []
        for stratum, terms in self.pieces:
            windows = {}
            for p, lo, hi in stratum.bounds:
                v = valuation(alpha, p)
                windows[p] = (lo - v if lo != NEG_INF else lo, hi - v if hi != POS_INF else hi)
            pieces.append(
                (Stratum.of(windows), [Term(t.weight, t.decay * alpha**2, t.shift * alpha) for t in terms])
            )
        return build_cf(self.spec, pieces)


def build_cf(spec: SteinitzSpec, pieces: Iterable[tuple[Stratum, Iterable[Term]]]) -> StratifiedCF:
    """Normalize and validate a piece list into a StratifiedCF.

    Drops infeasible strata and zero atoms, merges duplicate terms, and
    checks that the strata's primes are prime, that the parameters are
    nonnegative and that no two feasible strata overlap.  The value 1 at the
    zero character, which no stratum holds, needs no check.
    """
    cleaned: list[tuple[Stratum, tuple[Term, ...]]] = []
    for stratum, terms in pieces:
        for p in stratum.primes:
            _require_prime(p)
        merged = _merge_terms(terms)
        if not stratum.feasible(spec) or not merged:
            continue
        for t in merged:
            if t.weight < 0:
                raise ValueError("term weights must be nonnegative")
            if t.decay < 0:
                raise ValueError("decay parameters must be nonnegative")
        cleaned.append((stratum, merged))
    cleaned.sort(key=lambda piece: piece[0].bounds)
    overlap = _first_overlap(spec, [s for s, _ in cleaned])
    if overlap is not None:
        i, j, _ = overlap
        raise ValueError(f"strata overlap: {cleaned[i][0]} and {cleaned[j][0]}")
    return StratifiedCF(spec, tuple(cleaned))


def _first_overlap(spec: SteinitzSpec, strata: Sequence[Stratum]) -> tuple[int, int, Stratum] | None:
    """Positions i < j of the first two strata that share a feasible cell, and that cell."""
    for (i, sa), (j, sb) in itertools.combinations(enumerate(strata), 2):
        inter = sa.intersect(sb)
        if inter is not None and inter.feasible(spec):
            return i, j, inter
    return None


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
    cell = subgroup.stratum()
    pieces = [] if cell is None else [(cell, [Term(Fraction(1), Fraction(0), Fraction(0))])]
    return build_cf(subgroup.spec, pieces)


def _mixture_weights(weights: Sequence[Rational], specs: Sequence[SteinitzSpec]) -> tuple[Fraction, ...]:
    """Mixture weights as Fractions, checked against the parts' solenoids (BadWeights, SpecMismatch)."""
    if len(weights) != len(specs) or not specs:
        raise BadWeights("need matching, nonempty weights and parts")
    weights = tuple(Fraction(w) for w in weights)
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise BadWeights("weights must be nonnegative rationals summing to 1")
    if any(s != specs[0] for s in specs):
        raise SpecMismatch("mixture parts live over different solenoids")
    return weights


def mixture(weights: Sequence[Rational], parts: Sequence[StratifiedCF]) -> StratifiedCF:
    weights = _mixture_weights(weights, [f.spec for f in parts])
    acc: list[tuple[Stratum, tuple[Term, ...]]] = []
    for w, f in zip(weights, parts):
        if w == 0:
            continue
        scaled = [
            (s, tuple(Term(t.weight * w, t.decay, t.shift) for t in terms))
            for s, terms in f.pieces
        ]
        acc = [(cell, ta + tb) for cell, ta, tb in _refine(acc, scaled)]
    return build_cf(parts[0].spec, acc)


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
    refinement; "differs" always carries a witness whose two values are
    provably different; anything else is an honest "unknown".  Each cell
    whose forms differ is probed once along its ``members``, in ``_refine``
    order, so the witness is the first differing probe of the first cell
    that has one.  Only when no probe differs anywhere does a cell whose two
    forms are single terms get ``_shift_witness``, its closed-form witness.
    """
    if f.spec != g.spec:
        raise SpecMismatch("cannot compare functions over different solenoids")
    spec = f.spec
    undecided = []
    for cell, ta, tb in _refine(f.pieces, g.pieces):
        if not cell.feasible(spec):
            continue  # no character lies in it
        ca, cb = _canonical_terms(spec, cell, ta), _canonical_terms(spec, cell, tb)
        if ca == cb:
            continue
        for y in cell.members(spec):
            if _values_equal_exact(ta, tb, y) is False:
                return Comparison("differs", y)
        undecided.append((cell, ta, tb, ca, cb))
    for cell, ta, tb, ca, cb in undecided:
        if len(ca) == len(cb) == 1 and ca[0].shift != cb[0].shift:
            y = _shift_witness(spec, cell, ca[0].shift - cb[0].shift)
            if _values_equal_exact(ta, tb, y) is False:
                return Comparison("differs", y)
    if undecided:
        notes = (f"forms differ on {cell} but every probe agreed" for cell, *_ in undecided)
        return Comparison("unknown", None, "; ".join(notes))
    return Comparison("equal")


def _shift_witness(spec: SteinitzSpec, cell: Stratum, d: Fraction) -> Fraction:
    """A member y of the cell, built from its valuation floors, with d * y not an integer where one can be.

    The floor at p is ``Stratum.floor``.  The first prime r whose
    floor plus v_r(d) is negative gets that floor, or -v_r(d) - 1 capped by
    hi_r when r is unbounded below; every other constrained prime gets its
    floor, or its upper end when it has none.  Two single-term forms that
    differ only in their shifts, by d, then differ at y.
    """
    exps = {}
    for p, _, hi in cell.bounds:
        floor = cell.floor(p, spec)
        exps[p] = hi if floor == NEG_INF else floor
    for r in sorted({*spec.primes, *cell.primes}):
        floor = cell.floor(r, spec)
        if floor + valuation(d, r) < 0:
            exps[r] = min(-valuation(d, r) - 1, cell.window(r)[1]) if floor == NEG_INF else floor
            break
    return math.prod((Fraction(p) ** int(e) for p, e in exps.items()), start=Fraction(1))


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
    counts = coefficient_counts(coeffs)
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
    else the ``members`` of its strata, the probes ``compare`` uses, are
    paired to find a sum outside it.  A piece whose ``_canonical_terms``
    share one shift is a character times positive gaussians, nonzero on its
    cell; several phases may cancel at points, so they yield an "unknown".
    """
    spec = f.spec
    for s, terms in f.pieces:
        if len({t.shift for t in _canonical_terms(spec, s, terms)}) > 1:
            return SupportCheck("unknown", note=f"terms of several phases may cancel on {s}")
    boxes = [s for s, _ in f.pieces]
    if not boxes:
        return SupportCheck("subgroup", SubgroupSpec.zero(spec))
    generated = [subgroup_generated_by(spec, s) for s in boxes]
    primes = {p for g in generated for p, _ in g.thresholds}
    candidate = SubgroupSpec.of(spec, {p: min(g.threshold(p) for g in generated) for p in primes})
    residual = _subtract_many(candidate.stratum(), boxes)
    if not any(r.feasible(spec) for r in residual):
        return SupportCheck("subgroup", candidate)
    # the union is a proper subset of the enveloping subgroup, so it cannot
    # be closed under addition; hunt for a concrete witness pair
    samples = [y for s in boxes for y in s.members(spec)]
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

    The support must be a subgroup and each piece's ``_canonical_terms`` one
    term of weight 1.  The candidate takes sigma and the shift from the
    canonical term of a piece whose cell generates the support (one always
    does) and is then decided by ``compare``, so pieces whose shifts differ
    by characters trivial on their own cell still decompose.  The
    witness is the support's pair when it is not a subgroup; for a piece of
    one term w exp(-d y^2) e(s y) with w != 1, the cell's first member: there
    |f| = w exp(-d y^2), which at a rational y != 0 never equals
    exp(-sigma y^2) (Lindemann-Weierstrass), so no candidate matches it;
    otherwise the character where f and the candidate differ.  So every
    ``not_of_form`` carries a witness.  Every outcome carries the
    ``support_as_subgroup`` check it was decided from, so callers read the
    support from it instead of computing it again.
    """
    sc = support_as_subgroup(f)
    decided = partial(Decomposition, support=sc)
    if sc.kind == "not_subgroup":
        return decided(
            "not_of_form",
            reason="support is not a subgroup (witness pair {}, {})".format(*sc.witness),
            witness=sc.witness,
        )
    if sc.kind == "unknown":
        return decided("unknown", reason=sc.note)
    subgroup = sc.subgroup
    invariant = _division_invariance(f.spec, subgroup)
    if subgroup.trivial:
        return decided("gaussian_haar", Fraction(0), Fraction(0), subgroup, invariant)
    canonical = [(s, _canonical_terms(f.spec, s, terms)) for s, terms in f.pieces]
    for cell, terms in canonical:
        if len(terms) == 1 and terms[0].weight != 1:
            return decided(
                "not_of_form",
                reason=f"piecewise weights are not identically 1 (found {terms[0].weight})",
                witness=cell.members(f.spec)[0],
            )
    base = next(terms[0] for s, terms in canonical if subgroup_generated_by(f.spec, s) == subgroup)
    sigma, shift = base.decay, base.shift
    cmp = compare(f, gaussian_cf(f.spec, sigma, shift) * haar_cf(subgroup))
    if cmp.verdict == "unknown":
        return decided("unknown", reason=cmp.note)
    if cmp.verdict == "differs":
        # the support check leaves each piece one phase, so several terms are several decays
        cell, terms = next((s, terms) for s, terms in canonical if s.contains(cmp.witness))
        found = f"at character {cmp.witness} f differs from the gaussian of sigma {sigma} and shift {shift}"
        if len(terms) > 1:
            decays = ", ".join(str(t.decay) for t in terms)
            reason = f"the piece on {cell} is not one gaussian: its terms have decays {decays}; {found}"
        else:
            reason = f"parameters vary across the support: {found} on {subgroup}"
        return decided("not_of_form", reason=reason, witness=cmp.witness)
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
