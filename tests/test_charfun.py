"""Exact characteristic-function algebra: frozen values, laws, and decisions.

Oracle strategy: every symbolic operation (product, mixture, precompose,
conjugate) is cross-checked against plain complex-number evaluation at a
panel of characters, and every frozen closed-form value below was computed
by hand from weight * exp(-decay y^2) * exp(2 pi i shift y) before the
implementation existed.
"""

import cmath
import math
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soladic import SteinitzSpec, embed_real
from soladic import charfun
from soladic.charfun import (
    MAX_TERMS,
    NEG_INF,
    POS_INF,
    Comparison,
    Stratum,
    StratifiedCF,
    SubgroupSpec,
    Term,
    build_cf,
    check_equidistribution,
    compare,
    decompose_gaussian_haar,
    gaussian_cf,
    haar_cf,
    mixture,
    positivity_report,
    subgroup_generated_by,
    support_as_subgroup,
)
from soladic.errors import BadWeights, CharacterOutsideGroup, SpecMismatch
from soladic.steinitz import two_prime_coefficients

DYADIC = SteinitzSpec.of({2: math.inf})
TWO_THREE = SteinitzSpec.of({2: math.inf, 3: math.inf})
CIRCLE = SteinitzSpec.of({})

#: the blurred two-level Haar mixture of the (2, 3) counterexample
BLURRED_TWO_LEVEL = gaussian_cf(TWO_THREE, F(1, 10)) * mixture(
    [F(1, 2), F(1, 2)],
    [haar_cf(SubgroupSpec.of(TWO_THREE, {2: -1})), haar_cf(SubgroupSpec.of(TWO_THREE, {2: 0}))],
)
#: a cf with several terms on more than one stratum
MULTI_TERM = mixture(
    [F(1, 3), F(1, 3), F(1, 3)],
    [
        gaussian_cf(DYADIC, 1, F(1, 4)),
        gaussian_cf(DYADIC, F(1, 2)),
        haar_cf(SubgroupSpec.of(DYADIC, {2: 0})),
    ],
)


def oracle_value(pieces, spec, y):
    """Direct float evaluation of a piece list, bypassing StratifiedCF."""
    y = F(y)
    for stratum, terms in pieces:
        if stratum.contains(y):
            total = 0j
            for t in terms:
                mag = float(t.weight) * math.exp(-float(t.decay) * float(y) ** 2)
                total += mag * cmath.exp(2j * math.pi * float((t.shift * y) % 1))
            return total
    return 0j


#: a table with a bounded prime, so that some cells are infeasible
TWO_INF_THREE_2 = SteinitzSpec.of({2: math.inf, 3: 2})


def old_product(f, g):
    """The pairwise-intersection product that the refinement-based one replaced."""
    pieces = []
    for sa, ta in f.pieces:
        for sb, tb in g.pieces:
            s = sa.intersect(sb)
            if s is not None and s.occupied(f.spec):
                prods = [
                    Term(x.weight * z.weight, x.decay + z.decay, x.shift + z.shift)
                    for x in ta
                    for z in tb
                ]
                pieces.append((s, prods))
    return build_cf(f.spec, pieces)


def old_conjugate(f):
    """The term-by-term conjugate that ``precompose(-1)`` replaced."""
    pieces = [(s, [Term(t.weight, t.decay, -t.shift) for t in terms]) for s, terms in f.pieces]
    return build_cf(f.spec, pieces)


@st.composite
def cut_cfs(draw, spec=TWO_INF_THREE_2):
    """A cf over a random partition of the dual group into valuation windows.

    The windows of v_2 are cut at up to two places, each optionally cut again
    at one place in v_3; the cell holding zero may be split into its
    ``minus_zero`` remainder and the ``only_zero`` point.  Cells away from
    zero may be left out (the cf is 0 there), and every kept cell carries one
    or two terms, normalized to total weight 1 on the cell holding zero.
    """
    cuts = sorted(draw(st.sets(st.integers(-3, 3), max_size=2)))
    edges = [NEG_INF, *cuts, POS_INF]
    cells = []
    for lo, top in zip(edges, edges[1:]):
        window = (lo, top if top == POS_INF else top - 1)
        if draw(st.booleans()):
            c3 = draw(st.integers(-2, 2))
            cells += [{2: window, 3: (NEG_INF, c3 - 1)}, {2: window, 3: (c3, POS_INF)}]
        else:
            cells.append({2: window})
    strata = [Stratum.of(c) for c in cells]
    if draw(st.booleans()):
        strata = [Stratum.of(c, minus_zero=True) for c in cells] + [Stratum.zero_only()]
    weights = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 3)])
    decays = st.sampled_from([F(0), F(1, 2), F(1)])
    shifts = st.sampled_from([F(0), F(1, 2), F(1, 3), F(1, 4), F(-5, 6)])
    pieces = []
    for s in strata:
        if not s.contains_zero() and not draw(st.booleans()):
            continue
        terms = [Term(draw(weights), draw(decays), draw(shifts)) for _ in range(draw(st.integers(1, 2)))]
        if s.contains_zero():
            total = sum(t.weight for t in terms)
            terms = [Term(t.weight / total, t.decay, t.shift) for t in terms]
        pieces.append((s, terms))
    return build_cf(spec, pieces)


def char_panel(spec):
    """A fixed spread of characters for oracle comparisons."""
    if spec == CIRCLE:
        return [F(0), F(1), F(-1), F(2), F(3), F(-5)]
    ys = [F(0), F(1), F(-1), F(3), F(1, 2), F(-1, 2), F(5, 4), F(1, 8)]
    if spec == TWO_THREE:
        ys += [F(1, 3), F(2, 9), F(5, 6), F(-7, 12)]
    return ys


# ---------------------------------------------------------------------------
# strata


class TestStratum:
    def test_whole_contains_everything(self):
        s = Stratum.whole()
        assert s.contains(F(5, 8))
        assert s.contains(F(0))
        assert s.contains_zero()

    def test_window_membership(self):
        s = Stratum.of({2: (0, POS_INF)})
        assert s.contains(F(3))
        assert s.contains(F(0))
        assert not s.contains(F(1, 2))
        single = Stratum.of({2: (-1, -1)})
        assert single.contains(F(1, 2))
        assert not single.contains(F(1, 4))
        assert not single.contains(F(0))

    def test_zero_flags(self):
        z = Stratum.zero_only()
        assert z.contains(F(0))
        assert not z.contains(F(1))
        punctured = Stratum((), minus_zero=True)
        assert not punctured.contains(F(0))
        assert punctured.contains(F(7, 4))

    def test_minus_zero_normalizes_away_on_bounded_windows(self):
        s = Stratum.of({2: (0, 3)}, minus_zero=True)
        assert not s.minus_zero  # the window already excludes zero

    def test_intersect(self):
        a = Stratum.of({2: (0, POS_INF)})
        b = Stratum.of({2: (NEG_INF, 2), 3: (1, POS_INF)})
        c = a.intersect(b)
        assert c == Stratum.of({2: (0, 2), 3: (1, POS_INF)})
        assert a.intersect(Stratum.of({2: (-3, -1)})) is None

    def test_intersect_with_zero_only(self):
        assert Stratum.zero_only().intersect(Stratum.whole()) == Stratum.zero_only()
        assert Stratum.zero_only().intersect(Stratum.of({2: (0, 4)})) is None

    def test_feasible_respects_group_floor(self):
        deep = Stratum.of({2: (NEG_INF, -2)})
        assert deep.feasible(DYADIC)
        assert not deep.feasible(CIRCLE)
        narrow = Stratum.of({3: (-1, -1)})
        assert narrow.feasible(TWO_THREE)
        assert not narrow.feasible(DYADIC)

    def test_members_land_inside(self):
        s = Stratum.of({2: (-2, -1), 3: (1, POS_INF)})
        ms = s.members(TWO_THREE, limit=30)
        assert ms
        for y in ms:
            assert y != 0
            assert s.contains(y)

    def test_members_of_infeasible_stratum_empty(self):
        assert Stratum.of({3: (-1, -1)}).members(DYADIC) == []


class TestSubtraction:
    def check_partition(self, spec, box, cutter, pieces, samples):
        inter = box.intersect(cutter)
        for y in samples:
            in_box = box.contains(y)
            in_cut = cutter.contains(y)
            hits = [p for p in pieces if p.contains(y)]
            assert len(hits) == (1 if in_box and not in_cut else 0), (y, hits)

    def test_one_axis(self):
        from soladic.charfun import _subtract

        box = Stratum.of({2: (-3, POS_INF)})
        cutter = Stratum.of({2: (0, 1)})
        pieces = _subtract(box, cutter)
        samples = [F(n, 8) for n in range(-20, 21) if n] + [F(0), F(16), F(6)]
        samples = [y for y in samples if y == 0 or y.denominator in (1, 2, 4, 8)]
        self.check_partition(DYADIC, box, cutter, pieces, samples)

    def test_two_axis(self):
        from soladic.charfun import _subtract

        box = Stratum.whole()
        cutter = Stratum.of({2: (0, POS_INF), 3: (0, POS_INF)})
        pieces = _subtract(box, cutter)
        samples = [F(a, 36) for a in range(-40, 41)]
        self.check_partition(TWO_THREE, box, cutter, pieces, samples)

    def test_zero_only_cutter_punches_out_zero(self):
        from soladic.charfun import _subtract

        pieces = _subtract(Stratum.whole(), Stratum.zero_only())
        assert pieces == [Stratum((), minus_zero=True)]

    def test_punctured_cutter_leaves_zero(self):
        from soladic.charfun import _subtract

        pieces = _subtract(Stratum.whole(), Stratum((), minus_zero=True))
        assert pieces == [Stratum.zero_only()]

    def test_disjoint_cutter_is_noop(self):
        from soladic.charfun import _subtract

        box = Stratum.of({2: (0, 2)})
        assert _subtract(box, Stratum.of({2: (4, 5)})) == [box]


# ---------------------------------------------------------------------------
# subgroups


class TestSubgroupSpec:
    def test_canonical_drops_vacuous_thresholds(self):
        spec = SteinitzSpec.of({2: 2, 3: math.inf})
        e = SubgroupSpec.of(spec, {2: -2, 3: 0})
        assert e.thresholds == ((3, 0),)
        assert SubgroupSpec.of(spec, {2: -5}).thresholds == ()

    def test_contains(self):
        e = SubgroupSpec.of(TWO_THREE, {2: 0})
        assert e.contains(F(1, 3))
        assert e.contains(F(0))
        assert not e.contains(F(1, 2))
        assert not e.contains(F(1, 5))  # not even a character
        z = SubgroupSpec.zero(TWO_THREE)
        assert z.contains(0) and not z.contains(1)

    def test_reduce_shift_no_reduction_with_free_infinite_prime(self):
        e = SubgroupSpec.of(TWO_THREE, {2: 0})
        # characters with arbitrarily deep 3-part stay in e, so only shift 0
        # is equivalent to shift 0
        assert e.reduce_shift(F(7, 5)) == F(7, 5)

    def test_reduce_shift_bounded_case(self):
        spec = SteinitzSpec.of({2: 2})
        # whole dual group: y in Z/4, annihilator is 4Z
        whole = SubgroupSpec.whole(spec)
        assert whole.reduce_shift(F(9, 2)) == F(1, 2)
        assert whole.reduce_shift(4) == 0
        sub = SubgroupSpec.of(spec, {2: 0})  # just Z, annihilator Z
        assert sub.reduce_shift(F(7, 3)) == F(1, 3)
        assert sub.reduce_shift(5) == 0

    def test_reduce_shift_circle(self):
        whole = SubgroupSpec.whole(CIRCLE)
        assert whole.reduce_shift(F(5, 3)) == F(2, 3)

    def test_reduce_shift_trivial_subgroup(self):
        assert SubgroupSpec.zero(TWO_THREE).reduce_shift(F(22, 7)) == 0

    def test_generated_by_stratum(self):
        cell = Stratum.of({2: (-1, -1)})
        assert subgroup_generated_by(DYADIC, cell) == SubgroupSpec.of(DYADIC, {2: -1})
        assert subgroup_generated_by(DYADIC, Stratum.zero_only()).trivial
        free = Stratum.of({2: (NEG_INF, 0)})
        assert subgroup_generated_by(DYADIC, free) == SubgroupSpec.whole(DYADIC)


# ---------------------------------------------------------------------------
# construction and evaluation


class TestConstruction:
    def test_gaussian_frozen_values(self):
        f = gaussian_cf(DYADIC, 1)
        assert f(0) == 1
        assert abs(f(2) - math.exp(-4)) < 1e-15
        assert abs(f(F(1, 2)) - math.exp(-0.25)) < 1e-15

    def test_shifted_gaussian_frozen_value(self):
        x = embed_real(DYADIC, F(1, 2))
        f = gaussian_cf(DYADIC, 1, x)
        # at y=1: e^{-1} * exp(pi i) = -e^{-1}
        assert abs(f(1) - (-math.exp(-1))) < 1e-15

    def test_pure_shift_is_unimodular(self):
        f = gaussian_cf(DYADIC, 0, F(1, 3))
        v = f(F(3, 4))
        assert abs(abs(v) - 1) < 1e-15
        assert abs(v - cmath.exp(2j * math.pi * 0.25)) < 1e-14

    def test_haar_values(self):
        h = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        assert h(0) == 1
        assert h(3) == 1
        assert h(F(1, 2)) == 0

    def test_haar_of_zero_subgroup_vanishes_off_zero(self):
        m = haar_cf(SubgroupSpec.zero(TWO_THREE))
        assert m(0) == 1
        assert m(1) == 0
        assert m(F(5, 6)) == 0

    def test_rejects_non_characters(self):
        f = gaussian_cf(DYADIC, 1)
        with pytest.raises(CharacterOutsideGroup):
            f(F(1, 3))

    def test_zero_value_constraint_enforced(self):
        with pytest.raises(ValueError):
            build_cf(DYADIC, [(Stratum.whole(), [Term(F(1, 2), F(0), F(0))])])
        with pytest.raises(ValueError):
            build_cf(DYADIC, [(Stratum.of({2: (-2, -1)}), [Term(F(1), F(0), F(0))])])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            build_cf(
                DYADIC,
                [
                    (Stratum.whole(), [Term(F(1), F(0), F(0))]),
                    (Stratum.of({2: (0, POS_INF)}), [Term(F(1), F(1), F(0))]),
                ],
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            build_cf(
                DYADIC,
                [
                    (Stratum.zero_only(), [Term(F(2), F(0), F(0)), Term(F(-1), F(0), F(1, 2))]),
                ],
            )


class TestOperations:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_power_is_the_repeated_product(self, k):
        assert MULTI_TERM ** k == reduce(mul, [MULTI_TERM] * k)

    @pytest.mark.parametrize("k", [0, -1, 2.0])
    def test_power_needs_a_positive_integer(self, k):
        with pytest.raises(ValueError):
            MULTI_TERM ** k

    def test_product_of_gaussians_adds_decay(self):
        f = gaussian_cf(DYADIC, 1) * gaussian_cf(DYADIC, 2)
        c = compare(f, gaussian_cf(DYADIC, 3))
        assert c.verdict == "equal"

    def test_product_oracle(self):
        f = gaussian_cf(TWO_THREE, F(1, 2), F(1, 3))
        h = haar_cf(SubgroupSpec.of(TWO_THREE, {2: -1}))
        prod = f * h
        for y in char_panel(TWO_THREE):
            want = oracle_value(f.pieces, TWO_THREE, y) * oracle_value(h.pieces, TWO_THREE, y)
            assert abs(prod(y) - want) < 1e-12, y

    @settings(deadline=None, max_examples=80)
    @given(cut_cfs(), cut_cfs())
    def test_product_and_conjugate_equal_their_old_forms(self, f, g):
        assert f * g == old_product(f, g)
        assert f.conjugate() == old_conjugate(f)

    def test_product_skips_cells_where_a_factor_vanishes(self, monkeypatch):
        # the refinement also yields the cells one factor covers alone; the
        # product is 0 there, so no piece is built for them
        f = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        g = gaussian_cf(DYADIC, 1) * haar_cf(SubgroupSpec.of(DYADIC, {2: -1}))
        handed = []

        def spy(spec, pieces):
            handed.append(list(pieces))
            return build_cf(spec, handed[-1])

        monkeypatch.setattr(charfun, "build_cf", spy)
        f * g
        assert [[len(terms) for _, terms in pieces] for pieces in handed] == [[1]]

    def test_product_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            gaussian_cf(DYADIC, 1) * gaussian_cf(CIRCLE, 1)

    def test_conjugate_oracle(self):
        f = gaussian_cf(DYADIC, F(1, 3), F(5, 8))
        g = f.conjugate()
        for y in char_panel(DYADIC):
            assert abs(g(y) - f(y).conjugate()) < 1e-14

    def test_mod_square_of_shift_is_one(self):
        f = gaussian_cf(DYADIC, 0, F(7, 16))
        sq = f.mod_square()
        assert compare(sq, gaussian_cf(DYADIC, 0)).verdict == "equal"

    def test_precompose_gaussian(self):
        f = gaussian_cf(DYADIC, 1)
        g = f.precompose(F(1, 2))
        assert compare(g, gaussian_cf(DYADIC, F(1, 4))).verdict == "equal"

    def test_precompose_moves_haar_stratum(self):
        h = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        g = h.precompose(F(1, 2))
        # y -> h(y/2) is supported where v_2(y/2) >= 0, i.e. v_2(y) >= 1
        assert compare(g, haar_cf(SubgroupSpec.of(DYADIC, {2: 1}))).verdict == "equal"

    def test_precompose_rejects_non_automorphism(self):
        with pytest.raises(ValueError):
            gaussian_cf(DYADIC, 1).precompose(F(2, 3))

    def test_precompose_oracle(self):
        f = mixture(
            [F(1, 2), F(1, 2)],
            [gaussian_cf(TWO_THREE, 1, F(1, 2)), haar_cf(SubgroupSpec.of(TWO_THREE, {3: 0}))],
        )
        alpha = F(-3, 2)
        g = f.precompose(alpha)
        for y in char_panel(TWO_THREE):
            assert abs(g(y) - f(alpha * y)) < 1e-12, y

    def test_mixture_oracle_and_weights(self):
        a = gaussian_cf(DYADIC, 1)
        b = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        mix = mixture([F(1, 4), F(3, 4)], [a, b])
        for y in char_panel(DYADIC):
            want = 0.25 * oracle_value(a.pieces, DYADIC, y) + 0.75 * oracle_value(
                b.pieces, DYADIC, y
            )
            assert abs(mix(y) - want) < 1e-12, y
        with pytest.raises(BadWeights):
            mixture([F(1, 2), F(1, 4)], [a, b])
        with pytest.raises(BadWeights):
            mixture([F(3, 2), F(-1, 2)], [a, b])

    def test_mixture_with_point_mass_at_zero_splits_zero(self):
        m = haar_cf(SubgroupSpec.zero(DYADIC))
        h = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        mix = mixture([F(1, 2), F(1, 2)], [m, h])
        assert mix(0) == 1
        assert abs(mix(1) - 0.5) < 1e-15
        assert mix(F(1, 2)) == 0

    def test_term_budget(self):
        from soladic.errors import TermBudgetExceeded

        # distinct dyadic shifts add without merging, so repeated products
        # must eventually blow past the formal-term cap
        parts = [gaussian_cf(DYADIC, 0, F(1, 2**k)) for k in range(1, 8)]
        g = mixture([F(1, 7)] * 7, parts)
        assert len(g.pieces[0][1]) == 7
        with pytest.raises(TermBudgetExceeded):
            acc = g
            for _ in range(4):
                acc = acc * g


# ---------------------------------------------------------------------------
# comparison


class TestCompare:
    def test_equal_after_reduction_shift_multiple(self):
        spec = SteinitzSpec.of({2: 2})
        f = gaussian_cf(spec, 1, 4)  # shift 4 annihilates Z/4
        g = gaussian_cf(spec, 1, 0)
        assert compare(f, g).verdict == "equal"

    def test_differs_with_witness(self):
        f = gaussian_cf(DYADIC, 1)
        g = gaussian_cf(DYADIC, 2)
        c = compare(f, g)
        assert c.verdict == "differs"
        assert c.witness is not None
        assert abs(f(c.witness) - g(c.witness)) > 1e-12

    def test_differs_on_support_only(self):
        f = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        g = haar_cf(SubgroupSpec.of(DYADIC, {2: 1}))
        c = compare(f, g)
        assert c.verdict == "differs"
        assert abs(f(c.witness) - g(c.witness)) > 0.5

    def test_shift_differs(self):
        f = gaussian_cf(DYADIC, 1, F(1, 2))
        g = gaussian_cf(DYADIC, 1, F(1, 4))
        c = compare(f, g)
        assert c.verdict == "differs"
        assert abs(f(c.witness) - g(c.witness)) > 1e-12

    def test_honest_unknown_on_cancelling_phases(self):
        # on odd integers y, 1/2 + 1/2 exp(pi i y) = 0, so this two-term piece
        # plus the even-support piece is pointwise equal to the v2>=1 Haar
        # function; canonical forms differ and every probe agrees, so the
        # comparison must admit it cannot decide
        f = build_cf(
            DYADIC,
            [
                (
                    Stratum.of({2: (0, 0)}),
                    [Term(F(1, 2), F(0), F(0)), Term(F(1, 2), F(0), F(1, 2))],
                ),
                (Stratum.of({2: (1, POS_INF)}), [Term(F(1), F(0), F(0))]),
            ],
        )
        g = haar_cf(SubgroupSpec.of(DYADIC, {2: 1}))
        c = compare(f, g)
        assert c.verdict == "unknown"
        assert c.witness is None
        # sanity: they really are pointwise equal on a float panel
        for y in char_panel(DYADIC):
            assert abs(f(y) - g(y)) < 1e-12

    def test_probe_cap_is_the_module_constant(self, monkeypatch):
        # on the odd integers f is 0 and g is 1 where 3 divides y, else 0:
        # the probes 1 and -1 agree and the third probe, 3, differs
        odd = Stratum.of({2: (0, 0)})
        even = (Stratum.of({2: (1, POS_INF)}), [Term(F(1), F(0), F(0))])
        f = build_cf(DYADIC, [(odd, [Term(F(1, 2), F(0), F(0)), Term(F(1, 2), F(0), F(1, 2))]), even])
        thirds = [Term(F(1, 3), F(0), F(k, 3)) for k in range(3)]
        g = build_cf(DYADIC, [(odd, thirds), even])
        assert compare(f, g) == Comparison("differs", F(3))
        monkeypatch.setattr(charfun, "COMPARE_PROBES", 2)
        assert compare(f, g).verdict == "unknown"

    def test_compare_is_symmetric_on_verdicts(self):
        f = gaussian_cf(DYADIC, 1)
        g = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        assert compare(f, g).verdict == compare(g, f).verdict == "differs"

    @settings(deadline=None, max_examples=40)
    @given(
        s1=st.fractions(min_value=0, max_value=3, max_denominator=8),
        s2=st.fractions(min_value=0, max_value=3, max_denominator=8),
        r=st.fractions(min_value=-2, max_value=2, max_denominator=8),
    )
    def test_gaussian_equality_iff_parameters_match(self, s1, s2, r):
        f = gaussian_cf(DYADIC, s1, r)
        g = gaussian_cf(DYADIC, s2, r)
        c = compare(f, g)
        assert (c.verdict == "equal") == (s1 == s2)


# ---------------------------------------------------------------------------
# the functional equation


class TestEquidistribution:
    def test_gaussian_holds_for_unit_sum_of_squares(self):
        f = gaussian_cf(DYADIC, F(7, 3))
        chk = check_equidistribution(f, [F(1, 2)] * 4)
        assert chk.verdict == "holds"
        assert not chk.degenerate

    def test_gaussian_fails_off_unit_sphere(self):
        f = gaussian_cf(DYADIC, 1)
        chk = check_equidistribution(f, [F(1, 2)] * 3)
        assert chk.verdict == "fails"
        assert chk.witness is not None
        rhs = math.exp(-3 * (1 / 4) * float(chk.witness) ** 2)
        assert abs(f(chk.witness) - rhs) > 1e-12

    def test_haar_holds_when_subgroup_respected(self):
        h = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        # product of the translated indicators is the indicator of the
        # intersection, which stays at v_2 >= 0 because -1 is a unit at 2
        chk = check_equidistribution(h, [2, -1, 4])
        assert chk.verdict == "holds"

    def test_haar_fails_when_subgroup_moves(self):
        h = haar_cf(SubgroupSpec.of(DYADIC, {2: 0}))
        chk = check_equidistribution(h, [F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
        assert chk.verdict == "fails"

    def test_full_haar_holds_for_any_coefficients(self):
        one = haar_cf(SubgroupSpec.whole(TWO_THREE))
        assert check_equidistribution(one, [F(1, 2), F(3, 2), 6]).verdict == "holds"

    def test_single_coefficient_flagged_degenerate(self):
        f = gaussian_cf(DYADIC, 5)
        chk = check_equidistribution(f, [1])
        assert chk.verdict == "holds"
        assert chk.degenerate

    def test_rejects_non_automorphism_coefficients(self):
        with pytest.raises(ValueError):
            check_equidistribution(gaussian_cf(DYADIC, 1), [F(1, 3)])

    def test_signed_unit_sum_with_shift(self):
        # ten +1/4 and six -1/4: squares sum to one and the coefficients sum
        # to one, so even a shifted gaussian satisfies the identity
        coeffs = [F(1, 4)] * 10 + [F(-1, 4)] * 6
        f = gaussian_cf(DYADIC, F(3, 5), F(9, 8))
        assert check_equidistribution(f, coeffs).verdict == "holds"

    def test_shift_breaks_identity_when_coefficient_sum_moves_it(self):
        f = gaussian_cf(DYADIC, 1, F(1, 3))
        chk = check_equidistribution(f, [F(1, 2)] * 4)  # sum of alphas is 2
        assert chk.verdict == "fails"

    @pytest.mark.parametrize(
        "f, coeffs",
        [
            (BLURRED_TWO_LEVEL, [F(2, 3), F(2, 3), F(1, 3)]),
            (BLURRED_TWO_LEVEL, [F(2, 3), F(1, 3)]),
            (gaussian_cf(DYADIC, F(3, 5), F(9, 8)), [F(1, 4)] * 10 + [F(-1, 4)] * 6),
            (MULTI_TERM, [F(1, 2), F(-1, 2), F(1, 2), F(1, 2)]),
        ],
        ids=["two-level-holds", "two-level-fails", "signed-shifted-gaussian", "multi-term"],
    )
    def test_grouped_check_matches_per_copy_product(self, f, coeffs):
        # reference: one precomposition and one product per copy
        reference = compare(f, reduce(mul, (f.precompose(c) for c in coeffs)))
        chk = check_equidistribution(f, coeffs)
        verdict = {"equal": "holds", "differs": "fails", "unknown": "unknown"}[reference.verdict]
        assert (chk.verdict, chk.witness, chk.note) == (verdict, reference.witness, reference.note)

    def test_precomposes_once_per_distinct_coefficient(self, monkeypatch):
        # the (5, 2) system is 41,943 copies of 5/2^10 and one 1/2^10
        spec = SteinitzSpec.of({2: math.inf, 5: math.inf})
        f = mixture(
            [F(1, 2), F(1, 2)],
            [haar_cf(SubgroupSpec.of(spec, {5: -1})), haar_cf(SubgroupSpec.of(spec, {5: 0}))],
        )
        coeffs = two_prime_coefficients(5, 2).coefficients
        calls = []
        original = StratifiedCF.precompose

        def counting(self, alpha):
            calls.append(alpha)
            return original(self, alpha)

        monkeypatch.setattr(StratifiedCF, "precompose", counting)
        chk = check_equidistribution(f, coeffs)
        assert chk.verdict == "holds"
        assert len(coeffs) == 41_944
        assert calls == [F(1, 1024), F(5, 1024)]

    def test_repeated_single_coefficient_is_not_degenerate(self):
        chk = check_equidistribution(haar_cf(SubgroupSpec.whole(DYADIC)), [1, 1])
        assert chk.verdict == "holds"
        assert not chk.degenerate


# ---------------------------------------------------------------------------
# support and decomposition


class TestSupport:
    def test_gaussian_support_is_whole_group(self):
        sc = support_as_subgroup(gaussian_cf(DYADIC, 1))
        assert sc.kind == "subgroup"
        assert sc.subgroup == SubgroupSpec.whole(DYADIC)

    def test_haar_support_recovers_subgroup(self):
        e = SubgroupSpec.of(TWO_THREE, {2: 1, 3: -2})
        sc = support_as_subgroup(haar_cf(e))
        assert sc.kind == "subgroup"
        assert sc.subgroup == e

    def test_point_mass_support_is_zero_subgroup(self):
        sc = support_as_subgroup(haar_cf(SubgroupSpec.zero(DYADIC)))
        assert sc.kind == "subgroup"
        assert sc.subgroup.trivial

    def test_two_shell_union_is_not_subgroup(self):
        f = build_cf(
            DYADIC,
            [
                (Stratum.of({2: (0, POS_INF)}), [Term(F(1), F(0), F(0))]),
                (Stratum.of({2: (-2, -2)}), [Term(F(1), F(2), F(0))]),
            ],
        )
        sc = support_as_subgroup(f)
        assert sc.kind == "not_subgroup"
        y1, y2 = sc.witness
        assert f(y1) != 0 and f(y2) != 0 and f(y1 + y2) == 0

    def test_probe_cap_is_the_module_constant(self, monkeypatch):
        # v_2 >= 1 together with -2 <= v_2 <= -1: the first member of each
        # stratum pairs into the support, so the witness needs more probes
        one = [Term(F(1), F(0), F(0))]
        f = build_cf(DYADIC, [(Stratum.of({2: (1, POS_INF)}), one), (Stratum.of({2: (-2, -1)}), one)])
        assert support_as_subgroup(f).kind == "not_subgroup"
        monkeypatch.setattr(charfun, "SUPPORT_PROBES", 1)
        assert support_as_subgroup(f).kind == "unknown"

    def test_multi_term_piece_gives_unknown(self):
        f = build_cf(
            DYADIC,
            [
                (
                    Stratum.of({2: (0, 0)}),
                    [Term(F(1, 2), F(0), F(0)), Term(F(1, 2), F(0), F(1, 2))],
                ),
                (Stratum.of({2: (1, POS_INF)}), [Term(F(1), F(0), F(0))]),
            ],
        )
        assert support_as_subgroup(f).kind == "unknown"


class TestDecomposition:
    def test_roundtrip(self):
        e = SubgroupSpec.of(DYADIC, {2: -1})
        f = gaussian_cf(DYADIC, F(2, 7), F(1, 8)) * haar_cf(e)
        d = decompose_gaussian_haar(f)
        assert d.kind == "gaussian_haar"
        assert d.sigma == F(2, 7)
        assert d.subgroup == e
        assert d.shift == e.reduce_shift(F(1, 8))
        rebuilt = gaussian_cf(DYADIC, d.sigma, d.shift) * haar_cf(d.subgroup)
        assert compare(f, rebuilt).verdict == "equal"

    def test_plain_gaussian(self):
        d = decompose_gaussian_haar(gaussian_cf(DYADIC, 3))
        assert d.kind == "gaussian_haar"
        assert d.sigma == 3 and d.shift == 0
        assert d.subgroup == SubgroupSpec.whole(DYADIC)

    def test_point_mass(self):
        d = decompose_gaussian_haar(haar_cf(SubgroupSpec.zero(DYADIC)))
        assert d.kind == "gaussian_haar"
        assert d.subgroup.trivial and d.sigma == 0 and d.shift == 0

    def test_division_invariance_flag(self):
        # v_2 >= 0 is not closed under dividing characters by 2
        d = decompose_gaussian_haar(haar_cf(SubgroupSpec.of(DYADIC, {2: 0})))
        assert d.p_invariant is False
        spec = SteinitzSpec.of({2: math.inf, 3: 1})
        d2 = decompose_gaussian_haar(haar_cf(SubgroupSpec.of(spec, {3: 0})))
        assert d2.p_invariant is True
        d3 = decompose_gaussian_haar(gaussian_cf(TWO_THREE, 1))
        assert d3.p_invariant is None  # two unbounded primes, no single scale

    def test_mixture_is_not_of_form(self):
        f = mixture(
            [F(1, 2), F(1, 2)],
            [haar_cf(SubgroupSpec.of(DYADIC, {2: 0})), haar_cf(SubgroupSpec.of(DYADIC, {2: -1}))],
        )
        d = decompose_gaussian_haar(f)
        assert d.kind == "not_of_form"
        assert "1" in d.reason

    def test_sigma_varying_across_support_rejected(self):
        f = build_cf(
            DYADIC,
            [
                (Stratum.of({2: (0, POS_INF)}), [Term(F(1), F(1), F(0))]),
                (Stratum.of({2: (-1, -1)}), [Term(F(1), F(2), F(0))]),
            ],
        )
        d = decompose_gaussian_haar(f)
        assert d.kind == "not_of_form"
        assert "vary" in d.reason


def recut(f, p, k, move):
    """f with every piece split at v_p = k, the upper part's shifts moved by `move`."""
    pieces = []
    for stratum, terms in f.pieces:
        for window, dx in (((NEG_INF, k - 1), 0), ((k, POS_INF), move)):
            cell = stratum.intersect(Stratum.of({p: window}))
            if cell is not None:
                pieces.append((cell, [Term(t.weight, t.decay, t.shift + dx) for t in terms]))
    return build_cf(f.spec, pieces)


class TestDecompositionIgnoresCuts:
    """A cf written over finer windows decomposes like the uncut cf.

    Each move is a multiple of the step of the upper cell's generated
    subgroup, so it is invisible on that cell but not on the whole support.
    """

    def test_even_odd_point_mass(self):
        # the circle point mass at 1/2: +1 on even integers, -1 on odd ones
        f = build_cf(
            CIRCLE,
            [
                (Stratum.of({2: (1, POS_INF)}), [Term(F(1), F(0), F(0))]),
                (Stratum.of({2: (NEG_INF, 0)}), [Term(F(1), F(0), F(1, 2))]),
            ],
        )
        assert compare(f, gaussian_cf(CIRCLE, 0, F(1, 2))).verdict == "equal"
        d = decompose_gaussian_haar(f)
        assert (d.kind, d.sigma, d.shift) == ("gaussian_haar", 0, F(1, 2))
        assert d.subgroup == SubgroupSpec.whole(CIRCLE)

    @pytest.mark.parametrize(
        "spec, sigma, shift, table, p, k, move",
        [
            (DYADIC, F(2, 7), F(1, 8), {2: -1}, 2, 2, F(3, 4)),
            (DYADIC, F(1), F(0), {}, 2, 3, F(1, 8)),
            (TWO_THREE, F(1), F(1, 6), {2: 0, 3: 0}, 3, 1, F(1, 3)),
            (SteinitzSpec.of({2: math.inf, 3: 1}), F(0), F(0), {3: 0}, 2, 5, F(1, 32)),
            (CIRCLE, F(0), F(1, 12), {2: 1, 3: 1}, 3, 2, F(1, 18)),
        ],
    )
    def test_recut_gaussian_haar(self, spec, sigma, shift, table, p, k, move):
        f = gaussian_cf(spec, sigma, shift) * haar_cf(SubgroupSpec.of(spec, table))
        cut = recut(f, p, k, move)
        assert len(cut.pieces) > len(f.pieces)
        assert compare(cut, f).verdict == "equal"
        assert decompose_gaussian_haar(cut) == decompose_gaussian_haar(f)

    def test_varying_parameters_carry_the_differing_character(self):
        f = recut(gaussian_cf(DYADIC, 1) * haar_cf(SubgroupSpec.of(DYADIC, {2: -1})), 2, 1, F(1, 4))
        d = decompose_gaussian_haar(f)
        assert d.kind == "not_of_form" and "vary" in d.reason
        candidate = gaussian_cf(DYADIC, 1) * haar_cf(SubgroupSpec.of(DYADIC, {2: -1}))
        assert abs(f(d.witness) - candidate(d.witness)) > 1e-9

    def test_support_witness_is_the_pair(self):
        f = build_cf(
            CIRCLE,
            [
                (Stratum.of({2: (0, 0)}), [Term(F(1), 0, 0)]),
                (Stratum.zero_only(), [Term(F(1), 0, 0)]),
            ],
        )
        d = decompose_gaussian_haar(f)
        y1, y2 = d.witness
        assert f(y1) != 0 and f(y2) != 0 and f(y1 + y2) == 0


class TestPositivity:
    def test_gaussian_haar_product_is_psd(self):
        f = gaussian_cf(DYADIC, 1, F(1, 2)) * haar_cf(SubgroupSpec.of(DYADIC, {2: -1}))
        rep = positivity_report(f, size=6, trials=25, seed=7)
        assert rep.passed
        assert rep.min_eigenvalue >= -rep.tol

    def test_circle_function_psd(self):
        rep = positivity_report(gaussian_cf(CIRCLE, F(1, 10)), size=5, trials=10, seed=3)
        assert rep.passed

    def test_report_is_reproducible(self):
        f = gaussian_cf(DYADIC, 2)
        a = positivity_report(f, size=4, trials=5, seed=11)
        b = positivity_report(f, size=4, trials=5, seed=11)
        assert a == b
