"""Scenario bundles: preconditions, frozen conclusions, and structural gates.

The frozen numbers here were derived by hand before the scenarios existed:
mixture values on the three valuation shells (1, c, 0), the blurred
pointwise values exp(-1), exp(-1/4)/2 and 0 at y = 1, 1/2, 1/4, and the
circle recoveries (shift, order).  Scenario internals re-assert most of
their own claims, so these tests focus on the outward contract: what is
returned, what raises, and what the conclusion text commits to.
"""

import dataclasses
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soladic import (
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    PreconditionViolated,
    SoundnessError,
    SteinitzSpec,
    Stratum,
    SubgroupSpec,
    Term,
    build_cf,
    blurred_counterexample,
    check_equidistribution,
    circle_check,
    classify_and_conclude,
    compare,
    decompose_gaussian_haar,
    gaussian_cf,
    gaussian_haar_scenario,
    haar_cf,
    mixture,
    positivity_report,
    support_as_subgroup,
    two_prime_counterexample,
)
from soladic import charfun, scenarios
from soladic.charfun import NEG_INF, POS_INF
from soladic.scenarios import _assert_coherent

DYADIC = SteinitzSpec.of({2: math.inf})
TWO_THREE = SteinitzSpec.of({2: math.inf, 3: math.inf})
MIXED = SteinitzSpec.of({2: math.inf, 3: 1})
CIRCLE = SteinitzSpec.of({})
HALF4 = [F(1, 2)] * 4


class TestGaussianHaarScenario:
    def test_whole_group_roundtrip(self):
        v = gaussian_haar_scenario(DYADIC, 1, SubgroupSpec.whole(DYADIC), 0, HALF4)
        assert v.equation.verdict == "holds"
        assert v.decomposition.kind == "gaussian_haar"
        assert v.decomposition.sigma == 1
        assert v.decomposition.subgroup == SubgroupSpec.whole(DYADIC)
        assert v.simulation is None

    def test_degenerate_sigma_zero(self):
        v = gaussian_haar_scenario(DYADIC, 0, SubgroupSpec.whole(DYADIC), 0, HALF4)
        assert v.equation.verdict == "holds"
        assert v.decomposition.sigma == 0

    def test_finite_prime_survives_untouched(self):
        sub = SubgroupSpec.of(MIXED, {3: 0})
        v = gaussian_haar_scenario(MIXED, 2, sub, 0, HALF4)
        assert v.equation.verdict == "holds"
        assert v.decomposition.sigma == 2
        assert v.decomposition.subgroup == sub
        assert v.decomposition.p_invariant is True

    def test_shift_recovered_when_coefficients_sum_to_one(self):
        coeffs = [F(1, 4)] * 10 + [F(-1, 4)] * 6
        v = gaussian_haar_scenario(
            DYADIC, F(1, 3), SubgroupSpec.whole(DYADIC), F(9, 8), coeffs
        )
        assert v.equation.verdict == "holds"
        assert v.decomposition.shift == F(9, 8)

    def test_trivial_subgroup_absorbs_parameters(self):
        v = gaussian_haar_scenario(DYADIC, 5, SubgroupSpec.zero(DYADIC), F(7, 3), HALF4)
        assert v.decomposition.kind == "gaussian_haar"
        assert v.decomposition.subgroup.trivial
        assert v.decomposition.p_invariant is True

    def test_conclusion_text_is_coherent(self):
        v = gaussian_haar_scenario(DYADIC, 1, SubgroupSpec.whole(DYADIC), 0, HALF4)
        assert "the functional equation holds" in v.conclusion
        assert "decomposes as a gaussian convolved with subgroup haar" in v.conclusion
        assert "is not of gaussian-times-haar form" not in v.conclusion

    def test_simulation_attaches_consistent_report(self):
        v = gaussian_haar_scenario(
            DYADIC, 1, SubgroupSpec.whole(DYADIC), 0, HALF4,
            simulate=True, n=20_000, depth=3, seed=7,
        )
        assert v.simulation.verdict == "consistent"
        assert "monte carlo simulation is consistent" in v.conclusion

    @pytest.mark.parametrize(
        "kwargs, clause",
        [
            (dict(subgroup_table={2: 0}), "invariant under division"),
            (dict(coeffs=[F(1, 3), F(2, 3), F(2, 3)]), "signed negative power"),
            (dict(coeffs=[F(1, 2)] * 3), "sum to one"),
            (dict(shift=F(1, 3)), "shift is incompatible"),
            (dict(sigma=-1), "nonnegative"),
            (dict(coeffs=[F(1, 2)]), "at least two"),
        ],
    )
    def test_each_precondition_names_its_clause(self, kwargs, clause):
        table = kwargs.pop("subgroup_table", None)
        sub = SubgroupSpec.of(DYADIC, table) if table else SubgroupSpec.whole(DYADIC)
        args = dict(sigma=1, subgroup=sub, shift=0, coeffs=HALF4)
        args.update(kwargs)
        with pytest.raises(PreconditionViolated, match=clause):
            gaussian_haar_scenario(DYADIC, args["sigma"], args["subgroup"],
                                   args["shift"], args["coeffs"])

    def test_two_unbounded_primes_rejected(self):
        with pytest.raises(PreconditionViolated, match="exactly one unbounded prime"):
            gaussian_haar_scenario(TWO_THREE, 1, SubgroupSpec.whole(TWO_THREE), 0, HALF4)

    def test_foreign_subgroup_rejected(self):
        with pytest.raises(PreconditionViolated, match="different solenoid"):
            gaussian_haar_scenario(DYADIC, 1, SubgroupSpec.whole(TWO_THREE), 0, HALF4)


class TestTwoPrimeCounterexample:
    def test_frozen_coefficient_system(self):
        b = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        assert b.coefficients == (F(2, 3), F(2, 3), F(1, 3))
        assert sum(c * c for c in b.coefficients) == 1

    def test_frozen_shell_values(self):
        b = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        assert b.cf(1) == 1 + 0j
        assert b.cf(F(1, 2)) == 0.5 + 0j
        assert b.cf(F(1, 4)) == 0j

    def test_equation_holds_but_law_does_not_decompose(self):
        b = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        assert b.verdict.equation.verdict == "holds"
        assert b.verdict.decomposition.kind == "not_of_form"
        assert "is not of gaussian-times-haar form" in b.verdict.conclusion

    def test_mixture_oracle_matches_piecewise(self):
        b = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 4))
        oracle = mixture(
            [F(1, 4), F(3, 4)],
            [
                haar_cf(SubgroupSpec.of(TWO_THREE, {2: -1})),
                haar_cf(SubgroupSpec.of(TWO_THREE, {2: 0})),
            ],
        )
        assert compare(oracle, b.cf).verdict == "equal"

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (2, 5), (3, 5), (5, 2)])
    def test_prime_pairs_build_and_self_check(self, p, q):
        spec = SteinitzSpec.of({p: math.inf, q: math.inf})
        b = two_prime_counterexample(spec, p, q, F(1, 2))
        assert sum(c * c for c in b.coefficients) == 1
        assert b.verdict.equation.verdict == "holds"
        assert b.verdict.decomposition.kind == "not_of_form"

    @pytest.mark.parametrize("c", [F(1, 4), F(1, 2), F(3, 4)])
    def test_positive_definite_for_each_weight(self, c):
        b = two_prime_counterexample(TWO_THREE, 2, 3, c)
        report = positivity_report(b.cf)
        assert report.passed
        assert report.min_eigenvalue >= -1e-9

    def test_sampler_mirrors_the_mixture(self):
        c = F(1, 3)
        b = two_prime_counterexample(TWO_THREE, 2, 3, c)
        assert isinstance(b.sampler, Mixture)
        assert b.sampler.weights == (c, 1 - c)
        parts = b.sampler.parts
        assert isinstance(parts[0], HaarAnnihilator)
        assert parts[0].E == SubgroupSpec.of(TWO_THREE, {2: -1})
        assert parts[1].E == SubgroupSpec.of(TWO_THREE, {2: 0})

    @given(num=st.integers(1, 15), den=st.integers(2, 16))
    @settings(max_examples=12, deadline=None)
    def test_any_admissible_weight_keeps_the_shell_values(self, num, den):
        if num >= den:
            return
        c = F(num, den)
        b = two_prime_counterexample(TWO_THREE, 2, 3, c)
        assert b.cf(1) == 1 + 0j
        assert b.cf(F(1, 2)) == complex(float(c))
        assert b.cf(F(1, 4)) == 0j

    @pytest.mark.parametrize(
        "spec, p, q, c, clause",
        [
            (MIXED, 2, 3, F(1, 2), "infinite multiplicity"),
            (TWO_THREE, 2, 3, F(3, 2), "strictly between"),
            (TWO_THREE, 2, 3, 0, "strictly between"),
            (TWO_THREE, 2, 2, F(1, 2), "distinct primes"),
        ],
    )
    def test_preconditions(self, spec, p, q, c, clause):
        with pytest.raises(PreconditionViolated, match=clause):
            two_prime_counterexample(spec, p, q, c)


class TestBlurredCounterexample:
    def test_frozen_pointwise_values(self):
        b = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), 1)
        assert b.cf(1) == pytest.approx(math.exp(-1), rel=1e-12)
        assert b.cf(F(1, 2)) == pytest.approx(math.exp(-0.25) / 2, rel=1e-12)
        assert b.cf(F(1, 4)) == 0j

    def test_equation_still_holds(self):
        b = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), 1)
        assert b.verdict.equation.verdict == "holds"
        assert b.verdict.decomposition.kind == "not_of_form"

    def test_support_is_the_outer_subgroup(self):
        b = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), F(2, 7))
        sup = support_as_subgroup(b.cf)
        assert sup.kind == "subgroup"
        assert sup.subgroup == SubgroupSpec.of(TWO_THREE, {2: -1})

    def test_full_support_sentence_for_positive_blur(self):
        b = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), 1)
        assert "full group support" in b.verdict.conclusion
        assert b.sigma == 1

    def test_zero_blur_reduces_to_the_sharp_construction(self):
        sharp = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        blurred = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), 0)
        assert compare(blurred.cf, sharp.cf).verdict == "equal"
        assert "full group support" not in blurred.verdict.conclusion

    def test_sampler_is_a_blur_convolution(self):
        b = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), 1)
        gaussian_part = b.sampler.parts[0]
        assert isinstance(gaussian_part, GaussianLine)
        assert gaussian_part.sigma == 1

    def test_negative_blur_rejected(self):
        with pytest.raises(PreconditionViolated, match="nonnegative"):
            blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), -1)


def count_calls(monkeypatch, name, modules=(charfun, scenarios)):
    """Count the calls to `name` through every module that binds it; returns
    the list that receives each call's positional arguments."""
    seen = []
    real = getattr(charfun, name, None) or getattr(scenarios, name)

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return seen


class TestOneTwoPrimeConstruction:
    """The sharp and blurred bundles come from one builder that checks once."""

    ONCE = ("check_equidistribution", "decompose_gaussian_haar", "two_prime_coefficients")

    def _counted(self, monkeypatch, build):
        names = (*self.ONCE, "compare", "positivity_report")
        calls = {name: count_calls(monkeypatch, name) for name in names}
        build()
        return {name: len(seen) for name, seen in calls.items()}

    def test_each_check_runs_once_per_blurred_bundle(self, monkeypatch):
        counts = self._counted(
            monkeypatch, lambda: blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), 1)
        )
        # the cf is read from the law, so the only compare is the equation's,
        # and positivity follows from it being a law's cf
        assert counts == {**dict.fromkeys(self.ONCE, 1), "compare": 1, "positivity_report": 0}

    def test_each_check_runs_once_per_sharp_bundle(self, monkeypatch):
        counts = self._counted(
            monkeypatch, lambda: two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        )
        assert counts == {**dict.fromkeys(self.ONCE, 1), "compare": 1, "positivity_report": 0}

    def test_support_is_computed_once_per_cf(self, monkeypatch):
        seen = count_calls(monkeypatch, "support_as_subgroup")
        sharp = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 3))
        assert [args[0] for args in seen] == [sharp.cf]
        seen.clear()
        blurred = blurred_counterexample(TWO_THREE, 2, 3, F(1, 3), 1)
        assert [args[0] for args in seen] == [blurred.cf]
        assert blurred.verdict.decomposition.support.subgroup == SubgroupSpec.of(
            TWO_THREE, {2: -1}
        )

    @pytest.mark.parametrize("sigma", [None, 0, F(1, 10), 1])
    def test_sampler_realizes_the_returned_cf(self, sigma):
        if sigma is None:
            b = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        else:
            b = blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), sigma)
        assert compare(b.sampler.exact_cf(), b.cf).verdict == "equal"

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (3, 5), (5, 2)])
    @pytest.mark.parametrize("sigma", [None, 0, F(1, 10)])
    def test_exact_shell_values(self, p, q, sigma):
        # the cf is 1, c and 0 on the shells v_p >= 0, v_p = -1 and v_p <= -2,
        # each with decay sigma; probes carry unit, q-power and q^order
        # denominators, q^order being the system's common denominator
        spec = SteinitzSpec.of({p: math.inf, q: math.inf})
        c = F(1, 3)
        if sigma is None:
            b = two_prime_counterexample(spec, p, q, c)
        else:
            b = blurred_counterexample(spec, p, q, c, sigma)
        decay = sigma or 0
        qa = math.lcm(*(a.denominator for a in b.coefficients))
        shells = [
            ((Term(1, decay, 0),), [F(1), F(q), F(1, qa), F(p)]),
            ((Term(c, decay, 0),), [F(1, p), F(q, p), F(1, p * qa)]),
            ((), [F(1, p * p), F(q, p**3), F(1, p * p * qa)]),
        ]
        for expected, probes in shells:
            for y in probes:
                assert b.cf.piece_at(y) == expected, y


class TestClassifyAndConclude:
    def test_gaussian_pipeline_finds_decomposition(self):
        v = classify_and_conclude(DYADIC, HALF4, gaussian_cf(DYADIC, F(7, 3)))
        assert v.coefficients_valid
        assert v.equation.verdict == "holds"
        assert v.decomposition.kind == "gaussian_haar"
        assert v.decomposition.sigma == F(7, 3)
        assert "decomposes as a gaussian convolved with subgroup haar" in v.conclusion

    def test_counterexample_pipeline_reports_absence(self):
        b = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
        v = classify_and_conclude(TWO_THREE, b.coefficients, b.cf)
        assert v.solenoid.kind == "multiple_infinite_primes"
        assert v.equation.verdict == "holds"
        assert v.decomposition.kind == "not_of_form"
        assert "is not of gaussian-times-haar form" in v.conclusion
        assert "decomposes as a gaussian convolved with subgroup haar" not in v.conclusion

    def test_degenerate_single_coefficient_warns(self):
        spec = SteinitzSpec.of({2: 1, 3: 1})
        v = classify_and_conclude(spec, [1], haar_cf(SubgroupSpec.whole(spec)))
        assert v.equation.degenerate
        assert "single-coefficient system is degenerate" in v.conclusion
        assert "no unbounded prime" in v.conclusion

    def test_invalid_coefficients_skip_the_equation(self):
        v = classify_and_conclude(DYADIC, [F(1, 3), 2], gaussian_cf(DYADIC, 1))
        assert not v.coefficients_valid
        assert v.equation is None
        assert "not automorphisms" in v.conclusion
        assert "the functional equation" not in v.conclusion
        # each offending coefficient is named once, in order of appearance
        repeated = [F(1, 3), F(1, 7), F(1, 2), F(1, 3)] + [F(1, 7)] * 1000
        v = classify_and_conclude(DYADIC, repeated, gaussian_cf(DYADIC, 1))
        assert "coefficients 1/3, 1/7 are not automorphisms" in v.conclusion

    def test_nowhere_zero_forces_trivial_haar_factor(self):
        v = classify_and_conclude(DYADIC, HALF4, gaussian_cf(DYADIC, 1, F(1, 8)))
        assert v.decomposition.subgroup == SubgroupSpec.whole(DYADIC)
        assert "the haar factor is trivial" in v.conclusion

    def test_indeterminate_results_surface_verbatim(self):
        f = build_cf(
            DYADIC,
            [
                (Stratum.of({2: (0, 0)}), [Term(F(1, 2), 0, 0), Term(F(1, 2), 0, F(1, 2))]),
                (Stratum.of({2: (1, POS_INF)}), [Term(F(1), 0, 0)]),
            ],
        )
        v = classify_and_conclude(DYADIC, HALF4, f)
        assert v.decomposition.kind == "unknown"
        assert "could not be decided" in v.conclusion

    @pytest.mark.parametrize(
        "f",
        [
            gaussian_cf(DYADIC, F(7, 3)),
            gaussian_cf(DYADIC, 1, F(1, 8)),
            haar_cf(SubgroupSpec.of(DYADIC, {2: 1})),
            build_cf(
                DYADIC,
                [
                    (Stratum.of({2: (0, 0)}), [Term(F(1), 0, 0)]),
                    (Stratum.zero_only(), [Term(F(1), 0, 0)]),
                ],
            ),
        ],
    )
    def test_support_is_computed_once(self, monkeypatch, f):
        seen = count_calls(monkeypatch, "support_as_subgroup")
        v = classify_and_conclude(DYADIC, HALF4, f)
        assert len(seen) == 1
        assert v.decomposition.support == support_as_subgroup(f)

    def test_unit_square_note_when_sums_differ(self):
        v = classify_and_conclude(DYADIC, [F(1, 2)] * 3, gaussian_cf(DYADIC, 1))
        assert v.equation.verdict == "fails"
        assert "do not sum to one" in v.conclusion


def lattice(d):
    """The subgroup d * Z of the circle's characters, for d built from 2 and 3."""
    table = {}
    for p in (2, 3):
        while d % p == 0:
            table[p] = table.get(p, 0) + 1
            d //= p
    return SubgroupSpec.of(CIRCLE, table)


#: the point mass at 1/2 written as +1 on even and -1 on odd integers
EVEN_ODD_POINT_MASS = build_cf(
    CIRCLE,
    [
        (Stratum.of({2: (1, POS_INF)}), [Term(F(1), 0, 0)]),
        (Stratum.of({2: (NEG_INF, 0)}), [Term(F(1), 0, F(1, 2))]),
    ],
)
#: every cf on which TestCircleCheck expects shift_of_haar
CIRCLE_SHIFTS_OF_HAAR = [
    gaussian_cf(CIRCLE, 0),
    *(haar_cf(lattice(d)) for d in (1, 2, 3, 6)),
    *(
        gaussian_cf(CIRCLE, 0, x) * haar_cf(lattice(d))
        for x, d in ((F(1, 12), 6), (F(1, 4), 2), (F(1, 3), 1), (F(2, 9), 3))
    ),
    haar_cf(SubgroupSpec.zero(CIRCLE)),
    EVEN_ODD_POINT_MASS,
]


class TestCircleCheck:
    def test_constant_one_is_degenerate_haar_shift(self):
        out = circle_check(2, 1, gaussian_cf(CIRCLE, 0))
        assert (out.kind, out.shift, out.order) == ("shift_of_haar", 0, 1)

    @pytest.mark.parametrize("m_plus, m_minus", [(2, 0), (2, 1), (2, 2), (5, 2)])
    def test_constant_one_passes_any_signature(self, m_plus, m_minus):
        out = circle_check(m_plus, m_minus, gaussian_cf(CIRCLE, 0))
        assert out.kind == "shift_of_haar"

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_lattice_indicator_recovers_order(self, d):
        f = haar_cf(lattice(d))
        out = circle_check(2, 1, f)
        assert (out.kind, out.shift, out.order) == ("shift_of_haar", 0, d)

    @pytest.mark.parametrize(
        "x, table, d",
        [
            (F(1, 12), {2: 1, 3: 1}, 6),
            (F(1, 4), {2: 1}, 2),
            (F(1, 3), {}, 1),
            (F(2, 9), {3: 1}, 3),
        ],
    )
    def test_shift_recovered_exactly(self, x, table, d):
        f = gaussian_cf(CIRCLE, 0, x) * haar_cf(SubgroupSpec.of(CIRCLE, table))
        out = circle_check(2, 1, f)
        assert (out.kind, out.shift, out.order) == ("shift_of_haar", x, d)

    @pytest.mark.parametrize("m_plus, m_minus", [(2, 1), (3, 2), (1, 1), (2, 0)])
    def test_gaussian_fails_every_signature(self, m_plus, m_minus):
        out = circle_check(m_plus, m_minus, gaussian_cf(CIRCLE, 1))
        assert out.kind == "fails"
        assert out.witness is not None

    def test_incompatible_shift_fails_the_equation(self):
        f = gaussian_cf(CIRCLE, 0, F(1, 12)) * haar_cf(SubgroupSpec.of(CIRCLE, {2: 1, 3: 1}))
        out = circle_check(2, 2, f)
        assert out.kind == "fails"

    def test_even_odd_point_mass_is_a_shift(self):
        out = circle_check(2, 1, EVEN_ODD_POINT_MASS)
        assert (out.kind, out.shift, out.order) == ("shift_of_haar", F(1, 2), 1)

    @pytest.mark.parametrize("f", CIRCLE_SHIFTS_OF_HAAR)
    def test_agrees_with_the_decomposition(self, f):
        out = circle_check(2, 1, f)
        d = decompose_gaussian_haar(f)
        assert (out.kind, d.kind) == ("shift_of_haar", "gaussian_haar")
        assert out.shift == d.shift
        assert d.subgroup == (SubgroupSpec.zero(CIRCLE) if out.order == 0 else lattice(out.order))

    def test_zero_indicator_is_full_circle_haar(self):
        out = circle_check(2, 1, haar_cf(SubgroupSpec.zero(CIRCLE)))
        assert (out.kind, out.shift, out.order) == ("shift_of_haar", 0, 0)

    def test_non_subgroup_support_is_caught(self):
        f = build_cf(
            CIRCLE,
            [
                (Stratum.of({2: (0, 0)}), [Term(F(1), 0, 0)]),
                (Stratum.zero_only(), [Term(F(1), 0, 0)]),
            ],
        )
        out = circle_check(2, 1, f)
        assert out.kind == "fails"
        assert "not a subgroup" in out.note

    def test_incoherent_phases_are_caught(self):
        f = build_cf(
            CIRCLE,
            [
                (Stratum.of({2: (0, 0)}), [Term(F(1), 0, F(1, 3))]),
                (Stratum.of({2: (1, POS_INF)}), [Term(F(1), 0, 0)]),
            ],
        )
        out = circle_check(2, 1, f)
        assert out.kind == "fails"
        assert "single character" in out.note

    @pytest.mark.parametrize("m_plus, m_minus", [(2, 0), (2, 1), (1, 1), (3, 2), (0, 3)])
    @pytest.mark.parametrize("f", [*CIRCLE_SHIFTS_OF_HAAR, gaussian_cf(CIRCLE, 1)])
    def test_pairs_agree_with_the_flat_system(self, monkeypatch, f, m_plus, m_minus):
        paired = circle_check(m_plus, m_minus, f)
        flat = (1,) * m_plus + (-1,) * m_minus
        monkeypatch.setattr(scenarios, "_check_counts", lambda g, counts: check_equidistribution(g, flat))
        assert circle_check(m_plus, m_minus, f) == paired

    def test_cost_does_not_grow_with_the_counts(self):
        # f(y)^m = f(y) for the shift by 1/3 iff m = 1 mod 3
        f = gaussian_cf(CIRCLE, 0, F(1, 3))
        start = time.perf_counter()
        holds = circle_check(10**12, 0, f)
        fails = circle_check(10**12 + 1, 0, f)
        assert time.perf_counter() - start < 0.1
        assert (holds.kind, holds.shift, holds.order) == ("shift_of_haar", F(1, 3), 1)
        assert fails.kind == "fails"

    def test_solenoid_input_rejected(self):
        with pytest.raises(PreconditionViolated, match="circle"):
            circle_check(2, 1, gaussian_cf(DYADIC, 0))

    def test_single_summand_rejected(self):
        with pytest.raises(PreconditionViolated, match="at least two"):
            circle_check(1, 0, gaussian_cf(CIRCLE, 0))


class TestVerdictCoherence:
    def test_tampered_conclusion_is_rejected(self):
        v = gaussian_haar_scenario(DYADIC, 1, SubgroupSpec.whole(DYADIC), 0, HALF4)
        bad = dataclasses.replace(v, conclusion="the functional equation fails.")
        with pytest.raises(SoundnessError, match="disagree"):
            _assert_coherent(bad)

    def test_dropped_phrase_is_rejected(self):
        v = gaussian_haar_scenario(DYADIC, 1, SubgroupSpec.whole(DYADIC), 0, HALF4)
        bad = dataclasses.replace(v, conclusion="nothing to report.")
        with pytest.raises(SoundnessError, match="disagree"):
            _assert_coherent(bad)
