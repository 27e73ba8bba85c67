"""Monte Carlo sampler: exactness bridges, determinism, and test power.

Oracle strategy: each law's sampler is validated against its own exact
characteristic function (computed independently by the symbolic layer) at a
panel of characters, with the 3/sqrt(n) confidence radius as a hard bound
under fixed seeds.  The Kuiper test is calibrated against known-identical
and known-different laws.
"""

import math
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from soladic import SteinitzSpec, SubgroupSpec, embed_real, zero_point
from soladic.errors import (
    BadWeights,
    CharacterTooDeep,
    DepthInsufficient,
    DepthUnavailable,
    SpecMismatch,
)
from soladic import sampler
from soladic.sampler import (
    ConvolutionOf,
    Degenerate,
    EquidistReport,
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    SampleBatch,
    Shifted,
    default_charset,
    empirical_cf,
    exact_cf_of,
    fiber_order,
    kuiper_two_sample,
    linear_form,
    monte_carlo_equidist,
    required_depth,
    sample,
    _two_sample_cf_p,
)
from soladic.steinitz import coefficient_counts, two_prime_coefficients

DYADIC = SteinitzSpec.of({2: math.inf})
TWO_THREE = SteinitzSpec.of({2: math.inf, 3: math.inf})


def probe_chars(spec, depth):
    """Twenty deterministic characters resolvable at the given depth."""
    level = spec.level(depth)
    out = []
    m = 1
    while len(out) < 20:
        out.append(F(m, level))
        m += 1
    return out


ALL_VARIANTS = [
    Degenerate(embed_real(DYADIC, F(3, 8))),
    HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: -1})),
    HaarAnnihilator(SubgroupSpec.zero(DYADIC)),
    GaussianLine(DYADIC, F(1, 2)),
    GaussianLine(DYADIC, 2, mean=F(1, 3)),
    Mixture(
        (F(1, 4), F(3, 4)),
        (
            HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})),
            GaussianLine(DYADIC, 1),
        ),
    ),
    Shifted(embed_real(DYADIC, F(1, 2)), GaussianLine(DYADIC, 1)),
    ConvolutionOf(
        (
            GaussianLine(DYADIC, F(1, 2)),
            HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})),
        )
    ),
]


# array counts reach every variant only below a mixture
NESTED = Mixture(
    (F(1, 3), F(2, 3)),
    (
        Shifted(
            embed_real(DYADIC, F(1, 4)),
            ConvolutionOf(
                (
                    GaussianLine(DYADIC, F(1, 2), mean=F(1, 5)),
                    HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})),
                )
            ),
        ),
        Mixture(
            (F(1, 2), F(1, 2)),
            (Degenerate(embed_real(DYADIC, F(3, 8))), HaarAnnihilator(SubgroupSpec.zero(DYADIC))),
        ),
    ),
)
VARIANT_IDS = [
    "degenerate",
    "haar",
    "haar-trivial",
    "gaussian",
    "gaussian-mean",
    "mixture",
    "shifted",
    "convolution",
    "nested",
]


class TestSampling:
    def test_degenerate_zero_all_coords_zero(self):
        batch = sample(Degenerate(zero_point(DYADIC)), depth=3, n=50, seed=1)
        assert np.all(batch.coords == 0.0)

    def test_haar_of_whole_dual_is_point_mass_at_zero(self):
        law = HaarAnnihilator(SubgroupSpec.whole(DYADIC))
        batch = sample(law, depth=3, n=50, seed=1)
        assert np.all(batch.coords == 0.0)

    def test_fiber_order_frozen(self):
        # E = {v_2 >= -1} on the dyadic solenoid: least m with m/2^N in E
        # is 2^(N-1)
        e = SubgroupSpec.of(DYADIC, {2: -1})
        for depth in (1, 2, 3, 5):
            assert fiber_order(e, depth) == 2 ** (depth - 1)
        assert fiber_order(SubgroupSpec.whole(DYADIC), 4) == 1
        # A_4 = 36 on the 2,3 tower: need v_2(m) >= 2 and v_3(m) >= 3
        assert fiber_order(SubgroupSpec.of(TWO_THREE, {2: 0, 3: 1}), 4) == 4 * 27

    def test_haar_fiber_support(self):
        e = SubgroupSpec.of(DYADIC, {2: -1})
        batch = sample(HaarAnnihilator(e), depth=4, n=400, seed=5)
        d = fiber_order(e, 4)
        assert d == 8
        scaled = batch.coords * d
        assert np.allclose(scaled, np.round(scaled))
        assert len(np.unique(batch.coords)) == d  # all fiber points seen

    def test_coords_always_in_unit_interval(self):
        for law in ALL_VARIANTS:
            batch = sample(law, depth=4, n=300, seed=9)
            assert np.all(batch.coords >= 0.0) and np.all(batch.coords < 1.0)

    def test_determinism(self):
        for law in ALL_VARIANTS:
            a = sample(law, depth=4, n=200, seed=123)
            b = sample(law, depth=4, n=200, seed=123)
            assert np.array_equal(a.coords, b.coords)
        c = sample(ALL_VARIANTS[3], depth=4, n=200, seed=124)
        assert not np.array_equal(a.coords, c.coords)

    def test_seed_record_mentions_generator(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=2, n=10, seed=7)
        assert "PCG64" in batch.seed_record and "7" in batch.seed_record

    def test_gaussian_scale_ties_to_sigma(self):
        g = GaussianLine(DYADIC, F(1, 2))
        assert abs(2 * math.pi**2 * g.s**2 - 0.5) < 1e-12

    def test_mixture_weight_validation(self):
        with pytest.raises(BadWeights):
            Mixture((F(1, 2), F(1, 3)), (GaussianLine(DYADIC, 1), GaussianLine(DYADIC, 2)))
        with pytest.raises(SpecMismatch):
            Mixture((F(1, 2), F(1, 2)), (GaussianLine(DYADIC, 1), GaussianLine(TWO_THREE, 1)))


class TestDrawSum:
    """A batch of k-copy sums drawn in closed form, against k explicit copies summed."""

    @pytest.mark.parametrize("law", ALL_VARIANTS + [NESTED], ids=VARIANT_IDS)
    def test_closed_form_matches_explicit_copies(self, law):
        # two-sample cf gaps (Hoeffding) on 20 characters plus a Kuiper test,
        # Bonferroni-corrected; over 20 seeds the false-reject share may not
        # exceed alpha
        alpha, k, n, depth, seeds = 0.05, 3, 2_000, 4, 20
        chars = probe_chars(DYADIC, depth)
        rejections = 0
        for seed in range(seeds):
            children = np.random.SeedSequence(seed).spawn(k + 1)
            closed = sample(law, depth, n, children[0], copies=k)
            explicit = linear_form([sample(law, depth, n, c) for c in children[1:]], [1] * k)
            gaps = np.abs(empirical_cf(closed, chars).estimates - empirical_cf(explicit, chars).estimates)
            p_values = [_two_sample_cf_p(n, g) for g in gaps]
            p_values.append(kuiper_two_sample(closed, explicit)[1])
            rejections += min(p_values) * len(p_values) < alpha
        assert rejections <= alpha * seeds

    def test_closed_form_detects_a_wrong_count(self):
        # the same comparison tells 3 copies from 2 of a gaussian
        n, depth = 2_000, 4
        law = GaussianLine(DYADIC, F(1, 2))
        three = sample(law, depth, n, 1, copies=3)
        two = linear_form([sample(law, depth, n, s) for s in (2, 3)], [1, 1])
        assert kuiper_two_sample(three, two)[1] < 1e-6

    @pytest.mark.parametrize("law", ALL_VARIANTS + [NESTED], ids=VARIANT_IDS)
    def test_zero_count_is_exactly_zero(self, law):
        rng = np.random.Generator(np.random.PCG64(5))
        assert np.all(law._draw_sum(50, 0, 4, rng) == 0.0)
        counts = np.array([0, 1, 2, 0, 5, 0] * 10, dtype=np.int64)
        out = law._draw_sum(counts.size, counts, 4, rng)
        assert out.shape == counts.shape
        assert np.all(out[counts == 0] == 0.0)
        assert np.all((out >= 0.0) & (out < 1.0))

    def test_degenerate_sum_is_exact(self):
        # k * 3/8 at depth 4 (level 16) is 3k/128 mod 1, computed in Fractions
        law = Degenerate(embed_real(DYADIC, F(3, 8)))
        counts = np.array([1, 7, 43, 128], dtype=np.int64)
        out = law._draw_sum(4, counts, 4, np.random.Generator(np.random.PCG64(0)))
        assert out.tolist() == [float(F(3 * k, 128) % 1) for k in counts.tolist()]

    @pytest.mark.parametrize(
        "sigma, mean, copies",
        [(10**400, 0, 1), (1, 10**400, 1), (1, -(10**400), 1), (1, 10**308, 4)],
    )
    def test_gaussian_beyond_the_float_range_is_refused(self, sigma, mean, copies):
        law = GaussianLine(DYADIC, sigma, mean)
        assert law.exact_cf().pieces  # the exact layer keeps the law
        with pytest.raises(ValueError, match="float range"):
            sample(law, 2, 10, seed=0, copies=copies)

    def test_copies_must_be_positive(self):
        with pytest.raises(ValueError, match="copy"):
            sample(GaussianLine(DYADIC, 1), 2, 10, seed=0, copies=0)

    @pytest.mark.parametrize("p,q", [(3, 5), (5, 2)])
    def test_one_batch_per_distinct_coefficient(self, monkeypatch, p, q):
        spec = SteinitzSpec.of({p: math.inf, q: math.inf})
        law = Mixture(
            (F(1, 2), F(1, 2)),
            (
                HaarAnnihilator(SubgroupSpec.of(spec, {p: -1})),
                HaarAnnihilator(SubgroupSpec.of(spec, {p: 0})),
            ),
        )
        coeffs = two_prime_coefficients(p, q).coefficients
        calls = []
        original = sampler.sample

        def counted(law, depth, n, seed, copies=1):
            calls.append(copies)
            return original(law, depth, n, seed, copies)

        monkeypatch.setattr(sampler, "sample", counted)
        report = monte_carlo_equidist(law, coeffs, n=500, depth=2, seed=0)
        assert len(calls) == len(coefficient_counts(coeffs)) + 1 == 3
        assert calls == [1] + [k for _, k in coefficient_counts(coeffs)]
        assert report.coeffs == tuple(coeffs)  # the report keeps the flat system

    def test_five_two_system_at_full_size(self):
        # 41,944 coefficients, two of them distinct: the sampling cost does
        # not grow with the number of copies
        spec = SteinitzSpec.of({5: math.inf, 2: math.inf})
        law = Mixture(
            (F(1, 2), F(1, 2)),
            (
                HaarAnnihilator(SubgroupSpec.of(spec, {5: -1})),
                HaarAnnihilator(SubgroupSpec.of(spec, {5: 0})),
            ),
        )
        coeffs = two_prime_coefficients(5, 2).coefficients
        start = time.perf_counter()
        report = monte_carlo_equidist(law, coeffs, n=100_000, depth=2, seed=0)
        assert time.perf_counter() - start < 5.0
        assert report.combined.n == 100_000 and len(report.coeffs) == 41_944


class TestEmpiricalCF:
    def test_degenerate_exact_one(self):
        batch = sample(Degenerate(zero_point(DYADIC)), depth=2, n=100, seed=0)
        est = empirical_cf(batch, [F(1, 4), F(1, 2), 1])
        assert np.allclose(est.estimates, 1.0)

    def test_all_variants_match_exact_cf(self):
        # the central generative-symbolic bridge: sampled estimates must sit
        # inside the 3/sqrt(n) disk around the exact cf at 20 characters
        n = 10_000
        chars = probe_chars(DYADIC, 4)
        for law in ALL_VARIANTS:
            batch = sample(law, depth=4, n=n, seed=2024)
            est = empirical_cf(batch, chars)
            cf = exact_cf_of(law)
            for y, value in zip(chars, est.estimates):
                assert abs(value - cf(y)) <= est.radius, (law, y)

    def test_haar_vanishes_off_annihilated_characters(self):
        e = SubgroupSpec.of(DYADIC, {2: 0})
        batch = sample(HaarAnnihilator(e), depth=4, n=10_000, seed=3)
        est = empirical_cf(batch, [F(1, 2), F(1, 4), F(3, 8)])
        assert np.all(np.abs(est.estimates) <= est.radius)

    def test_character_too_deep(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=2, n=100, seed=1)
        with pytest.raises(CharacterTooDeep):
            empirical_cf(batch, [F(1, 8)])

    @pytest.mark.parametrize("y", [2**53 + 1, 3**40])
    def test_multiplier_beyond_float_resolution(self, y):
        batch = sample(GaussianLine(DYADIC, F(1, 100)), depth=4, n=100, seed=0)
        with pytest.raises(CharacterTooDeep, match=f"character {y} "):
            empirical_cf(batch, [y])

    def test_multiplier_of_two_to_the_53_is_resolved(self):
        batch = sample(Degenerate(zero_point(DYADIC)), depth=0, n=10, seed=0)
        assert np.allclose(empirical_cf(batch, [2**53]).estimates, 1.0)
        with pytest.raises(CharacterTooDeep):
            empirical_cf(batch, [2**53 + 1])

    @pytest.mark.parametrize(
        "spec, depth", [(DYADIC, 0), (DYADIC, 4), (DYADIC, 50), (TWO_THREE, 4), (TWO_THREE, 30)]
    )
    def test_default_panels_are_unaffected(self, spec, depth):
        batch = sample(GaussianLine(spec, 1), depth=depth, n=10, seed=0)
        chars = default_charset(spec, depth)
        assert len(empirical_cf(batch, chars).estimates) == len(chars)

    def test_radius(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=1, n=400, seed=1)
        assert empirical_cf(batch, [1]).radius == pytest.approx(3 / 20)


class TestLinearForm:
    def test_identity_coefficient(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=3, n=100, seed=4)
        out = linear_form([batch], [1])
        assert out.depth == 3
        assert np.array_equal(out.coords, batch.coords)

    def test_difference_of_identical_batches_is_zero(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=3, n=100, seed=4)
        out = linear_form([batch, batch], [1, -1])
        assert np.allclose(out.coords % 1.0, 0.0)

    def test_required_depth(self):
        assert required_depth(DYADIC, [F(1, 2)] * 4, 3) == 4
        assert required_depth(DYADIC, [F(1, 4)], 2) == 4
        assert required_depth(DYADIC, [3, -1], 2) == 2
        # {2:inf, 3:inf} tower alternates 2,3,2,3,...: the level right above
        # depth 1 contributes the needed factor of 3
        assert required_depth(TWO_THREE, [F(1, 3)], 1) == 2
        assert required_depth(TWO_THREE, [F(1, 9)], 1) == 4

    def test_required_depth_unreachable(self):
        spec = SteinitzSpec.of({2: 2})
        with pytest.raises(DepthInsufficient):
            required_depth(spec, [F(1, 2)] * 8, 2)

    @pytest.mark.parametrize(
        "table, coeff",
        [
            ({2: math.inf}, F(1, 3)),  # 3 is not in the table
            ({2: math.inf, 3: 1}, F(1, 9)),  # the tower holds one 3 in all
            ({2: math.inf, 3: 1}, F(1, 3)),  # its only 3 is inside level 2
        ],
    )
    def test_required_depth_missing_prime_power(self, table, coeff):
        # an unbounded prime keeps the tower going, so only a check of each
        # prime power of the denominators stops the search
        with pytest.raises(DepthInsufficient):
            required_depth(SteinitzSpec.of(table), [coeff], 2)

    @pytest.mark.parametrize(
        "law, depth",
        [
            (HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 100})), 4),  # fiber order 2^104
            (HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})), 70),  # level 2^70
            (GaussianLine(DYADIC, 1), 1100),  # level beyond a float
        ],
    )
    def test_draw_beyond_int64_raises(self, law, depth):
        with pytest.raises(DepthInsufficient, match="int64"):
            sample(law, depth, 10, seed=0)

    def test_depth_63_and_beyond_refused_before_any_level(self, monkeypatch):
        # level(d) >= 2^d, so neither entry point needs the tower prefix
        def no_prefix(spec, n):
            raise AssertionError(f"tower prefix of length {n} built")

        monkeypatch.setattr(SteinitzSpec, "tower_prefix", no_prefix)
        law = GaussianLine(DYADIC, 1)
        for depth in (63, 10**6):
            with pytest.raises(DepthInsufficient, match=f"depth {depth} exceeds int64"):
                sample(law, depth, 10, seed=0)
            with pytest.raises(DepthInsufficient, match=f"depth {depth} exceeds int64"):
                monte_carlo_equidist(law, [F(1, 2)] * 4, n=10, depth=depth)

    def test_negative_depths_are_unavailable(self):
        law = GaussianLine(DYADIC, 1)
        with pytest.raises(DepthUnavailable, match="negative"):
            sample(law, -1, 10, seed=0)
        batch = sample(law, 3, 10, seed=0)
        with pytest.raises(DepthUnavailable, match="negative"):
            batch.project(-1)
        with pytest.raises(DepthUnavailable, match="negative"):
            kuiper_two_sample(batch, batch, -1)
        for coeffs in ([F(1, 2)] * 4, [1]):
            with pytest.raises(DepthUnavailable, match="negative"):
                monte_carlo_equidist(law, coeffs, n=10, depth=-1)

    def test_depth_beyond_a_finite_tower_keeps_its_error(self):
        with pytest.raises(DepthUnavailable):
            sample(GaussianLine(SteinitzSpec.of({2: 2}), 1), 100, 10, seed=0)

    def test_draws_at_the_int64_edge_still_run(self):
        # level 2^62, and a fiber of order 2^63 whose residues still fit
        haar = sample(HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 1})), 62, 10, seed=0)
        gauss = sample(GaussianLine(DYADIC, 1), 62, 10, seed=0)
        assert haar.n == gauss.n == 10
        assert np.all(haar.coords * 2.0**63 == np.round(haar.coords * 2.0**63))

    def test_required_depth_huge_outside_prime(self):
        # only the table's primes are divided out, so the cost does not grow
        # with the size of a prime outside the table
        start = time.perf_counter()
        with pytest.raises(DepthInsufficient, match="cannot absorb"):
            required_depth(DYADIC, [F(1, 2 * (10**18 + 3))], 2)
        assert time.perf_counter() - start < 1.0

    def test_required_depth_finite_prime_above_depth(self):
        assert required_depth(SteinitzSpec.of({2: math.inf, 3: 1}), [F(1, 3)], 1) == 2

    def test_depth_projection_is_sound(self):
        # halves need one spare level: sampling at depth 4 supports an exact
        # depth-3 linear form but not depth 4
        batches = [sample(GaussianLine(DYADIC, 1), 4, 100, seed=s) for s in (1, 2, 3, 4)]
        out = linear_form(batches, [F(1, 2)] * 4)
        assert out.depth == 3
        with pytest.raises(DepthInsufficient):
            linear_form(batches, [F(1, 2)] * 4, depth=4)

    def test_gaussian_halves_reproduce_gaussian(self):
        # four independent copies scaled by 1/2 have the same law
        n = 20_000
        law = GaussianLine(DYADIC, F(2, 3))
        batches = [sample(law, 5, n, seed=100 + j) for j in range(4)]
        combined = linear_form(batches, [F(1, 2)] * 4, depth=3)
        est = empirical_cf(combined, probe_chars(DYADIC, 3))
        cf = exact_cf_of(law)
        for y, value in zip(est.chars, est.estimates):
            assert abs(value - cf(y)) <= est.radius

    def test_rejects_non_automorphism(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=3, n=10, seed=0)
        with pytest.raises(ValueError):
            linear_form([batch], [F(1, 3)])

    @pytest.mark.parametrize("coeff", [2**54, -(2**100)])
    def test_numerator_beyond_float_resolution_is_refused(self, coeff):
        # a coordinate times such a coefficient keeps no fractional bits:
        # full Haar times 2^100 would come out as all zeros
        law = HaarAnnihilator(SubgroupSpec.zero(DYADIC))
        batch = sample(law, 3, 10, seed=0)
        with pytest.raises(ValueError, match=r"numerator beyond 2\^53"):
            linear_form([batch], [coeff])
        with pytest.raises(ValueError, match=r"numerator beyond 2\^53"):
            monte_carlo_equidist(law, [coeff], n=10, depth=2)
        assert linear_form([batch], [2**53]).n == 10

    def test_generator_of_batches_matches_list(self):
        coeffs = [F(1, 2), F(-1, 2), F(1, 2), F(1, 2)]
        batches = [sample(GaussianLine(DYADIC, 1), 4, 100, seed=s) for s in (1, 2, 3, 4)]
        listed = linear_form(batches, coeffs)
        drawn = linear_form((b for b in batches), coeffs)
        assert drawn.depth == listed.depth == 3
        assert drawn.seed_record == listed.seed_record
        assert np.array_equal(drawn.coords, listed.coords)

    @pytest.mark.parametrize("count", [3, 5])
    def test_generator_length_must_match_coefficients(self, count):
        batches = (sample(GaussianLine(DYADIC, 1), 4, 100, seed=s) for s in range(count))
        with pytest.raises(ValueError):
            linear_form(batches, [F(1, 2)] * 4)


class TestKuiper:
    def test_identical_batches(self):
        batch = sample(GaussianLine(DYADIC, 1), depth=3, n=500, seed=8)
        v, p = kuiper_two_sample(batch, batch)
        assert v == 0.0
        assert p == 1.0

    def test_uniform_vs_point_mass(self):
        uniform = sample(HaarAnnihilator(SubgroupSpec.zero(DYADIC)), 3, 1000, seed=1)
        point = sample(Degenerate(zero_point(DYADIC)), 3, 1000, seed=2)
        v, p = kuiper_two_sample(uniform, point)
        assert p < 1e-6

    def test_same_law_different_seeds_not_rejected(self):
        a = sample(GaussianLine(DYADIC, 1), 3, 5000, seed=21)
        b = sample(GaussianLine(DYADIC, 1), 3, 5000, seed=22)
        v, p = kuiper_two_sample(a, b)
        assert p > 0.01

    def test_calibration_reject_rate(self):
        # under the null the rejection rate at level alpha should be at most
        # a small multiple of alpha; the asymptotic p-value is conservative
        rejections = 0
        reps = 200
        for r in range(reps):
            a = sample(GaussianLine(DYADIC, 1), 2, 400, seed=1000 + 2 * r)
            b = sample(GaussianLine(DYADIC, 1), 2, 400, seed=1001 + 2 * r)
            _, p = kuiper_two_sample(a, b)
            rejections += p < 0.05
        assert rejections <= 0.1 * reps

    def test_tower_pushdown_matches_direct_haar(self):
        # projecting a depth-(N+1) Haar batch down one level is distributed
        # as a depth-N Haar batch
        e = SubgroupSpec.of(DYADIC, {2: -2})
        deep = sample(HaarAnnihilator(e), 5, 10_000, seed=31)
        shallow = sample(HaarAnnihilator(e), 4, 10_000, seed=32)
        v, p = kuiper_two_sample(deep.project(4), shallow)
        assert p > 0.01

    def test_solenoid_mismatch_rejected(self):
        a = sample(GaussianLine(DYADIC, 1), 3, 100, seed=1)
        b = sample(GaussianLine(SteinitzSpec.of({3: math.inf}), 1), 3, 100, seed=1)
        with pytest.raises(SpecMismatch):
            kuiper_two_sample(a, b)

    def test_depth_mismatch_rejected(self):
        a = sample(GaussianLine(DYADIC, 1), 3, 100, seed=1)
        b = sample(GaussianLine(DYADIC, 1), 2, 100, seed=1)
        with pytest.raises(ValueError):
            kuiper_two_sample(a, b)


def per_draw_kuiper(batch1, batch2, depth):
    """kuiper_two_sample draw by draw: project, snap and scan every draw."""
    grid = 2.0**40

    def draws(batch):
        t = batch.coords
        if depth != batch.depth:
            t = np.mod(t * float(batch.spec.level(batch.depth) // batch.spec.level(depth)), 1.0)
        return np.sort(np.mod(np.round(t * grid), grid) / grid)

    def max_gap(a, b):
        ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
        fa = (ends + 1) / a.shape[0]
        fb = np.searchsorted(b, a[ends], side="right") / b.shape[0]
        return float(max((fa - fb).max(), 0.0))

    a, b = draws(batch1), draws(batch2)
    v = max_gap(a, b) + max_gap(b, a)
    return v, sampler._kuiper_p(v, batch1.n * batch2.n / (batch1.n + batch2.n))


def per_draw_kuiper_rows(report):
    tests = len(report.character_rows) + len(report.kuiper_rows)
    rows = []
    for d in range(1, report.depth + 1) if report.depth >= 1 else [0]:
        v, p = per_draw_kuiper(report.reference, report.combined, d)
        rows.append(sampler.KuiperRow(d, v, p, min(1.0, p * tests)))
    return tuple(rows)


LATTICE_MIXTURE = Mixture(
    (F(1, 2), F(1, 2)),
    (
        HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: -1})),
        HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: 0})),
    ),
)
DYADIC_LATTICE = Shifted(
    embed_real(DYADIC, F(1, 4)),
    Mixture(
        (F(1, 3), F(2, 3)),
        (HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: -2})), Degenerate(embed_real(DYADIC, F(3, 8)))),
    ),
)
TWELFTHS = SteinitzSpec.of({2: math.inf, 3: math.inf})  # level 12 at depth 3


def hand_batch(coords, depth=3):
    return SampleBatch(TWELFTHS, depth, np.asarray(coords, dtype=np.float64), "hand-built")


def _hand_cases():
    rng = np.random.default_rng(17)
    twelfths = rng.integers(0, 12, 700) / 12
    split = twelfths.copy()
    split[::3] = np.nextafter(split[::3], 1.0)  # one ulp above, as a linear form leaves atoms
    split[1::5] = np.nextafter(split[1::5], 0.0)  # and one ulp below
    skewed = rng.integers(0, 7, 450) / 12
    zeros = np.where(rng.random(300) < 0.5, -0.0, 0.0)
    near_one = np.array([1.0 - 2.0**-45, np.nextafter(1.0, 0.0), 0.5, 11 / 12])[rng.integers(0, 4, 200)]
    # x*ratio lands one ulp below an integer, so it wraps to 0 or to 1.0 on the grid
    near_thirds = np.array([np.nextafter(1 / 3, 0.0), np.nextafter(2 / 3, 0.0), 1 / 6, np.nextafter(1 / 2, 0.0)])
    wraps = near_thirds[rng.integers(0, 4, 333)]
    continuous = rng.random(500)
    half = 300
    at_cutoff = rng.permutation(np.concatenate([np.arange(half) / 600, np.arange(half) / 600]))
    past_cutoff = at_cutoff.copy()
    past_cutoff[0] = 0.999
    return {
        "ulp_split_atoms": (split, skewed),
        "signed_zeros": (np.concatenate([zeros, twelfths[:100]]), np.concatenate([np.zeros(50), skewed])),
        "snap_to_one": (near_one, np.concatenate([twelfths[:120], np.zeros(30)])),
        "wrap_to_zero": (wraps, twelfths),
        "atoms_against_draws": (split, continuous),
        "at_the_atom_cutoff": (at_cutoff, skewed),
        "past_the_atom_cutoff": (past_cutoff, skewed),
    }


HAND_CASES = _hand_cases()


class TestKuiperOnAtoms:
    """The Kuiper test on a batch's atoms gives the floats of the draw-by-draw test."""

    @pytest.mark.parametrize(
        "law, coeffs",
        [
            (LATTICE_MIXTURE, [F(2, 3), F(2, 3), F(1, 3)]),
            (LATTICE_MIXTURE, [F(2, 3), F(1, 3)]),
            # the shifted dyadic law is no solution: its rows reject, with V near 1
            (DYADIC_LATTICE, [F(1, 2)] * 4),
            (DYADIC_LATTICE, [F(1, 2)] * 3),
        ],
        ids=["two_three_system", "two_three_pair", "dyadic_halves", "dyadic_three_halves"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_report_rows_equal_the_per_draw_loop(self, law, coeffs, seed):
        report = monte_carlo_equidist(law, coeffs, n=3_000 + 1_001 * seed, depth=4, seed=seed)
        assert report.reference._atoms is not None and report.combined._atoms is not None
        assert report.kuiper_rows == per_draw_kuiper_rows(report)
        assert any(row.statistic > 0 for row in report.kuiper_rows)

    @pytest.mark.parametrize("case", HAND_CASES)
    def test_hand_built_batches_equal_the_per_draw_test(self, case):
        a, b = hand_batch(HAND_CASES[case][0]), hand_batch(HAND_CASES[case][1])
        for depth in range(4):
            assert kuiper_two_sample(a, b, depth) == per_draw_kuiper(a, b, depth)
            assert kuiper_two_sample(b, a, depth) == per_draw_kuiper(b, a, depth)

    def test_hand_built_cases_cover_both_paths_and_every_tie(self):
        def has_atoms(coords):
            return hand_batch(coords)._atoms is not None

        assert has_atoms(HAND_CASES["at_the_atom_cutoff"][0])
        assert not has_atoms(HAND_CASES["past_the_atom_cutoff"][0])
        assert not has_atoms(HAND_CASES["atoms_against_draws"][1])
        assert all(has_atoms(x) for name in ("ulp_split_atoms", "signed_zeros", "snap_to_one", "wrap_to_zero")
                   for x in HAND_CASES[name])
        # the unsnapped values differ where the snapped ones tie
        a, b = (hand_batch(x) for x in HAND_CASES["ulp_split_atoms"])
        assert kuiper_two_sample(a, b)[0] > 0
        assert np.unique(a.coords).size > np.unique(np.round(a.coords * 12)).size

    def test_lattice_draws_are_projected_only_inside_the_linear_form(self, monkeypatch):
        # the Kuiper tower pushes a lattice batch's atoms down, not its draws
        inside = []
        push_down, linear_form_ = SampleBatch._push_down, sampler.linear_form

        def tracking_linear_form(*args, **kwargs):
            inside.append(True)
            try:
                return linear_form_(*args, **kwargs)
            finally:
                inside.pop()

        outside = []

        def tracking_push_down(batch, values, depth):
            if not inside:
                outside.append(np.size(values))
            return push_down(batch, values, depth)

        monkeypatch.setattr(sampler, "linear_form", tracking_linear_form)
        monkeypatch.setattr(SampleBatch, "_push_down", tracking_push_down)
        n = 2_000
        monte_carlo_equidist(LATTICE_MIXTURE, [F(2, 3), F(2, 3), F(1, 3)], n=n, depth=4, seed=1)
        assert len(outside) == 2 * 4 and max(outside) <= 24  # both batches at depths 1 to 4
        outside.clear()
        monte_carlo_equidist(GaussianLine(DYADIC, 1), [F(1, 2)] * 4, n=n, depth=3, seed=1)
        assert outside == [n] * (2 * 3)  # draws without atoms take the per-draw path


class TestMonteCarloEquidist:
    def test_gaussian_consistent_case(self):
        report = monte_carlo_equidist(
            GaussianLine(DYADIC, 1), [F(1, 2)] * 4, n=20_000, depth=4, seed=11
        )
        assert report.verdict == "consistent"
        assert report.min_adjusted_p >= report.alpha

    def test_gaussian_broken_case(self):
        report = monte_carlo_equidist(
            GaussianLine(DYADIC, 1), [F(1, 2)] * 3, n=50_000, depth=4, seed=12
        )
        assert report.verdict == "inconsistent"
        assert min(r.p_value for r in report.character_rows) < 1e-6

    def test_haar_mixture_consistent_case(self):
        # the two-prime construction: coefficients [2/3, 2/3, 1/3] preserve
        # the mixture law c*Haar(ann L) + (1-c)*Haar(ann H)
        law = Mixture(
            (F(1, 2), F(1, 2)),
            (
                HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: -1})),
                HaarAnnihilator(SubgroupSpec.of(TWO_THREE, {2: 0})),
            ),
        )
        report = monte_carlo_equidist(
            law, [F(2, 3), F(2, 3), F(1, 3)], n=20_000, depth=4, seed=13
        )
        assert report.verdict == "consistent"

    def test_report_structure(self):
        report = monte_carlo_equidist(
            GaussianLine(DYADIC, 1), [F(1, 2)] * 4, n=5_000, depth=3, seed=14
        )
        assert isinstance(report, EquidistReport)
        assert report.bit_generator == "PCG64"
        assert len(report.kuiper_rows) == 3
        assert [r.depth for r in report.kuiper_rows] == [1, 2, 3]
        assert report.character_rows[0].adjusted_p >= report.character_rows[0].p_value
        assert report.coeffs == (F(1, 2),) * 4

    def test_default_charset_is_resolvable(self):
        chars = default_charset(DYADIC, 3)
        assert all((F(y) * 8).denominator == 1 for y in chars)
        assert F(1, 8) in chars and F(1) in chars

    def test_memory_does_not_grow_with_the_number_of_copies(self):
        # the part batches are summed as they are drawn, so 64 copies need
        # about the memory of 4
        law = GaussianLine(DYADIC, 1)

        def peak(coeffs):
            tracemalloc.start()
            try:
                monte_carlo_equidist(law, coeffs, n=20_000, depth=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monte_carlo_equidist(law, [F(1, 8)] * 64, n=100, depth=2)  # keep first-use imports out
        assert peak([F(1, 8)] * 64) < 1.5 * peak([F(1, 2)] * 4)

    @pytest.mark.parametrize("alpha", [-1.0, 0, 0.0, 1.0, 1, 2.5, math.nan, math.inf])
    def test_alpha_outside_the_open_unit_interval_is_refused(self, alpha):
        # alpha -1 would call a failing equation consistent, alpha 1 a
        # holding one inconsistent
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            monte_carlo_equidist(GaussianLine(DYADIC, 1), [F(1, 2)] * 4, n=10, depth=2, alpha=alpha)

    def test_identity_coefficient_consistent(self):
        report = monte_carlo_equidist(
            GaussianLine(DYADIC, F(1, 2)), [1], n=5_000, depth=3, seed=15
        )
        assert report.verdict == "consistent"
