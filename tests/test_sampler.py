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

from soladic import SteinitzSpec, StratifiedCF, SubgroupSpec, embed_real, zero_point
from soladic.errors import (
    BadWeights,
    CharacterOutsideGroup,
    CharacterTooDeep,
    ConfigError,
    DepthInsufficient,
    DepthUnavailable,
    SpecMismatch,
)
from soladic import _kernels, sampler
from soladic.sampler import (
    ConvolutionOf,
    Degenerate,
    EquidistReport,
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    SampleBatch,
    SamplerSpec,
    Shifted,
    default_charset,
    draw,
    empirical_cf,
    fiber_order,
    kuiper_two_sample,
    linear_form,
    monte_carlo_equidist,
    required_depth,
    sample,
    _two_sample_cf_p,
)
from soladic.serialize import batch_to_csv, law_from_json, law_to_json
from soladic.steinitz import CoefficientSystem, two_prime_coefficients

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
    # a mean far beyond float resolution whose fractional half still shifts every draw
    GaussianLine(DYADIC, F(1, 2), mean=F(2 * 10**20 + 1, 2)),
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
    "gaussian-huge-mean",
    "mixture",
    "shifted",
    "convolution",
    "nested",
]


# past 2^32 a haar fiber takes rng.integers' 64-bit path
HAAR_PAST_2_32 = HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 30}))
BLOCK_LAWS = ALL_VARIANTS + [
    NESTED,
    HAAR_PAST_2_32,
    Mixture((F(1, 2), F(1, 2)), (HAAR_PAST_2_32, GaussianLine(DYADIC, 1, mean=F(-7, 3)))),
]
BLOCK_IDS = VARIANT_IDS + ["haar-past-2^32", "mixture-past-2^32"]


def law_variants() -> set[type]:
    """Every subclass of SamplerSpec that the package defines, at any depth."""
    found, todo = set(), [SamplerSpec]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("soladic.") and cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


class TestInterpretations:
    """Each interpretation of a law tree is one function or method set, and knows every variant."""

    def test_all_variants_holds_every_variant(self):
        # a variant added later must join ALL_VARIANTS, and so every test below
        assert law_variants() == {type(law) for law in ALL_VARIANTS}

    def test_the_block_step_is_one_function(self):
        assert not [cls.__name__ for cls in law_variants() | {SamplerSpec} if "_block_adder" in vars(cls)]

    @pytest.mark.parametrize("law", ALL_VARIANTS + [NESTED], ids=VARIANT_IDS)
    def test_every_interpretation_takes_the_variant(self, law):
        out = np.zeros(64)
        sampler._block_adder(law, 4, np.random.Generator(np.random.PCG64(3)))(out, 2)
        assert np.all((out >= 0.0) & (out < 1.0))
        assert isinstance(law.exact_cf(), StratifiedCF)
        doc = law_to_json(law)
        assert law_from_json(law.ambient, doc) == law
        assert law_to_json(law_from_json(law.ambient, doc)) == doc

    def test_an_unknown_variant_is_refused_by_each_interpretation(self):
        class Unknown(SamplerSpec):
            ambient = DYADIC

        with pytest.raises(TypeError, match="cannot draw"):
            sampler._block_adder(Unknown(), 4, np.random.Generator(np.random.PCG64(0)))
        with pytest.raises(TypeError, match="cannot draw"):
            sample(Unknown(), 4, 10, seed=0)
        with pytest.raises(ConfigError, match="cannot serialize"):
            law_to_json(Unknown())
        with pytest.raises(NotImplementedError):
            Unknown().exact_cf()


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

    def test_fiber_order_refuses_orders_past_int64(self):
        # the order at depth 2 is 2^(threshold + 2); rng.integers draws residues below 2^63
        assert fiber_order(SubgroupSpec.of(DYADIC, {2: 61}), 2) == 2**63
        for threshold in (62, 10**5):
            with pytest.raises(DepthInsufficient, match="beyond int64"):
                fiber_order(SubgroupSpec.of(DYADIC, {2: threshold}), 2)

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

    def test_one_seed_sequence_draws_the_same_twice(self):
        # a mixture or a convolution spawns its parts' streams from the seed; drawing
        # from a copy of it leaves the caller's object as it was
        for law in ALL_VARIANTS + [NESTED]:
            ss = np.random.SeedSequence(0)
            a, b = sample(law, 4, 5, ss), sample(law, 4, 5, ss)
            assert np.array_equal(a.coords, b.coords)
            assert a.seed_record == b.seed_record == "PCG64(entropy=0, spawn_key=())"
            assert ss.n_children_spawned == 0

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
        out = np.zeros(50)
        sampler._block_adder(law, 4, rng)(out, 0)
        assert np.all(out == 0.0)
        counts = np.array([0, 1, 2, 0, 5, 0] * 10, dtype=np.int64)
        out = np.zeros(counts.size)
        sampler._block_adder(law, 4, rng)(out, counts)
        assert out.shape == counts.shape
        assert np.all(out[counts == 0] == 0.0)
        assert np.all((out >= 0.0) & (out < 1.0))

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("law", BLOCK_LAWS, ids=BLOCK_IDS)
    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch, law, copies):
        # every stream continues from block to block; with 3 copies the
        # mixtures hand array counts to their parts
        for rows, n in ((1, 500), (7, 5_000), (4096, 5_000)):
            assert n <= _kernels.BLOCK_ROWS  # one block
            whole = sample(law, 4, n, 7, copies=copies).coords.tobytes()
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "BLOCK_ROWS", rows)
                assert sample(law, 4, n, 7, copies=copies).coords.tobytes() == whole, rows

    @pytest.mark.parametrize("case", ["lattice", "shifted"])
    def test_linear_form_draws_do_not_depend_on_the_block_size(self, monkeypatch, case):
        # each part's rows go straight into the sum, part after part, every
        # stream continuing from block to block
        law, coeffs = EQUIDIST_CASES[case]
        for rows, n in ((1, 500), (7, 5_000), (4096, 5_000)):
            assert n <= _kernels.BLOCK_ROWS  # one block
            whole = monte_carlo_equidist(law, coeffs, n=n, depth=4, seed=7)
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "BLOCK_ROWS", rows)
                cut = monte_carlo_equidist(law, coeffs, n=n, depth=4, seed=7)
            assert cut.reference.coords.tobytes() == whole.reference.coords.tobytes(), rows
            assert cut.combined.coords.tobytes() == whole.combined.coords.tobytes(), rows

    @pytest.mark.parametrize("parts", [2, 6])
    def test_peak_per_draw_does_not_grow_with_the_parts(self, monkeypatch, parts):
        # the batch's 8 bytes a draw plus block-sized temporaries; drawing
        # every row at once took 40 bytes a draw for 2 parts and 72 for 6
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4096)
        law = Mixture(
            (F(1, parts),) * parts,
            tuple(HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: t})) for t in range(-1, parts - 1)),
        )
        n = 200_000
        tracemalloc.start()
        try:
            sample(law, 4, n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + (1 << 20)

    def test_degenerate_sum_is_exact(self):
        # k * 3/8 at depth 4 (level 16) is 3k/128 mod 1, computed in Fractions
        law = Degenerate(embed_real(DYADIC, F(3, 8)))
        counts = np.array([1, 7, 43, 128], dtype=np.int64)
        out = np.zeros(4)
        sampler._block_adder(law, 4, np.random.Generator(np.random.PCG64(0)))(out, counts)
        assert out.tolist() == [float(F(3 * k, 128) % 1) for k in counts.tolist()]

    @pytest.mark.parametrize("sigma, mean, copies", [(10**400, 0, 1)])
    def test_gaussian_beyond_the_float_range_is_refused(self, sigma, mean, copies):
        law = GaussianLine(DYADIC, sigma, mean)
        assert law.exact_cf().pieces  # the exact layer keeps the law
        with pytest.raises(ValueError, match="float range"):
            sample(law, 2, 10, seed=0, copies=copies)

    @pytest.mark.parametrize("mean, copies", [(10**400, 1), (-(10**400), 1), (10**308, 4)])
    def test_gaussian_mean_beyond_the_float_range_is_drawn_exactly(self, mean, copies):
        # copies * mean is a multiple of the depth-2 level 4, a whole number
        # of turns, so the draws are the centred law's draws bit for bit
        shifted = sample(GaussianLine(DYADIC, 1, mean), 2, 10, seed=0, copies=copies)
        centred = sample(GaussianLine(DYADIC, 1), 2, 10, seed=0, copies=copies)
        assert shifted.coords.tobytes() == centred.coords.tobytes()

    @pytest.mark.parametrize("mean", [F(3, 8), F(2 * 10**20 + 1, 2), F(-(10**30) - 1, 7)])
    def test_gaussian_of_zero_sigma_is_its_point_mass(self, mean):
        # the point keeps the mean modulo the level of the drawn depth
        depth = 5
        gauss, point = GaussianLine(DYADIC, 0, mean), Degenerate(embed_real(DYADIC, mean, depth))
        counts = np.array([0, 1, 2, 3, 7, 1, 0, 4] * 5, dtype=np.int64)
        for k in (1, 3, counts):
            a, b = np.zeros(counts.size), np.zeros(counts.size)
            sampler._block_adder(gauss, depth, np.random.Generator(np.random.PCG64(0)))(a, k)
            sampler._block_adder(point, depth, np.random.Generator(np.random.PCG64(0)))(b, k)
            assert a.tobytes() == b.tobytes()

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
        original = sampler.draw

        def counted(law, depth, n, seed, copies=1):
            calls.append(copies)
            return original(law, depth, n, seed, copies)

        # every draw is set up here: each part's first, then the reference's through sample
        monkeypatch.setattr(sampler, "draw", counted)
        report = monte_carlo_equidist(law, coeffs, n=500, depth=2, seed=0)
        system = two_prime_coefficients(p, q).system
        assert len(calls) == len(system.counts) + 1 == 3
        assert calls == [k for _, k in system.counts] + [1]
        assert report.coeffs == system == CoefficientSystem.of(coeffs)  # the report keeps the system
        assert report.coeffs.expanded() == tuple(coeffs)

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
        assert report.combined.n == 100_000 and report.coeffs.size == 41_944


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
            cf = law.exact_cf()
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

    @pytest.mark.parametrize(
        "table, coeffs, depth",
        [({3: math.inf}, [F(1, 3)] * 9, 26), ({2: math.inf}, [F(1, 2)] * 2 + [F(1, 4)] * 8, 44)],
    )
    def test_depth_past_the_tie_grid_refused_before_any_draw(self, monkeypatch, table, coeffs, depth):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a row")

        monkeypatch.setattr(sampler.Draw, "blocks", no_draw)  # every row is drawn there
        law = GaussianLine(SteinitzSpec.of(table), F(1, 100))
        with pytest.raises(DepthInsufficient, match=rf"depth {depth} exceeds 2\^40, the tie grid"):
            monte_carlo_equidist(law, coeffs, n=10, depth=depth)

    @pytest.mark.parametrize(
        "coeffs, charset, error, message, law",
        [
            ([F(1, 2)] * 4, [F(1, 3)], CharacterOutsideGroup, "1/3 is not a character", GaussianLine(DYADIC, 1)),
            (
                [F(1, 2)] * 4,
                [F(1, 32)],
                CharacterTooDeep,
                "needs more than the batch's 4 levels",
                GaussianLine(DYADIC, 1),
            ),
            ([F(1, 2)] * 4, [F(2**50)], CharacterTooDeep, "beyond 2\\^53 at depth 4", GaussianLine(DYADIC, 1)),
            # the sampling depth
            ([F(1, 2**60)], None, DepthInsufficient, "depth 64 exceeds int64", GaussianLine(DYADIC, 1)),
            # a fiber of order 2^63 at depth 4, 2^64 at the sampling depth 5
            (
                [F(1, 2)] * 4,
                None,
                DepthInsufficient,
                "at depth 5 has an order beyond int64",
                HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 59})),
            ),
            (
                [F(1, 2)] * 4,
                None,
                ValueError,
                "float range",
                Mixture(
                    (F(1, 2), F(1, 2)),
                    (HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})), GaussianLine(DYADIC, 10**324)),
                ),
            ),
        ],
    )
    def test_late_refusals_come_before_any_draw(self, monkeypatch, coeffs, charset, error, message, law):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a row")

        monkeypatch.setattr(sampler.Draw, "blocks", no_draw)  # every row is drawn there
        with pytest.raises(error, match=message):
            monte_carlo_equidist(law, coeffs, n=10, depth=4, charset=charset)

    def test_depth_at_the_tie_grid_still_runs(self):
        # level(40) = 2^40 is the grid itself
        law = GaussianLine(DYADIC, F(1, 100))
        report = monte_carlo_equidist(law, [F(1, 2)] * 2 + [F(1, 4)] * 8, n=200, depth=40)
        assert report.depth == 40 and report.verdict == "consistent"

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
        # depth-3 linear form but not one at the batches' own depth 4
        batches = [sample(GaussianLine(DYADIC, 1), 4, 100, seed=s) for s in (1, 2, 3, 4)]
        out = linear_form(batches, [F(1, 2)] * 4, depth=3)
        assert out.depth == 3
        with pytest.raises(DepthInsufficient, match="depth 4 are too shallow for an exact depth-4"):
            linear_form(batches, [F(1, 2)] * 4)

    def test_gaussian_halves_reproduce_gaussian(self):
        # four independent copies scaled by 1/2 have the same law
        n = 20_000
        law = GaussianLine(DYADIC, F(2, 3))
        batches = [sample(law, 5, n, seed=100 + j) for j in range(4)]
        combined = linear_form(batches, [F(1, 2)] * 4, depth=3)
        est = empirical_cf(combined, probe_chars(DYADIC, 3))
        cf = law.exact_cf()
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
        listed = linear_form(batches, coeffs, depth=3)
        drawn = linear_form((b for b in batches), coeffs, depth=3)
        assert drawn.depth == listed.depth == 3
        assert drawn.seed_record == listed.seed_record
        assert np.array_equal(drawn.coords, listed.coords)

    @pytest.mark.parametrize("count", [3, 5])
    def test_generator_length_must_match_coefficients(self, count):
        batches = (sample(GaussianLine(DYADIC, 1), 4, 100, seed=s) for s in range(count))
        with pytest.raises(ValueError):
            linear_form(batches, [F(1, 2)] * 4, depth=3)

    @pytest.mark.parametrize(
        "coeffs, depth, error, message",
        [
            ([F(1, 3), 1], 3, ValueError, "1/3 is not an automorphism"),
            ([F(1, 2), F(1, 2)], None, DepthInsufficient, "too shallow"),
        ],
    )
    def test_coefficients_and_depth_are_checked_at_the_first_batch(self, coeffs, depth, error, message):
        def batches():
            yield sample(GaussianLine(DYADIC, 1), 4, 10, seed=0)
            raise AssertionError("advanced past the first batch")

        with pytest.raises(error, match=message):
            linear_form(batches(), coeffs, depth=depth)


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

    def test_depth_past_the_tie_grid_is_refused(self):
        # the points 0 and 1/16 lie 2^-48 apart at depth 44, closer than the
        # 2^-40 grid, which would merge them into one atom
        a = sample(Degenerate(embed_real(DYADIC, 0)), 44, 1000, seed=0)
        b = sample(Degenerate(embed_real(DYADIC, F(1, 16))), 44, 1000, seed=1)
        for depth in (None, 41):
            with pytest.raises(DepthInsufficient, match=r"depth \d+ exceeds 2\^40, the tie grid"):
                kuiper_two_sample(a, b, depth)

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
# the CI determinism step's shifted law: a nonzero-mean gaussian and a shifted point below a mixture
SHIFTED_MIXTURE = law_from_json(
    DYADIC,
    {
        "kind": "mixture",
        "weights": ["1/3", "2/3"],
        "parts": [
            {"kind": "gaussian", "sigma": "1/10", "mean": "7/3"},
            {
                "kind": "shifted",
                "point": {"depth": 1, "coord": "1/3"},
                "law": {"kind": "degenerate", "point": {"depth": 0, "coord": "1/2"}},
            },
        ],
    },
)
# two distinct coefficients, of counts 2 and 1, and of counts 2 and 2
EQUIDIST_CASES = {
    "lattice": (LATTICE_MIXTURE, [F(2, 3), F(2, 3), F(1, 3)]),
    "shifted": (SHIFTED_MIXTURE, [F(1, 2), F(1, 2), F(1, 4), F(1, 4)]),
}
TWELFTHS = SteinitzSpec.of({2: math.inf, 3: math.inf})  # level 12 at depth 3


def built_batch(batch):
    """The batch formed from another's blocks by _kernels.build_batch, as sample forms its batches."""
    return SampleBatch(batch.spec, batch.depth, _kernels.build_batch(batch.n, batch.blocks()), batch.seed_record)


def hand_batch(coords, depth=3):
    return built_batch(SampleBatch(TWELFTHS, depth, np.asarray(coords, dtype=np.float64), "hand-built"))


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
        assert report.reference.atoms is not None and report.combined.atoms is not None
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
            return hand_batch(coords).atoms is not None

        assert has_atoms(HAND_CASES["at_the_atom_cutoff"][0])
        assert not has_atoms(HAND_CASES["past_the_atom_cutoff"][0])
        assert not has_atoms(HAND_CASES["atoms_against_draws"][1])
        assert all(has_atoms(x) for name in ("ulp_split_atoms", "signed_zeros", "snap_to_one", "wrap_to_zero")
                   for x in HAND_CASES[name])
        # the unsnapped values differ where the snapped ones tie
        a, b = (hand_batch(x) for x in HAND_CASES["ulp_split_atoms"])
        assert kuiper_two_sample(a, b)[0] > 0
        assert np.unique(a.coords).size > np.unique(np.round(a.coords * 12)).size

    def test_continuous_tower_holds_one_pooled_array(self):
        # one uint64 key per draw of both batches, 16 n bytes, and chunk-sized scan buffers;
        # sorting and scanning copies of the two batches took about 64 n
        n = 200_000
        a = sample(GaussianLine(DYADIC, 1), 4, n, 1)
        b = sample(GaussianLine(DYADIC, 1), 4, n, 2)
        assert a.atoms is None and b.atoms is None
        tracemalloc.start()
        try:
            kuiper_two_sample(a, b, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * n + (2 << 20)

    def test_lattice_draws_are_projected_only_inside_the_linear_form(self, monkeypatch):
        # the Kuiper tower pushes a lattice batch's atoms down, not its draws
        inside = []
        push_down, linear_form_ = sampler._push_down, sampler.linear_form

        def tracking_linear_form(*args, **kwargs):
            inside.append(True)
            try:
                return linear_form_(*args, **kwargs)
            finally:
                inside.pop()

        outside = []

        def tracking_push_down(spec, from_depth, values, depth, **kwargs):
            if not inside:
                outside.append(np.size(values))
            return push_down(spec, from_depth, values, depth, **kwargs)

        monkeypatch.setattr(sampler, "linear_form", tracking_linear_form)
        monkeypatch.setattr(sampler, "_push_down", tracking_push_down)
        n = 2_000
        monte_carlo_equidist(LATTICE_MIXTURE, [F(2, 3), F(2, 3), F(1, 3)], n=n, depth=4, seed=1)
        assert len(outside) == 2 * 4 and max(outside) <= 24  # both batches at depths 1 to 4
        outside.clear()
        monte_carlo_equidist(GaussianLine(DYADIC, 1), [F(1, 2)] * 4, n=n, depth=3, seed=1)
        assert outside == [n] * (2 * 3)  # draws without atoms take the per-draw path


def _indexed_cases():
    """(coords, BLOCK_ROWS, index dtype or None for draws) of batches the builder forms both ways."""
    rng = np.random.default_rng(34)
    zeros = np.where(rng.random(300) < 0.5, -0.0, 0.0)
    zeros[::7] = 5 / 12
    # n = 1000 and 128-row blocks: the cutoff is 128 atoms; the last of them, or one
    # more, first appears in the fifth block
    at_cutoff = np.resize(np.arange(120) / 120, 1000)
    at_cutoff[4 * 128 + 5 : 4 * 128 + 13] = np.arange(8) / 8 + 1 / 240
    past_cutoff = at_cutoff.copy()
    past_cutoff[4 * 128 + 40] = 0.999
    return {
        "signed_zeros": (zeros, 128, np.uint8),
        "at_the_cutoff": (at_cutoff, 128, np.uint8),
        "one_past_the_cutoff": (past_cutoff, 128, None),
        # a block's row indices come from a pass per key up to 32 keys, and from an argsort past that
        "32_atoms": (rng.permutation(np.resize(np.arange(32) / 32, 700)), 512, np.uint8),
        "33_atoms": (rng.permutation(np.resize(np.arange(33) / 33, 700)), 512, np.uint8),
        "256_atoms": (rng.permutation(np.resize(np.arange(256) / 256, 700)), 512, np.uint8),
        "257_atoms": (rng.permutation(np.resize(np.arange(257) / 257, 700)), 512, np.uint16),
        "one_draw": (np.array([7 / 12]), 128, None),
        "ragged_last_block": (rng.integers(0, 12, 3 * 128 + 29) / 12, 128, np.uint8),
    }


INDEXED_CASES = _indexed_cases()


class TestIndexedBatches:
    """A batch held as an atom index gives what the same draws held as float64 give."""

    @pytest.mark.parametrize("case", INDEXED_CASES)
    def test_indexed_and_float_batches_agree(self, monkeypatch, case):
        coords, rows, dtype = INDEXED_CASES[case]
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", rows)
        floats = SampleBatch(TWELFTHS, 3, coords, "hand-built")
        indexed = built_batch(floats)
        assert floats.atoms is None
        if dtype is None:
            assert indexed.atoms is None
        else:
            assert indexed.atoms[2].dtype == dtype and indexed.atoms[2].shape == (coords.shape[0],)
            assert indexed.atoms[1].sum() == coords.shape[0]
        assert indexed.n == floats.n
        assert indexed.coords.tobytes() == coords.tobytes()
        chars = default_charset(TWELFTHS, 3)
        assert empirical_cf(indexed, chars).estimates.tobytes() == empirical_cf(floats, chars).estimates.tobytes()
        other = SampleBatch(TWELFTHS, 3, np.resize(np.arange(12) / 12, 500), "twelfths")
        for depth in range(4):
            assert kuiper_two_sample(indexed, other, depth) == kuiper_two_sample(floats, other, depth)
            assert kuiper_two_sample(other, indexed, depth) == kuiper_two_sample(other, floats, depth)
        assert batch_to_csv(indexed) == batch_to_csv(floats)
        for depth in range(4):
            assert indexed.project(depth).coords.tobytes() == floats.project(depth).coords.tobytes()

    def test_signed_zeros_stay_two_atoms(self):
        batch = built_batch(SampleBatch(TWELFTHS, 3, INDEXED_CASES["signed_zeros"][0], "hand-built"))
        assert sorted(math.copysign(1.0, x) for x in batch.atoms[0] if x == 0) == [-1.0, 1.0]
        assert {"3,0.0", "3,-0.0"} <= set(batch_to_csv(batch).splitlines())


class TestMonteCarloEquidist:
    def test_gaussian_consistent_case(self):
        report = monte_carlo_equidist(
            GaussianLine(DYADIC, 1), [F(1, 2)] * 4, n=20_000, depth=4, seed=11
        )
        assert report.verdict == "consistent"
        assert min(r.adjusted_p for r in report.character_rows + report.kuiper_rows) >= report.alpha

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
        assert report.coeffs.expanded() == (F(1, 2),) * 4

    @pytest.mark.parametrize("n, gap, expected", [(1_000, 0.2, 8 * math.exp(-2.5)), (400, 0.4, 8 * math.exp(-4))])
    def test_character_row_bound_inside_the_unit_interval(self, n, gap, expected):
        # min(1, 8 exp(-n gap^2 / 16)) where it is neither clamped to 1 nor 0 in float
        p = _two_sample_cf_p(n, gap)
        assert 0 < p < 1
        assert p == pytest.approx(expected, rel=1e-12)

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

    def test_holds_two_arrays_of_draws(self, monkeypatch):
        # the reference and the combined batch, each a one-byte atom index per draw, and
        # each formed a block at a time: about 3.7 bytes a draw; holding both as float64
        # draws took 17.4, and a whole part batch beside them 25.1
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4096)
        law, coeffs = EQUIDIST_CASES["lattice"]
        monte_carlo_equidist(law, coeffs, n=100, depth=4)  # keep first-use imports out
        n = 200_000
        tracemalloc.start()
        try:
            monte_carlo_equidist(law, coeffs, n=n, depth=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n + (1 << 20)

    def test_continuous_linear_form_holds_two_arrays_of_draws(self, monkeypatch):
        # a gaussian's reference and its linear form, as the check draws them, 8 bytes a
        # draw each, about 16.5 in all: each block's sum is taken mod 1 and down the tower
        # before the next, and no atom index is made for draws that pass the cutoff, so a
        # floor of the whole sum, or a 2-byte index per draw, would break the bound
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 4096)
        law, coeffs = GaussianLine(DYADIC, 1), [F(1, 2)] * 4
        assert required_depth(DYADIC, coeffs, 4) == 5  # the sum goes down one level

        def reference_and_combined(n):
            reference = sample(law, 4, n, 0)
            return reference, linear_form([draw(law, 5, n, 1, copies=4)], [F(1, 2)], depth=4)

        reference_and_combined(100)  # keep first-use imports out
        n = 400_000
        tracemalloc.start()
        try:
            reference_and_combined(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * n + (512 << 10)

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
