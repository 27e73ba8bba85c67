"""Acceptance gate: nine criteria, one test function (one pass/fail line) each.

Run `pytest -v tests/test_acceptance.py` to get exactly one PASSED/FAILED
line per criterion.  Tolerances are pinned next to each criterion: symbolic
checks carry zero tolerance, sampler agreement uses the 3/sqrt(n) radius,
eigenvalue spot checks allow -1e-9, and float-phase structural checks allow
1e-12.  Every expected value here is either asserted exactly or recomputed
by an independent in-test oracle (brute-force enumeration, re-derived
coefficient systems, direct probe evaluation).
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from soladic import (
    ConvolutionOf,
    Degenerate,
    GaussianLine,
    HaarAnnihilator,
    Mixture,
    PreconditionViolated,
    Shifted,
    SolenoidPoint,
    SteinitzSpec,
    SubgroupSpec,
    apply_aut,
    check_equidistribution,
    coefficients_from_multiplicities,
    compare,
    decompose_gaussian_haar,
    embed_real,
    empirical_cf,
    gaussian_cf,
    haar_cf,
    mixture,
    monte_carlo_equidist,
    pair_angle,
    positivity_report,
    sample,
    solve_multiplicities,
)
from soladic.scenarios import (
    blurred_counterexample,
    classify_and_conclude,
    gaussian_haar_scenario,
    two_prime_counterexample,
)

DYADIC = SteinitzSpec.of({2: math.inf})
TRIADIC = SteinitzSpec.of({3: math.inf})
TWO_THREE = SteinitzSpec.of({2: math.inf, 3: math.inf})
MIXED = SteinitzSpec.of({2: math.inf, 3: 1})
CIRCLE = SteinitzSpec.of({})

HALF4 = [F(1, 2)] * 4
SIGNED = [F(1, 4)] * 10 + [F(-1, 4)] * 6  # sums to 1, squares sum to 1


def test_criterion_1_gaussian_equation_biconditional():
    """Gaussians satisfy the equation exactly when sigma=0 or the squared
    coefficients sum to one.  Zero tolerance, no undecided verdicts."""
    vectors = [tuple(HALF4), tuple([F(1, 2)] * 3), tuple([F(1, 4)] * 16)]
    for length in (1, 2):
        for kvec in solve_multiplicities(2, length):
            vectors.append(tuple(coefficients_from_multiplicities(2, kvec)))
    vectors = list(dict.fromkeys(vectors))
    # three pinned vectors plus the six derived ones, three of which coincide
    assert len(vectors) == 6
    assert tuple([F(1, 2)] * 2 + [F(1, 4)] * 8) in vectors

    checked = 0
    for sigma in (F(0), F(1), F(7, 3)):
        f = gaussian_cf(DYADIC, sigma)
        for coeffs in vectors:
            verdict = check_equidistribution(f, coeffs).verdict
            expected = "holds" if sigma == 0 or sum(a * a for a in coeffs) == 1 else "fails"
            assert verdict == expected, (sigma, coeffs, verdict)
            checked += 1
    assert checked == 3 * len(vectors)


def test_criterion_2_positive_scenarios_and_perturbations():
    """Twelve admissible (sigma, subgroup, shift, coeffs) combinations hold and
    round-trip their decompositions; finite-threshold perturbations of the
    subgroup all fail with a witness.  Zero tolerance."""
    combos = [
        (DYADIC, F(0), SubgroupSpec.whole(DYADIC), F(0), HALF4),
        (DYADIC, F(1), SubgroupSpec.whole(DYADIC), F(0), HALF4),
        (DYADIC, F(7, 3), SubgroupSpec.whole(DYADIC), F(0), [F(1, 4)] * 16),
        (DYADIC, F(1), SubgroupSpec.whole(DYADIC), F(9, 8), SIGNED),
        (DYADIC, F(1), SubgroupSpec.zero(DYADIC), F(0), HALF4),
        (DYADIC, F(0), SubgroupSpec.zero(DYADIC), F(0), [F(1, 2)] * 2 + [F(1, 4)] * 8),
        (MIXED, F(2), SubgroupSpec.of(MIXED, {3: 0}), F(0), HALF4),
        (MIXED, F(0), SubgroupSpec.of(MIXED, {3: 0}), F(0), HALF4),
        (MIXED, F(1), SubgroupSpec.of(MIXED, {3: 1}), F(0), [F(1, 2)] + [F(1, 4)] * 12),
        (DYADIC, F(7, 3), SubgroupSpec.zero(DYADIC), F(3, 8), HALF4),
        (MIXED, F(2), SubgroupSpec.of(MIXED, {3: 0}), F(5, 4), SIGNED),
        (TRIADIC, F(1), SubgroupSpec.whole(TRIADIC), F(0), [F(1, 3)] * 9),
    ]
    assert len(combos) == 12
    for spec, sigma, subgroup, shift, coeffs in combos:
        verdict = gaussian_haar_scenario(spec, sigma, subgroup, shift=shift, coeffs=coeffs)
        assert verdict.equation.verdict == "holds"
        dec = verdict.decomposition
        assert dec.kind == "gaussian_haar"
        assert dec.subgroup == subgroup
        assert subgroup.reduce_shift(F(dec.shift) - shift) == 0
        if not subgroup.trivial:
            assert dec.sigma == sigma

    perturbed = [
        (DYADIC, F(1), {2: 0}, HALF4),
        (DYADIC, F(0), {2: 0}, HALF4),
        (DYADIC, F(1), {2: -1}, HALF4),
        (DYADIC, F(7, 3), {2: 3}, HALF4),
        (MIXED, F(1), {2: 0, 3: 0}, HALF4),
        (TRIADIC, F(0), {3: -2}, [F(1, 3)] * 9),
    ]
    for spec, sigma, table, coeffs in perturbed:
        subgroup = SubgroupSpec.of(spec, table)
        f = gaussian_cf(spec, sigma) * haar_cf(subgroup)
        chk = check_equidistribution(f, coeffs)
        assert chk.verdict == "fails" and chk.witness is not None, (table, chk)
        # the perturbation violates the invariance precondition up front
        try:
            gaussian_haar_scenario(spec, sigma, subgroup, coeffs=coeffs)
            raise AssertionError("a finite-threshold subgroup must be rejected")
        except PreconditionViolated:
            pass


def test_criterion_3_two_prime_bundles():
    """For (p,q) in {(2,3),(3,2),(2,5)}: the coefficient system matches an
    independent re-derivation and its squares sum to one; the piecewise cf
    takes the three shell values (1, c, 0) at direct probes and satisfies the
    equation; the decomposer says not-of-form; the mixture representation is
    symbolically equal.  Zero tolerance (c = 1/2 is exact in floats)."""
    c = F(1, 2)
    for p, q in ((2, 3), (3, 2), (2, 5)):
        spec = SteinitzSpec.of({p: math.inf, q: math.inf})
        bundle = two_prime_counterexample(spec, p, q, c)

        order = 1
        while pow(q, 2 * order, p * p) != 1:
            order += 1
        count = (q ** (2 * order) - 1) // (p * p)
        expected = sorted([F(p, q**order)] * count + [F(1, q**order)])
        assert sorted(bundle.coefficients.expanded()) == expected
        assert sum(a * a for a in bundle.coefficients.expanded()) == 1

        f = bundle.cf
        for y in (F(1), F(q), F(q * q)):
            assert f(y) == 1
        for y in (F(1, p), F(q * q, p), F(q, p)):
            assert f(y) == complex(float(c))
        for y in (F(1, p * p), F(q, p**3), F(1, p**4)):
            assert f(y) == 0
        assert check_equidistribution(f, bundle.coefficients).verdict == "holds"
        assert decompose_gaussian_haar(f).kind == "not_of_form"

        outer = haar_cf(SubgroupSpec.of(spec, {p: -1}))
        inner = haar_cf(SubgroupSpec.of(spec, {p: 0}))
        assert compare(mixture([c, 1 - c], [outer, inner]), f).verdict == "equal"


def test_criterion_4_exponent_solver_vs_brute_force():
    """The exponent-vector solver agrees with exhaustive enumeration under
    the bound k_j <= p^(2j), and every solution has some k_j > p^j.
    Zero tolerance."""

    def brute(p: int, length: int) -> list:
        # exhaustive over prefixes; the last exponent is pinned by the sum
        sols = []

        def rec(j, remaining, acc):
            if j == length - 1:
                k = remaining * p ** (2 * length)
                if k.denominator == 1 and 0 <= k <= p ** (2 * length):
                    sols.append(tuple(acc + [int(k)]))
                return
            unit = F(1, p ** (2 * (j + 1)))
            for k in range(p ** (2 * (j + 1)) + 1):
                if k * unit > remaining:
                    break
                rec(j + 1, remaining - k * unit, acc + [k])

        rec(0, F(1), [])
        return sols

    for p in (2, 3, 5):
        for length in (1, 2, 3):
            got = solve_multiplicities(p, length)
            assert sorted(got) == sorted(brute(p, length)), (p, length)
            for kvec in got:
                assert any(kj > p ** (j + 1) for j, kj in enumerate(kvec)), (p, length, kvec)


def test_criterion_5_sampler_matches_symbolic():
    """Every sampler variant agrees with its exact characteristic function at
    20 probe characters: |empirical - exact| <= 3/sqrt(n) with n = 1e5 under
    a fixed seed, deterministically, in under 60 seconds."""
    started = time.monotonic()
    laws = [
        Degenerate(embed_real(DYADIC, F(3, 8))),
        HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: -1})),
        HaarAnnihilator(SubgroupSpec.zero(DYADIC)),
        GaussianLine(DYADIC, F(1, 2)),
        GaussianLine(DYADIC, 2, mean=F(1, 3)),
        Mixture(
            (F(1, 4), F(3, 4)),
            (HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})), GaussianLine(DYADIC, 1)),
        ),
        Shifted(embed_real(DYADIC, F(1, 2)), GaussianLine(DYADIC, 1)),
        ConvolutionOf(
            (GaussianLine(DYADIC, F(1, 2)), HaarAnnihilator(SubgroupSpec.of(DYADIC, {2: 0})))
        ),
    ]
    assert len({type(law) for law in laws}) == 6  # every variant represented

    n, depth, seed = 100_000, 5, 2026
    chars = [F(m, DYADIC.level(depth)) for m in range(1, 21)]
    bound = 3 / math.sqrt(n)
    for law in laws:
        batch = sample(law, depth, n, seed)
        assert np.array_equal(batch.coords, sample(law, depth, n, seed).coords)
        estimates = empirical_cf(batch, chars).estimates
        f = law.exact_cf()
        for y, estimate in zip(chars, estimates):
            assert abs(complex(estimate) - f(y)) <= bound, (law, y)
    assert time.monotonic() - started < 60


def test_criterion_6_monte_carlo_verdicts():
    """Simulations of the verified constructions are consistent at alpha=0.01
    (n = 1e5, circle tests at depths 1..6); the broken combination is
    inconsistent with a character-gap p-value below 1e-6.  Under 120 s."""
    started = time.monotonic()
    n, depth, alpha, seed = 100_000, 6, 0.01, 11

    positive_runs = [
        (GaussianLine(DYADIC, 1), HALF4),
        (
            ConvolutionOf(
                (GaussianLine(MIXED, 2), HaarAnnihilator(SubgroupSpec.of(MIXED, {3: 0})))
            ),
            HALF4,
        ),
    ]
    bundle = two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2))
    positive_runs.append((bundle.sampler, list(bundle.coefficients.expanded())))
    for law, coeffs in positive_runs:
        report = monte_carlo_equidist(law, coeffs, n=n, depth=depth, seed=seed, alpha=alpha)
        worst = min(r.adjusted_p for r in report.character_rows + report.kuiper_rows)
        assert report.verdict == "consistent", (law, worst)
        assert [row.depth for row in report.kuiper_rows] == [1, 2, 3, 4, 5, 6]

    broken = monte_carlo_equidist(
        GaussianLine(DYADIC, 1), [F(1, 2)] * 3, n=n, depth=depth, seed=seed, alpha=alpha
    )
    assert broken.verdict == "inconsistent"
    assert min(row.p_value for row in broken.character_rows) < 1e-6
    assert time.monotonic() - started < 120


def test_criterion_7_positive_definiteness():
    """Every constructed cf passes the Gram spot check: minimum eigenvalue
    >= -1e-9 over 100 random 8x8 matrices."""
    pool = [
        gaussian_cf(DYADIC, 0),
        gaussian_cf(DYADIC, 1),
        gaussian_cf(DYADIC, F(7, 3)),
        gaussian_cf(DYADIC, 1, F(3, 8)),
        haar_cf(SubgroupSpec.whole(DYADIC)),
        haar_cf(SubgroupSpec.of(DYADIC, {2: 0})),
        haar_cf(SubgroupSpec.of(DYADIC, {2: -2})),
        haar_cf(SubgroupSpec.zero(DYADIC)),
        mixture(
            [F(1, 3), F(2, 3)],
            [haar_cf(SubgroupSpec.of(DYADIC, {2: 0})), haar_cf(SubgroupSpec.of(DYADIC, {2: -1}))],
        ),
    ]
    for c in (F(1, 4), F(1, 2), F(3, 4)):
        pool.append(two_prime_counterexample(TWO_THREE, 2, 3, c).cf)
    pool.append(blurred_counterexample(TWO_THREE, 2, 3, F(1, 2), F(1)).cf)

    for f in pool:
        report = positivity_report(f, size=8, trials=100, seed=0, tol=1e-9)
        assert report.passed and report.min_eigenvalue >= -1e-9, (f, report)


def test_criterion_8_circle_shift_recovery():
    """On the circle, under the signs (1, 1, -1), the shifted indicator of the
    d-multiples lattice is recognized as a shift of Haar with (shift, d)
    recovered exactly for d in {1,2,3,6}; positive-width gaussians fail.
    Zero tolerance."""
    cases = [
        (F(0), {}, 1),
        (F(1, 3), {}, 1),
        (F(1, 4), {2: 1}, 2),
        (F(0), {2: 1}, 2),
        (F(2, 9), {3: 1}, 3),
        (F(1, 12), {2: 1, 3: 1}, 6),
        (F(1, 7), {2: 1, 3: 1}, 6),
    ]
    assert {d for _, _, d in cases} == {1, 2, 3, 6}
    signs = [1, 1, -1]
    for shift, table, d in cases:
        lattice = SubgroupSpec.of(CIRCLE, table)
        f = gaussian_cf(CIRCLE, 0, shift) * haar_cf(lattice)
        verdict = classify_and_conclude(CIRCLE, signs, f)
        dec = verdict.decomposition
        assert (verdict.equation.verdict, dec.kind, dec.sigma) == ("holds", "gaussian_haar", 0)
        assert dec.subgroup == lattice
        assert math.prod(p**t for p, t in dec.subgroup.thresholds) == d
        assert dec.shift == lattice.reduce_shift(shift)
    for sigma in (F(1), F(7, 3)):
        eq = classify_and_conclude(CIRCLE, signs, gaussian_cf(CIRCLE, sigma)).equation
        assert eq.verdict == "fails" and eq.witness is not None


def test_criterion_9_randomized_structural_invariants():
    """Five 1000-case randomized suites: pairing bilinearity, the adjoint
    identity, tower projection consistency, cf algebra laws, and the
    doubling inequality for real cfs.  Exact except the float-phase
    inequality suite, which allows 1e-12."""
    specs = [DYADIC, TWO_THREE, MIXED, SteinitzSpec.of({3: math.inf, 5: 2})]

    def random_point(spec, rng, depth=None):
        depth = rng.randint(0, 4) if depth is None else depth
        den = rng.randint(1, 600)
        return SolenoidPoint(spec, depth, F(rng.randint(0, den - 1), den))

    def random_char(spec, rng):
        den = 1
        for p, m in spec.multiplicities:
            den *= p ** rng.randint(0, int(min(m, 4)))
        return F(rng.randint(-50, 50), den)

    def resolvable_char(spec, depth, rng):
        level = spec.level(depth)
        return F(rng.randint(-4 * level, 4 * level), level)

    # (a) pairing bilinearity, both arguments
    rng = random.Random(901)
    for _ in range(1000):
        spec = rng.choice(specs)
        x = random_point(spec, rng)
        y1, y2 = random_char(spec, rng), random_char(spec, rng)
        assert pair_angle(x, y1 + y2) == (pair_angle(x, y1) + pair_angle(x, y2)) % 1
        depth = rng.randint(0, 4)
        a, b = random_point(spec, rng, depth), random_point(spec, rng, depth)
        y = resolvable_char(spec, depth, rng)
        assert pair_angle(a + b, y) == (pair_angle(a, y) + pair_angle(b, y)) % 1

    # (b) adjoint identity: moving an automorphism across the pairing
    rng = random.Random(902)
    for _ in range(1000):
        spec = rng.choice(specs)
        x = random_point(spec, rng)
        alpha = F(rng.choice([-1, 1]))
        for p in spec.infinite_primes:
            alpha *= F(p) ** rng.randint(-3, 3)
        y = resolvable_char(spec, x.depth, rng)
        assert pair_angle(apply_aut(x, alpha), y) == pair_angle(x, alpha * y)

    # (c) tower consistency: projections preserve shallow pairings
    rng = random.Random(903)
    for _ in range(1000):
        spec = rng.choice(specs)
        x = random_point(spec, rng)
        lower = rng.randint(0, x.depth)
        y = resolvable_char(spec, lower, rng)
        assert pair_angle(x.project(lower), y) == pair_angle(x, y)
        assert x.lift(x.depth + rng.randint(0, 3)).project(x.depth) == x
        mid = rng.randint(lower, x.depth)
        assert x.project(mid).project(lower) == x.project(lower)

    # (d) cf algebra laws: commutative, associative, indicators idempotent
    rng = random.Random(904)
    tables = [{}, {2: 0}, {2: -1}, {2: 1}, {2: -2}]

    def random_cf(rng):
        kind = rng.choice(["gauss", "haar", "mix"])
        if kind == "gauss":
            sigma = rng.choice([F(0), F(1), F(1, 2), F(7, 3), F(2)])
            return gaussian_cf(DYADIC, sigma, rng.choice([F(0), F(1, 2), F(3, 8)]))
        if kind == "haar":
            return haar_cf(SubgroupSpec.of(DYADIC, rng.choice(tables)))
        w = rng.choice([F(1, 2), F(1, 3), F(1, 4)])
        return mixture(
            [w, 1 - w],
            [
                haar_cf(SubgroupSpec.of(DYADIC, rng.choice(tables))),
                haar_cf(SubgroupSpec.of(DYADIC, rng.choice(tables))),
            ],
        )

    for _ in range(1000):
        f, g, h = random_cf(rng), random_cf(rng), random_cf(rng)
        assert compare(f * g, g * f).verdict == "equal"
        assert compare((f * g) * h, f * (g * h)).verdict == "equal"
        indicator = haar_cf(SubgroupSpec.of(DYADIC, {2: rng.randint(-3, 3)}))
        assert compare(indicator * indicator, indicator).verdict == "equal"

    # (e) real cfs: 1 - f(y1+y2) <= 2[(1 - f(y1)) + (1 - f(y2))]
    rng = random.Random(905)
    real_pool = [
        gaussian_cf(DYADIC, F(1, 2)),
        gaussian_cf(DYADIC, 2),
        haar_cf(SubgroupSpec.of(DYADIC, {2: 0})),
        haar_cf(SubgroupSpec.of(DYADIC, {2: -1})),
        mixture(
            [F(1, 3), F(2, 3)],
            [haar_cf(SubgroupSpec.of(DYADIC, {2: 1})), haar_cf(SubgroupSpec.whole(DYADIC))],
        ),
        two_prime_counterexample(TWO_THREE, 2, 3, F(1, 2)).cf,
    ]
    for _ in range(1000):
        f = rng.choice(real_pool)
        y1, y2 = random_char(f.spec, rng), random_char(f.spec, rng)
        lhs = 1 - f(y1 + y2).real
        rhs = 2 * ((1 - f(y1).real) + (1 - f(y2).real))
        assert lhs <= rhs + 1e-12, (f, y1, y2)
