"""Self-checking case studies assembled from the library primitives.

Each scenario builds a concrete law, runs every exact check the construction
is supposed to satisfy, and returns a verdict bundle.  Each scenario defines
its law once, as a sampling law, and reads its cf from it, so the cf and the
sampler cannot disagree and every exact claim is computed on one object.
The split between the two failure channels is deliberate:

* PreconditionViolated names the specific input clause that disqualifies a
  run before anything is built.
* SoundnessError signals that a post-construction check failed.  Once the
  preconditions hold the mathematics guarantees the outcome, so a failure
  here can only be a defect in this package, never a property of the input.

Every check here is exact, so no statistical outcome raises SoundnessError.
Monte Carlo is a separate cross-check: to simulate a scenario law, pass it
to ``monte_carlo_equidist``, as in
``monte_carlo_equidist(bundle.sampler, bundle.coefficients, n=..., seed=...)``.

Verdict prose is generated from the component results and then re-validated
against them, so the text can never drift away from what was checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .charfun import (
    NEG_INF,
    Decomposition,
    EquationCheck,
    StratifiedCF,
    SubgroupSpec,
    _canonical_terms,
    check_equidistribution,
    decompose_gaussian_haar,
)
from .errors import PreconditionViolated, SoundnessError, UndecomposedSolution
from .sampler import ConvolutionOf, GaussianLine, HaarAnnihilator, Mixture, SamplerSpec
from .steinitz import (
    Rational,
    SolenoidClass,
    SteinitzSpec,
    classify_solenoid,
    coefficient_counts,
    is_automorphism,
    sum_of_squares_is_one,
    two_prime_coefficients,
)
from .tower import SolenoidPoint


# ---------------------------------------------------------------------------
# verdict bundle and its coherence guard

_EQ_PHRASE = {
    "holds": "the functional equation holds",
    "fails": "the functional equation fails",
    "unknown": "the functional equation could not be decided",
}
_DEC_PHRASE = {
    "gaussian_haar": "decomposes as a gaussian convolved with subgroup haar",
    "not_of_form": "is not of gaussian-times-haar form",
    "unknown": "the decomposition could not be decided",
}


@dataclass(frozen=True)
class ScenarioVerdict:
    """Outcome of one scenario run, with self-describing conclusion text.

    The conclusion is assembled from fixed phrases keyed by the component
    results; construction re-checks the pairing, so a verdict whose prose
    contradicts its own fields cannot be instantiated through this module.
    """

    scenario: str
    solenoid: SolenoidClass
    coefficients: tuple[Fraction, ...]
    coefficients_valid: bool
    equation: EquationCheck | None
    decomposition: Decomposition | None
    conclusion: str


def _assert_coherent(v: ScenarioVerdict) -> ScenarioVerdict:
    """Machine check that the conclusion text matches the typed results."""
    text = v.conclusion
    checks = [
        (_EQ_PHRASE, None if v.equation is None else v.equation.verdict),
        (_DEC_PHRASE, None if v.decomposition is None else v.decomposition.kind),
    ]
    for phrases, actual in checks:
        for key, phrase in phrases.items():
            if (phrase in text) != (actual == key):
                raise SoundnessError(
                    f"verdict text and component results disagree: phrase {phrase!r} "
                    f"vs actual outcome {actual!r}"
                )
    return v


def _class_sentence(klass: SolenoidClass) -> str:
    if klass.kind == "unique_infinite_prime":
        return f"the solenoid has exactly one unbounded prime ({klass.unique_prime})"
    if klass.kind == "multiple_infinite_primes":
        listed = ", ".join(str(p) for p in klass.infinite_primes)
        return f"the solenoid has several unbounded primes ({listed})"
    return "the solenoid has no unbounded prime, so its only automorphisms are the sign flips"


def _verdict(
    scenario: str,
    klass: SolenoidClass,
    coeffs: tuple[Fraction, ...],
    eq: EquationCheck | None,
    dec: Decomposition,
    sentences: Sequence[str],
    valid: bool = True,
) -> ScenarioVerdict:
    """A verdict whose conclusion is the class sentence, then `sentences`, checked for coherence."""
    conclusion = "; ".join([_class_sentence(klass), *sentences]) + "."
    return _assert_coherent(ScenarioVerdict(scenario, klass, coeffs, valid, eq, dec, conclusion))


# ---------------------------------------------------------------------------
# invariance of a shifted Gaussian-Haar convolution


def _as_real(shift: "Rational | SolenoidPoint") -> Fraction:
    return shift.real_value if isinstance(shift, SolenoidPoint) else Fraction(shift)


def _signed_inverse_power(c: Fraction, p: int) -> bool:
    a = abs(c)
    if a.numerator != 1 or a.denominator == 1:
        return False
    d = a.denominator
    while d % p == 0:
        d //= p
    return d == 1


def gaussian_haar_scenario(
    spec: SteinitzSpec,
    sigma: Rational,
    subgroup: SubgroupSpec,
    shift: "Rational | SolenoidPoint" = 0,
    coeffs: Sequence[Rational] = (),
) -> ScenarioVerdict:
    """Equidistribution of a shifted Gaussian convolved with subgroup Haar.

    Over a solenoid with exactly one unbounded prime p, a coefficient system
    of signed negative powers of p with unit square sum leaves the law
    mu = shift * gaussian(sigma) * haar(annihilated subgroup) equidistributed
    with its linear form, provided the subgroup is invariant under division
    by p and the shift is killed by the coefficient-sum defect.  After the
    preconditions pass, the law is built once as a sampling law, its cf is
    read from it and run through ``classify_and_conclude``, and that verdict
    is returned: its equation must hold and its decomposition must round-trip
    (which, with the threshold precondition, also gives the division
    invariance).  The law is
    ``ConvolutionOf((GaussianLine(spec, sigma, r), HaarAnnihilator(subgroup)))``
    with r the shift's real value; ``monte_carlo_equidist`` can simulate it.
    """
    sigma = Fraction(sigma)
    if sigma < 0:
        raise PreconditionViolated("sigma must be nonnegative")
    klass = classify_solenoid(spec)
    if klass.kind != "unique_infinite_prime":
        raise PreconditionViolated(
            f"the solenoid must have exactly one unbounded prime, "
            f"found {len(klass.infinite_primes)}"
        )
    p = klass.unique_prime
    coeffs = tuple(Fraction(c) for c in coeffs)
    if len(coeffs) < 2:
        raise PreconditionViolated("need at least two coefficients")
    for c in coeffs:
        if not _signed_inverse_power(c, p):
            raise PreconditionViolated(
                f"coefficient {c} is not a signed negative power of {p}"
            )
    if not sum_of_squares_is_one(coeffs):
        raise PreconditionViolated("squared coefficients must sum to one")
    if subgroup.spec != spec:
        raise PreconditionViolated("the subgroup lives over a different solenoid")
    if subgroup.threshold(p) != NEG_INF:
        raise PreconditionViolated(
            f"the subgroup must be invariant under division by {p}; "
            f"it has the finite threshold v_{p} >= {subgroup.threshold(p)}"
        )
    r = _as_real(shift)
    defect = sum(coeffs) - 1
    if subgroup.reduce_shift(r * defect) != 0:
        raise PreconditionViolated(
            "the shift is incompatible: (sum of coefficients - 1) times the "
            "shift must pair trivially with every subgroup character"
        )

    law = ConvolutionOf((GaussianLine(spec, sigma, r), HaarAnnihilator(subgroup)))
    verdict = classify_and_conclude(spec, coeffs, law.exact_cf())
    eq, dec = verdict.equation, verdict.decomposition
    if eq.verdict != "holds":
        raise SoundnessError(
            f"the invariance equation must hold after the preconditions, "
            f"got {eq.verdict} (witness {eq.witness})"
        )
    if dec.kind != "gaussian_haar" or dec.subgroup != subgroup:
        raise SoundnessError(f"decomposition failed to round-trip: {dec}")
    if not subgroup.trivial:
        # parameters are identifiable only when some character sees them
        if dec.sigma != sigma or dec.shift != subgroup.reduce_shift(r):
            raise SoundnessError(
                f"recovered parameters differ: sigma {dec.sigma} vs {sigma}, "
                f"shift {dec.shift} vs {subgroup.reduce_shift(r)}"
            )
    return verdict


# ---------------------------------------------------------------------------
# the two-prime counterexample and its Gaussian blur


@dataclass(frozen=True)
class CounterexampleBundle:
    """A law that satisfies the equation without being Gaussian-times-Haar."""

    coefficients: tuple[Fraction, ...]
    cf: StratifiedCF
    sampler: SamplerSpec
    verdict: ScenarioVerdict
    mixing_weight: Fraction
    base_prime: int
    partner_prime: int
    sigma: Fraction = Fraction(0)


def _two_prime(
    spec: SteinitzSpec, p: int, q: int, c: Rational, sigma: Fraction | None
) -> CounterexampleBundle:
    """Build the two-prime construction, run each of its exact checks once, and bundle it.

    The law is the mixture c * haar(v_p >= -1) + (1-c) * haar(v_p >= 0);
    sigma None keeps it sharp, a number (zero included) convolves it with a
    centred gaussian of that sigma.  Its cf is read from the law, so it is
    1 on v_p >= 0, c on v_p = -1 and 0 elsewhere, each shell carrying the
    decay exp(-sigma y^2), and it is positive definite as the cf of a law
    (Bochner).  The equation and the decomposition are each checked once on
    that cf, and the support is read from the decomposition.
    """
    if sigma is not None and sigma < 0:
        raise PreconditionViolated("sigma must be nonnegative")
    for prime in (p, q):
        if spec.multiplicity(prime) != math.inf:
            raise PreconditionViolated(
                f"prime {prime} must have infinite multiplicity in the table"
            )
    c = Fraction(c)
    if not 0 < c < 1:
        raise PreconditionViolated("the mixing weight must lie strictly between 0 and 1")
    try:
        system = two_prime_coefficients(p, q)
    except ValueError as err:
        raise PreconditionViolated(str(err)) from None
    coeffs = system.coefficients

    outer = SubgroupSpec.of(spec, {p: -1})
    inner = SubgroupSpec.of(spec, {p: 0})
    law = Mixture((c, 1 - c), (HaarAnnihilator(outer), HaarAnnihilator(inner)))
    if sigma is not None:
        law = ConvolutionOf((GaussianLine(spec, sigma), law))
    cf = law.exact_cf()

    eq = check_equidistribution(cf, coeffs)
    if eq.verdict != "holds":
        raise SoundnessError(
            f"the counterexample equation must hold, got {eq.verdict} "
            f"(witness {eq.witness})"
        )
    dec = decompose_gaussian_haar(cf)
    if dec.support.subgroup != outer:
        raise SoundnessError(
            f"the support must be the outer subgroup {outer}, got {dec.support}"
        )
    if dec.kind != "not_of_form":
        raise SoundnessError(
            f"the law must not decompose as gaussian times haar, got {dec}"
        )

    if sigma is None:
        scenario = "two-prime-counterexample"
        sentences = [
            f"{_EQ_PHRASE[eq.verdict]} for the {len(coeffs)} coefficients "
            f"({system.count} copies of {p}/{q}^{system.order} and one 1/{q}^{system.order})",
            f"yet the law {_DEC_PHRASE[dec.kind]}: it is the two-level haar mixture "
            f"{c} * haar({outer}) + {1 - c} * haar({inner})",
            "the single-unbounded-prime characterization does not extend to this solenoid",
            "the cf is positive definite: it equals the characteristic function of its sampling law",
        ]
    else:
        scenario = "blurred-counterexample"
        sentences = [
            f"{_EQ_PHRASE[eq.verdict]} for the same {len(coeffs)} coefficients after "
            f"blurring by a gaussian with sigma = {sigma}",
            f"the blurred law {_DEC_PHRASE[dec.kind]} although its gaussian factor "
            f"is supported on the whole dual group",
            f"the nonvanishing set of the blurred cf is still the proper subgroup {outer}",
        ]
        if sigma > 0:
            sentences.append(
                "the blurred law itself has full group support: its cf equals one "
                "only at the zero character"
            )
    verdict = _verdict(scenario, classify_solenoid(spec), coeffs, eq, dec, sentences)
    return CounterexampleBundle(coeffs, cf, law, verdict, c, p, q, sigma or Fraction(0))


def two_prime_counterexample(spec: SteinitzSpec, p: int, q: int, c: Rational) -> CounterexampleBundle:
    """Two-level Haar mixture that satisfies the equation on a two-prime solenoid.

    With both p and q unbounded, the coefficient system of b copies of p/q^a
    plus one 1/q^a has unit square sum, and the mixture
    c * haar(v_p >= -1) + (1-c) * haar(v_p >= 0) is equidistributed with its
    linear form while provably failing to be a Gaussian convolved with the
    Haar law of any subgroup.  Every claim is checked exactly; the bundled
    sampler realizes the same law for ``monte_carlo_equidist``.
    """
    return _two_prime(spec, p, q, c, None)


def blurred_counterexample(
    spec: SteinitzSpec, p: int, q: int, c: Rational, sigma: Rational
) -> CounterexampleBundle:
    """Gaussian blur of the two-prime counterexample: full support, same defect.

    Convolving with a nondegenerate Gaussian keeps the functional equation
    and the two-level structure (weights 1 / c / 0 now carry the decay
    exp(-sigma y^2)) but spreads the law over the whole group: the blurred
    cf equals one only at the zero character.  It still admits no
    Gaussian-times-Haar decomposition, so the counterexample is not an
    artifact of living on a proper subgroup.  sigma = 0 degenerates to the
    sharp construction.
    """
    return _two_prime(spec, p, q, c, Fraction(sigma))


# ---------------------------------------------------------------------------
# the full classification pipeline


def classify_and_conclude(
    spec: SteinitzSpec, coeffs: Sequence[Rational], f: StratifiedCF
) -> ScenarioVerdict:
    """Run the whole analysis pipeline on an arbitrary cf and coefficient system.

    Classifies the solenoid, validates the coefficients, checks the
    functional equation, and attempts the Gaussian-times-Haar decomposition.
    Three structural guarantees are enforced on the way out: over a solenoid
    with at most one unbounded prime, a decided equation that holds under a
    valid unit-square system must come with a successful decomposition;
    with no unbounded prime the only automorphisms are the sign flips, so a
    holding equation of two or more coefficients forces |f| = 1 wherever f
    is nonzero, and with a decided decomposition each piece must be one term
    of weight 1 and decay 0 (a shift of haar on a finite subgroup); and a
    nowhere-vanishing cf that decomposes must carry no haar factor (its
    subgroup must be the whole dual group).  Indeterminate component
    results are surfaced verbatim, never asserted against.
    """
    if f.spec != spec:
        raise PreconditionViolated("the function lives over a different solenoid")
    coeffs = tuple(Fraction(x) for x in coeffs)
    if not coeffs:
        raise PreconditionViolated("need at least one coefficient")
    klass = classify_solenoid(spec)
    invalid = {x for x, _ in coefficient_counts(coeffs) if not is_automorphism(spec, x)}
    valid = not invalid
    unit_square = sum_of_squares_is_one(coeffs)

    eq = check_equidistribution(f, coeffs) if valid else None
    dec = decompose_gaussian_haar(f)

    conclusive_class = klass.kind != "multiple_infinite_primes"
    if (
        conclusive_class
        and valid
        and unit_square
        and len(coeffs) >= 2
        and eq is not None
        and eq.verdict == "holds"
        and dec.kind == "not_of_form"
    ):
        raise UndecomposedSolution(
            "the equation holds under a valid unit-square system over a "
            "solenoid with at most one unbounded prime, yet the law failed "
            "to decompose; the decomposition machinery is defective"
        )
    if (
        klass.kind == "no_infinite_prime"
        and valid
        and len(coeffs) >= 2
        and eq.verdict == "holds"
        and dec.kind != "unknown"
    ):
        for s, terms in f.pieces:
            canonical = _canonical_terms(spec, s, terms)
            if len(canonical) != 1 or canonical[0].weight != 1 or canonical[0].decay != 0:
                raise SoundnessError(
                    f"the equation held although |f| differs from 1 on {s}; "
                    f"the equation checker is defective"
                )
    nowhere_zero = dec.support.subgroup == SubgroupSpec.whole(spec)
    if nowhere_zero and dec.kind == "gaussian_haar" and dec.subgroup != SubgroupSpec.whole(spec):
        raise SoundnessError(
            "the cf vanishes nowhere yet the decomposition reports a proper "
            "haar factor; the support analysis is defective"
        )

    sentences = []
    if not valid:
        bad = [str(x) for x in dict.fromkeys(coeffs) if x in invalid]
        sentences.append(
            f"coefficients {', '.join(bad)} are not automorphisms of this "
            f"solenoid, so no equation was checked"
        )
    else:
        if eq.degenerate:
            sentences.append(
                "a single-coefficient system is degenerate: the equation only "
                "restates invariance under one automorphism"
            )
        sentences.append(
            f"{_EQ_PHRASE[eq.verdict]} for coefficients "
            f"({', '.join(str(x) for x in coeffs)})"
        )
        if not unit_square:
            sentences.append("note that the squared coefficients do not sum to one")
    if dec.kind == "gaussian_haar":
        sentences.append(
            f"the law {_DEC_PHRASE[dec.kind]} "
            f"(sigma = {dec.sigma}, subgroup {dec.subgroup}, shift {dec.shift})"
        )
        if nowhere_zero:
            sentences.append(
                "the cf vanishes nowhere, so the haar factor is trivial and "
                "the law is a shifted gaussian"
            )
    elif dec.kind == "not_of_form":
        sentences.append(f"the law {_DEC_PHRASE[dec.kind]} ({dec.reason})")
    else:
        sentences.append(f"{_DEC_PHRASE[dec.kind]} ({dec.reason})")
    return _verdict("classify-and-conclude", klass, coeffs, eq, dec, sentences, valid=valid)
