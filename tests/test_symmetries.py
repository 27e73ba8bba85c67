"""The equation's own symmetries as an oracle on the corpus of ``test_corpus``.

For one coefficient system, if f solves f(y) = prod_j f(a_j y), so does
f∘β for every automorphism β: the equation for f∘β at y is the equation
for f at βy.  So precomposing keeps a decided verdict, and a ``fails``
witness y of f gives the witness y/β of f∘β.  A gaussian-times-haar
decomposition moves with β: sigma becomes sigma·β², the shift shift·β,
and each threshold at p drops by v_p(β).  If f and g solve the equation,
so do f·g and f·ḡ.

Every law of ``corpus.law_corpus(0, 300)`` is precomposed by -1, and by
±p and ±1/p for each unbounded prime p of its solenoid; every pair of
holding laws with the same solenoid and system, a law with itself
included, is multiplied both ways.  Each relation is checked exactly, and
each failure names its law and its automorphism or character.
"""

import time
from fractions import Fraction as F

import pytest

from corpus import law_corpus
from soladic import (
    CoefficientSystem,
    SoladicError,
    SubgroupSpec,
    check_equidistribution,
    classify_solenoid,
    decompose_gaussian_haar,
)
from soladic.charfun import Term, _merge_terms, _values_equal_exact
from soladic.steinitz import valuation

SEED, SIZE = 0, 300

# the relations checked, as counted on the corpus
CHECKED = {"verdict": 1275, "witness": 954, "decomposition": 1063, "product": 608}


def automorphisms(spec):
    """-1, and ±p and ±1/p for each unbounded prime p."""
    primes = classify_solenoid(spec).infinite_primes
    return [F(-1)] + [sign * b for p in primes for b in (F(p), F(1, p)) for sign in (1, -1)]


def times(xs, zs):
    return _merge_terms(Term(x.weight * z.weight, x.decay + z.decay, x.shift + z.shift) for x in xs for z in zs)


def fails_at(f, system, y) -> bool:
    """Whether f(y) differs from prod_j f(a_j y), decided exactly at y from the pieces that hold each a_j y."""
    rhs = [Term(F(1), F(0), F(0))]
    for a, k in system.counts:
        # f(a y) as terms in y, w exp(-d a^2 y^2) e(s a y), to the k-th power by repeated squaring
        factor = [Term(t.weight, t.decay * a * a, t.shift * a) for t in f.piece_at(a * y)]
        while k:
            rhs = times(rhs, factor) if k % 2 else rhs
            factor, k = times(factor, factor), k // 2
    return _values_equal_exact(f.piece_at(y), rhs, y) is False


def moved(dec, beta):
    """The decomposition of f∘β that f's gaussian-times-haar ``dec`` predicts: (sigma, subgroup, shift)."""
    sub = dec.subgroup
    if not sub.trivial:
        sub = SubgroupSpec.of(sub.spec, {p: t - valuation(beta, p) for p, t in sub.thresholds})
    return dec.sigma * beta**2, sub, sub.reduce_shift(dec.shift * beta)


def decomposition_failure(dec, got, beta):
    if got.kind != dec.kind:
        return f"kind {dec.kind} became {got.kind}"
    if dec.kind == "gaussian_haar":
        want = moved(dec, beta)
        have = (got.sigma, got.subgroup, got.subgroup.reduce_shift(got.shift))
        if have != want:
            return "(sigma, subgroup, shift) {} is not the moved {}".format(*map(_text, (have, want)))
    return None


def _text(params):
    sigma, sub, shift = params
    return f"({sigma}, {sub}, {shift})"


def run_symmetries():
    start = time.perf_counter()
    failures = {relation: [] for relation in CHECKED}
    checked = dict.fromkeys(CHECKED, 0)
    holding = []
    for i, (spec, coeffs, law) in enumerate(law_corpus(SEED, SIZE)):
        system = CoefficientSystem.of(coeffs)
        try:
            f = law.exact_cf()
            eq = check_equidistribution(f, system)
        except SoladicError:  # the scoreboard's named errors: nothing decided to move
            continue
        dec = decompose_gaussian_haar(f)
        if eq.verdict == "holds":
            holding.append((i, spec, system, f))
        for beta in automorphisms(spec):
            g = f.precompose(beta)
            where = f"law {i}, beta {beta}"
            if eq.verdict != "unknown":
                checked["verdict"] += 1
                try:
                    got = check_equidistribution(g, system).verdict
                except SoladicError as err:
                    got = type(err).__name__
                if got != eq.verdict:
                    failures["verdict"].append(f"{where}: verdict {eq.verdict} became {got}")
            if eq.verdict == "fails":
                checked["witness"] += 1
                y = eq.witness / beta
                if not fails_at(g, system, y):
                    failures["witness"].append(f"{where}: character {y} = {eq.witness}/beta is no witness")
            if dec.kind != "unknown":
                checked["decomposition"] += 1
                failure = decomposition_failure(dec, decompose_gaussian_haar(g), beta)
                if failure:
                    failures["decomposition"].append(f"{where}: {failure}")
    for a, (i, spec, system, f) in enumerate(holding):
        for j, other_spec, other_system, g in holding[a:]:
            if (other_spec, other_system) != (spec, system):
                continue
            for name, product in (("f·g", f * g), ("f·conj(g)", f * g.conjugate())):
                checked["product"] += 1
                eq = check_equidistribution(product, system)
                if eq.verdict != "holds":
                    failures["product"].append(
                        f"laws {i} and {j}: {name} {eq.verdict}" + (f" at character {eq.witness}" if eq.witness else "")
                    )
    return {"seconds": time.perf_counter() - start, "failures": failures, "checked": checked}


@pytest.fixture(scope="module")
def symmetries():
    return run_symmetries()


def test_symmetries_run_in_tier_one_time(symmetries):
    assert symmetries["seconds"] < 5.0


def test_every_relation_is_checked_as_often_as_counted(symmetries):
    assert symmetries["checked"] == CHECKED


@pytest.mark.parametrize("relation", sorted(CHECKED))
def test_the_relation_holds_on_every_law(symmetries, relation):
    failures = symmetries["failures"][relation]
    assert not failures, f"{len(failures)} failures, first: " + "; ".join(failures[:3])
