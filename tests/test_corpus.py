"""Scoreboard of the exact layer on a seeded corpus of 300 law trees.

``classify_and_conclude`` runs on every law of ``corpus.law_corpus(0, 300)``.
No input may raise ``SoundnessError`` or an exception outside
``SoladicError``.  The counts of equation verdicts and decomposition kinds
are pinned as measured; the counts of ``unknown`` (per reason; an equation's
reason names the cell where every probe agreed) and of named errors are
ceilings.  A change that decides more lowers a ceiling, moves the decided
counts with it, and says so.
"""

import time
from collections import Counter

import pytest

from corpus import law_corpus
from soladic import SoladicError, SoundnessError, classify_and_conclude, classify_solenoid, sum_of_squares_is_one

SEED, SIZE = 0, 300

EQUATION = {"holds": 77, "fails": 218}
DECOMPOSITION = {"gaussian_haar": 219, "not_of_form": 2}
UNKNOWN_CEILINGS = {
    "decomposition: multi-term strata may vanish at points": 74,
}
ERROR_CEILINGS = {"TermBudgetExceeded": 5}
THEOREM_CASES = 43  # holding laws under a unit-square system over at most one unbounded prime


@pytest.fixture(scope="module")
def scoreboard():
    start = time.perf_counter()
    eq, dec, unknown, errors = Counter(), Counter(), Counter(), Counter()
    theorem_cases = []
    for spec, coeffs, law in law_corpus(SEED, SIZE):
        try:
            v = classify_and_conclude(spec, coeffs, law.exact_cf())
        except SoundnessError as err:
            pytest.fail(f"SoundnessError on {law} with {coeffs}: {err}")
        except SoladicError as err:
            errors[type(err).__name__] += 1
            continue
        eq[v.equation.verdict] += 1
        dec[v.decomposition.kind] += 1
        if v.equation.verdict == "unknown":
            unknown[f"equation: {v.equation.note}"] += 1
        if v.decomposition.kind == "unknown":
            unknown[f"decomposition: {v.decomposition.reason}"] += 1
        if (
            v.equation.verdict == "holds"
            and len(coeffs) >= 2
            and sum_of_squares_is_one(coeffs)
            and classify_solenoid(spec).kind != "multiple_infinite_primes"
        ):
            theorem_cases.append(v.decomposition.kind)
    return {
        "seconds": time.perf_counter() - start,
        "eq": eq,
        "dec": dec,
        "unknown": unknown,
        "errors": errors,
        "theorem": theorem_cases,
    }


def test_corpus_runs_in_tier_one_time(scoreboard):
    assert scoreboard["seconds"] < 5.0


def test_decided_counts_are_pinned(scoreboard):
    assert {k: n for k, n in scoreboard["eq"].items() if k != "unknown"} == EQUATION
    assert {k: n for k, n in scoreboard["dec"].items() if k != "unknown"} == DECOMPOSITION


def test_unknowns_and_errors_stay_under_their_ceilings(scoreboard):
    for reason, n in scoreboard["unknown"].items():
        assert n <= UNKNOWN_CEILINGS.get(reason, 0), reason
    for name, n in scoreboard["errors"].items():
        assert n <= ERROR_CEILINGS.get(name, 0), name


def test_every_law_is_accounted_for(scoreboard):
    assert sum(scoreboard["eq"].values()) + sum(scoreboard["errors"].values()) == SIZE


def test_the_theorem_holds_in_bulk(scoreboard):
    # over at most one unbounded prime, a law whose equation holds under a
    # unit-square system of two or more coefficients is gaussian times haar
    assert scoreboard["theorem"] == ["gaussian_haar"] * THEOREM_CASES
