"""Scoreboard of the exact layer on a seeded corpus of 300 law trees.

``classify_and_conclude`` runs on every law of ``corpus.law_corpus(0, 300)``.
No input may raise ``SoundnessError`` or an exception outside
``SoladicError``.  The counts of equation verdicts and decomposition kinds
are pinned as measured; the counts of ``unknown`` (per reason, up to the
cell it names) and of named errors are ceilings.  A change that decides
more lowers a ceiling, moves the decided counts with it, and says so.

Each law is pinned too: ``fixtures/corpus_laws.jsonl`` holds one line per
law (its equation verdict and witness, its decomposition's kind, shift,
sigma, subgroup, reason and witness, or the name of the error it raised),
and the first law that differs is named.  ``PYTHONPATH=src python
tests/test_corpus.py`` rewrites that file, so a change that moves a law
shows which one in its diff.
"""

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from corpus import law_corpus
from soladic import CoefficientSystem, SoladicError, SoundnessError, classify_and_conclude, classify_solenoid

SEED, SIZE = 0, 300
LAWS = Path(__file__).parent / "fixtures" / "corpus_laws.jsonl"

EQUATION = {"holds": 77, "fails": 218}
DECOMPOSITION = {"gaussian_haar": 219, "not_of_form": 24}
UNKNOWN_CEILINGS = {
    "decomposition: terms of several phases may cancel": 52,
}
ERROR_CEILINGS = {"TermBudgetExceeded": 5}
THEOREM_CASES = 43  # holding laws under a unit-square system over at most one unbounded prime


def _before_the_cell(reason):
    return reason.split(" on ")[0]


def _text(value):
    if isinstance(value, tuple):  # the support's witness pair
        return [str(y) for y in value]
    return None if value is None else str(value)


def _record(i, v):
    """The line of law i in ``LAWS``: what its verdict decided, as JSON values."""
    eq, dec = v.equation, v.decomposition
    return {
        "law": i,
        "equation": eq.verdict,
        "witness": _text(eq.witness),
        "kind": dec.kind,
        "shift": _text(dec.shift),
        "sigma": _text(dec.sigma),
        "subgroup": _text(dec.subgroup),
        "reason": dec.reason,
        "decomposition_witness": _text(dec.witness),
    }


def run_corpus():
    start = time.perf_counter()
    eq, dec, unknown, errors = Counter(), Counter(), Counter(), Counter()
    theorem_cases, laws = [], []
    for i, (spec, coeffs, law) in enumerate(law_corpus(SEED, SIZE)):
        try:
            v = classify_and_conclude(spec, coeffs, law.exact_cf())
        except SoundnessError as err:
            pytest.fail(f"SoundnessError on law {i}, {law} with {coeffs}: {err}")
        except SoladicError as err:
            errors[type(err).__name__] += 1
            laws.append({"law": i, "error": type(err).__name__})
            continue
        laws.append(_record(i, v))
        eq[v.equation.verdict] += 1
        dec[v.decomposition.kind] += 1
        if v.equation.verdict == "unknown":
            unknown[f"equation: {_before_the_cell(v.equation.note)}"] += 1
        if v.decomposition.kind == "unknown":
            unknown[f"decomposition: {_before_the_cell(v.decomposition.reason)}"] += 1
        if (
            v.equation.verdict == "holds"
            and len(coeffs) >= 2
            and CoefficientSystem.of(coeffs).square_sum == 1
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
        "laws": laws,
    }


@pytest.fixture(scope="module")
def scoreboard():
    return run_corpus()


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


def test_each_law_matches_its_record(scoreboard):
    recorded = [json.loads(line) for line in LAWS.read_text().splitlines()]
    assert len(recorded) == SIZE
    for got, want in zip(scoreboard["laws"], recorded):
        assert got == want, f"law {want['law']} differs from its line in {LAWS.name}"


def test_every_law_not_of_form_has_a_witness(scoreboard):
    found = [law for law in scoreboard["laws"] if law.get("kind") == "not_of_form"]
    assert len(found) == DECOMPOSITION["not_of_form"]
    assert all(law["decomposition_witness"] is not None for law in found), [
        law["law"] for law in found if law["decomposition_witness"] is None
    ]


def test_the_theorem_holds_in_bulk(scoreboard):
    # over at most one unbounded prime, a law whose equation holds under a
    # unit-square system of two or more coefficients is gaussian times haar
    assert scoreboard["theorem"] == ["gaussian_haar"] * THEOREM_CASES


if __name__ == "__main__":
    LAWS.write_text("".join(json.dumps(line) + "\n" for line in run_corpus()["laws"]))
