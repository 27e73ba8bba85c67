"""Core valuation / multiplicity-table arithmetic.

The expected values here are either checked against independent oracles
(sympy factorization, brute-force enumeration) or frozen from small cases
worked out by hand.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from soladic.errors import DepthUnavailable, TermBudgetExceeded
from soladic import steinitz
from soladic.steinitz import (
    INFINITE,
    SolenoidClass,
    SteinitzSpec,
    classify_solenoid,
    coefficients_from_multiplicities,
    in_dual_group,
    is_automorphism,
    solve_multiplicities,
    coefficient_counts,
    sum_of_squares_is_one,
    two_prime_coefficients,
    valuation,
)

F = Fraction


# ---------------------------------------------------------------------------
# independent oracles


def oracle_valuation(x: Fraction, p: int):
    """Valuation via sympy's factorization, no shared code with the package."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    num = sympy.factorint(abs(x.numerator))
    den = sympy.factorint(x.denominator)
    return num.get(p, 0) - den.get(p, 0)


def oracle_tower(mult: dict, n: int):
    """Round-robin enumeration of the defining sequence, written plainly."""
    remaining = dict(mult)
    out = []
    while len(out) < n:
        progressed = False
        for p in sorted(remaining):
            if len(out) == n:
                break
            if remaining[p] > 0:
                out.append(p)
                if remaining[p] is not INFINITE and remaining[p] != math.inf:
                    remaining[p] -= 1
                progressed = True
        if not progressed:
            raise ValueError("sequence exhausted")
    return out


def oracle_member(mult: dict, y: Fraction, scan: int = 80) -> bool:
    """y is a character iff some level denominator clears it."""
    y = Fraction(y)
    if y == 0:
        return True
    try:
        seq = oracle_tower(mult, scan)
    except ValueError:
        seq = oracle_tower(mult, sum(v for v in mult.values()))
    level = 1
    if (y * level).denominator == 1:
        return True
    for a in seq:
        level *= a
        if (y * level).denominator == 1:
            return True
    return False


def oracle_k_vectors(p: int, length: int):
    """Exhaustive search; k_j <= p**(2j) is forced by the defining equation."""
    ranges = [range(p ** (2 * j) + 1) for j in range(1, length + 1)]
    hits = []
    for ks in itertools.product(*ranges):
        if sum(F(k, p ** (2 * j)) for j, k in enumerate(ks, start=1)) == 1:
            hits.append(ks)
    return hits


def oracle_order(base: int, modulus: int) -> int:
    acc, k = base % modulus, 1
    while acc != 1:
        acc = (acc * base) % modulus
        k += 1
    return k


# ---------------------------------------------------------------------------
# valuation


def test_valuation_frozen_cases():
    assert valuation(F(3, 4), 2) == -2
    assert valuation(F(0), 5) == math.inf
    assert valuation(F(18, 5), 3) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize(
    "x",
    [F(3, 4), F(-18, 5), F(1), F(250, 9), F(-7, 128), F(1, 1), F(99, 98)],
)
def test_valuation_matches_factorization(x, p):
    assert valuation(x, p) == oracle_valuation(x, p)


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_is_additive(a, b, p):
    if a == 0 or b == 0:
        assert valuation(a * b, p) == math.inf if a * b == 0 else True
        return
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_ultrametric(a, b, p):
    assert valuation(a + b, p) >= min(valuation(a, p), valuation(b, p))


# ---------------------------------------------------------------------------
# spec construction and the canonical defining sequence


def test_spec_rejects_bad_tables():
    with pytest.raises(ValueError):
        SteinitzSpec.of({4: 1})
    with pytest.raises(ValueError):
        SteinitzSpec.of({2: 0})
    with pytest.raises(ValueError):
        SteinitzSpec.of({2: -3})


@pytest.mark.parametrize(
    "mult,prefix",
    [
        ({2: INFINITE}, (2, 2, 2, 2, 2, 2)),
        ({2: INFINITE, 3: INFINITE}, (2, 3, 2, 3, 2, 3)),
        ({2: 1, 3: INFINITE}, (2, 3, 3, 3, 3, 3)),
        ({2: 2, 3: 1}, (2, 3, 2)),
    ],
)
def test_tower_prefix_frozen(mult, prefix):
    spec = SteinitzSpec.of(mult)
    assert spec.tower_prefix(len(prefix)) == prefix


@pytest.mark.parametrize(
    "mult,n",
    [({2: INFINITE}, 9), ({2: INFINITE, 3: INFINITE}, 11), ({2: 3, 5: 2}, 5)],
)
def test_tower_prefix_matches_oracle(mult, n):
    spec = SteinitzSpec.of(mult)
    assert list(spec.tower_prefix(n)) == oracle_tower(mult, n)


def test_tower_exhaustion():
    spec = SteinitzSpec.of({2: 2, 3: 1})
    assert spec.max_depth == 3
    assert spec.level(3) == 12
    with pytest.raises(DepthUnavailable):
        spec.tower_prefix(4)


def test_circle_spec_has_empty_tower():
    circle = SteinitzSpec.of({})
    assert circle.max_depth == 0
    assert circle.level(0) == 1
    assert circle.tower_prefix(0) == ()
    with pytest.raises(DepthUnavailable):
        circle.level(1)


@pytest.mark.parametrize(
    "mult",
    [{2: INFINITE}, {2: INFINITE, 3: INFINITE}, {2: 1, 3: INFINITE}, {5: 2, 7: 3}, {2: 3, 3: INFINITE, 5: 1}, {}],
)
def test_level_is_the_product_of_the_prefix(mult):
    spec = SteinitzSpec.of(mult)
    for n in range(int(min(spec.max_depth, 40)) + 1):
        assert spec.level(n) == math.prod(spec.tower_prefix(n))


@pytest.mark.parametrize("mult", [{2: INFINITE, 3: INFINITE}, {2: 3, 5: 2}, {2: 1, 3: INFINITE}])
def test_prefixes_asked_in_any_order_match_the_oracle(mult):
    spec = SteinitzSpec.of(mult)
    depths = [3, 1, 0, 2, 5, 4, 5, 1]
    if spec.max_depth == INFINITE:
        depths += [30, 7, 64, 9]
    for n in depths:
        assert list(spec.tower_prefix(n)) == oracle_tower(mult, n)
        assert spec.level(n) == math.prod(spec.tower_prefix(n))


def test_tower_prefix_memory_stays_bounded():
    # every depth from 0 to 1,999 asked for once keeps one prefix, not one per depth
    spec = SteinitzSpec.of({2: INFINITE})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levels = [spec.level(n) for n in range(2_000)]
        del levels
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_depths_are_unavailable(n):
    spec = SteinitzSpec.of({2: INFINITE, 3: 2})
    with pytest.raises(DepthUnavailable, match="negative"):
        spec.tower_prefix(n)
    with pytest.raises(DepthUnavailable, match="negative"):
        spec.level(n)
    with pytest.raises(DepthUnavailable, match="negative"):
        spec.level_valuation(2, n)


def test_levels_multiply_out():
    spec = SteinitzSpec.of({2: INFINITE, 3: INFINITE})
    # A_0 .. A_6 for the alternating sequence 2,3,2,3,...
    assert [spec.level(n) for n in range(7)] == [1, 2, 6, 12, 36, 72, 216]
    assert spec.level_valuation(2, 5) == 3
    assert spec.level_valuation(3, 5) == 2


# ---------------------------------------------------------------------------
# membership in the character group


def test_membership_frozen_cases():
    assert in_dual_group(SteinitzSpec.of({2: INFINITE}), F(5, 8)) is True
    assert in_dual_group(SteinitzSpec.of({2: INFINITE}), F(1, 3)) is False
    assert in_dual_group(SteinitzSpec.of({2: 1, 3: INFINITE}), F(1, 4)) is False


@pytest.mark.parametrize(
    "mult",
    [{2: INFINITE}, {2: 1, 3: INFINITE}, {2: INFINITE, 3: INFINITE}, {}, {5: 2}],
)
@pytest.mark.parametrize(
    "y",
    [F(0), F(1), F(5, 8), F(1, 3), F(1, 4), F(7, 12), F(-3, 50), F(9, 25), F(11, 18)],
)
def test_membership_matches_level_scan(mult, y):
    assert in_dual_group(SteinitzSpec.of(mult), y) == oracle_member(mult, y)


@given(
    st.fractions(min_value=-300, max_value=300, max_denominator=10**4),
    st.fractions(min_value=-300, max_value=300, max_denominator=10**4),
)
def test_members_form_a_group(a, b):
    spec = SteinitzSpec.of({2: INFINITE, 5: 2})
    if in_dual_group(spec, a) and in_dual_group(spec, b):
        assert in_dual_group(spec, a - b)
        assert in_dual_group(spec, a + b)


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphism_frozen_cases():
    two_adic = SteinitzSpec.of({2: INFINITE})
    assert is_automorphism(two_adic, F(1, 2)) is True
    assert is_automorphism(two_adic, F(1)) is True
    assert is_automorphism(two_adic, F(-1)) is True
    assert is_automorphism(two_adic, F(2, 3)) is False
    assert is_automorphism(two_adic, F(0)) is False
    mixed = SteinitzSpec.of({2: INFINITE, 3: 1})
    assert is_automorphism(mixed, F(3)) is False
    assert is_automorphism(mixed, F(-4)) is True


@given(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, -1]),
)
def test_automorphisms_closed_under_product_and_inverse(i, j, s):
    spec = SteinitzSpec.of({2: INFINITE, 3: INFINITE})
    alpha = s * F(2) ** i * F(3) ** j
    assert is_automorphism(spec, alpha)
    assert is_automorphism(spec, 1 / alpha)
    assert is_automorphism(spec, alpha * alpha)


# ---------------------------------------------------------------------------
# membership and automorphisms without factoring outside primes

#: primes far beyond trial division: a sqrt(n) scan of any of them takes minutes
BIG_PRIMES = [10**18 + 3, 2**61 - 1, 10**18 + 9]


def oracle_dual_member(spec, y):
    return all(spec.multiplicity(r) >= e for r, e in sympy.factorint(y.denominator).items())


def oracle_automorphism(spec, alpha):
    primes = set(sympy.factorint(abs(alpha.numerator))) | set(sympy.factorint(alpha.denominator))
    return alpha != 0 and all(spec.multiplicity(r) == INFINITE for r in primes)


def _factor_product(exponents, big):
    return math.prod(p**e for p, e in zip((2, 3, 5, 7), exponents)) * big


@given(
    table=st.dictionaries(
        st.sampled_from([2, 3, 5, 7]), st.sampled_from([1, 2, 3, INFINITE]), max_size=4
    ),
    sign=st.sampled_from([1, -1]),
    num=st.tuples(*[st.integers(0, 4)] * 4),
    den=st.tuples(*[st.integers(0, 4)] * 4),
    num_big=st.sampled_from([0, 1, 11, *BIG_PRIMES]),
    den_big=st.sampled_from([1, 11, 13 * 13, *BIG_PRIMES]),
)
@settings(max_examples=200, deadline=None)
def test_membership_and_automorphisms_match_factorint(table, sign, num, den, num_big, den_big):
    spec = SteinitzSpec.of(table)
    x = sign * Fraction(_factor_product(num, num_big), _factor_product(den, den_big))
    assert in_dual_group(spec, x) == oracle_dual_member(spec, x)
    assert is_automorphism(spec, x) == oracle_automorphism(spec, x)


def test_huge_prime_denominator_is_decided_fast():
    spec = SteinitzSpec.of({2: INFINITE, 3: 2})
    y = Fraction(1, 10**18 + 3)
    start = time.perf_counter()
    assert in_dual_group(spec, y) is False
    assert is_automorphism(spec, y) is False
    assert is_automorphism(spec, 1 / y) is False
    assert in_dual_group(spec, Fraction(10**18 + 3, 8)) is True
    assert time.perf_counter() - start < 1.0


#: the smallest strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12
#: prime bases; each fools every Miller-Rabin base below its last one
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]


def test_is_prime_matches_sympy():
    # every small n, then numbers whose smallest prime factor is beyond the
    # reach of trial division
    large = [
        *BIG_PRIMES,
        *STRONG_PSEUDOPRIMES,
        (10**9 + 7) * (10**9 + 9),
        3317044064679887385961979,  # the largest odd number the bases decide
    ]
    for n in [*range(-10, 20_000), *large]:
        assert steinitz._is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_numbers_beyond_its_proven_bound():
    with pytest.raises(ValueError, match="too large"):
        steinitz._is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        SteinitzSpec.of({10**30 + 57: 1})


# ---------------------------------------------------------------------------
# coefficient systems


def test_coefficient_counts_group_a_system():
    assert coefficient_counts([F(2, 3), 1, F(1, 3), F(2, 3), "1/3"]) == [
        (F(1, 3), 2),
        (F(2, 3), 2),
        (F(1), 1),
    ]
    with pytest.raises(ValueError):
        coefficient_counts([])


def test_sum_squares_frozen_cases():
    assert sum_of_squares_is_one([F(1, 2)] * 4) is True
    assert sum_of_squares_is_one([F(1)]) is True  # degenerate single-term system
    assert sum_of_squares_is_one([F(2, 3), F(2, 3), F(1, 3)]) is True
    assert sum_of_squares_is_one([F(1, 2)] * 3) is False


@pytest.mark.parametrize(
    "p,length,expected",
    [
        (2, 1, [(4,)]),
        (2, 2, [(0, 16), (1, 12), (2, 8), (3, 4), (4, 0)]),
        (3, 1, [(9,)]),
    ],
)
def test_k_vectors_frozen(p, length, expected):
    assert solve_multiplicities(p, length) == expected


@pytest.mark.parametrize("p,length", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_k_vectors_match_bruteforce(p, length):
    assert solve_multiplicities(p, length) == oracle_k_vectors(p, length)


@pytest.mark.parametrize("p,length", [(2, 2), (3, 2), (2, 3)])
def test_k_vectors_induce_unit_coefficient_systems(p, length):
    for ks in solve_multiplicities(p, length):
        coeffs = coefficients_from_multiplicities(p, ks)
        assert sum_of_squares_is_one(coeffs)
        assert all(c == F(1, p**j) for j, c in _label_exponents(p, ks, coeffs))


def test_k_vector_count_is_capped(monkeypatch):
    assert len(solve_multiplicities(2, 5)) == 79_325
    monkeypatch.setattr(steinitz, "MAX_SOLUTIONS", 1_085)
    assert len(solve_multiplicities(2, 4)) == 1_085
    monkeypatch.setattr(steinitz, "MAX_SOLUTIONS", 1_084)
    with pytest.raises(TermBudgetExceeded, match="more than 1084 solutions"):
        solve_multiplicities(2, 4)


@pytest.mark.parametrize("p,length", [(2, 1), (2, 3), (2, 4), (3, 3), (5, 2), (5, 3)])
def test_solution_count_matches_the_listing(p, length):
    count = steinitz._count_solutions(steinitz._weights(p, length), p ** (2 * length))
    assert count == len(solve_multiplicities(p, length))


def test_largest_listed_table_is_lexicographic():
    got = solve_multiplicities(2, 5)
    assert len(got) == 79_325 and got == sorted(got)


@pytest.mark.parametrize("p,length", [(2, 7), (2, 40), (2, 5_000), (1_000_003, 2), (101, 4)])
def test_oversized_table_refuses_before_listing(monkeypatch, p, length):
    def no_listing(*args):
        raise AssertionError("solutions were listed before the count refused them")

    monkeypatch.setattr(steinitz, "_descend", no_listing)
    start = time.perf_counter()
    with pytest.raises(TermBudgetExceeded, match="more than 1000000 solutions"):
        solve_multiplicities(p, length)
    assert time.perf_counter() - start < 1.0


def _label_exponents(p, ks, coeffs):
    out = []
    i = 0
    for j, k in enumerate(ks, start=1):
        for _ in range(k):
            out.append((j, coeffs[i]))
            i += 1
    return out


def test_every_k_vector_has_an_oversized_entry():
    # structural fact about the defining equation, relied on downstream
    for p, length in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for ks in solve_multiplicities(p, length):
            assert any(k > p**j for j, k in enumerate(ks, start=1))


# ---------------------------------------------------------------------------
# two-prime coefficient systems


@pytest.mark.parametrize(
    "p,q,a,b,coeffs",
    [
        (2, 3, 1, 2, (F(2, 3), F(2, 3), F(1, 3))),
        (3, 2, 3, 7, (F(3, 8),) * 7 + (F(1, 8),)),
        (2, 5, 1, 6, (F(2, 5),) * 6 + (F(1, 5),)),
    ],
)
def test_two_prime_frozen(p, q, a, b, coeffs):
    got = two_prime_coefficients(p, q)
    assert (got.order, got.count) == (a, b)
    assert got.coefficients == coeffs


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (3, 7)])
def test_two_prime_invariants(p, q):
    got = two_prime_coefficients(p, q)
    assert got.order == oracle_order(q * q % (p * p), p * p)
    assert got.count == (q ** (2 * got.order) - 1) // (p * p)
    assert sum_of_squares_is_one(got.coefficients)
    spec = SteinitzSpec.of({p: INFINITE, q: INFINITE})
    assert all(is_automorphism(spec, c) for c in got.coefficients)


def test_two_prime_rejects_bad_input():
    with pytest.raises(ValueError):
        two_prime_coefficients(2, 2)
    with pytest.raises(ValueError):
        two_prime_coefficients(2, 4)


def test_two_prime_refuses_to_expand_astronomical_systems():
    from soladic.errors import TermBudgetExceeded

    # order of 3^2 mod 7^2 is 21, so the system has (3^42 - 1)/49 + 1 entries
    with pytest.raises(TermBudgetExceeded):
        two_prime_coefficients(7, 3)
    # the order of 2^2 mod 100003^2 is huge; the search must stop at the cap
    with pytest.raises(TermBudgetExceeded, match="more than"):
        two_prime_coefficients(100003, 2)


# ---------------------------------------------------------------------------
# classification


def test_classification():
    assert classify_solenoid(SteinitzSpec.of({2: INFINITE})) == SolenoidClass(
        "unique_infinite_prime", (2,)
    )
    assert classify_solenoid(
        SteinitzSpec.of({2: INFINITE, 3: INFINITE})
    ) == SolenoidClass("multiple_infinite_primes", (2, 3))
    assert classify_solenoid(SteinitzSpec.of({2: 1, 3: 1})) == SolenoidClass(
        "no_infinite_prime", ()
    )
    assert classify_solenoid(SteinitzSpec.of({})).kind == "no_infinite_prime"


def test_classification_names_the_automorphisms():
    only2 = classify_solenoid(SteinitzSpec.of({2: INFINITE, 3: 2}))
    assert only2.unique_prime == 2
    assert "2" in only2.automorphism_note
    none = classify_solenoid(SteinitzSpec.of({7: 3}))
    assert "±1" in none.automorphism_note or "+1" in none.automorphism_note


def test_automorphism_note_gives_each_unbounded_prime_its_own_exponent():
    one = classify_solenoid(SteinitzSpec.of({2: INFINITE, 3: 2}))
    assert one.automorphism_note == "automorphisms are the signed monomials ± 2^k"
    spec = SteinitzSpec.of({7: INFINITE, 11: INFINITE})
    # the exponents are independent: 7, 11, 7/11 and 1/7 are all automorphisms, 1/3 is not
    assert all(is_automorphism(spec, F(x)) for x in (7, 11, F(7, 11), F(1, 7), -1))
    assert not is_automorphism(spec, F(1, 3))
    two = classify_solenoid(spec)
    assert two.automorphism_note == "automorphisms are the signed monomials ± 7^k1 11^k2"
