"""Exact arithmetic over the multiplicity table that pins down a solenoid.

A compact solenoid (circle included, as the degenerate case) is determined up
to topological isomorphism by a table ``prime -> multiplicity`` with infinity
allowed: the multiplicity says how often the prime divides the defining
sequence.  The dual group of the solenoid is then the additive group of
rationals whose denominators respect that table, so membership, automorphism
and coefficient questions all reduce to valuation bookkeeping.  Everything in
this module is exact (ints and Fractions throughout).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import DepthUnavailable, TermBudgetExceeded

#: multiplicity sentinel for "the prime divides the sequence infinitely often"
INFINITE = math.inf

Rational = Fraction

#: cap on the number of coefficients a two-prime system may expand to
MAX_COEFFICIENTS = 10**6

#: cap on the number of multiplicity vectors solve_multiplicities may list
MAX_SOLUTIONS = 10**6

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError where its bases are not proven exact."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large to test for primality (the limit is {_MR_EXACT_BELOW})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    """ValueError unless p is prime; valuation(y, p) loops forever at p = 1."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _split_by_table(spec: SteinitzSpec, n: int) -> tuple[dict[int, int], int]:
    """Exponents of the table's primes in n != 0, and the rest of |n|.

    The rest is 1 exactly when no other prime divides n.  Nothing beyond the
    table is factored, so the cost does not grow with an outside prime.
    """
    n = abs(n)
    exponents = {}
    for p in spec.primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exponents[p] = e
    return exponents, n


def valuation(x: Rational | int, p: int) -> int | float:
    """p-adic valuation v_p(x); +inf for x == 0.  p is assumed prime."""
    x = Fraction(x)
    if x == 0:
        return INFINITE
    v, n = 0, x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class SteinitzSpec:
    """Immutable prime -> multiplicity table.

    ``multiplicities`` is a sorted tuple of (prime, multiplicity) pairs where
    multiplicity is a positive int or INFINITE.  The empty table is the
    circle.
    """

    multiplicities: tuple[tuple[int, int | float], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.multiplicities, tuple):
            raise TypeError(
                "multiplicities must be a tuple of (prime, multiplicity) pairs; "
                "use SteinitzSpec.of(mapping) to build one from a dict"
            )

    @classmethod
    def of(cls, table: Mapping[int, int | float]) -> "SteinitzSpec":
        items = []
        for p in sorted(table):
            m = table[p]
            _require_prime(p)
            if m != INFINITE and (not isinstance(m, int) or m < 1):
                raise ValueError(f"multiplicity of {p} must be a positive int or INFINITE")
            items.append((p, m))
        return cls(tuple(items))

    def multiplicity(self, p: int) -> int | float:
        for q, m in self.multiplicities:
            if q == p:
                return m
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.multiplicities)

    @property
    def infinite_primes(self) -> tuple[int, ...]:
        return tuple(p for p, m in self.multiplicities if m == INFINITE)

    @property
    def max_depth(self) -> int | float:
        """Length of the defining sequence (INFINITE when any prime is unbounded)."""
        if self.infinite_primes:
            return INFINITE
        return sum(int(m) for _, m in self.multiplicities)

    def tower_prefix(self, n: int) -> tuple[int, ...]:
        """First n terms of the canonical defining sequence.

        Primes are emitted round-robin in increasing order while their
        remaining multiplicity is positive, so {2: inf, 3: inf} yields
        2, 3, 2, 3, ...
        """
        if n < 0:
            raise DepthUnavailable(f"depth {n} is negative")
        if n > self.max_depth:
            raise DepthUnavailable(
                f"defining sequence has only {self.max_depth} terms, {n} requested"
            )
        # one longest prefix is kept per spec and sliced; a longer request at
        # least doubles it, so asking for depths one by one builds O(n) terms
        longest = self.__dict__.get("_prefix", ())
        if len(longest) < n:
            longest = _tower_prefix(self, min(max(n, 2 * len(longest)), self.max_depth))
            object.__setattr__(self, "_prefix", longest)
        return longest[:n]

    def level(self, n: int) -> int:
        """Product of the first n terms of the defining sequence (level 0 is 1).

        Multiplied as one power per prime: a running product over the prefix
        costs time quadratic in n.
        """
        prefix = self.tower_prefix(n)
        return math.prod(p ** prefix.count(p) for p in self.primes)

    def level_valuation(self, p: int, n: int) -> int:
        """How often p occurs among the first n terms."""
        return sum(1 for a in self.tower_prefix(n) if a == p)



def _tower_prefix(spec: SteinitzSpec, n: int) -> tuple[int, ...]:
    remaining = {p: m for p, m in spec.multiplicities}
    out: list[int] = []
    while len(out) < n:
        for p in sorted(remaining):
            if len(out) == n:
                break
            if remaining[p] > 0:
                out.append(p)
                if remaining[p] != INFINITE:
                    remaining[p] -= 1
    return tuple(out)


def in_dual_group(spec: SteinitzSpec, y: Rational | int) -> bool:
    """Whether y lies in the rational character group of the solenoid.

    True iff every prime r satisfies v_r(y) >= -multiplicity(r); only primes
    dividing the denominator can fail.  The table's primes are divided out of
    the denominator, which must leave 1, so no factorization is attempted.
    """
    exponents, rest = _split_by_table(spec, Fraction(y).denominator)
    return rest == 1 and all(spec.multiplicity(r) >= e for r, e in exponents.items())


def is_automorphism(spec: SteinitzSpec, alpha: Rational | int) -> bool:
    """Whether multiplication by alpha is invertible on the character group.

    Requires alpha != 0 and every prime of numerator and denominator to carry
    infinite multiplicity; +-1 always qualify.  The table's primes are
    divided out of both, which must leave 1, so no factorization is attempted.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        return False
    for n in (alpha.numerator, alpha.denominator):
        exponents, rest = _split_by_table(spec, n)
        if rest != 1 or any(spec.multiplicity(r) != INFINITE for r in exponents):
            return False
    return True


def coefficient_counts(coeffs: Iterable[Rational]) -> list[tuple[Fraction, int]]:
    """A coefficient system as a multiset: sorted (coefficient, count) pairs."""
    # Fractions are counted as given: the two-prime system repeats one object
    counts = Counter(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
    if not counts:
        raise ValueError("need at least one coefficient")
    return sorted(counts.items())


def sum_of_squares_is_one(coeffs: Iterable[Rational]) -> bool:
    """Exact check that the squared coefficients sum to one."""
    return sum(c * c * k for c, k in coefficient_counts(coeffs)) == 1


def solve_multiplicities(p: int, length: int) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors (k_1..k_length) with sum k_j/p^(2j) = 1.

    Returned in lexicographic order.  Each solution necessarily has some
    entry k_j > p^j; this structural fact is asserted because downstream
    constructions depend on it.  The count grows quickly (45, 1,085 and
    79,325 solutions for p = 2 at lengths 3, 4 and 5), so the solutions are
    counted first and TermBudgetExceeded is raised, before any is listed,
    when there are more than MAX_SOLUTIONS.
    """
    _require_prime(p)
    if length < 1:
        raise ValueError("length must be >= 1")
    # a solution of a shorter length extends by zeros, so the count only
    # grows with the length: counting up from length 1 refuses a long table
    # at the first length past the cap, with a shallow recursion
    for m in range(1, length + 1):
        if _count_solutions(_weights(p, m), p ** (2 * m)) > MAX_SOLUTIONS:
            raise TermBudgetExceeded(f"p = {p}, length {length} has more than {MAX_SOLUTIONS} solutions")
    out: list[tuple[int, ...]] = []
    _descend(_weights(p, length), 0, p ** (2 * length), [], out)
    for ks in out:
        assert any(k > p**j for j, k in enumerate(ks, start=1))
    return out


def _weights(p: int, length: int) -> list[int]:
    """Cleared denominators: sum k_j/p^(2j) = 1 is sum k_j * p^(2*(length-j)) = p^(2*length)."""
    return [p ** (2 * (length - j)) for j in range(1, length + 1)]


def _count_solutions(weights: Sequence[int], target: int) -> int:
    """Solutions of sum k_j * weights[j] == target (last weight 1), up to MAX_SOLUTIONS + 1.

    Memoized on (j, remaining).  A sum stops as soon as it passes the cap,
    and every state has at least one solution, so the work stays within a
    small multiple of the cap however many solutions there are.
    """
    cap = MAX_SOLUTIONS + 1

    @lru_cache(maxsize=None)
    def count(j: int, remaining: int) -> int:
        if j == len(weights) - 1:
            return 1  # the last weight is 1: its entry takes the rest
        if j == len(weights) - 2:  # one solution per value of this entry
            return min(remaining // weights[j] + 1, cap)
        total = 0
        for k in range(remaining // weights[j] + 1):
            total += count(j + 1, remaining - k * weights[j])
            if total >= cap:
                return cap
        return total

    return count(0, target)


def _descend(weights: Sequence[int], j: int, remaining: int, acc: list[int], out: list) -> None:
    """Append every solution of sum k_i * weights[i] == remaining for i >= j, in lexicographic order."""
    if j == len(weights) - 1:
        out.append(tuple(acc + [remaining]))  # last weight is 1
        return
    w = weights[j]
    for k in range(remaining // w + 1):
        _descend(weights, j + 1, remaining - k * w, acc + [k], out)


def coefficients_from_multiplicities(p: int, ks: Sequence[int]) -> tuple[Rational, ...]:
    """Expand a multiplicity vector into the coefficient list it encodes:
    k_j copies of 1/p^j."""
    out: list[Fraction] = []
    for j, k in enumerate(ks, start=1):
        out.extend([Fraction(1, p**j)] * k)
    return tuple(out)


@dataclass(frozen=True)
class TwoPrimeCoefficients:
    """Coefficient system over a two-prime solenoid with unit square sum.

    b copies of p/q^a and a single 1/q^a, where a is the multiplicative
    order of q^2 modulo p^2 and b = (q^(2a) - 1)/p^2.
    """

    base_prime: int
    partner_prime: int
    order: int
    count: int
    coefficients: tuple[Rational, ...]


def two_prime_coefficients(p: int, q: int) -> TwoPrimeCoefficients:
    if not (_is_prime(p) and _is_prime(q)) or p == q:
        raise ValueError("need two distinct primes")
    mod = p * p
    # power = q^(2a); the system for order a has (power - 1)/p^2 + 1 entries,
    # which only grows with a, so the search stops once that passes the cap
    a, power = 1, q * q
    while (power - 1) // mod + 1 <= MAX_COEFFICIENTS:
        if power % mod == 1:
            b = (power - 1) // mod
            coeffs = (Fraction(p, q**a),) * b + (Fraction(1, q**a),)
            assert sum_of_squares_is_one(coeffs)
            return TwoPrimeCoefficients(p, q, a, b, coeffs)
        power *= q * q
        a += 1
    raise TermBudgetExceeded(
        f"system for ({p}, {q}) has more than {MAX_COEFFICIENTS} coefficients"
    )


@dataclass(frozen=True)
class SolenoidClass:
    """Coarse classification by the number of infinite-multiplicity primes."""

    kind: str  # unique_infinite_prime | multiple_infinite_primes | no_infinite_prime
    infinite_primes: tuple[int, ...]

    @property
    def unique_prime(self) -> int | None:
        return self.infinite_primes[0] if self.kind == "unique_infinite_prime" else None

    @property
    def automorphism_note(self) -> str:
        if self.kind == "no_infinite_prime":
            return "automorphism group is {±1} only"
        monomials = " ".join(f"{p}^k" for p in self.infinite_primes)
        return f"automorphisms are the signed monomials ± {monomials}"


def classify_solenoid(spec: SteinitzSpec) -> SolenoidClass:
    inf = spec.infinite_primes
    if len(inf) == 1:
        return SolenoidClass("unique_infinite_prime", inf)
    if len(inf) > 1:
        return SolenoidClass("multiple_infinite_primes", inf)
    return SolenoidClass("no_infinite_prime", ())
