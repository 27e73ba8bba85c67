"""Exact zero test for rational-weighted sums of roots of unity.

Used to decide pointwise equality of symbolic characteristic-function values:
a sum of weights times exp(2 pi i * angle) with rational angles vanishes iff
the corresponding polynomial is divisible by the cyclotomic polynomial of the
common angle denominator.  Everything is integer/Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

#: largest common angle denominator the exact zero test works with
MAX_ORDER = 4096


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Polynomial division known to be exact; divisor is monic."""
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


def phase_sum_is_zero(terms: Mapping[Fraction, Fraction]) -> bool:
    """Whether sum of weight * exp(2 pi i angle) over (angle -> weight) is zero.

    Exact.  Equal angles are merged first: a sum with no term left is zero,
    and one with one term is not, at any angle.  With two or more terms,
    raises ValueError when their common angle denominator exceeds
    ``MAX_ORDER`` (callers should treat such probes as inconclusive rather
    than guessing).
    """
    merged: dict[Fraction, Fraction] = {}
    for angle, w in terms.items():
        a = Fraction(angle) % 1
        merged[a] = merged.get(a, Fraction(0)) + Fraction(w)
    merged = {a: w for a, w in merged.items() if w != 0}
    if len(merged) <= 1:  # one nonzero weight times a root of unity never vanishes
        return not merged
    order = math.lcm(*[a.denominator for a in merged])
    if order > MAX_ORDER:
        raise ValueError(f"angle denominator {order} exceeds the exact-test cap")
    coeffs = [Fraction(0)] * order
    for a, w in merged.items():
        coeffs[a.numerator * (order // a.denominator) % order] += w
    # remainder modulo the order-th cyclotomic polynomial (monic, so exact)
    phi = cyclotomic(order)
    deg = len(phi) - 1
    for k in range(order - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for i in range(len(phi)):
                coeffs[k - deg + i] -= c * phi[i]
    return all(c == 0 for c in coeffs[:deg])
