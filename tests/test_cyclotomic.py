"""Zero test for weighted root-of-unity sums, cross-checked against floats."""

import cmath
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from soladic import cyclotomic as cyclotomic_module
from soladic.cyclotomic import cyclotomic, phase_sum_is_zero

F = Fraction


def test_known_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    # degree of the n-th cyclotomic polynomial is Euler's totient
    assert len(cyclotomic(105)) - 1 == 48


def test_known_vanishing_sums():
    assert phase_sum_is_zero({})
    assert phase_sum_is_zero({F(0): F(0)})
    # all cube roots of unity
    assert phase_sum_is_zero({F(0): F(1), F(1, 3): F(1), F(2, 3): F(1)})
    # exp(pi i/3) - exp(2 pi i/3) - 1 = 0
    assert phase_sum_is_zero({F(1, 6): F(1), F(1, 3): F(-1), F(0): F(-1)})
    # opposite points cancel
    assert phase_sum_is_zero({F(1, 8): F(3, 7), F(5, 8): F(3, 7)})


def test_known_nonvanishing_sums():
    assert not phase_sum_is_zero({F(0): F(1)})
    assert not phase_sum_is_zero({F(1, 3): F(1), F(2, 3): F(1)})  # sums to -1
    assert not phase_sum_is_zero({F(0): F(1), F(1, 2): F(1, 2)})
    assert not phase_sum_is_zero({F(1, 5): F(1), F(2, 5): F(1)})
    # one nonzero term never vanishes, at any order, past the cap too
    assert not phase_sum_is_zero({F(1, 9973): F(1)})
    assert not phase_sum_is_zero({F(1, 9973): F(1), F(9974, 9973): F(-3, 2)})  # merges to weight -1/2


def test_angles_are_normalized_mod_one():
    assert phase_sum_is_zero({F(7, 3): F(1), F(1, 3): F(-1)})
    assert phase_sum_is_zero({F(-1, 4): F(2), F(3, 4): F(-2)})


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=119).map(lambda k: F(k, 120)),
        st.fractions(min_value=-5, max_value=5, max_denominator=40),
        max_size=6,
    )
)
def test_matches_float_evaluation(terms):
    total = sum(
        float(w) * cmath.exp(2j * cmath.pi * float(a)) for a, w in terms.items()
    )
    if phase_sum_is_zero(terms):
        assert abs(total) < 1e-9
    else:
        # exact nonzero sums of bounded height stay well away from zero
        assert abs(total) > 1e-12


def test_oversized_orders_are_refused():
    import pytest

    with pytest.raises(ValueError):
        phase_sum_is_zero({F(1, 9973): F(1), F(2, 9973): F(1)})


def test_order_cap_is_the_module_constant(monkeypatch):
    import pytest

    assert not phase_sum_is_zero({F(1, 7): F(1), F(2, 7): F(1)})
    monkeypatch.setattr(cyclotomic_module, "MAX_ORDER", 6)
    with pytest.raises(ValueError, match="exceeds the exact-test cap"):
        phase_sum_is_zero({F(1, 7): F(1), F(2, 7): F(1)})
