"""The two numeric kernels against brute-force definitions."""

import numpy as np
import pytest

from soladic._kernels import cf_sums, kuiper_deltas


def ecdf_deltas(a, b):
    """(D+, D-) by evaluating both empirical cdfs at every pooled point."""
    a, b = list(a), list(b)
    dplus = dminus = 0.0
    for x in a + b:
        d = sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b)
        dplus, dminus = max(dplus, d), max(dminus, -d)
    return dplus, dminus


@pytest.mark.parametrize("seed", range(6))
def test_kuiper_deltas_match_ecdf_scan_with_ties(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 8, size=rng.integers(1, 40)) / 8
    b = rng.integers(0, 8, size=rng.integers(1, 40)) / 8
    assert kuiper_deltas(a, b) == ecdf_deltas(a, b)


@pytest.mark.parametrize("n", [1, (1 << 16) - 1, 1 << 16, (1 << 17) + 3])
def test_cf_sums_match_one_shot_mean_across_chunks(n):
    t = np.random.default_rng(n).random(n)
    multipliers = np.array([0.0, 1.0, -3.0, 8.0, 243.0])
    got = cf_sums(t, multipliers)
    want = [np.exp(2j * np.pi * m * t).mean() for m in multipliers]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

