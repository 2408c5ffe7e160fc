"""The seeded SplitMix64 streams of damlab.rng: bits, uniforms, normals and
binomials."""

import numpy as np
import pytest
from scipy import stats

from damlab.rng import Stream, seed_words


def test_draws_are_splitmix64_outputs():
    # SplitMix64 from state 0 (Steele, Lea & Flood's reference sequence)
    stream = Stream(0)
    stream._key = 0
    assert stream.bits(3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]


def test_same_words_same_bits():
    assert np.array_equal(Stream([7, 6, 2, 1]).bits(100), Stream((7, 6, 2, 1)).bits(100))
    assert np.array_equal(Stream(7).bits(100), Stream([np.uint64(7)]).bits(100))


def test_distinct_words_distinct_streams():
    words = [[0], [1], [2], [0, 0], [0, 1], [1, 0], [1, 2], [2, 1], [1, 2, 0],
             [2**64 - 1], [20260817, 6, 3], [20260817, 6, 3, 1], [20260817, 6, 3, 0]]
    draws = [set(Stream(w).bits(64).tolist()) for w in words]
    for i in range(len(draws)):
        for j in range(i):
            assert not draws[i] & draws[j], (words[i], words[j])


def test_draws_are_taken_in_order():
    stream = Stream([3, 1])
    parts = np.concatenate([stream.random(5), stream.random(8), stream.random(1)])
    assert np.array_equal(parts, Stream([3, 1]).random(14))
    u = Stream(9).random(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


@pytest.mark.parametrize("seed", [-1, 2**64, [1, -1], [2**64]])
def test_seed_words_refuse_words_outside_u64(seed):
    with pytest.raises(ValueError, match=r"is outside \[0, 2\^64\)"):
        seed_words(seed)


@pytest.mark.parametrize("seed", [1.5, True, [1, 1.0], "7"])
def test_seed_words_refuse_non_integers(seed):
    with pytest.raises(TypeError, match="is not an integer"):
        seed_words(seed)


def test_normal_moments():
    count = 400_000
    z = Stream([5, 1]).normal(count)
    se = 1.0 / np.sqrt(count)
    # standard errors of the first four moments of a standard normal
    assert abs(z.mean()) < 4.0 * se
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0) * se
    assert abs((z**3).mean()) < 4.0 * np.sqrt(15.0) * se
    assert abs((z**4).mean() - 3.0) < 4.0 * np.sqrt(96.0) * se
    assert Stream(5).normal((3, 2, 2)).shape == (3, 2, 2)


def test_binomial_frequencies_match_scipy():
    n, p, count = 10, 0.3, 100_000
    k = Stream([5, 2]).binomial(n, p, count)
    observed = np.bincount(k, minlength=n + 1)
    assert observed.sum() == count and len(observed) == n + 1
    expected = count * stats.binom.pmf(np.arange(n + 1), n, p)
    # the tail beyond 7 holds 0.16 percent: one bin, so each expects >= 5
    observed = np.append(observed[:8], observed[8:].sum())
    expected = np.append(expected[:8], expected[8:].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_binomial_mean_and_variance_at_large_n():
    n, p, count = 10_000, 0.3, 50_000
    k = Stream([5, 3]).binomial(n, p, count)
    mean, var = stats.binom.stats(n, p)
    assert abs(k.mean() - mean) < 4.0 * np.sqrt(var / count)
    assert abs(k.var() - var) < 4.0 * var * np.sqrt(2.0 / count)
    assert 0 <= k.min() and k.max() <= n
