"""Seeded random numbers: one counter-based SplitMix64 stream per seed words.

A stream is keyed by seed words, integers in [0, 2^64) such as
``[seed, idx]`` (sweep point idx) or ``[seed, 6, idx, 1]`` (check 6's
projective baseline at point idx). The words are folded into one 64-bit key
in Python ints, and draw i = 0, 1, ... of the stream is SplitMix64's
finalizer of key + (i + 1) * GAMMA (Steele, Lea & Flood, OOPSLA 2014),
computed for a whole block at once in wrapping uint64 arithmetic. The bits
depend on this module alone, so a numpy upgrade does not move them, and
numpy.random is never loaded.
"""

import math

import numpy as np

__all__ = ["Stream", "seed_word", "seed_words"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# the binomial table spans the mode +- BINOMIAL_SPAN_SD (sd + 1); the mass
# outside it is far below the 2^-53 step of a uniform
BINOMIAL_SPAN_SD = 40


def seed_word(w):
    """``w`` as a Python int, refused unless an integer in [0, 2^64)."""
    if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
        raise TypeError(f"seed word {w!r} is not an integer")
    if not 0 <= w <= _MASK:
        raise ValueError(f"seed word {w} is outside [0, 2^64)")
    return int(w)


def seed_words(seed):
    """The words of ``seed``, an int or a list or tuple of ints, as a list."""
    return [seed_word(w) for w in (seed if isinstance(seed, (list, tuple)) else [seed])]


def _mix(z):
    # SplitMix64's finalizer, on a Python int or a uint64 array
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """The draws keyed by ``seed`` (see ``seed_words``), taken in order: a
    call for k + l numbers gives what a call for k and then one for l give,
    for normals when k is even."""

    def __init__(self, seed):
        key = 0
        for w in seed_words(seed):
            key = _mix(((key + _GAMMA) & _MASK) ^ w)
        self._key = key
        self._drawn = 0

    def bits(self, count):
        """The next ``count`` 64-bit draws, uint64."""
        i = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        return _mix(i * _GAMMA + self._key)

    def random(self, count):
        """``count`` uniforms on [0, 1): the top 53 bits times 2^-53."""
        return (self.bits(count) >> 11) * 2.0**-53

    def normal(self, shape):
        """Standard normals by Box-Muller, one pair per two uniforms."""
        size = int(np.prod(shape))
        u = self.random(size + size % 2).reshape(-1, 2)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))  # 1 - u is exact, in (0, 1]
        angle = 2.0 * math.pi * u[:, 1]
        pairs = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        return pairs.reshape(-1)[:size].reshape(shape)

    def binomial(self, n, p, count):
        """``count`` Binomial(n, p) draws, 0 < p < 1, by inverse CDF on the
        pmf table around the mode, built by ratios outward from it."""
        odds = p / (1.0 - p)
        mode = min(n, math.floor((n + 1) * p))
        span = math.ceil(BINOMIAL_SPAN_SD * (math.sqrt(n * p * (1.0 - p)) + 1.0))
        down = np.arange(mode, max(0, mode - span), -1)  # k to k - 1
        up = np.arange(mode, min(n, mode + span))  # k to k + 1
        pmf = np.concatenate([
            np.cumprod(down / (n - down + 1.0) / odds)[::-1],
            [1.0],
            np.cumprod((n - up) / (up + 1.0) * odds),
        ])
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        return mode - len(down) + np.searchsorted(cdf, self.random(count), side="right")
