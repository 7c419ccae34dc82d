"""Deterministic sampling helpers.

Every stochastic check in the package draws from a :class:`SplitMix64`
stream seeded with a caller-supplied seed (default ``DEFAULT_SEED``), so
repeated runs produce identical reports on every platform and numpy
version.  Functions here return plain numbers, tuples and integer arrays;
the algebra/integration modules wrap them in their own types.  They call
only ``uniform(low, high, size)`` and ``integers(low, high, size)``, so a
numpy Generator may stand in for the stream.
"""

from __future__ import annotations

import math
import operator

import numpy as np

DEFAULT_SEED = 0x5EED

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
# uint64 scalars made once: one made per operation costs about as much as
# the operation on a small draw.
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))
_UGAMMA, _M1, _M2 = (np.uint64(k) for k in (_GAMMA, 0xBF58476D1CE4E5B9,
                                            0x94D049BB133111EB))


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


class SplitMix64:
    """Counter-based SplitMix64: word i = 1, 2, ... is _mix(state + i * _GAMMA),
    so n words are one array expression, and one call with ``size=n`` draws
    the words of n calls without ``size``, in C order."""

    def __init__(self, state: int):
        self._state = state

    def _words(self, size) -> np.ndarray:
        n = 1 if size is None else math.prod(size) if isinstance(size, tuple) else size
        z = np.arange(1, n + 1, dtype=np.uint64) * _UGAMMA
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        return _mix(z).reshape(() if size is None else size)

    def uniform(self, low: float, high: float, size=None):
        """k (high - low) 2**-53 + low from the top 53 bits k of each word: exact
        for (-1, 1), where it is k 2**-52 - 1, with no transcendental function."""
        k = (self._words(size) >> _S11).astype(np.float64)
        return (k * ((high - low) * 2.0**-53) + low)[()]

    def integers(self, low: int, high: int, size=None):
        """low + word % (high - low), in [low, high)."""
        return (low + (self._words(size) % np.uint64(high - low)).astype(np.int64))[()]


def rng_from_seed(seed=None) -> SplitMix64:
    """The stream of a non-negative integer seed of any size: the low 64 bits
    are the state, and each higher limb is xor-ed into its first word."""
    seed = DEFAULT_SEED if seed is None else operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    state = seed & _MASK
    for shift in range(64, seed.bit_length(), 64):
        state = int(SplitMix64(state)._words(None)) ^ ((seed >> shift) & _MASK)
    return SplitMix64(state)


def random_complex(rng, size=None):
    """Complex values uniform on [-1, 1)^2, real then imaginary part of each in
    turn, so ``size=n`` draws the numbers of n calls without ``size``."""
    if size is None:
        re, im = rng.uniform(-1.0, 1.0, 2)
        return complex(re, im)
    re, im = rng.uniform(-1.0, 1.0, (size, 2)).T
    return re + 1j * im


def random_element(group, rng, *, box: int = 4):
    """One lattice point in [-box, box]^D."""
    return tuple(int(x) for x in rng.integers(-box, box + 1, size=group.d))


def lattice_points(group, rng, count: int, k: int, *, box: int = 4) -> tuple:
    """k int64 arrays of ``count`` lattice points each, in [-box, box]^D.

    One draw of shape (count, k, D) yields the same points, in the same
    order, as ``count`` rounds of ``k`` calls to :func:`random_element`.
    """
    pts = rng.integers(-box, box + 1, size=(count, k, group.d))
    return tuple(pts[:, i] for i in range(k))
