"""Deterministic sampling helpers.

Every stochastic check in the package draws from a numpy Generator seeded
with a caller-supplied seed (default ``DEFAULT_SEED``), so repeated runs
produce identical reports.  Functions here return plain numbers, tuples and
integer arrays; the algebra/integration modules wrap them in their own types.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0x5EED


def rng_from_seed(seed=None) -> np.random.Generator:
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def random_complex(rng, size=None):
    """Standard complex normals, real then imaginary part of each in turn, so
    ``size=n`` draws the numbers of n calls without ``size``."""
    if size is None:
        return rng.standard_normal() + 1j * rng.standard_normal()
    re, im = rng.standard_normal((size, 2)).T
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
