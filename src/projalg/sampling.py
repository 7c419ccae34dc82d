"""Deterministic sampling helpers.

Every stochastic check in the package draws from a numpy Generator seeded
with a caller-supplied seed (default ``DEFAULT_SEED``), so repeated runs
produce identical reports.  Functions here return plain dicts and tuples
(of integer arrays, for :func:`lattice_points`); the algebra/integration
modules wrap them in their own types.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0x5EED


def rng_from_seed(seed=None) -> np.random.Generator:
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def random_complex(rng, size=None):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def random_element(group, rng, *, box: int = 4):
    """One element: uniform over a finite group, or a lattice point in a box."""
    if group.is_finite:
        return group.element_at(int(rng.integers(group.order)))
    return tuple(int(x) for x in rng.integers(-box, box + 1, size=group.d))


def random_coefficients(group, rng, *, box: int = 4, support: int = 5) -> dict:
    """Coefficient dict for a random element / function.

    Finite groups get full support; lattices get ``support`` points drawn
    from the box (duplicates collapse, which is harmless).
    """
    if group.is_finite:
        return {a: complex(random_complex(rng)) for a in group.elements()}
    out = {}
    for _ in range(support):
        out[random_element(group, rng, box=box)] = complex(random_complex(rng))
    return out


def sample_pairs(group, rng, count: int, *, box: int = 4):
    return [(random_element(group, rng, box=box), random_element(group, rng, box=box))
            for _ in range(count)]


def lattice_points(group, rng, count: int, k: int, *, box: int = 4) -> tuple:
    """k int64 arrays of ``count`` lattice points each, in [-box, box]^D.

    One draw of shape (count, k, D) yields the same points, in the same
    order, as ``count`` rounds of ``k`` calls to :func:`random_element`.
    """
    pts = rng.integers(-box, box + 1, size=(count, k, group.d))
    return tuple(pts[:, i] for i in range(k))
