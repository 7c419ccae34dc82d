"""Derivations and phase automorphisms on abelian carriers.

A label-additive weight sigma (sigma(ab) = sigma(a) + sigma(b)) defines a
derivation D x(a) = sigma(a) x(a): the Leibniz rule holds for any cocycle
because only the additivity of the labels enters, and the integral of any
derived element vanishes since sigma(e) = 0.

On integer-vector groups the exponentiated derivations are the phase
automorphisms S(phi) x(m) = exp(-i phi . m) x(m).  On (Z_n)^D the phases
must be multiples of 2 pi / n to be well defined on residues -- and for the
same wrap-around reason no coordinate derivation is offered there: an
additive map from a finite group into the complex numbers is identically
zero, so only the quantized automorphisms survive.
"""

from __future__ import annotations

import cmath
import itertools
from typing import Callable, Sequence

import numpy as np

from . import sampling
from .algebra import AlgebraElement
from .cocycles import Cocycle, _require_same_group
from .errors import UnsupportedOperationError
from .groups import CyclicPowerGroup, Group, LatticeGroup
from .integration import (GroupFunction, _random_function, as_algebra_element,
                          ati_integral, invert)
from .report import VerificationReport


class Derivation:
    """Base: a validated label-additive weight sigma."""

    group: Group

    def sigma(self, a) -> complex:
        raise NotImplementedError


class CoordinateDerivation(Derivation):
    """x(m) -> -i m[axis] x(m) on the lattice Z^D."""

    def __init__(self, group: Group, axis: int):
        if not isinstance(group, LatticeGroup):
            raise UnsupportedOperationError(
                "coordinate derivations need the lattice; additive maps on "
                "(Z_n)^D wrap around and vanish")
        if not 0 <= axis < group.d:
            raise ValueError(f"axis {axis} out of range for d={group.d}")
        self.group = group
        self.axis = axis

    def sigma(self, a) -> complex:
        return -1j * self.group.canonical(a)[self.axis]


class SigmaDerivation(Derivation):
    """Derivation from a user-supplied additive map sigma: G -> C.

    The constructor rejects non-additive or NaN maps: exhaustively on finite
    groups (one call of ``fn`` per element), on seeded samples for lattices.
    """

    def __init__(self, group: Group, fn: Callable, *, samples: int = 400,
                 box: int = 5, seed: int | None = None, tol: float = 1e-12):
        self.group = group
        self._fn = fn
        if group.is_finite:
            elems = group.indexing()[0]
            sig = np.array([complex(fn(a)) for a in elems])
            lhs, rhs = sig[group.index_table()], sig[:, None] + sig[None, :]
            pairs = itertools.product(elems, repeat=2)
        else:
            A, B = sampling.lattice_points(group, sampling.rng_from_seed(seed),
                                           samples, 2, box=box)
            pairs = list(zip(map(tuple, A.tolist()), map(tuple, B.tolist())))
            lhs = np.array([complex(fn(group.prod(a, b))) for a, b in pairs])
            rhs = np.array([complex(fn(a)) + complex(fn(b)) for a, b in pairs])
        bad = np.flatnonzero(~(np.abs(lhs - rhs) <= tol))
        if bad.size:
            k = int(bad[0])
            a, b = next(itertools.islice(pairs, k, None))
            raise ValueError(
                f"sigma is not additive on ({group.describe(a)}, "
                f"{group.describe(b)}): sigma(ab)={complex(lhs.flat[k])!r} but "
                f"sigma(a)+sigma(b)={complex(rhs.flat[k])!r}")

    def sigma(self, a) -> complex:
        return complex(self._fn(self.group.canonical(a)))


def derive(d: Derivation, u: AlgebraElement) -> AlgebraElement:
    """Apply D: x(a) -> sigma(a) x(a) extended linearly."""
    _require_same_group(d.group, u)
    return u._like(u._keys, np.array([d.sigma(a) * v for a, v in u.items()], complex))


def _random_element(group: Group, alpha: Cocycle, rng, *, box: int = 4) -> AlgebraElement:
    return as_algebra_element(_random_function(group, rng, box=box, support=4), alpha)


def check_leibniz(d: Derivation, group: Group, alpha: Cocycle, *,
                  trials: int = 100, seed: int | None = None,
                  box: int = 4, tol: float = 1e-12) -> VerificationReport:
    """D(u v) = (D u) v + u (D v) on seeded random pairs.

    Holds for any cocycle: both sides of a monomial pair carry
    sigma(a) + sigma(b) times the same phase.
    """
    _require_same_group(group, alpha)
    rng = sampling.rng_from_seed(seed)
    worst = 0.0
    for _ in range(trials):
        u = _random_element(group, alpha, rng, box=box)
        v = _random_element(group, alpha, rng, box=box)
        lhs = derive(d, u * v)
        rhs = derive(d, u) * v + u * derive(d, v)
        worst = max(worst, lhs.max_diff(rhs))
    report = VerificationReport(suite="leibniz")
    report.add("leibniz_rule", worst, tol, detail=f"{trials} random pairs")
    return report


def integral_of_derivation(d: Derivation, u: AlgebraElement) -> complex:
    """integral(D u); identically zero because sigma(e) = 0."""
    return ati_integral(derive(d, u))


class Automorphism:
    """Generator rescaling S(phi): x(m) -> exp(-i phi . m) x(m).

    phi is a real vector, one entry per coordinate; on (Z_n)^D each entry
    must be a multiple of 2 pi / n so the phase is well defined on residues.
    """

    def __init__(self, group: Group, phi: Sequence[float]):
        if not isinstance(group, (CyclicPowerGroup, LatticeGroup)):
            raise UnsupportedOperationError(
                "phase automorphisms need integer-vector coordinates")
        vec = tuple(float(x) for x in phi)
        if len(vec) != group.d:
            raise ValueError(f"expected {group.d} phase entries, got {len(vec)}")
        if isinstance(group, CyclicPowerGroup):
            step = 2.0 * np.pi / group.n
            for x in vec:
                if abs(x - step * round(x / step)) > 1e-9:
                    raise ValueError(
                        f"phase {x!r} is not a multiple of 2*pi/{group.n}; "
                        f"exp(-i phi . m) would be ill-defined on residues")
        self.group = group
        self.phi = vec

    def phase_factor(self, m) -> complex:
        m = self.group.canonical(m)
        return cmath.exp(-1j * sum(p * x for p, x in zip(self.phi, m)))

    def compose(self, other: "Automorphism") -> "Automorphism":
        _require_same_group(self.group, other)
        return Automorphism(self.group,
                            [a + b for a, b in zip(self.phi, other.phi)])

    def inverse(self) -> "Automorphism":
        return Automorphism(self.group, [-x for x in self.phi])


def apply_automorphism(s: Automorphism, u: AlgebraElement) -> AlgebraElement:
    """S(phi) u: each coefficient picks up exp(-i phi . m)."""
    _require_same_group(s.group, u)
    return u._like(u._keys, np.array([s.phase_factor(m) * v for m, v in u.items()], complex))


def measure_invariance_check(s: Automorphism, group: Group, alpha: Cocycle, *,
                             trials: int = 100, seed: int | None = None,
                             box: int = 4, tol: float = 1e-12) -> VerificationReport:
    """The integration functional is S(phi)-invariant; transforms pick up phases.

    Two checks over seeded random data:

    * integral(S(u)) = integral(u) -- exact, since the identity label
      carries phase exp(0) = 1;
    * inverting S(phi) applied to a formal transform multiplies the
      original function by exp(-i phi . m) pointwise.
    """
    _require_same_group(group, alpha)
    rng = sampling.rng_from_seed(seed)
    report = VerificationReport(suite="measure_invariance")
    worst_int = 0.0
    for _ in range(trials):
        u = _random_element(group, alpha, rng, box=box)
        worst_int = max(worst_int,
                        abs(ati_integral(apply_automorphism(s, u)) - ati_integral(u)))
    report.add("integral_invariance", worst_int, tol, detail=f"{trials} trials")
    worst_phase = 0.0
    for _ in range(trials):
        f = _random_function(group, rng, box=box)
        fhat = as_algebra_element(f, alpha)
        g = invert(apply_automorphism(s, fhat))
        expected = GroupFunction(group, {m: s.phase_factor(m) * v
                                         for m, v in f.items()})
        worst_phase = max(worst_phase, g.max_diff(expected))
    report.add("translated_transform_phase", worst_phase, tol,
               detail=f"{trials} trials")
    return report
