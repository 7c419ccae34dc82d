"""Formal elements of the projective group algebra and its regular action.

An :class:`AlgebraElement` is a finitely supported complex combination
``sum_a f(a) x(a)`` over a fixed (group, cocycle) context.  Products follow
the structure constants ``x(a) x(b) = exp(i alpha(a, b)) x(ab)``; the
involution sends ``x(a)`` to ``x(a^-1)`` and conjugates coefficients, which
squares to the identity precisely because normalized cocycles have
``alpha(a, a^-1) = 0``.

For finite groups, :func:`regular_reps` materializes right and left
multiplication as matrices indexed by group elements,

    R(a)[b, c] = delta_{ba, c} exp(i alpha(b, a)),
    L(a)[b, c] = delta_{ac, b} exp(i alpha(a, c)),

together with the conjugation matrix C[a, b] = delta_{ab, e}, which is
symmetric and intertwines them: C R(a) C^-1 = L(a).  Lattice groups use the
operator forms :func:`apply_R` / :func:`apply_L` instead of matrices.

Every product of coefficient dicts runs through one of two kernels
(:func:`_multiply`).  On a finite group, with multiplication table T and
product weights E = exp(i alpha), the dense index-space kernel
:func:`_finite_product` maps the supports sf, sg to element indices and sums

    h = bincount(T[sf][:, sg], f[sf, None] * g[None, sg] * E[sf][:, sg])

into ``order`` bins, so it costs O(|supp f| |supp g|) array work and no
per-pair Python call.  On the lattice, whose elements cannot be indexed, a
sparse dict loop visits the support pairs.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cocycles import Cocycle
from .errors import (ContextMismatchError, NormalizationRequiredError,
                     RepresentationInconsistencyError, UnsupportedOperationError)
from .groups import Group

# Coefficients below this modulus are dropped from the support.
PRUNE_TOL = 1e-15


class AlgebraElement:
    """Finitely supported combination sum f(a) x(a) in a (group, cocycle) context."""

    __slots__ = ("group", "cocycle", "_coeffs")

    def __init__(self, group: Group, cocycle: Cocycle, coeffs: Mapping):
        if cocycle.group != group:
            raise ContextMismatchError("cocycle was built on a different group")
        acc: dict = {}
        for k, v in coeffs.items():
            k = group.canonical(k)
            acc[k] = acc.get(k, 0j) + complex(v)
        self.group = group
        self.cocycle = cocycle
        self._coeffs = {k: v for k, v in acc.items() if abs(v) >= PRUNE_TOL}

    # -- access -----------------------------------------------------------

    @property
    def support(self):
        return self._coeffs.keys()

    def coeff(self, a) -> complex:
        return self._coeffs.get(self.group.canonical(a), 0j)

    def items(self):
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    # -- algebra ----------------------------------------------------------

    def _check_context(self, other: "AlgebraElement") -> None:
        if self.group != other.group:
            raise ContextMismatchError("elements live on different groups")
        if self.cocycle is not other.cocycle and self.cocycle != other.cocycle:
            raise ContextMismatchError("elements carry different cocycles")

    def _like(self, coeffs: Mapping) -> "AlgebraElement":
        return AlgebraElement(self.group, self.cocycle, coeffs)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_context(other)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0j) + v
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_context(other)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0j) - v
        return self._like(out)

    def __neg__(self):
        return self._like({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_context(other)
            return self._product(other)
        if isinstance(other, numbers.Number):
            return self._like({k: v * other for k, v in self._coeffs.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self._like({k: other * v for k, v in self._coeffs.items()})
        return NotImplemented

    def _product(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._like(_multiply(self.group, self.cocycle,
                                    self._coeffs, other._coeffs))

    def star(self) -> "AlgebraElement":
        """Involution: x(a) -> x(a^-1) with conjugated coefficients."""
        if not self.cocycle.normalized:
            raise NormalizationRequiredError(
                "the involution needs alpha(a, a^-1) = 0; normalize the cocycle first")
        g = self.group
        return self._like({g.inv(a): v.conjugate() for a, v in self._coeffs.items()})

    # -- comparison helpers -------------------------------------------------

    def max_diff(self, other: "AlgebraElement") -> float:
        self._check_context(other)
        keys = set(self._coeffs) | set(other._coeffs)
        if not keys:
            return 0.0
        return max(abs(self._coeffs.get(k, 0j) - other._coeffs.get(k, 0j))
                   for k in keys)

    def isclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        return self.max_diff(other) < tol

    def __repr__(self) -> str:
        terms = ", ".join(f"{self.group.describe(a)}: {v:.4g}"
                          for a, v in sorted(self._coeffs.items(), key=lambda t: str(t[0])))
        return f"AlgebraElement({{{terms}}})"


def _finite_product(group: Group, E: np.ndarray, f: Mapping,
                    g: Mapping) -> dict:
    """sum_{a,b} f(a) g(b) E[a, b] x(ab) on a finite group, pruned at PRUNE_TOL.

    Keys of ``f`` and ``g`` must be canonical; ``E`` is indexed like
    ``group.index_table()``.  Only the support pairs are gathered, so
    memory is O(|f| |g|), never order**2.
    """
    if not f or not g:
        return {}
    elems, index = group.indexing()
    rows = np.ix_([index[a] for a in f], [index[b] for b in g])
    fv = np.fromiter(f.values(), dtype=complex, count=len(f))
    gv = np.fromiter(g.values(), dtype=complex, count=len(g))
    bins = group.index_table()[rows].ravel()
    w = (fv[:, None] * gv[None, :] * E[rows]).ravel()
    h = np.empty(group.order, dtype=complex)
    h.real = np.bincount(bins, w.real, group.order)
    h.imag = np.bincount(bins, w.imag, group.order)
    return {elems[i]: complex(h[i])
            for i in np.flatnonzero(np.abs(h) >= PRUNE_TOL)}


def _multiply(group: Group, alpha: Cocycle, f: Mapping, g: Mapping) -> dict:
    """Coefficients of (sum f(a) x(a)) (sum g(b) x(b)) over canonical keys."""
    if group.is_finite:
        return _finite_product(group, alpha.phase_exp(), f, g)
    out: dict = {}
    for a, fa in f.items():
        for b, gb in g.items():
            c = group.prod(a, b)
            out[c] = out.get(c, 0j) + fa * gb * cmath.exp(1j * alpha.phase(a, b))
    return out


def generator(group: Group, alpha: Cocycle, a) -> AlgebraElement:
    """The singleton element x(a)."""
    return AlgebraElement(group, alpha, {group.canonical(a): 1.0})


def multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of x(a) x(b) = exp(i alpha(a, b)) x(ab)."""
    return u * v


def involution(u: AlgebraElement) -> AlgebraElement:
    """Antilinear involution u -> u*; see :meth:`AlgebraElement.star`."""
    return u.star()


def apply_R(a, u: AlgebraElement) -> AlgebraElement:
    """Right multiplication u -> u x(a); works on all groups including lattices."""
    return u * generator(u.group, u.cocycle, a)


def apply_L(a, u: AlgebraElement) -> AlgebraElement:
    """Left multiplication u -> x(a) u; works on all groups including lattices."""
    return generator(u.group, u.cocycle, a) * u


@dataclass(frozen=True)
class RegularRepPair:
    """Right/left regular matrices and the conjugation matrix of a finite group."""

    group: Group
    cocycle: Cocycle
    R: dict
    L: dict
    C: np.ndarray


def regular_reps(group: Group, alpha: Cocycle) -> RegularRepPair:
    """Materialize R(a), L(a), and C for a finite group with normalized alpha."""
    if not group.is_finite:
        raise UnsupportedOperationError(
            "regular matrices exist for finite groups; use apply_R/apply_L on lattices")
    if alpha.group != group:
        raise ContextMismatchError("cocycle was built on a different group")
    if not alpha.normalized:
        raise NormalizationRequiredError(
            "regular matrices assume a normalized cocycle; call normalize() first")
    n = group.order
    T = group.index_table()
    A = alpha.phase_matrix()
    inv = group.inverse_indices()
    ar = np.arange(n)
    R: dict = {}
    L: dict = {}
    for ia in range(n):
        a = group.element_at(ia)
        Rm = np.zeros((n, n), dtype=complex)
        Rm[ar, T[:, ia]] = np.exp(1j * A[:, ia])
        Rm.setflags(write=False)
        R[a] = Rm
        Lm = np.zeros((n, n), dtype=complex)
        Lm[T[ia, :], ar] = np.exp(1j * A[ia, :])
        Lm.setflags(write=False)
        L[a] = Lm
    C = np.zeros((n, n))
    C[ar, inv] = 1.0
    C.setflags(write=False)
    return RegularRepPair(group, alpha, R, L, C)


def conjugation_matrix(group: Group, alpha: Cocycle, *, tol: float = 1e-12) -> np.ndarray:
    """The matrix C[a, b] = delta_{ab, e}, verified to intertwine R and L.

    C is the permutation of the inverse map, hence symmetric and its own
    inverse.  A failure of C R(a) C^-1 = L(a) can only come from an invalid
    or unnormalized cocycle upstream, so it raises rather than reports.
    """
    pair = regular_reps(group, alpha)
    C = pair.C
    if not np.array_equal(C, C.T):
        raise RepresentationInconsistencyError("conjugation matrix is not symmetric")
    worst = 0.0
    for a in group.elements():
        worst = max(worst, float(np.max(np.abs(C @ pair.R[a] @ C - pair.L[a]))))
    if worst >= tol:
        raise RepresentationInconsistencyError(
            f"C R(a) C^-1 = L(a) fails with residual {worst:.3e} (tol {tol:.1e})")
    return C
