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
symmetric and intertwines them: C R(a) C^-1 = L(a).  Only a call of
:func:`regular_reps` builds these dense matrices; elsewhere their one entry
per row is used in index space.  Lattice groups use the operator forms
:func:`apply_R` / :func:`apply_L` instead of matrices.

Every product of coefficient stores runs through one of two kernels
(:func:`_multiply`).  On a finite group, with multiplication table T and
product weights E = exp(i alpha), the dense index-space kernel
:func:`_finite_product` takes coefficient vectors in index order, finds their
supports sf, sg and sums

    h = bincount(T[sf][:, sg], f[sf, None] * g[None, sg] * E[sf][:, sg])

into ``order`` bins, a row block of sf at a time, so it costs O(|supp f|
|supp g|) array work and no per-pair Python call.  The lattice kernel
:func:`_lattice_product` has the same shape: elements of Z^D cannot be
indexed up front, so the pair sums of the int64 support arrays Sa, Sb are
numbered in lexicographic order, by their cell in the bounding box of the
sums when it has no more cells than there are pairs, else by a row sort of
Sa[:, None] + Sb[None], and the weights f(a) g(b) exp(i alpha.phases(Sa, Sb))
are summed into those bins.  Bilinear cocycles give every phase in one array
expression; other lattice cocycles fall back to one ``phase`` call per pair.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cocycles import (Cocycle, _blocks, _require_finite_group,
                       _require_normalized, _require_same_group)
from .errors import ContextMismatchError, RepresentationInconsistencyError
from .groups import LATTICE_COORD_LIMIT, Group

# Coefficients below this modulus are dropped from the support.
PRUNE_TOL = 1e-15


def _coefficients(group: Group, pairs) -> dict:
    """Sum (key, value) pairs over canonical keys: the public boundary."""
    acc: dict = {}
    for k, v in pairs:
        k = group.canonical(k)
        acc[k] = acc.get(k, 0j) + complex(v)
    return acc


class _CoefficientStore:
    """A group and an immutable dict of complex coefficients on canonical keys.

    Public constructors canonicalize keys once, through :func:`_coefficients`;
    internal results use :meth:`_canonical`, and conversions share the dict.
    On finite groups only :meth:`_vector` and :meth:`_from_vector` convert
    between the dict and a dense vector in ``group.indexing()`` order.
    """

    __slots__ = ("group", "_coeffs")

    def __init__(self, group: Group, values: Mapping):
        self._keep(group, _coefficients(group, values.items()))

    @classmethod
    def _canonical(cls, group: Group, coeffs: dict, **fields):
        """Wrap canonical-keyed complex ``coeffs`` without calling ``canonical``."""
        store = cls.__new__(cls)
        for name, value in fields.items():
            setattr(store, name, value)
        store._keep(group, coeffs)
        return store

    @classmethod
    def _from_vector(cls, group: Group, vec: np.ndarray, **fields):
        """Wrap a complex vector in ``group.indexing()`` order, checked and
        pruned by :meth:`_keep`, so a NaN entry is rejected, not dropped."""
        elems, keep = group.indexing()[0], np.flatnonzero(~(np.abs(vec) < PRUNE_TOL))
        if keep.size < len(vec):
            elems, vec = [elems[i] for i in keep.tolist()], vec[keep]
        return cls._canonical(group, dict(zip(elems, vec.tolist())), **fields)

    def _vector(self) -> np.ndarray:
        """The coefficients as a complex vector in ``group.indexing()`` order."""
        index = self.group.indexing()[1]
        vec = np.zeros(self.group.order, dtype=complex)
        vec[[index[a] for a in self._coeffs]] = list(self._coeffs.values())
        return vec

    def _keep(self, group: Group, coeffs: dict) -> None:
        """Reject NaN, inf and overflowing moduli; prune below PRUNE_TOL."""
        for k, v in coeffs.items():
            if not cmath.isfinite(v):
                raise ValueError(f"coefficient at {group.describe(k)} is not finite")
        try:
            if not all(abs(v) >= PRUNE_TOL for v in coeffs.values()):
                coeffs = {k: v for k, v in coeffs.items() if abs(v) >= PRUNE_TOL}
        except OverflowError:
            k = next(k for k, v in coeffs.items() if math.hypot(v.real, v.imag) == math.inf)
            raise ValueError(f"coefficient at {group.describe(k)} is too large: "
                             f"its modulus is not a finite float") from None
        self.group = group
        self._coeffs = coeffs

    @property
    def support(self):
        return self._coeffs.keys()

    def coeff(self, a) -> complex:
        return self._coeffs.get(self.group.canonical(a), 0j)

    def items(self):
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def max_diff(self, other) -> float:
        self._check_context(other)
        keys = set(self._coeffs) | set(other._coeffs)
        return max((abs(self._coeffs.get(k, 0j) - other._coeffs.get(k, 0j))
                    for k in keys), default=0.0)

    def isclose(self, other, tol: float = 1e-12) -> bool:
        return self.max_diff(other) < tol

    def __repr__(self) -> str:
        terms = ", ".join(f"{self.group.describe(a)}: {v:.4g}"
                          for a, v in sorted(self._coeffs.items(), key=lambda t: str(t[0])))
        return f"{type(self).__name__}({{{terms}}})"


class AlgebraElement(_CoefficientStore):
    """Finitely supported combination sum f(a) x(a) in a (group, cocycle) context."""

    __slots__ = ("cocycle",)

    def __init__(self, group: Group, cocycle: Cocycle, coeffs: Mapping):
        _require_same_group(group, cocycle)
        self.cocycle = cocycle
        super().__init__(group, coeffs)

    def _check_context(self, other: "AlgebraElement") -> None:
        _require_same_group(self.group, other)
        if self.cocycle is not other.cocycle and self.cocycle != other.cocycle:
            raise ContextMismatchError("elements carry different cocycles")

    def _like(self, coeffs: dict) -> "AlgebraElement":
        return AlgebraElement._canonical(self.group, coeffs, cocycle=self.cocycle)

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
        return self + -other

    def __neg__(self):
        return self._like({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_context(other)
            return self._product(other)
        if isinstance(other, numbers.Number):
            other = complex(other)
            return self._like({k: v * other for k, v in self._coeffs.items()})
        return NotImplemented

    # x * u reaches __rmul__ only for a non-element x, and scalars commute.
    __rmul__ = __mul__

    def _product(self, other: "AlgebraElement") -> "AlgebraElement":
        return _multiply(self.cocycle, self, other)

    def star(self) -> "AlgebraElement":
        """Involution: x(a) -> x(a^-1) with conjugated coefficients."""
        _require_normalized(self.cocycle, "the involution")
        g = self.group
        if g.is_finite:
            return AlgebraElement._from_vector(
                g, self._vector().conj()[g.inverse_indices()], cocycle=self.cocycle)
        return self._like({tuple(-x for x in a): v.conjugate()
                           for a, v in self._coeffs.items()})


def _finite_product(group: Group, E: np.ndarray, f: np.ndarray,
                    g: np.ndarray) -> np.ndarray:
    """h[ab] = sum_{a,b} f[a] g[b] E[a, b] for vectors in ``group.indexing()`` order.

    ``E`` is indexed like ``group.index_table()``.  The support pairs are
    gathered in row blocks of ``_blocks`` and added in C order, so memory is
    a block's, never order**2.  The result is not pruned.
    """
    sf, sg = np.flatnonzero(f), np.flatnonzero(g)
    h = np.zeros(group.order, dtype=complex)
    for r in _blocks(len(sf), len(sg)):
        rows = np.ix_(sf[r], sg)
        w = f[sf[r], None] * g[None, sg] * E[rows]
        np.add.at(h, group.index_table()[rows].ravel(), w.ravel())
    return h


def _lattice_product(alpha: Cocycle, f: Mapping, g: Mapping) -> dict:
    """sum_{a,b} f(a) g(b) exp(i alpha(a, b)) x(a + b) on Z^D, pruned at PRUNE_TOL.

    Keys of ``f`` and ``g`` must be canonical, so every coordinate is within
    LATTICE_COORD_LIMIT and the int64 pair sums cannot wrap.  The result
    keys are the distinct pair sums in lexicographic order; a kept one
    beyond the limit raises ValueError, as ``LatticeGroup.canonical`` would.
    """
    if not f or not g:
        return {}
    d = alpha.group.d
    Sa = np.array(list(f), dtype=np.int64).reshape(len(f), d)
    Sb = np.array(list(g), dtype=np.int64).reshape(len(g), d)
    fv = np.fromiter(f.values(), dtype=complex, count=len(f))
    gv = np.fromiter(g.values(), dtype=complex, count=len(g))
    lo = Sa.min(axis=0) + Sb.min(axis=0)
    box = (Sa.max(axis=0) + Sb.max(axis=0) - lo + 1).tolist()
    if math.prod(box) <= len(f) * len(g):  # a bin per cell of the box of sums
        keys = np.stack(np.unravel_index(np.arange(math.prod(box)), box), axis=-1) + lo
        bins = np.add.outer(np.ravel_multi_index((Sa - Sa.min(axis=0)).T, box),
                            np.ravel_multi_index((Sb - Sb.min(axis=0)).T, box))
    else:
        keys, bins = _distinct_rows((Sa[:, None] + Sb[None]).reshape(-1, d))
    # The weights about 4096 at a time, each block the same broadcast
    # expression: the bits of one expression, with temporaries of a block.
    w = np.empty((len(f), len(g)), dtype=complex)
    step = max(1, 4096 // len(g))
    for i in range(0, len(f), step):
        r = slice(i, i + step)
        w[r] = fv[r, None] * gv[None] * np.exp(1j * alpha.phases(Sa[r, None], Sb[None]))
    h = _binned_sum(bins, w, len(keys))
    del bins, w  # pair-sized: freed before the result dict is built
    keep = np.flatnonzero(~(np.abs(h) < PRUNE_TOL))  # NaN is kept, and rejected
    rows = keys[keep]
    far = np.flatnonzero(np.abs(rows).max(axis=1) > LATTICE_COORD_LIMIT)
    if far.size:
        raise ValueError(f"lattice coordinates {rows[far[0]].tolist()} exceed "
                         f"2**53 in absolute value")
    return dict(zip(zip(*rows.T.tolist()), h[keep].tolist()))  # no list per key


def _distinct_rows(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of a non-empty 2-D S in lexicographic order, bins).

    ``bins[i]`` is the position of ``S[i]`` among the distinct rows.  This is
    ``np.unique(S, axis=0, return_inverse=True)``, which sorts rows as
    opaque byte strings and is several times slower than a lexsort.
    """
    order = np.lexsort(S.T[::-1])
    rows = S[order]
    first = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=first[1:])
    bins = np.empty(len(rows), dtype=np.intp)
    bins[order] = np.cumsum(first) - 1
    return rows[first], bins


def _binned_sum(bins: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Complex sums of ``w`` into ``n`` bins, accumulated in C order."""
    h = np.zeros(n, dtype=complex)
    np.add.at(h, bins.ravel(), w.ravel())
    return h


@np.errstate(over="ignore", invalid="ignore")  # the store rejects inf and NaN
def _multiply(alpha: Cocycle, f: _CoefficientStore, g: _CoefficientStore):
    """(sum f(a) x(a)) (sum g(b) x(b)) under ``alpha``, as a store like f."""
    fields = {"cocycle": f.cocycle} if isinstance(f, AlgebraElement) else {}
    if f.group.is_finite:
        h = _finite_product(f.group, alpha.phase_exp(), f._vector(), g._vector())
        return type(f)._from_vector(f.group, h, **fields)
    h = _lattice_product(alpha, f._coeffs, g._coeffs)
    return type(f)._canonical(f.group, h, **fields)


def generator(group: Group, alpha: Cocycle, a) -> AlgebraElement:
    """The singleton element x(a)."""
    return AlgebraElement(group, alpha, {a: 1.0})


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


def _require_regular_context(group: Group, alpha: Cocycle) -> None:
    _require_finite_group(group, "the regular representation")
    _require_same_group(group, alpha)
    _require_normalized(alpha, "the regular representation")


def _densify(perm: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Read-only dense matrices: row j holds phase[..., j] in column perm[..., j]."""
    out = np.zeros(perm.shape + perm.shape[-1:], dtype=complex)
    np.put_along_axis(out, perm[..., None], phase[..., None], axis=-1)
    out.setflags(write=False)
    return out


def regular_reps(group: Group, alpha: Cocycle) -> RegularRepPair:
    """Materialize R(a), L(a), and C for a finite group with normalized alpha."""
    _require_regular_context(group, alpha)
    T = group.index_table()
    E = alpha.phase_exp()
    left = T[group.inverse_indices()]
    elems = group.indexing()[0]
    R = dict(zip(elems, _densify(T.T, E.T)))
    L = dict(zip(elems, _densify(left, np.take_along_axis(E, left, 1))))
    C = np.eye(group.order)[group.inverse_indices()]
    C.setflags(write=False)
    return RegularRepPair(group, alpha, R, L, C)


def self_conjugacy_residual(group: Group, alpha: Cocycle) -> float:
    """max over a of |C R(a) C - L(a)|, without building any matrix.

    Row x of both sides has one entry, in column a^-1 x: E[x^-1, a] in
    C R(a) C and E[a, a^-1 x] in L(a), with E = exp(i alpha).
    """
    _require_regular_context(group, alpha)
    E = alpha.phase_exp()
    T = group.index_table()
    inv = group.inverse_indices()
    return float(np.max(np.abs(E[inv, :].T - np.take_along_axis(E, T[inv], 1))))


def conjugation_matrix(group: Group, alpha: Cocycle, *, tol: float = 1e-12) -> np.ndarray:
    """The matrix C[a, b] = delta_{ab, e}, verified to intertwine R and L.

    C is the permutation of the inverse map, hence symmetric and its own
    inverse.  A failure of C R(a) C^-1 = L(a) can only come from an invalid
    or unnormalized cocycle upstream, so it raises rather than reports.
    """
    worst = self_conjugacy_residual(group, alpha)
    C = np.eye(group.order)[group.inverse_indices()]
    C.setflags(write=False)
    if not worst < tol:
        raise RepresentationInconsistencyError(
            f"C R(a) C^-1 = L(a) fails with residual {worst:.3e} (tol {tol:.1e})")
    return C
