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
:func:`_lattice_product` runs the same loop: elements of Z^D cannot be
indexed up front, so the pair sums of the stores' key rows Sa, Sb are
numbered in lexicographic order, by their cell in the bounding box of the
sums when it has no more cells than there are pairs, else by a row sort of
Sa[:, None] + Sb[None], and each block's weights f(a) g(b) exp(i alpha(a, b))
are added into its bins.  Bilinear cocycles give every phase in one array
expression; other lattice cocycles fall back to one ``phase`` call per pair.
"""

from __future__ import annotations

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


def _coefficients(group: Group, pairs) -> tuple:
    """Sum (key, value) pairs over canonical keys: the public boundary.
    Returns the store's key rows and the sums, in first-seen order."""
    acc: dict = {}
    for k, v in pairs:
        k = group.canonical(k)
        acc[k] = acc.get(k, 0j) + complex(v)
    if group.is_finite:
        index = group.indexing()[1]
        keys = np.array([index[k] for k in acc], dtype=np.int64).reshape(len(acc), 1)
    else:
        keys = np.array(list(acc), dtype=np.int64).reshape(len(acc), group.d)
    return keys, np.array(list(acc.values()), dtype=complex)


def _aligned(f: "_CoefficientStore", g: "_CoefficientStore") -> tuple:
    """(key rows, f's values, g's values) on f's rows, then g's new rows, in store
    order; each value added to a zero, as a dict sum of the items adds it."""
    S = np.concatenate([f._keys, g._keys])
    bins = _distinct_rows(S)[1]
    a, b = np.zeros(len(S), dtype=complex), np.zeros(len(S), dtype=complex)
    a[bins[:len(f)]] += f._vals
    b[bins[len(f):]] += g._vals
    first = np.concatenate([np.ones(len(f), dtype=bool), a[bins[len(f):]] == 0])
    bins = bins[first]  # a stored value is never 0, so a's zeros are g's new rows
    return S[first], a[bins], b[bins]


class _CoefficientStore:
    """A group, distinct int64 key rows and their complex values, both read-only.

    A key row is an element's index in ``group.indexing()`` order on a finite
    group, its coordinates on Z^D; the identity is the all-zero row on both.
    Public constructors canonicalize keys; internal results go through :meth:`_wrap`.
    """

    __slots__ = ("group", "_keys", "_vals")

    def __init__(self, group: Group, values: Mapping):
        self._keep(group, *_coefficients(group, values.items()))

    @classmethod
    def _wrap(cls, group: Group, keys: np.ndarray, vals: np.ndarray, **fields):
        """Wrap distinct key rows and their values, checked and pruned by :meth:`_keep`."""
        store = cls.__new__(cls)
        for name, value in fields.items():
            setattr(store, name, value)
        store._keep(group, keys, vals)
        return store

    @classmethod
    def _from_vector(cls, group: Group, vec: np.ndarray, **fields):
        """Wrap a complex vector in ``group.indexing()`` order, checked and
        pruned by :meth:`_keep`, so a NaN entry is rejected, not dropped."""
        return cls._wrap(group, np.arange(group.order)[:, None], vec, **fields)

    def _vector(self) -> np.ndarray:
        """The coefficients as a complex vector in ``group.indexing()`` order."""
        vec = np.zeros(self.group.order, dtype=complex)
        vec[self._keys[:, 0]] = self._vals
        return vec

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing modulus is inf
    def _keep(self, group: Group, keys: np.ndarray, vals: np.ndarray) -> None:
        """Prune below PRUNE_TOL; reject NaN, inf and overflowing moduli."""
        mod = np.abs(vals)
        keep = np.flatnonzero(~(mod < PRUNE_TOL))  # NaN is kept, and rejected
        if keep.size < len(vals):
            keys, vals, mod = keys[keep], vals[keep], mod[keep]
        for arr in (keys, vals):
            arr.setflags(write=False)
        self.group, self._keys, self._vals = group, keys, vals
        bad = np.flatnonzero(~(mod < np.inf)).tolist()  # NaN, inf or an overflowing modulus
        if bad:
            i = min(bad, key=lambda i: np.isfinite(vals[i]))  # a NaN or inf value first
            what = ("is too large: its modulus is not a finite float"
                    if np.isfinite(vals[i]) else "is not finite")
            raise ValueError(f"coefficient at {group.describe(self.support[i])} {what}")

    def _at(self, row) -> complex:
        """The coefficient at one key row; 0 off the support."""
        hit = np.flatnonzero((self._keys == row).all(axis=1))
        return complex(self._vals[hit[0]]) if hit.size else 0j

    @property
    def support(self) -> list:
        if self.group.is_finite:
            elems = self.group.indexing()[0]
            return [elems[i] for i in self._keys[:, 0].tolist()]
        return list(map(tuple, self._keys.tolist()))

    def coeff(self, a) -> complex:
        return self._at(_coefficients(self.group, [(a, 0)])[0])

    def items(self) -> list:
        return list(zip(self.support, self._vals.tolist()))

    def __len__(self) -> int:
        return len(self._vals)

    def max_diff(self, other) -> float:
        self._check_context(other)
        _, a, b = _aligned(self, other)
        return max(map(abs, (a - b).tolist()), default=0.0)  # Python's abs, not np.abs

    def __repr__(self) -> str:
        terms = ", ".join(f"{self.group.describe(a)}: {v:.4g}"
                          for a, v in sorted(self.items(), key=lambda t: str(t[0])))
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

    def _like(self, keys: np.ndarray, vals: np.ndarray) -> "AlgebraElement":
        return AlgebraElement._wrap(self.group, keys, vals, cocycle=self.cocycle)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_context(other)
        keys, a, b = _aligned(self, other)
        return self._like(keys, a + b)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._like(self._keys, -self._vals)

    @np.errstate(over="ignore", invalid="ignore")  # the store rejects inf and NaN
    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_context(other)
            return self._product(other)
        if isinstance(other, numbers.Number):
            return self._like(self._keys, self._vals * complex(other))
        return NotImplemented

    # x * u reaches __rmul__ only for a non-element x, and scalars commute.
    __rmul__ = __mul__

    def _product(self, other: "AlgebraElement") -> "AlgebraElement":
        return _multiply(self.cocycle, self, other)

    def star(self) -> "AlgebraElement":
        """Involution: x(a) -> x(a^-1) with conjugated coefficients."""
        _require_normalized(self.cocycle, "the involution")
        g = self.group
        keys = g.inverse_indices()[self._keys] if g.is_finite else -self._keys
        return self._like(keys, self._vals.conj())


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


def _lattice_product(alpha: Cocycle, f: _CoefficientStore,
                     g: _CoefficientStore) -> tuple[np.ndarray, np.ndarray]:
    """sum_{a,b} f(a) g(b) exp(i alpha(a, b)) x(a + b) on Z^D, pruned at PRUNE_TOL.

    Every coordinate of a store is within LATTICE_COORD_LIMIT, so the int64
    pair sums cannot wrap.  The weights go over ``_blocks`` of f's rows, each
    counted 2 |g| wide: _CHUNK / 2 pairs a block, but where |g| > _CHUNK / 4
    two rows (three at a lone last row).  Returns (key rows, values): the
    distinct pair sums in lexicographic order; a kept one beyond the limit
    raises ValueError, as ``LatticeGroup.canonical`` would.
    """
    (Sa, fv), (Sb, gv) = (f._keys, f._vals), (g._keys, g._vals)
    if not len(fv) or not len(gv):
        return np.empty((0, alpha.group.d), dtype=np.int64), np.empty(0, dtype=complex)
    lo = Sa.min(axis=0) + Sb.min(axis=0)
    box = (Sa.max(axis=0) + Sb.max(axis=0) - lo + 1).tolist()
    if math.prod(box) <= len(fv) * len(gv):  # a bin per cell of the box of sums
        keys = np.stack(np.unravel_index(np.arange(math.prod(box)), box), axis=-1) + lo
        ia, ib = (np.ravel_multi_index((S - S.min(axis=0)).T, box) for S in (Sa, Sb))
        row_bins = lambda r: np.add.outer(ia[r], ib)  # a block's bins, not all pairs'
    else:  # numbering needs every sum, so these bins are pair-sized
        keys, row_bins = _distinct_rows((Sa[:, None] + Sb[None]).reshape(-1, alpha.group.d))
        row_bins = row_bins.reshape(len(fv), len(gv)).__getitem__
    # The weights a block at a time, added in C order as _finite_product
    # adds them: the bits of one expression and one add.at, block temporaries.
    h = np.zeros(len(keys), dtype=complex)
    for r in _blocks(len(fv), 2 * len(gv)):
        w = fv[r, None] * gv[None] * np.exp(1j * alpha.phases(Sa[r, None], Sb[None]))
        np.add.at(h, row_bins(r).ravel(), w.ravel())
    del row_bins  # with the sort numbering's pair-sized bins: freed before the gather
    keep = np.flatnonzero(~(np.abs(h) < PRUNE_TOL))  # NaN is kept, and rejected
    rows = keys[keep]
    far = np.flatnonzero(np.abs(rows).max(axis=1) > LATTICE_COORD_LIMIT)
    if far.size:
        raise ValueError(f"lattice coordinates {rows[far[0]].tolist()} exceed "
                         f"2**53 in absolute value")
    return rows, h[keep]


def _distinct_rows(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of a 2-D S in lexicographic order, bins).

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


@np.errstate(over="ignore", invalid="ignore")  # the store rejects inf and NaN
def _multiply(alpha: Cocycle, f: _CoefficientStore, g: _CoefficientStore):
    """(sum f(a) x(a)) (sum g(b) x(b)) under ``alpha``, as a store like f."""
    fields = {"cocycle": f.cocycle} if isinstance(f, AlgebraElement) else {}
    if f.group.is_finite:
        h = _finite_product(f.group, alpha.phase_exp(), f._vector(), g._vector())
        return type(f)._from_vector(f.group, h, **fields)
    return type(f)._wrap(f.group, *_lattice_product(alpha, f, g), **fields)


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


def _compose(x, y) -> tuple[np.ndarray, np.ndarray]:
    """X Y of monomial (perm, phase) pairs."""
    return y[0][x[0]], x[1] * y[1][x[0]]


def _dagger(x) -> tuple[np.ndarray, np.ndarray]:
    """X^dagger of a monomial (perm, phase) pair."""
    inv = np.argsort(x[0])
    return inv, x[1][inv].conj()


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
    C R(a) C and E[a, a^-1 x] in L(a), with E = exp(i alpha), taken over
    ``_blocks`` of rows x; ``np.maximum`` propagates NaN as one ``np.max`` would.
    """
    _require_regular_context(group, alpha)
    E = alpha.phase_exp()
    inv = group.inverse_indices()
    worst = 0.0
    for r in _blocks(group.order, group.order):
        diff = E[inv, r].T  # a gather: subtracted in place, no third block
        diff -= np.take_along_axis(E[r], group.index_table()[inv[r]], 1)
        worst = np.maximum(worst, np.max(np.abs(diff)))
    return float(worst)


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
