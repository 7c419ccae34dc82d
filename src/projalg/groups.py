"""Group carriers: finite multiplication tables, (Z_n)^D, and the lattice Z^D.

Conventions
-----------
* Finite-table elements are 0-based indices with the identity at index 0;
  ``table[a][b]`` is the index of the product.
* Cyclic-power and lattice elements are integer tuples; cyclic-power
  coordinates are kept canonical in [0, n).
* Lattice groups never enumerate their elements: everything downstream is
  support-driven, so only finitely many elements are ever touched.
* Groups are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import GroupConstructionError, UnsupportedOperationError

Element = "int | tuple[int, ...]"

# Exhaustive n^3 associativity checking is kept bounded at desk scale.
VALIDATION_ORDER_LIMIT = 64


class Group:
    """Shared interface for the three group kinds."""

    is_abelian: bool
    order: int | None  # None marks the infinite lattice

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def identity(self):
        raise NotImplementedError

    def prod(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def canonical(self, a):
        """Validate ``a`` and return its canonical form (raises ValueError)."""
        raise NotImplementedError

    def describe(self, a) -> str:
        """Human-readable element name for error messages and reports."""
        return str(a)

    # Enumeration API -- finite groups only.

    def elements(self) -> Iterator:
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not enumerate its elements")

    def element_index(self, a) -> int:
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no element indexing")

    def element_at(self, index: int):
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no element indexing")

    def index_table(self) -> np.ndarray:
        """(order, order) table of product indices."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no multiplication table")

    def inverse_indices(self) -> np.ndarray:
        """inverse_indices()[i] is the index of the inverse of element i."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no multiplication table")

    def indexing(self) -> tuple[tuple, dict]:
        """(elements in index order, canonical element -> index); finite groups only.

        Built once per group, so index-space kernels map canonical keys
        without calling :meth:`canonical`.  Callers must not mutate either.
        """
        cached = self.__dict__.get("_indexing")
        if cached is None:
            elems = tuple(self.elements())
            cached = (elems, {a: i for i, a in enumerate(elems)})
            self._indexing = cached
        return cached


class FiniteTableGroup(Group):
    """Finite group given by an explicit multiplication table over 0..n-1."""

    def __init__(self, table, names: Sequence[str] | None = None, *,
                 skip_validation: bool = False):
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise GroupConstructionError("multiplication table must be square")
        n = t.shape[0]
        if n == 0:
            raise GroupConstructionError("multiplication table is empty")
        if names is not None and len(names) != n:
            raise GroupConstructionError(
                f"got {len(names)} element names for a table of order {n}")
        self.names = tuple(str(s) for s in names) if names is not None else None
        if t.min() < 0 or t.max() >= n:
            raise GroupConstructionError(
                "table entries must be element indices in [0, order)")
        idx = np.arange(n)
        if not np.array_equal(t[0], idx) or not np.array_equal(t[:, 0], idx):
            raise GroupConstructionError(
                "element 0 must act as a two-sided identity")
        if n > VALIDATION_ORDER_LIMIT and not skip_validation:
            raise GroupConstructionError(
                f"order {n} exceeds the exhaustive validation limit "
                f"{VALIDATION_ORDER_LIMIT}; pass skip_validation=True to accept "
                f"the table unchecked")
        if not skip_validation:
            lhs = t[t, :]   # (a b) c
            rhs = t[:, t]   # a (b c)
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                a, b, c = (int(x) for x in bad[0])
                raise GroupConstructionError(
                    f"associativity fails on triple ({self._name(a)}, "
                    f"{self._name(b)}, {self._name(c)})")
        inv = np.empty(n, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(t[a] == 0)
            if hits.size != 1:
                raise GroupConstructionError(
                    f"element {self._name(a)} must have exactly one right "
                    f"inverse, found {hits.size}")
            b = int(hits[0])
            if t[b, a] != 0:
                raise GroupConstructionError(
                    f"right inverse of {self._name(a)} is not a left inverse")
            inv[a] = b
        t.setflags(write=False)
        inv.setflags(write=False)
        self._table = t
        self._inv = inv
        self.order = n
        self.is_abelian = bool(np.array_equal(t, t.T))

    def _name(self, i: int) -> str:
        return self.names[i] if self.names is not None else str(i)

    def identity(self) -> int:
        return 0

    def canonical(self, a) -> int:
        i = operator.index(a)
        if not 0 <= i < self.order:
            raise ValueError(f"element index {i} out of range for order {self.order}")
        return i

    def prod(self, a, b) -> int:
        return int(self._table[self.canonical(a), self.canonical(b)])

    def inv(self, a) -> int:
        return int(self._inv[self.canonical(a)])

    def describe(self, a) -> str:
        return self._name(self.canonical(a))

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    def element_index(self, a) -> int:
        return self.canonical(a)

    def element_at(self, index: int) -> int:
        return self.canonical(index)

    def index_table(self) -> np.ndarray:
        return self._table

    def inverse_indices(self) -> np.ndarray:
        return self._inv

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteTableGroup)
                and np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return hash(self._table.tobytes())

    def __repr__(self) -> str:
        return f"FiniteTableGroup(order={self.order}, abelian={self.is_abelian})"


class CyclicPowerGroup(Group):
    """(Z_n)^D with componentwise addition mod n; elements are int tuples."""

    def __init__(self, n: int, d: int):
        n = operator.index(n)
        d = operator.index(d)
        if n < 1 or d < 1:
            raise ValueError(f"cyclic power needs n >= 1 and d >= 1, got n={n}, d={d}")
        self.n = n
        self.d = d
        self.order = n ** d
        self.is_abelian = True
        self._index_table: np.ndarray | None = None
        self._inverse_indices: np.ndarray | None = None

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.d

    def canonical(self, a) -> tuple[int, ...]:
        if isinstance(a, (int, np.integer)) and self.d == 1:
            a = (a,)
        coords = tuple(operator.index(x) % self.n for x in a)
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return coords

    def prod(self, a, b) -> tuple[int, ...]:
        a = self.canonical(a)
        b = self.canonical(b)
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def inv(self, a) -> tuple[int, ...]:
        return tuple((-x) % self.n for x in self.canonical(a))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.n), repeat=self.d)

    def element_index(self, a) -> int:
        idx = 0
        for x in self.canonical(a):
            idx = idx * self.n + x
        return idx

    def element_at(self, index: int) -> tuple[int, ...]:
        index = operator.index(index)
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for order {self.order}")
        coords = []
        for _ in range(self.d):
            index, r = divmod(index, self.n)
            coords.append(r)
        return tuple(reversed(coords))

    def index_table(self) -> np.ndarray:
        if self._index_table is None:
            coords = np.array(list(self.elements()), dtype=np.int64)
            sums = (coords[:, None, :] + coords[None, :, :]) % self.n
            weights = self.n ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
            table = sums @ weights
            table.setflags(write=False)
            self._index_table = table
        return self._index_table

    def inverse_indices(self) -> np.ndarray:
        if self._inverse_indices is None:
            coords = np.array(list(self.elements()), dtype=np.int64)
            weights = self.n ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
            inv = ((-coords) % self.n) @ weights
            inv.setflags(write=False)
            self._inverse_indices = inv
        return self._inverse_indices

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclicPowerGroup)
                and self.n == other.n and self.d == other.d)

    def __hash__(self) -> int:
        return hash(("cyclic_power", self.n, self.d))

    def __repr__(self) -> str:
        return f"CyclicPowerGroup(n={self.n}, d={self.d})"


class LatticeGroup(Group):
    """The infinite lattice Z^D under vector addition."""

    order = None
    is_abelian = True

    def __init__(self, d: int):
        d = operator.index(d)
        if d < 1:
            raise ValueError(f"lattice needs d >= 1, got d={d}")
        self.d = d

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.d

    def canonical(self, a) -> tuple[int, ...]:
        if isinstance(a, (int, np.integer)) and self.d == 1:
            a = (a,)
        coords = tuple(operator.index(x) for x in a)
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return coords

    def prod(self, a, b) -> tuple[int, ...]:
        a = self.canonical(a)
        b = self.canonical(b)
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a) -> tuple[int, ...]:
        return tuple(-x for x in self.canonical(a))

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeGroup) and self.d == other.d

    def __hash__(self) -> int:
        return hash(("lattice", self.d))

    def __repr__(self) -> str:
        return f"LatticeGroup(d={self.d})"


def make_cyclic_power(n: int, d: int) -> CyclicPowerGroup:
    """(Z_n)^D of order n**d; identity is the zero vector."""
    return CyclicPowerGroup(n, d)


def make_lattice(d: int) -> LatticeGroup:
    """Z^D under vector addition."""
    return LatticeGroup(d)


def make_finite_from_table(table, names: Sequence[str] | None = None, *,
                           skip_validation: bool = False) -> FiniteTableGroup:
    """Validated finite group from an explicit multiplication table."""
    return FiniteTableGroup(table, names, skip_validation=skip_validation)


def symmetric_group(k: int, *, skip_validation: bool = False) -> FiniteTableGroup:
    """S_k built by composing the k! permutations of range(k).

    The identity permutation lands at index 0; composition is
    (p * q)(i) = p[q[i]].
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"symmetric group needs k >= 1, got k={k}")
    perms = list(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    table = [[pos[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return FiniteTableGroup(table, names, skip_validation=skip_validation)
