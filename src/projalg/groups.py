"""Group carriers: finite multiplication tables, (Z_n)^D, and the lattice Z^D.

Conventions
-----------
* Finite-table elements are 0-based indices with the identity at index 0;
  ``table[a][b]`` is the index of the product.
* Cyclic-power and lattice elements are integer tuples; cyclic-power
  coordinates are kept canonical in [0, n), and lattice coordinates must lie
  in [-LATTICE_COORD_LIMIT, LATTICE_COORD_LIMIT].
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

# Largest table order validated on construction.  Associativity is checked
# on the N^2 |S| triples (a, b, s) with s in a generating set S, |S| <= log2 N.
VALIDATION_ORDER_LIMIT = 1024

# Largest D of (Z_n)^D and Z^D that group specs may ask for; constructors accept any.
DIMENSION_LIMIT = 64

# Largest |coordinate| of a lattice element.  float64 holds every integer up
# to 2**53, so bilinear phases computed in float64 see the exact coordinate,
# and sums of two coordinates stay far inside int64.
LATTICE_COORD_LIMIT = 2 ** 53


class Group:
    """Shared interface for the three group kinds."""

    is_abelian: bool
    order: int | None  # None marks the infinite lattice

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def identity(self):
        return self.element_at(0)  # index 0 on every finite group

    # Read from the index tables; groups with closed forms override both.
    def prod(self, a, b):
        i, j = self.element_index(a), self.element_index(b)
        return self.element_at(self.index_table()[i, j])

    def inv(self, a):
        return self.element_at(self.inverse_indices()[self.element_index(a)])

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
        """Index of ``a`` in ``indexing()`` order; the first call builds it, O(order)."""
        return self.indexing()[1][self.canonical(a)]

    def element_at(self, index: int):
        elems, index = self.indexing()[0], operator.index(index)
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for order {self.order}")
        return elems[index]

    def index_table(self) -> np.ndarray:
        """(order, order) table of product indices."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no multiplication table")

    def inverse_indices(self) -> np.ndarray:
        """inverse_indices()[i] is the index of the inverse of element i.

        That is the column of the identity, index 0, in row i of the index table,
        found from a boolean table: argmin would copy the int64 one.
        """
        cached = self.__dict__.get("_inverse_indices")
        if cached is None:
            cached = np.nonzero(self.index_table() == 0)[1]
            cached.setflags(write=False)
            self._inverse_indices = cached
        return cached

    def generators(self) -> tuple:
        """A generating set S: every element is a product of elements of S."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no finite generating set")

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


def word_lengths(table: np.ndarray, gens) -> np.ndarray:
    """Per element of an index table, the length of the shortest word
    e s1 s2 ... in the indices ``gens`` giving it; -1 if none does."""
    depth = np.full(len(table), -1, dtype=np.int64)
    depth[0] = 0
    gens = np.asarray(gens, dtype=np.int64)
    for step in itertools.count(1):
        reached = table[np.flatnonzero(depth == step - 1)[:, None], gens]
        fresh = reached[depth[reached] < 0]
        if not fresh.size:
            return depth
        depth[fresh] = step


class FiniteTableGroup(Group):
    """Finite group given by an explicit multiplication table over 0..n-1."""

    def __init__(self, table, names: Sequence[str] | None = None, *,
                 skip_validation: bool = False):
        t = np.array(table, dtype=np.int64)
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
                f"order {n} exceeds the validation limit "
                f"{VALIDATION_ORDER_LIMIT}; pass skip_validation=True to accept "
                f"the table unchecked")
        t.setflags(write=False)
        self._table = t
        self.order = n
        self._generators = None
        if not skip_validation:
            # (ab)s = a(bs) for every generator s, with the identity row,
            # gives (ab)c = a(bc) for all c by induction on c's word length.
            for s in self.generators():
                col = t[:, s]
                bad = np.argwhere(col[t] != t[:, col])
                if bad.size:
                    a, b = (int(x) for x in bad[0])
                    raise GroupConstructionError(
                        f"associativity fails on triple ({self.describe(a)}, "
                        f"{self.describe(b)}, {self.describe(s)})")
        zeros = t == 0
        count = zeros.sum(axis=1)
        inv = zeros.argmax(axis=1)
        bad = np.flatnonzero((count != 1) | (t[inv, idx] != 0))
        if bad.size:
            a = int(bad[0])
            raise GroupConstructionError(
                f"element {self.describe(a)} must have exactly one right inverse, "
                f"found {count[a]}" if count[a] != 1 else
                f"right inverse of {self.describe(a)} is not a left inverse")
        inv.setflags(write=False)
        self._inverse_indices = inv
        self.is_abelian = bool(np.array_equal(t, t.T))

    def canonical(self, a) -> int:
        i = operator.index(a)
        if not 0 <= i < self.order:
            raise ValueError(f"element index {i} out of range for order {self.order}")
        return i

    def describe(self, a) -> str:
        i = self.canonical(a)
        return self.names[i] if self.names is not None else str(i)

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    def index_table(self) -> np.ndarray:
        return self._table

    def generators(self) -> tuple[int, ...]:
        """Greedy: add the first element not yet reached until all are.  In a
        group each new generator at least doubles the subgroup reached, so a
        table that needs more than log2(order) generators is not a group."""
        if self._generators is None:
            gens: list[int] = []
            missing = word_lengths(self._table, gens) < 0
            while missing.any():
                if 2 ** (len(gens) + 1) > self.order:
                    raise GroupConstructionError(
                        f"table of order {self.order} needs more than "
                        f"log2(order) generators, so it is not a group")
                gens.append(int(np.argmax(missing)))
                missing = word_lengths(self._table, gens) < 0
            self._generators = tuple(gens)
        return self._generators

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

    def index_table(self) -> np.ndarray:
        if self._index_table is None:
            # Add the indices, then take n w off where a coordinate of weight
            # w carries: one (order, order) bool mask at a time, no (N, N, D).
            n, idx = self.n, np.arange(self.order, dtype=np.int64)
            table = np.add.outer(idx, idx)
            for w in n ** np.arange(self.d, dtype=np.int64):
                c = idx // w % n
                np.subtract(table, n * w, out=table,
                            where=np.less_equal.outer(n - c, c))
            table.setflags(write=False)
            self._index_table = table
        return self._index_table

    def generators(self) -> tuple[tuple[int, ...], ...]:
        """The D unit vectors; none for the one-element group."""
        return tuple(tuple(int(i == j) for i in range(self.d))
                     for j in range(self.d) if self.n > 1)

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
        if max(coords) > LATTICE_COORD_LIMIT or min(coords) < -LATTICE_COORD_LIMIT:
            raise ValueError(f"lattice coordinates {list(coords)} exceed "
                             f"2**53 in absolute value")
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
