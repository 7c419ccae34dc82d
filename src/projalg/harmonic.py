"""Fourier analysis on group functions: transforms, convolutions, Plancherel.

Three pictures of the transform f_hat = sum_a f(a) x(a) are supported:

* formal -- the tautological embedding into the algebra (any group, any
  cocycle); inverted by the integration functional.
* matrix -- x(a) realized by concrete complex matrices obeying the
  projective product rule; verified entrywise at construction.
* character -- the vector case on (Z_n)^D, where the one-dimensional
  representations chi_q(a) = exp(-2 pi i q.a / n) diagonalize everything.

Multiplying transforms deforms the convolution on the function side by the
cocycle phase; :func:`deformed_convolution` is that product and
:func:`moyal_star` is its exact spectral image on character transforms.
"""

from __future__ import annotations

import cmath
from typing import Mapping

import numpy as np

from .algebra import AlgebraElement, _multiply, regular_reps
from .cocycles import Cocycle, zero_cocycle
from .errors import (ContextMismatchError, NormalizationRequiredError,
                     RepresentationInconsistencyError, UnsupportedOperationError)
from .groups import CyclicPowerGroup, Group
from .integration import GroupFunction, as_algebra_element, ati_integral
from .report import VerificationReport


class FormalRepresentation:
    """Tautological representation: transform values are algebra elements."""

    kind = "formal"

    def __init__(self, group: Group, cocycle: Cocycle):
        if cocycle.group != group:
            raise ContextMismatchError("cocycle was built on a different group")
        self.group = group
        self.cocycle = cocycle

    def transform(self, f: GroupFunction) -> AlgebraElement:
        if f.group != self.group:
            raise ContextMismatchError("function lives on a different group")
        return as_algebra_element(f, self.cocycle)


class MatrixRepresentation:
    """Concrete matrices M(a) with M(a) M(b) = exp(i alpha(a, b)) M(ab).

    The product rule is verified entrywise over all pairs at construction
    (finite groups); inconsistent data raises rather than silently carrying
    a wrong cocycle.
    """

    kind = "matrix"

    def __init__(self, group: Group, cocycle: Cocycle, matrices: Mapping, *,
                 check: bool = True, tol: float = 1e-10):
        if cocycle.group != group:
            raise ContextMismatchError("cocycle was built on a different group")
        if not group.is_finite:
            raise UnsupportedOperationError(
                "matrix representations are kept to finite groups")
        mats = {}
        dim = None
        for a in group.elements():
            if a not in matrices:
                raise ValueError(f"missing matrix for element {group.describe(a)}")
            m = np.asarray(matrices[a], dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("representation matrices must be square")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("representation matrices must share one dimension")
            m = m.copy()
            m.setflags(write=False)
            mats[a] = m
        self.group = group
        self.cocycle = cocycle
        self.dim = int(dim)
        self._matrices = mats
        if check:
            worst, pair = self._product_residual()
            if worst >= tol:
                raise RepresentationInconsistencyError(
                    f"matrices break the projective product rule at pair {pair} "
                    f"with residual {worst:.3e} (tol {tol:.1e})")

    def _product_residual(self) -> tuple[float, tuple]:
        g, alpha = self.group, self.cocycle
        worst = 0.0
        worst_pair = (g.identity(), g.identity())
        for a in g.elements():
            Ma = self._matrices[a]
            for b in g.elements():
                target = cmath.exp(1j * alpha.phase(a, b)) * self._matrices[g.prod(a, b)]
                r = float(np.max(np.abs(Ma @ self._matrices[b] - target)))
                if r > worst:
                    worst = r
                    worst_pair = (a, b)
        return worst, worst_pair

    def matrix(self, a) -> np.ndarray:
        return self._matrices[self.group.canonical(a)]

    def transform(self, f: GroupFunction) -> np.ndarray:
        if f.group != self.group:
            raise ContextMismatchError("function lives on a different group")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, v in f.items():
            out += v * self._matrices[a]
        return out


class CharacterRepresentation:
    """One character chi_q(a) = exp(-2 pi i q.a / n) of (Z_n)^D; vector case only."""

    kind = "character"

    def __init__(self, group: CyclicPowerGroup, q):
        if not isinstance(group, CyclicPowerGroup):
            raise UnsupportedOperationError(
                "character labels q need a cyclic-power group")
        self.group = group
        self.q = group.canonical(q)

    def value(self, a) -> complex:
        a = self.group.canonical(a)
        dot = sum(qi * ai for qi, ai in zip(self.q, a))
        return cmath.exp(-2j * np.pi * dot / self.group.n)

    def transform(self, f: GroupFunction) -> complex:
        if f.group != self.group:
            raise ContextMismatchError("function lives on a different group")
        return sum(v * self.value(a) for a, v in f.items())


def fourier(f: GroupFunction, rep) -> "AlgebraElement | np.ndarray | complex":
    """Transform of f in the given representation picture."""
    return rep.transform(f)


def character_matrix(group: CyclicPowerGroup) -> np.ndarray:
    """X[q, a] = exp(-2 pi i q.a / n) over the element enumeration order."""
    if not isinstance(group, CyclicPowerGroup):
        raise UnsupportedOperationError("character tables need a cyclic-power group")
    coords = np.array(list(group.elements()), dtype=np.int64)
    dots = coords @ coords.T
    return np.exp(-2j * np.pi * dots / group.n)


def _dense_vector(f: GroupFunction) -> np.ndarray:
    _, index = f.group.indexing()
    vec = np.zeros(f.group.order, dtype=complex)
    for a, v in f.items():
        vec[index[a]] = v
    return vec


def character_transform(f: GroupFunction, *,
                        volume_normalized: bool = False) -> np.ndarray:
    """Full character table of f, shaped (n,) * D.

    With ``volume_normalized`` the sum carries a 1/order factor (the
    compact-group convention); the matching flag on
    :func:`character_inverse` undoes it.
    """
    g = f.group
    if not isinstance(g, CyclicPowerGroup):
        raise UnsupportedOperationError("character transforms need a cyclic-power group")
    out = character_matrix(g) @ _dense_vector(f)
    if volume_normalized:
        out = out / g.order
    return out.reshape((g.n,) * g.d)


def character_inverse(table, group: CyclicPowerGroup, *,
                      volume_normalized: bool = False) -> GroupFunction:
    """Inverse of :func:`character_transform`: f(a) = (1/order) sum_q table[q] conj(chi_q(a))."""
    if not isinstance(group, CyclicPowerGroup):
        raise UnsupportedOperationError("character transforms need a cyclic-power group")
    flat = np.asarray(table, dtype=complex).reshape(group.order)
    vec = character_matrix(group).conj().T @ flat
    if not volume_normalized:
        vec = vec / group.order
    return GroupFunction(group, {a: vec[group.element_index(a)]
                                 for a in group.elements()})


def regular_matrix_rep(group: Group) -> MatrixRepresentation:
    """The vector-case regular representation as a matrix picture."""
    alpha = zero_cocycle(group)
    pair = regular_reps(group, alpha)
    # Construction guarantees the product rule; skip the O(n^2) re-check.
    return MatrixRepresentation(group, alpha, pair.R, check=False)


def matrix_rep_inverse(fhat: np.ndarray, rep: MatrixRepresentation) -> GroupFunction:
    """Recover f from a matrix-picture transform via trace orthogonality.

    Uses f(a) = (1/dim) Tr[M(a)^dagger fhat], valid whenever
    (1/dim) Tr[M(a)^dagger M(b)] = delta_{a,b} -- true for the regular
    representation and for the torus realizations built in
    :mod:`projalg.clockshift`.
    """
    fhat = np.asarray(fhat, dtype=complex)
    if fhat.shape != (rep.dim, rep.dim):
        raise ValueError(f"expected a {rep.dim}x{rep.dim} transform, got {fhat.shape}")
    vals = {a: complex(np.trace(rep.matrix(a).conj().T @ fhat)) / rep.dim
            for a in rep.group.elements()}
    return GroupFunction(rep.group, vals)


def invert_vector_finite(fhat, group: Group,
                         cocycle: Cocycle | None = None) -> GroupFunction:
    """Vector-case inversion on a finite group.

    ``fhat`` is either a character table shaped (n,) * D on (Z_n)^D, or the
    (order, order) regular-representation transform
    sum_b f(b) R(b); the latter works for any finite group because the
    regular representation contains each irreducible with multiplicity equal
    to its dimension, so (1/order) Tr[fhat R(a^-1)] equals the sum over
    irreducible representations.
    """
    if not group.is_finite:
        raise UnsupportedOperationError("vector-case inversion needs a finite group")
    if cocycle is not None:
        mat = cocycle.phase_matrix()
        if float(np.max(np.abs(mat))) > 1e-12:
            raise UnsupportedOperationError(
                "inversion by summing representations applies to the vector "
                "case; use the algebraic inverse for projective data")
    fhat = np.asarray(fhat, dtype=complex)
    if isinstance(group, CyclicPowerGroup) and fhat.shape == (group.n,) * group.d:
        return character_inverse(fhat, group)
    if fhat.shape == (group.order, group.order):
        pair = regular_reps(group, zero_cocycle(group))
        vals = {a: complex(np.trace(fhat @ pair.R[group.inv(a)])) / group.order
                for a in group.elements()}
        return GroupFunction(group, vals)
    raise ValueError(
        f"transform shape {fhat.shape} matches neither a character table nor "
        f"a regular-representation matrix for {group!r}")


def convolution(f1: GroupFunction, f2: GroupFunction) -> GroupFunction:
    """h(a) = sum_b f1(b) f2(b^-1 a): the zero-cocycle deformed convolution."""
    return deformed_convolution(f1, f2, zero_cocycle(f1.group))


def deformed_convolution(f1: GroupFunction, f2: GroupFunction,
                         alpha: Cocycle) -> GroupFunction:
    """h(a) = sum_b f1(b) f2(b^-1 a) exp(i alpha(b, b^-1 a)).

    This is the function-side image of multiplying transforms: for every
    representation with cocycle alpha, fourier(h) equals
    fourier(f1) * fourier(f2).
    """
    if f1.group != f2.group:
        raise ContextMismatchError("functions live on different groups")
    if alpha.group != f1.group:
        raise ContextMismatchError("cocycle was built on a different group")
    if not alpha.normalized:
        raise NormalizationRequiredError(
            "deformed convolution assumes a normalized cocycle")
    g = f1.group
    return GroupFunction(g, _multiply(g, alpha, dict(f1.items()),
                                      dict(f2.items())))


def plancherel_values(f: GroupFunction, alpha: Cocycle) -> tuple[complex, float]:
    """(integral(f_hat* f_hat), sum |f(a)|^2) for the formal transform."""
    if alpha.group != f.group:
        raise ContextMismatchError("cocycle was built on a different group")
    fhat = as_algebra_element(f, alpha)
    lhs = ati_integral(fhat.star() * fhat)
    return lhs, f.norm_sq()


def plancherel_check(f: GroupFunction, alpha: Cocycle, *,
                     tol: float = 1e-12) -> VerificationReport:
    """|integral(f_hat* f_hat) - sum |f|^2| < tol; needs a normalized cocycle."""
    lhs, rhs = plancherel_values(f, alpha)
    report = VerificationReport(suite="plancherel")
    report.add("norm_identity", abs(lhs - rhs), tol,
               detail=f"lhs {lhs.real!r}, rhs {rhs!r}")
    return report


def moyal_star(ftilde, gtilde, alpha: Cocycle) -> np.ndarray:
    """Star product of character transforms on (Z_n)^D.

    Computed by the exact spectral double sum

        h_tilde(q) = sum_{a,b} f(a) g(b) exp(i alpha(a, b)) chi_q(a) chi_q(b),

    where f and g are recovered from the inputs by the inverse character
    transform.  The result is the character transform of
    deformed_convolution(f, g, alpha); with the zero cocycle it reduces to
    the pointwise product.
    """
    group = alpha.group
    if not isinstance(group, CyclicPowerGroup):
        raise UnsupportedOperationError("the star product lives on (Z_n)^D")
    shape = (group.n,) * group.d
    ft = np.asarray(ftilde, dtype=complex)
    gt = np.asarray(gtilde, dtype=complex)
    if ft.shape != shape or gt.shape != shape:
        raise ValueError(f"dual tables must have shape {shape}")
    fv = _dense_vector(character_inverse(ft, group))
    gv = _dense_vector(character_inverse(gt, group))
    X = character_matrix(group)
    W = np.outer(fv, gv) * np.exp(1j * alpha.phase_matrix())
    out = np.einsum("qa,ab,qb->q", X, W, X)
    return out.reshape(shape)
