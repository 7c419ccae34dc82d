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
from .cocycles import Cocycle, _require_same_group, zero_cocycle
from .errors import (ContextMismatchError, NormalizationRequiredError,
                     RepresentationInconsistencyError, UnsupportedOperationError)
from .groups import CyclicPowerGroup, Group
from .integration import GroupFunction, as_algebra_element, ati_integral
from .report import VerificationReport


class FormalRepresentation:
    """Tautological representation: transform values are algebra elements."""

    kind = "formal"

    def __init__(self, group: Group, cocycle: Cocycle):
        _require_same_group(group, cocycle)
        self.group = group
        self.cocycle = cocycle

    def transform(self, f: GroupFunction) -> AlgebraElement:
        if f.group != self.group:
            raise ContextMismatchError("function lives on a different group")
        return as_algebra_element(f, self.cocycle)


def projective_product_rule(group: Group, stack: np.ndarray,
                            cocycle: Cocycle | None = None) -> tuple:
    """Compare P = M(a) M(b) with exp(i alpha(a, b)) Q, Q = M(ab), over all pairs.

    ``stack[i]`` is M of element i in ``group.indexing()`` order; each a
    takes one batched matmul over all b, so memory is O(order dim^2).
    Without a ``cocycle``, alpha(a, b) is measured as the angle of the mean
    ratio P / Q over the unit-modulus entries of Q.  Returns (phase table,
    worst residual max|P - exp(i alpha) Q|, worst pair); a non-finite
    entry gives a NaN residual, so callers accept only ``worst < tol``.
    """
    elems, _ = group.indexing()
    T = group.index_table()
    table = np.zeros(T.shape) if cocycle is None else cocycle.phase_matrix()
    res = np.empty(T.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        for ia in range(group.order):
            P = stack[ia] @ stack
            Q = stack[T[ia]]
            if cocycle is None:
                mask = np.abs(Q) > 0.5
                ratios = np.divide(P, Q, out=np.zeros_like(P), where=mask)
                table[ia] = np.angle(ratios.sum(axis=(1, 2)) / mask.sum(axis=(1, 2)))
            weights = np.exp(1j * table[ia])[:, None, None]
            res[ia] = np.abs(P - weights * Q).max(axis=(1, 2))
    # argmax returns the first NaN, so a non-finite pair is reported.
    ia, ib = np.unravel_index(int(np.argmax(res)), res.shape)
    return table, float(res[ia, ib]), (elems[ia], elems[ib])


class MatrixRepresentation:
    """Concrete matrices M(a) with M(a) M(b) = exp(i alpha(a, b)) M(ab).

    The family is held as one read-only (order, dim, dim) stack in
    ``group.indexing()`` order, and :func:`projective_product_rule` checks
    it at construction; inconsistent or non-finite data raises rather than
    silently carrying a wrong cocycle.
    """

    kind = "matrix"

    def __init__(self, group: Group, cocycle: Cocycle, matrices: Mapping, *,
                 check: bool = True, tol: float = 1e-10):
        _require_same_group(group, cocycle)
        if not group.is_finite:
            raise UnsupportedOperationError(
                "matrix representations are kept to finite groups")
        family = []
        for a in group.elements():
            if a not in matrices:
                raise ValueError(f"missing matrix for element {group.describe(a)}")
            m = np.asarray(matrices[a], dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("representation matrices must be square")
            if family and m.shape != family[0].shape:
                raise ValueError("representation matrices must share one dimension")
            family.append(m)
        stack = np.stack(family)
        stack.setflags(write=False)
        self.group = group
        self.cocycle = cocycle
        self.dim = int(stack.shape[1])
        self._stack = stack
        if check:
            _, worst, pair = projective_product_rule(group, stack, cocycle)
            if not worst < tol:
                raise RepresentationInconsistencyError(
                    f"matrices break the projective product rule at pair {pair} "
                    f"with residual {worst:.3e} (tol {tol:.1e})")

    def matrix(self, a) -> np.ndarray:
        return self._stack[self.group.element_index(a)]

    def transform(self, f: GroupFunction) -> np.ndarray:
        if f.group != self.group:
            raise ContextMismatchError("function lives on a different group")
        return np.tensordot(_dense_vector(f), self._stack, axes=1)


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
    vec[[index[a] for a in f.support]] = list(f._coeffs.values())
    return vec


def _from_vector(group: Group, vec: np.ndarray) -> GroupFunction:
    """Inverse of :func:`_dense_vector`: values in ``group.indexing()`` order."""
    return GroupFunction._canonical(group, dict(zip(group.indexing()[0], vec.tolist())))


def character_transform(f: GroupFunction, *,
                        volume_normalized: bool = False) -> np.ndarray:
    """Full character table of f, shaped (n,) * D.

    With ``volume_normalized`` the sum carries a 1/order factor (the
    compact-group convention); the matching flag on
    :func:`character_inverse` undoes it.
    """
    g = f.group
    out = character_matrix(g) @ _dense_vector(f)
    if volume_normalized:
        out = out / g.order
    return out.reshape((g.n,) * g.d)


def character_inverse(table, group: CyclicPowerGroup, *,
                      volume_normalized: bool = False) -> GroupFunction:
    """Inverse of :func:`character_transform`: f(a) = (1/order) sum_q table[q] conj(chi_q(a))."""
    X = character_matrix(group)     # raises off (Z_n)^D
    vec = X.conj().T @ np.asarray(table, dtype=complex).reshape(group.order)
    if not volume_normalized:
        vec = vec / group.order
    return _from_vector(group, vec)


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
    # Tr[M(a)^dagger fhat] is the elementwise inner product of M(a) and fhat.
    flat = rep._stack.reshape(rep.group.order, -1)
    vals = (flat @ fhat.conj().ravel()).conj() / rep.dim
    return _from_vector(rep.group, vals)


def invert_vector_finite(fhat, group: Group,
                         cocycle: Cocycle | None = None) -> GroupFunction:
    """Vector-case inversion on a finite group.

    ``fhat`` is either a character table shaped (n,) * D on (Z_n)^D, or the
    (order, order) regular-representation transform
    sum_b f(b) R(b); the latter works for any finite group because the
    regular representation contains each irreducible with multiplicity equal
    to its dimension, so (1/order) Tr[fhat R(a^-1)] equals the sum over
    irreducible representations.  R(a) has its one entry of row b at column
    ba, so no R(a) is built: f(a) = (1/order) sum_b fhat[b, T[b, a]].
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
        gathered = np.take_along_axis(fhat, group.index_table(), 1)
        return _from_vector(group, gathered.sum(axis=0) / group.order)
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
    f1._check_context(f2)
    _require_same_group(f1.group, alpha)
    if not alpha.normalized:
        raise NormalizationRequiredError(
            "deformed convolution assumes a normalized cocycle")
    g = f1.group
    return GroupFunction._canonical(g, _multiply(g, alpha, f1._coeffs, f2._coeffs))


def plancherel_values(f: GroupFunction, alpha: Cocycle) -> tuple[complex, float]:
    """(integral(f_hat* f_hat), sum |f(a)|^2) for the formal transform."""
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
