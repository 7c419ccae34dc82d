"""The algebraic integration functional and its consequences.

The functional is identity-coefficient extraction,

    integral( sum_a f(a) x(a) ) = f(e),

extended linearly.  Under a normalized cocycle this single rule resolves the
identity (``completeness_check``), inverts the formal transform
(:func:`invert`), and reproduces the plain scalar product of group functions
through the algebra (:func:`scalar_product`).
"""

from __future__ import annotations

import numpy as np

from . import sampling
from .algebra import AlgebraElement, _aligned, _CoefficientStore
from .cocycles import (Cocycle, _require_finite_group, _require_normalized,
                       _require_same_group, zero_cocycle)
from .errors import CrossCheckError
from .groups import LATTICE_COORD_LIMIT, Group
from .report import VerificationReport


class GroupFunction(_CoefficientStore):
    """Finitely supported map from group elements to complex values."""

    __slots__ = ()

    @classmethod
    def delta(cls, group: Group, a) -> "GroupFunction":
        """Indicator of a single element."""
        return cls(group, {a: 1.0})

    get = _CoefficientStore.coeff

    def norm_sq(self) -> float:
        return float(sum(abs(v) ** 2 for v in self._vals.tolist()))

    def _check_context(self, other: "GroupFunction") -> None:
        _require_same_group(self.group, other)


@np.errstate(over="ignore", invalid="ignore")  # the store rejects inf and NaN
def _star_integral(alpha: Cocycle, f: _CoefficientStore, g: _CoefficientStore) -> tuple:
    """(integral(f_hat* g_hat), f(a), g(a)) under alpha, the values as summed.
    Only the terms conj(f(a)) g(a) exp(i alpha(a^-1, a)) reach the identity; they
    are summed in the product kernel's order, so the integral is the product's to
    the bit, and refused where the product is.  Terms where f or g is 0 add 0."""
    _require_same_group(f.group, alpha)
    _require_normalized(alpha, "the involution")
    if f.group.is_finite:  # the kernel's order: every a^-1, in index order
        inv = f.group.inverse_indices()
        fv, gv = f._vector()[inv], g._vector()[inv]  # f(a), g(a) at the index of a^-1
        weights = np.exp(1j * alpha.phase_matrix()[np.arange(len(inv)), inv])
    else:  # f's key order, then g's other rows, where f(a) = 0
        keys, fv, gv = _aligned(f, g)
        sides = ((f._keys, g._keys), (g._keys, f._keys))  # f* g holds x(b - a)
        if len(f) and len(g) and max(np.max(B.max(axis=0) - A.min(axis=0))
                                     for A, B in sides) > LATTICE_COORD_LIMIT:
            raise ValueError("lattice coordinates of f* g exceed 2**53 in absolute value")
        weights = np.exp(1j * alpha.phases(-keys[:, None], keys[:, None]))[:, 0]
    h = np.zeros(1, dtype=complex)
    np.add.at(h, np.zeros(len(fv), dtype=np.intp), fv.conj() * gv * weights)
    ident = GroupFunction._wrap(f.group, np.zeros((1, f._keys.shape[1]), np.int64), h)
    return ident._at(0), fv, gv  # the identity's bin, pruned or refused like a product's


def _random_function(group: Group, rng, *, box: int = 4,
                     support: int = 5) -> GroupFunction:
    """Values uniform on [-1, 1)^2: on a finite group everywhere, in one
    :func:`sampling.random_complex` draw; on a lattice at ``support`` points
    of the box (duplicates collapse)."""
    if group.is_finite:
        return GroupFunction._from_vector(group, sampling.random_complex(rng, group.order))
    coeffs = {}
    for _ in range(support):
        coeffs[sampling.random_element(group, rng, box=box)] = sampling.random_complex(rng)
    return GroupFunction(group, coeffs)


def as_algebra_element(f: GroupFunction, alpha: Cocycle) -> AlgebraElement:
    """Embed sum f(a) x(a) into the algebra carrying ``alpha``; shares f's arrays."""
    _require_same_group(f.group, alpha)
    return AlgebraElement._wrap(f.group, f._keys, f._vals, cocycle=alpha)


def ati_integral(u: AlgebraElement) -> complex:
    """Coefficient of the identity element, the all-zero key row; linear in u."""
    return u._at(0)


def completeness_check(group: Group, alpha: Cocycle, *,
                       tol: float = 1e-12) -> VerificationReport:
    """Compare M[b, c] = integral(x(b) x(c^-1)) with the identity matrix.

    x(b) x(c^-1) = exp(i alpha(b, c^-1)) x(bc^-1) reaches the identity only where
    b = c, so M is diagonal and only exp(i alpha(b, b^-1)) is read: 1 for a
    normalized cocycle.  This guards the equivalence between identity-coefficient
    extraction and the conjugation-matrix form of the functional.
    """
    _require_finite_group(group, "the completeness check")
    _require_normalized(alpha, "the completeness check")
    diag = np.exp(1j * alpha.phase_matrix()[np.arange(group.order), group.inverse_indices()])
    worst = float(np.max(np.abs(diag - 1)))
    report = VerificationReport(suite="completeness")
    report.add("identity_resolution", worst, tol)
    return report


def invert(u: AlgebraElement) -> GroupFunction:
    """Recover f(a) = integral(u x(a^-1)); exact for normalized cocycles.

    Only the term u(a) x(a) x(a^-1) = u(a) exp(i alpha(a, a^-1)) x(e) of that
    product reaches the identity, so f is u times exp(i alpha(a, a^-1)) on u's
    key rows S, on both carriers: A[k, inv[k]] with the phase table A and
    k = S[:, 0] on a finite group, one ``phases(S, -S)`` call on a lattice.
    """
    _require_normalized(u.cocycle, "inversion")
    g, alpha, S = u.group, u.cocycle, u._keys
    if g.is_finite:
        k = S[:, 0]
        phases = alpha.phase_matrix()[k, g.inverse_indices()[k]]
    else:
        phases = alpha.phases(S, -S)
    return GroupFunction._wrap(g, S, u._vals * np.exp(1j * phases))


def scalar_product(f: GroupFunction, g: GroupFunction,
                   alpha: Cocycle | None = None, *, tol: float = 1e-13) -> complex:
    """<f, g> = sum_a conj(f(a)) g(a), computed through the algebra.

    The value is obtained as integral(f_hat* g_hat) with the formal
    transforms under ``alpha`` (the zero cocycle when omitted) and
    cross-checked against the direct sum; a disagreement beyond ``tol``
    raises :class:`CrossCheckError`.
    """
    f._check_context(g)
    if alpha is None:
        alpha = zero_cocycle(f.group)
    via_algebra, fv, gv = _star_integral(alpha, f, g)
    direct = sum(v.conjugate() * w for v, w in zip(fv.tolist(), gv.tolist()))
    if abs(via_algebra - direct) > tol:
        raise CrossCheckError(
            f"scalar product routes disagree: algebra {via_algebra!r} "
            f"vs direct {direct!r}")
    return via_algebra
