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
from .algebra import AlgebraElement, _CoefficientStore
from .cocycles import (Cocycle, _require_finite_group, _require_normalized,
                       _require_same_group, zero_cocycle)
from .errors import CrossCheckError
from .groups import Group
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
        return float(sum(abs(v) ** 2 for v in _identity_order(self)))

    def _check_context(self, other: "GroupFunction") -> None:
        _require_same_group(self.group, other)


def _identity_order(f: _CoefficientStore) -> list:
    """f's values in the order in which f* g sums its identity coefficient:
    over a^-1 in index order on a finite group, in key order on a lattice."""
    if f.group.is_finite:
        return f._vector()[f.group.inverse_indices()].tolist()
    return f._vals.tolist()


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
    """Assemble M[b, c] = integral(x(b) x(c^-1)) and compare with the identity.

    With a normalized cocycle the only surviving entries are b = c with
    phase alpha(b, b^-1) = 0, so M must be the identity matrix; this guards
    the equivalence between identity-coefficient extraction and the
    conjugation-matrix form of the functional.
    """
    _require_finite_group(group, "the completeness check")
    _require_normalized(alpha, "the completeness check")
    # x(b) x(c^-1) = E[b, c^-1] x(bc^-1); its integral survives only where
    # bc^-1 is the identity, which is index 0 in every finite group.
    inv = group.inverse_indices()
    M = np.where(group.index_table()[:, inv] == 0, alpha.phase_exp()[:, inv], 0)
    worst = float(np.max(np.abs(M - np.eye(group.order))))
    report = VerificationReport(suite="completeness")
    report.add("identity_resolution", worst, tol)
    return report


def invert(u: AlgebraElement) -> GroupFunction:
    """Recover f(a) = integral(u x(a^-1)); exact for normalized cocycles.

    Only the term u(a) x(a) x(a^-1) = u(a) exp(i alpha(a, a^-1)) x(e) of
    that product reaches the identity, so f(a) = u(a) exp(i alpha(a, a^-1)):
    f[i] = u[i] exp(i A[i, inv[i]]) on a finite group, with the phase table A,
    and one ``phases`` call over the key rows S and -S on a lattice.
    """
    _require_normalized(u.cocycle, "inversion")
    g, alpha = u.group, u.cocycle
    if g.is_finite:
        E = np.exp(1j * alpha.phase_matrix()[np.arange(g.order), g.inverse_indices()])
        return GroupFunction._from_vector(g, u._vector() * E)
    E = np.exp(1j * alpha.phases(u._keys[:, None], -u._keys[:, None]))[:, 0].tolist()
    vals = [v * e for v, e in zip(u._vals.tolist(), E)]  # Python's complex rounding
    return GroupFunction._wrap(g, u._keys, np.array(vals, dtype=complex))


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
    _require_normalized(alpha, "the algebra route of the scalar product")
    if f.group.is_finite:
        pairs = zip(_identity_order(f), _identity_order(g))
    else:
        pairs = ((v, g.get(a)) for a, v in f.items())
    direct = sum(v.conjugate() * w for v, w in pairs)
    via_algebra = ati_integral(as_algebra_element(f, alpha).star()
                               * as_algebra_element(g, alpha))
    if abs(via_algebra - direct) > tol:
        raise CrossCheckError(
            f"scalar product routes disagree: algebra {via_algebra!r} "
            f"vs direct {direct!r}")
    return via_algebra
