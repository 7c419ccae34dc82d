"""The algebraic integration functional and its consequences.

The functional is identity-coefficient extraction,

    integral( sum_a f(a) x(a) ) = f(e),

extended linearly.  Under a normalized cocycle this single rule resolves the
identity (``completeness_check``), inverts the formal transform
(:func:`invert`), and reproduces the plain scalar product of group functions
through the algebra (:func:`scalar_product`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .algebra import PRUNE_TOL, AlgebraElement, generator
from .cocycles import Cocycle, zero_cocycle
from .errors import (ContextMismatchError, CrossCheckError,
                     NormalizationRequiredError, UnsupportedOperationError)
from .groups import Group
from .report import VerificationReport


class GroupFunction:
    """Finitely supported map from group elements to complex values."""

    __slots__ = ("group", "_values")

    def __init__(self, group: Group, values: Mapping):
        acc: dict = {}
        for k, v in values.items():
            k = group.canonical(k)
            acc[k] = acc.get(k, 0j) + complex(v)
        self.group = group
        self._values = {k: v for k, v in acc.items() if abs(v) >= PRUNE_TOL}

    @classmethod
    def delta(cls, group: Group, a) -> "GroupFunction":
        """Indicator of a single element."""
        return cls(group, {group.canonical(a): 1.0})

    @property
    def support(self):
        return self._values.keys()

    def get(self, a) -> complex:
        return self._values.get(self.group.canonical(a), 0j)

    def items(self):
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)

    def norm_sq(self) -> float:
        return float(sum(abs(v) ** 2 for v in self._values.values()))

    def max_diff(self, other: "GroupFunction") -> float:
        if self.group != other.group:
            raise ContextMismatchError("functions live on different groups")
        keys = set(self._values) | set(other._values)
        if not keys:
            return 0.0
        return max(abs(self._values.get(k, 0j) - other._values.get(k, 0j))
                   for k in keys)

    def isclose(self, other: "GroupFunction", tol: float = 1e-12) -> bool:
        return self.max_diff(other) < tol

    def __repr__(self) -> str:
        terms = ", ".join(f"{self.group.describe(a)}: {v:.4g}"
                          for a, v in sorted(self._values.items(), key=lambda t: str(t[0])))
        return f"GroupFunction({{{terms}}})"


def as_algebra_element(f: GroupFunction, alpha: Cocycle) -> AlgebraElement:
    """Embed sum f(a) x(a) into the algebra carrying ``alpha``."""
    if alpha.group != f.group:
        raise ContextMismatchError("cocycle was built on a different group")
    return AlgebraElement(f.group, alpha, dict(f.items()))


def ati_integral(u: AlgebraElement) -> complex:
    """Coefficient of the identity element; linear in u."""
    return u.coeff(u.group.identity())


def completeness_check(group: Group, alpha: Cocycle, *,
                       tol: float = 1e-12) -> VerificationReport:
    """Assemble M[b, c] = integral(x(b) x(c^-1)) and compare with the identity.

    With a normalized cocycle the only surviving entries are b = c with
    phase alpha(b, b^-1) = 0, so M must be the identity matrix; this guards
    the equivalence between identity-coefficient extraction and the
    conjugation-matrix form of the functional.
    """
    if not group.is_finite:
        raise UnsupportedOperationError("completeness is a finite-group check")
    if not alpha.normalized:
        raise NormalizationRequiredError("completeness assumes a normalized cocycle")
    # x(b) x(c^-1) = E[b, c^-1] x(bc^-1); its integral survives only where
    # bc^-1 is the identity, which is index 0 in every finite group.
    inv = group.inverse_indices()
    M = np.where(group.index_table()[:, inv] == 0, alpha.phase_exp()[:, inv], 0)
    worst = float(np.max(np.abs(M - np.eye(group.order))))
    report = VerificationReport(suite="completeness")
    report.add("identity_resolution", worst, tol)
    return report


def invert(u: AlgebraElement) -> GroupFunction:
    """Recover f(a) = integral(u x(a^-1)); exact for normalized cocycles."""
    if not u.cocycle.normalized:
        raise NormalizationRequiredError(
            "inversion needs alpha(a, a^-1) = 0; normalize the cocycle first")
    g, alpha = u.group, u.cocycle
    vals = {a: ati_integral(u * generator(g, alpha, g.inv(a))) for a in u.support}
    return GroupFunction(g, vals)


def scalar_product(f: GroupFunction, g: GroupFunction,
                   alpha: Cocycle | None = None, *, tol: float = 1e-13) -> complex:
    """<f, g> = sum_a conj(f(a)) g(a), computed through the algebra.

    The value is obtained as integral(f_hat* g_hat) with the formal
    transforms under ``alpha`` (the zero cocycle when omitted) and
    cross-checked against the direct sum; a disagreement beyond ``tol``
    raises :class:`CrossCheckError`.
    """
    if f.group != g.group:
        raise ContextMismatchError("functions live on different groups")
    if alpha is None:
        alpha = zero_cocycle(f.group)
    if not alpha.normalized:
        raise NormalizationRequiredError(
            "the algebra route needs a normalized cocycle")
    direct = sum(v.conjugate() * g.get(a) for a, v in f.items())
    via_algebra = ati_integral(as_algebra_element(f, alpha).star()
                               * as_algebra_element(g, alpha))
    if abs(via_algebra - direct) > tol:
        raise CrossCheckError(
            f"scalar product routes disagree: algebra {via_algebra!r} "
            f"vs direct {direct!r}")
    return via_algebra
