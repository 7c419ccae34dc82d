"""Phase functions deforming the group product, and their gauge freedom.

A cocycle alpha(a, b) twists the product of formal generators,

    x(a) x(b) = exp(i alpha(a, b)) x(ab),

and associativity of that product forces the constraint

    alpha(a, b) + alpha(ab, c) = alpha(b, c) + alpha(a, bc)   (mod 2 pi),

which :func:`validate_cocycle` checks.  Rescaling generators by
x'(a) = exp(-i phi(a)) x(a) shifts the cocycle by a removable piece,

    alpha'(a, b) = alpha(a, b) + phi(ab) - phi(a) - phi(b),

realized by :func:`gauge_transform`; :func:`normalize` uses the half-phase
gauge phi(a) = (alpha(a, a^-1) + alpha(e, e)) / 2 to kill the identity
row/column and every inverse-pair phase.  On abelian groups the
antisymmetric part beta(a, b) = alpha(a, b) - alpha(b, a) survives every
gauge and is the cocycle's invariant content (:func:`commutator_pairing`).

Backings: finite groups tabulate alpha as an (order, order) matrix of
radians; the lattice Z^D supports bilinear forms alpha(a, b) = a . theta . b
and lazily gauged functional forms.  Bilinear forms are deliberately not
offered on (Z_n)^D, where mod-n wrap-around makes them representative
dependent; tabulate instead.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from . import sampling
from .errors import (BackingMismatchError, ContextMismatchError,
                     NormalizationRequiredError, UnsupportedOperationError)
from .groups import Group, LatticeGroup
from .phases import reduce_phase
from .report import VerificationReport

NORMALIZED_TOL = 1e-12


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} has non-finite entries")


class GaugePhase:
    """Per-element phase phi used to rescale generators x(a) -> e^{-i phi(a)} x(a)."""

    def __init__(self, group: Group, backing):
        self.group = group
        self._backing = backing  # ndarray (finite) | dict | callable

    @classmethod
    def zero(cls, group: Group) -> "GaugePhase":
        if group.is_finite:
            return cls(group, np.zeros(group.order))
        return cls(group, {})

    @classmethod
    def from_table(cls, group: Group, values) -> "GaugePhase":
        if not group.is_finite:
            raise BackingMismatchError("table-backed phases need a finite group")
        vals = np.asarray(values, dtype=float)
        if vals.shape != (group.order,):
            raise ValueError(f"expected {group.order} phase values, got {vals.shape}")
        _require_finite(vals, "gauge phase values")
        vals = vals.copy()
        vals.setflags(write=False)
        return cls(group, vals)

    @classmethod
    def from_mapping(cls, group: Group, mapping: Mapping) -> "GaugePhase":
        return cls(group, {group.canonical(k): float(v) for k, v in mapping.items()})

    @classmethod
    def from_callable(cls, group: Group, fn: Callable) -> "GaugePhase":
        return cls(group, fn)

    def value(self, a) -> float:
        a = self.group.canonical(a)
        b = self._backing
        if isinstance(b, np.ndarray):
            return float(b[self.group.element_index(a)])
        if isinstance(b, dict):
            return float(b.get(a, 0.0))
        return float(b(a))

    def table(self) -> np.ndarray:
        """Dense per-index values; finite groups only."""
        g = self.group
        if not g.is_finite:
            raise UnsupportedOperationError("dense phase tables need a finite group")
        if isinstance(self._backing, np.ndarray):
            return self._backing
        return np.array([self.value(a) for a in g.elements()])

    def __neg__(self) -> "GaugePhase":
        b = self._backing
        if isinstance(b, np.ndarray):
            return GaugePhase(self.group, -b)
        if isinstance(b, dict):
            return GaugePhase(self.group, {k: -v for k, v in b.items()})
        return GaugePhase(self.group, lambda a, _fn=b: -_fn(a))


class Cocycle:
    """Base for phase-function backings; phases are returned in (-pi, pi]."""

    group: Group
    normalized: bool

    def phase(self, a, b) -> float:
        raise NotImplementedError

    def phase_matrix(self) -> np.ndarray:
        """Full (order, order) phase table; finite groups only."""
        g = self.group
        if not g.is_finite:
            raise UnsupportedOperationError("phase tables need a finite group")
        elems = list(g.elements())
        return np.array([[self.phase(a, b) for b in elems] for a in elems])

    def phase_exp(self) -> np.ndarray:
        """E = exp(i phase_matrix()), the kernel's product weights; finite groups only."""
        return np.exp(1j * self.phase_matrix())


class TabulatedCocycle(Cocycle):
    """Cocycle stored as an (order, order) matrix of radians on a finite group."""

    def __init__(self, group: Group, table):
        if not group.is_finite:
            raise BackingMismatchError(
                "tabulated backing needs a finite group; use a bilinear or "
                "gauged form on the lattice")
        t = np.asarray(table, dtype=float)
        if t.shape != (group.order, group.order):
            raise ValueError(
                f"expected a {group.order}x{group.order} phase table, got {t.shape}")
        _require_finite(t, "phase table")
        t = reduce_phase(np.array(t, dtype=float))
        t.setflags(write=False)
        self.group = group
        self._table = t
        self._exp: np.ndarray | None = None
        self.normalized = self._check_normalized()

    def _check_normalized(self) -> bool:
        t = self._table
        inv = self.group.inverse_indices()
        n = self.group.order
        worst = max(np.max(np.abs(t[0, :])), np.max(np.abs(t[:, 0])),
                    np.max(np.abs(t[np.arange(n), inv])))
        return bool(worst < NORMALIZED_TOL)

    def phase(self, a, b) -> float:
        g = self.group
        return float(self._table[g.element_index(a), g.element_index(b)])

    def phase_matrix(self) -> np.ndarray:
        return self._table

    def phase_exp(self) -> np.ndarray:
        if self._exp is None:
            e = np.exp(1j * self._table)
            e.setflags(write=False)
            self._exp = e
        return self._exp

    def __eq__(self, other) -> bool:
        return (isinstance(other, TabulatedCocycle)
                and self.group == other.group
                and np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return hash((self.group, self._table.tobytes()))

    def __repr__(self) -> str:
        return (f"TabulatedCocycle(order={self.group.order}, "
                f"normalized={self.normalized})")


class BilinearCocycle(Cocycle):
    """alpha(a, b) = sum_ij theta[i, j] a_i b_j on the lattice Z^D."""

    def __init__(self, group: Group, theta):
        if not isinstance(group, LatticeGroup):
            raise BackingMismatchError(
                "bilinear backing is defined on lattice groups only; "
                "tabulate cocycles on finite groups")
        th = np.array(theta, dtype=float)
        if th.shape != (group.d, group.d):
            raise ValueError(f"expected a {group.d}x{group.d} form, got {th.shape}")
        _require_finite(th, "bilinear form")
        th.setflags(write=False)
        self.group = group
        self._theta = th
        # Antisymmetric theta kills a.theta.a, hence all inverse-pair phases.
        self.normalized = bool(np.max(np.abs(th + th.T)) < 1e-14)

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    def phase(self, a, b) -> float:
        av = np.asarray(self.group.canonical(a), dtype=float)
        bv = np.asarray(self.group.canonical(b), dtype=float)
        return reduce_phase(float(av @ self._theta @ bv))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BilinearCocycle)
                and self.group == other.group
                and np.array_equal(self._theta, other._theta))

    def __hash__(self) -> int:
        return hash((self.group, self._theta.tobytes()))

    def __repr__(self) -> str:
        return f"BilinearCocycle(d={self.group.d}, normalized={self.normalized})"


class GaugedCocycle(Cocycle):
    """Lazily gauged cocycle base(a,b) + phi(ab) - phi(a) - phi(b).

    Used on lattice groups, where tabulation is impossible; finite groups
    materialize gauge transforms into fresh tables instead.
    """

    def __init__(self, base: Cocycle, phi: GaugePhase, *, normalized: bool = False):
        if base.group != phi.group:
            raise ContextMismatchError("cocycle and gauge phase live on different groups")
        self.group = base.group
        self._base = base
        self._phi = phi
        self.normalized = normalized

    def phase(self, a, b) -> float:
        g = self.group
        a = g.canonical(a)
        b = g.canonical(b)
        raw = (self._base.phase(a, b) + self._phi.value(g.prod(a, b))
               - self._phi.value(a) - self._phi.value(b))
        return reduce_phase(raw)

    def __repr__(self) -> str:
        return f"GaugedCocycle(base={self._base!r}, normalized={self.normalized})"


def zero_cocycle(group: Group) -> Cocycle:
    """The vector case: alpha identically zero."""
    if group.is_finite:
        return TabulatedCocycle(group, np.zeros((group.order, group.order)))
    return BilinearCocycle(group, np.zeros((group.d, group.d)))


def _require_same_group(group: Group, obj) -> None:
    if obj.group != group:
        raise ContextMismatchError(
            f"object built on {obj.group!r} used with {group!r}")


def cocycle_condition_residual(alpha: Cocycle, a, b, c) -> float:
    """|alpha(a,b) + alpha(ab,c) - alpha(b,c) - alpha(a,bc)| reduced mod 2 pi."""
    g = alpha.group
    raw = (alpha.phase(a, b) + alpha.phase(g.prod(a, b), c)
           - alpha.phase(b, c) - alpha.phase(a, g.prod(b, c)))
    return abs(reduce_phase(raw))


def validate_cocycle(group: Group, alpha: Cocycle, *, tol: float = 1e-10,
                     samples: int = 1000, box: int = 6,
                     seed: int | None = None) -> VerificationReport:
    """Check the associativity phase constraint.

    Finite groups are checked exhaustively over all order**3 triples;
    lattices over ``samples`` seeded pseudo-random triples drawn from
    [-box, box]^D coordinates.
    """
    _require_same_group(group, alpha)
    report = VerificationReport(suite="cocycle_validation")
    if group.is_finite:
        A = alpha.phase_matrix()
        T = group.index_table()
        res = np.abs(reduce_phase(
            A[:, :, None] + A[T] - A[None, :, :] - A[:, T]))
        worst = np.unravel_index(int(np.argmax(res)), res.shape)
        a, b, c = (group.element_at(int(i)) for i in worst)
        report.add("cocycle_condition", float(res.max()), tol,
                   detail=f"worst triple ({group.describe(a)}, "
                          f"{group.describe(b)}, {group.describe(c)})")
    else:
        rng = sampling.rng_from_seed(seed)
        worst_val = 0.0
        worst_triple = (group.identity(),) * 3
        for a, b, c in sampling.sample_triples(group, rng, samples, box=box):
            r = cocycle_condition_residual(alpha, a, b, c)
            if r > worst_val:
                worst_val = r
                worst_triple = (a, b, c)
        report.add("cocycle_condition", worst_val, tol,
                   detail=f"worst sampled triple {worst_triple} "
                          f"({samples} triples, box {box})")
    return report


def coboundary(group: Group, phi: GaugePhase) -> Cocycle:
    """The removable cocycle phi(ab) - phi(a) - phi(b); requires phi(e) = 0."""
    _require_same_group(group, phi)
    if abs(phi.value(group.identity())) > 1e-12:
        raise ValueError("gauge phase must vanish at the identity")
    if group.is_finite:
        vals = phi.table()
        T = group.index_table()
        return TabulatedCocycle(group, vals[T] - vals[:, None] - vals[None, :])
    return GaugedCocycle(zero_cocycle(group), phi)


def gauge_transform(alpha: Cocycle, phi: GaugePhase) -> Cocycle:
    """alpha'(a,b) = alpha(a,b) + phi(ab) - phi(a) - phi(b), reduced mod 2 pi."""
    if alpha.group != phi.group:
        raise ContextMismatchError("cocycle and gauge phase live on different groups")
    group = alpha.group
    if group.is_finite:
        vals = phi.table()
        T = group.index_table()
        A = alpha.phase_matrix()
        return TabulatedCocycle(group, A + vals[T] - vals[:, None] - vals[None, :])
    return GaugedCocycle(alpha, phi)


def normalize(group: Group, alpha: Cocycle, *, validate: bool = True,
              tol: float = 1e-10, samples: int = 1000, box: int = 6,
              seed: int | None = None) -> tuple[Cocycle, GaugePhase]:
    """Gauge away the removable phases.

    Returns (alpha', phi) with alpha'(e, a) = alpha'(a, e) = alpha'(a, a^-1) = 0
    and alpha' = gauge_transform(alpha, phi).  The gauge is the half-phase
    construction phi(a) = (alpha(a, a^-1) + alpha(e, e)) / 2; the constant
    term vanishes for any cocycle already clean at the identity, in which
    case phi(e) = 0.
    """
    _require_same_group(group, alpha)
    if validate:
        check = validate_cocycle(group, alpha, tol=tol, samples=samples,
                                 box=box, seed=seed)
        if not check.passed:
            raise ValueError(
                "input fails the associativity phase constraint: "
                + (check.checks[0].detail or ""))
    if group.is_finite:
        A = alpha.phase_matrix()
        inv = group.inverse_indices()
        ar = np.arange(group.order)
        # alpha(a, a^-1) and alpha(a^-1, a) agree only mod 2 pi, and rounding
        # can put them on opposite sides of the branch cut; halving one value
        # per inverse pair keeps phi(a) + phi(a^-1) = alpha(a, a^-1) exact.
        pair = A[np.minimum(ar, inv), np.maximum(ar, inv)]
        phi_vals = (pair + A[0, 0]) / 2.0
        phi = GaugePhase.from_table(group, phi_vals)
        return gauge_transform(alpha, phi), phi
    if isinstance(alpha, BilinearCocycle):
        theta = alpha.theta
        anti = (theta - theta.T) / 2.0

        def quad_phi(a, _theta=theta):
            av = np.asarray(a, dtype=float)
            return -0.5 * float(av @ _theta @ av)

        phi = GaugePhase.from_callable(group, quad_phi)
        return BilinearCocycle(group, anti), phi
    const = alpha.phase(group.identity(), group.identity())

    def half_phi(a, _alpha=alpha, _group=group, _const=const):
        return 0.5 * (_alpha.phase(a, _group.inv(a)) + _const)

    phi = GaugePhase.from_callable(group, half_phi)
    return GaugedCocycle(alpha, phi, normalized=True), phi


def check_identities(group: Group, alpha: Cocycle, *, tol: float = 1e-10,
                     samples: int = 1000, box: int = 6,
                     seed: int | None = None) -> VerificationReport:
    """Verify the inverse-pair identities implied by a normalized cocycle.

    For all a, b (exhaustively on finite groups, sampled on lattices):

    * alpha(b^-1, b) = alpha(b, b^-1)
    * alpha(a, b) + alpha(ab, b^-1) = 0
    * alpha(a^-1, b^-1) = -alpha(b, a)
    * alpha(ab, b^-1) = alpha(b^-1, a^-1)
    """
    _require_same_group(group, alpha)
    if not alpha.normalized:
        raise NormalizationRequiredError(
            "identity checks apply to normalized cocycles; call normalize() first")
    report = VerificationReport(suite="cocycle_identities")
    if group.is_finite:
        A = alpha.phase_matrix()
        T = group.index_table()
        inv = group.inverse_indices()
        n = group.order
        ar = np.arange(n)
        r1 = np.abs(reduce_phase(A[inv, ar] - A[ar, inv]))
        cols = np.broadcast_to(inv[None, :], (n, n))
        prod_inv = A[T, cols]                       # alpha(ab, b^-1)
        r2 = np.abs(reduce_phase(A + prod_inv))
        M = A[np.ix_(inv, inv)]                     # alpha(a^-1, b^-1)
        r3 = np.abs(reduce_phase(M + A.T))
        r4 = np.abs(reduce_phase(prod_inv - M.T))
        report.add("inverse_pair_symmetry", float(r1.max()), tol)
        report.add("product_cancellation", float(r2.max()), tol)
        report.add("inverse_antisymmetry", float(r3.max()), tol)
        report.add("inverse_exchange", float(r4.max()), tol)
    else:
        rng = sampling.rng_from_seed(seed)
        worst = [0.0, 0.0, 0.0, 0.0]
        for a, b in sampling.sample_pairs(group, rng, samples, box=box):
            ia, ib = group.inv(a), group.inv(b)
            ab = group.prod(a, b)
            worst[0] = max(worst[0], abs(reduce_phase(
                alpha.phase(ib, b) - alpha.phase(b, ib))))
            worst[1] = max(worst[1], abs(reduce_phase(
                alpha.phase(a, b) + alpha.phase(ab, ib))))
            worst[2] = max(worst[2], abs(reduce_phase(
                alpha.phase(ia, ib) + alpha.phase(b, a))))
            worst[3] = max(worst[3], abs(reduce_phase(
                alpha.phase(ab, ib) - alpha.phase(ib, ia))))
        report.add("inverse_pair_symmetry", worst[0], tol,
                   detail=f"{samples} sampled pairs, box {box}")
        report.add("product_cancellation", worst[1], tol)
        report.add("inverse_antisymmetry", worst[2], tol)
        report.add("inverse_exchange", worst[3], tol)
    return report


def commutator_pairing(group: Group, alpha: Cocycle, a, b) -> float:
    """beta(a, b) = alpha(a, b) - alpha(b, a) mod 2 pi; gauge invariant on abelian groups."""
    _require_same_group(group, alpha)
    if not group.is_abelian:
        raise UnsupportedOperationError(
            "the commutator pairing is defined for abelian groups")
    return reduce_phase(alpha.phase(a, b) - alpha.phase(b, a))


def is_trivial_abelian(group: Group, alpha: Cocycle, *, tol: float = 1e-10) -> bool:
    """True iff the pairing beta vanishes on all pairs (finite abelian groups).

    On finite abelian groups a cocycle is removable by a gauge exactly when
    it is symmetric, so this decides membership in the trivial class.
    """
    _require_same_group(group, alpha)
    if not group.is_finite or not group.is_abelian:
        raise UnsupportedOperationError(
            "triviality detection is implemented for finite abelian groups")
    check = validate_cocycle(group, alpha, tol=tol)
    if not check.passed:
        raise ValueError("input fails the associativity phase constraint")
    A = alpha.phase_matrix()
    beta = np.abs(reduce_phase(A - A.T))
    return bool(beta.max() < tol)
