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
from .groups import LATTICE_COORD_LIMIT, Group, LatticeGroup, word_lengths
from .phases import TWO_PI, reduce_phase
from .report import VerificationReport

NORMALIZED_TOL = 1e-12

_CHUNK = 2 ** 13  # pairs per block of an order**2 pass: 128 KiB of complex128


def _blocks(n: int, width: int) -> list:
    """range(n) in slices of about _CHUNK // width rows, at most n, two or more if
    n > 1: numpy sums a lone row, contiguous both ways, in another order."""
    starts = range(0, max(1, n - 1), max(2, _CHUNK // max(1, width)))
    return [slice(i, j) for i, j in zip(starts, [*starts[1:], n])]


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} has non-finite entries")


class GaugePhase:
    """Per-element phase phi used to rescale generators x(a) -> e^{-i phi(a)} x(a)."""

    def __init__(self, group: Group, backing):
        self.group = group
        self._backing = backing  # ndarray (finite) | callable

    @classmethod
    def zero(cls, group: Group) -> "GaugePhase":
        if group.is_finite:
            return cls(group, np.zeros(group.order))
        return cls(group, lambda a: 0.0)

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
        values = {group.canonical(k): float(v) for k, v in mapping.items()}
        return cls(group, lambda a: values.get(a, 0.0))

    @classmethod
    def from_callable(cls, group: Group, fn: Callable) -> "GaugePhase":
        return cls(group, fn)

    def value(self, a) -> float:
        b = self._backing
        if isinstance(b, np.ndarray):
            return float(b[self.group.element_index(a)])
        return float(b(self.group.canonical(a)))

    def table(self) -> np.ndarray:
        """Dense per-index values; finite groups only."""
        g = self.group
        _require_finite_group(g, "a dense phase table")
        if isinstance(self._backing, np.ndarray):
            return self._backing
        return np.array([self.value(a) for a in g.elements()])

    def __neg__(self) -> "GaugePhase":
        b = self._backing
        if isinstance(b, np.ndarray):
            return GaugePhase(self.group, -b)
        return GaugePhase(self.group, lambda a, _fn=b: -_fn(a))


class Cocycle:
    """Base for phase-function backings; phases are returned in (-pi, pi]."""

    group: Group
    normalized: bool

    def phase(self, a, b) -> float:
        raise NotImplementedError

    def phases(self, A, B) -> np.ndarray:
        """alpha at each pair of rows of the integer arrays ``A`` and ``B``.

        Rows are element coordinates; ``A`` and ``B`` are shaped ``(..., d)``
        and broadcast against each other, and the result has their broadcast
        shape without the last axis.  This base version calls :meth:`phase`
        once per pair; backings with a closed array form override it.
        """
        A, B = np.broadcast_arrays(np.asarray(A), np.asarray(B))
        d = A.shape[-1]
        pairs = zip(A.reshape(-1, d).tolist(), B.reshape(-1, d).tolist())
        out = np.array([self.phase(tuple(a), tuple(b)) for a, b in pairs],
                       dtype=float)
        return out.reshape(A.shape[:-1])

    def phase_matrix(self) -> np.ndarray:
        """Full (order, order) phase table; finite groups only."""
        g = self.group
        _require_finite_group(g, "a phase table")
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
        t = reduce_phase(t)  # np.mod makes a new array: the caller's table is not written
        t.setflags(write=False)
        self.group = group
        self._table = t
        self._exp: np.ndarray | None = None
        inverse_pairs = t[np.arange(group.order), group.inverse_indices()]
        self.normalized = bool(max(np.max(np.abs(t[0])), np.max(np.abs(t[:, 0])),
                                   np.max(np.abs(inverse_pairs))) < NORMALIZED_TOL)

    def phase(self, a, b) -> float:
        g = self.group
        return float(self._table[g.element_index(a), g.element_index(b)])

    def phase_matrix(self) -> np.ndarray:
        return self._table

    def phase_exp(self) -> np.ndarray:
        if self._exp is None:
            e = np.multiply(1j, self._table)
            np.exp(e, out=e)
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
        # Summed as Python floats, which overflow to inf without a warning.
        if sum(map(abs, th.ravel().tolist())) * LATTICE_COORD_LIMIT ** 2 == np.inf:
            raise ValueError("bilinear form overflows at coordinates up to 2**53")
        th.setflags(write=False)
        self.group = group
        self._theta = th
        # Only an exactly antisymmetric theta, the form normalize returns, has
        # alpha(a, -a) = 0.0 at every coordinate (see _bilinear_form).
        self.normalized = bool(np.array_equal(th, -th.T))

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    def phase(self, a, b) -> float:
        g = self.group
        return float(self.phases(g.canonical(a), g.canonical(b)))

    def phases(self, A, B) -> np.ndarray:
        """reduce_phase(a . theta . b) over broadcast rows: see :func:`_bilinear_form`."""
        return reduce_phase(_bilinear_form(self._theta, A, B))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BilinearCocycle)
                and self.group == other.group
                and np.array_equal(self._theta, other._theta))

    def __hash__(self) -> int:
        return hash((self.group, self._theta.tobytes()))

    def __repr__(self) -> str:
        return f"BilinearCocycle(d={self.group.d}, normalized={self.normalized})"


def _bilinear_form(theta: np.ndarray, A, B) -> np.ndarray:
    """sum_ij theta[i, j] a_i b_j over broadcast rows, unreduced, in float64.

    Every theta_ii a_i b_i first, then for each i < j the mirrored pair
    theta_ij a_i b_j + theta_ji a_j b_i as one term; each product a_i b_j,
    exact below 2**26, is formed before it is scaled.  For an antisymmetric
    theta each pair of an inverse pair (a, -a) is x - x, so alpha(a, -a) is
    exactly 0 up to LATTICE_COORD_LIMIT.  No BLAS; broadcast-shaped temporaries.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    total = sum(theta[i, i] * (A[..., i] * B[..., i]) for i in range(len(theta)))
    for i in range(len(theta)):
        for j in range(i + 1, len(theta)):
            total = total + (theta[i, j] * (A[..., i] * B[..., j])
                             + theta[j, i] * (A[..., j] * B[..., i]))
    return total


class GaugedCocycle(Cocycle):
    """Lazily gauged cocycle base(a,b) + phi(ab) - phi(a) - phi(b).

    Used on lattice groups, where tabulation is impossible; finite groups
    materialize gauge transforms into fresh tables instead.
    """

    def __init__(self, base: Cocycle, phi: GaugePhase, *, normalized: bool = False):
        _require_same_group(base.group, phi)
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
    """The vector case: alpha identically zero.  On a finite group the tables
    are 0-stride views of one read-only 1+0j and its imaginary part: no order**2
    array is built, and no array in the views' base chain is writeable."""
    if group.is_finite:
        one = np.array(1 + 0j)
        one.setflags(write=False)
        alpha = TabulatedCocycle.__new__(TabulatedCocycle)
        alpha.group, alpha.normalized = group, True
        alpha._exp = np.broadcast_to(one, (group.order, group.order))
        alpha._table = alpha._exp.imag
        return alpha
    return BilinearCocycle(group, np.zeros((group.d, group.d)))


def _require_same_group(group: Group, obj) -> None:
    if obj.group != group:
        raise ContextMismatchError(
            f"{type(obj).__name__} built on {obj.group!r} used with {group!r}")


def _require_normalized(alpha: Cocycle, what: str) -> None:
    if not alpha.normalized:
        raise NormalizationRequiredError(
            f"{what} needs a normalized cocycle; call normalize() first")


def _require_finite_group(group: Group, what: str) -> None:
    if not group.is_finite:
        raise UnsupportedOperationError(f"{what} needs a finite group")


def cocycle_condition_residual(alpha: Cocycle, a, b, c) -> float:
    """|alpha(a,b) + alpha(ab,c) - alpha(b,c) - alpha(a,bc)| reduced mod 2 pi."""
    g = alpha.group
    raw = (alpha.phase(a, b) + alpha.phase(g.prod(a, b), c)
           - alpha.phase(b, c) - alpha.phase(a, g.prod(b, c)))
    return abs(reduce_phase(raw))


def _words(group: Group) -> tuple:
    """(sorted indices of S | {e}, S = ``group.generators()``, word lengths in them, longest)."""
    index = group.indexing()[1]
    S = np.array(sorted({0, *(index[s] for s in group.generators())}))
    lengths = word_lengths(group.index_table(), S)
    return S, lengths, int(lengths.max())


def _triple_scan(group: Group, A: np.ndarray, S: np.ndarray) -> tuple:
    """(worst, first worst (a, b, s)) of |A[a, b] + A[ab, s] - A[b, s] - A[a, bs]| mod 2 pi,
    s in ``S``, in row blocks of about ``_CHUNK`` / 4 triples (16 KiB float64 buffers)."""
    T, n = group.index_table(), group.order
    AS, TS = A[:, S], T[:, S]                 # alpha(b, s), bs
    best, worst = -np.inf, 0
    for r in _blocks(n, 4 * n * S.size):
        x, y = np.empty((2, r.stop - r.start, n, S.size))
        # T holds only valid indices, so mode="clip" merely lets take()
        # write straight into the buffer without a bounds-check copy.
        np.take(AS, T[r], axis=0, out=x, mode="clip")       # alpha(ab, s)
        x += A[r, :, None]                                  # alpha(a, b)
        x -= AS                                             # alpha(b, s)
        x -= np.take(A[r], TS, axis=1, out=y, mode="clip")  # alpha(a, bs)
        # Distance to the nearest multiple of 2 pi: rint keeps digits reduce_phase's np.mod loses.
        np.rint(np.divide(x, TWO_PI, out=y), out=y)
        y *= TWO_PI
        x -= y
        np.abs(x, out=x)
        k = int(np.argmax(x))
        # Ties keep the earlier triple; a NaN wins and ends the scan,
        # as max and argmax over all triples at once would report it.
        if not x.flat[k] <= best:
            best, worst = float(x.flat[k]), r.start * n * S.size + k
            if np.isnan(best):
                break
    a, b, j = np.unravel_index(worst, (n, n, S.size))
    return best, tuple(group.element_at(int(i)) for i in (a, b, S[j]))


def validate_cocycle(group: Group, alpha: Cocycle, *, tol: float = 1e-10,
                     samples: int = 1000, box: int = 6,
                     seed: int | None = None) -> VerificationReport:
    """Check the associativity phase constraint.

    A triple's residual omega(a, b, c) is the distance of
    alpha(a,b) + alpha(ab,c) - alpha(b,c) - alpha(a,bc) to the nearest
    multiple of 2 pi; it equals :func:`cocycle_condition_residual` up to
    rounding.

    Finite groups are checked on the order**2 x (|S| + 1) triples (a, b, s)
    with s the identity or in S = ``group.generators()``.  omega is a
    3-cocycle, so omega(a, b, cs) = omega(a, b, c) + omega(b, c, s)
    - omega(ab, c, s) + omega(a, bc, s); by induction on the length of c as
    a word in S, |omega(a, b, c)| <= (3L + 1) g on the circle, where g is the
    largest generator residual and L the longest shortest word.  The report
    gives (3L + 1) g, so a pass bounds every triple by ``tol``; the scan is
    :func:`_triple_scan`.  The report names the first worst (a, b, s) in index
    order; a NaN phase gives a NaN residual and a failed check.

    Lattices are checked over ``samples`` seeded pseudo-random triples drawn
    from [-box, box]^D coordinates in one call, all residuals computed as
    one array expression over :meth:`Cocycle.phases`.  The report names the
    first worst sampled triple, the identity triple when every residual is
    zero; a NaN phase gives a NaN residual and a failed check, naming the
    first NaN triple.
    """
    _require_same_group(group, alpha)
    report = VerificationReport(suite="cocycle_validation")
    if group.is_finite:
        S, _, depth = _words(group)
        best, (a, b, s) = _triple_scan(group, np.asarray(alpha.phase_matrix(), dtype=float), S)
        report.add("cocycle_condition", (3 * depth + 1) * best, tol,
                   detail=f"worst triple ({group.describe(a)}, "
                          f"{group.describe(b)}, {group.describe(s)}) of "
                          f"{group.order}^2 x {S.size} generator triples, depth {depth}")
    else:
        a, b, c = sampling.lattice_points(group, sampling.rng_from_seed(seed),
                                          samples, 3, box=box)
        r = np.abs(reduce_phase(alpha.phases(a, b) + alpha.phases(a + b, c)
                                - alpha.phases(b, c) - alpha.phases(a, b + c)))
        worst_val, worst_triple = 0.0, (group.identity(),) * 3
        if r.size:
            # argmax names the first worst triple, or the first NaN; an
            # all-zero sample keeps naming the identity triple.
            k = int(np.argmax(r))
            worst_val = float(r[k])
            if not worst_val == 0.0:
                worst_triple = tuple(tuple(p[k].tolist()) for p in (a, b, c))
        report.add("cocycle_condition", worst_val, tol,
                   detail=f"worst sampled triple {worst_triple} "
                          f"({samples} triples, box {box})")
    return report


def _require_cocycle(group: Group, alpha: Cocycle, **kwargs) -> None:
    check = validate_cocycle(group, alpha, **kwargs).checks[0]
    if not check.passed:
        raise ValueError(f"input fails the associativity phase constraint: {check.detail}")


def coboundary(group: Group, phi: GaugePhase) -> Cocycle:
    """The removable cocycle phi(ab) - phi(a) - phi(b); requires phi(e) = 0."""
    _require_same_group(group, phi)
    if abs(phi.value(group.identity())) > 1e-12:
        raise ValueError("gauge phase must vanish at the identity")
    return gauge_transform(zero_cocycle(group), phi)


def gauge_transform(alpha: Cocycle, phi: GaugePhase) -> Cocycle:
    """alpha'(a,b) = alpha(a,b) + phi(ab) - phi(a) - phi(b), reduced mod 2 pi."""
    group = alpha.group
    _require_same_group(group, phi)
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
        _require_cocycle(group, alpha, tol=tol, samples=samples, box=box, seed=seed)
    if group.is_finite:
        A = alpha.phase_matrix()
        if alpha.normalized and not A.any():  # 0 + 0 - 0 - 0: the gauge path's bits
            return alpha, GaugePhase.zero(group)
        inv = group.inverse_indices()
        ar = np.arange(group.order)
        # alpha(a, a^-1) and alpha(a^-1, a) agree only mod 2 pi, and rounding
        # can put them on opposite sides of the branch cut; halving one value
        # per inverse pair keeps phi(a) + phi(a^-1) = alpha(a, a^-1) exact.
        pair = A[np.minimum(ar, inv), np.maximum(ar, inv)]
        phi = GaugePhase.from_table(group, (pair + A[0, 0]) / 2.0)
        # For a cocycle alpha'(a, a^-1) = alpha'(e, a) = alpha'(a, e) = 0; in floats, nearly.
        table = gauge_transform(alpha, phi).phase_matrix().copy()
        table[ar, inv] = table[0] = table[:, 0] = 0.0
        return TabulatedCocycle(group, table), phi
    if isinstance(alpha, BilinearCocycle):
        theta = alpha.theta
        anti = (theta - theta.T) / 2.0

        def quad_phi(a, _theta=theta):
            return -0.5 * float(_bilinear_form(_theta, a, a))

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

    Finite groups check the last three over ``_blocks`` of first elements a.
    On lattices the ``samples`` seeded pairs come from one draw over
    [-box, box]^D and each identity is one array expression over
    :meth:`Cocycle.phases`.  A NaN phase makes its check's residual NaN.
    """
    _require_same_group(group, alpha)
    _require_normalized(alpha, "the identity check")
    report = VerificationReport(suite="cocycle_identities")
    if group.is_finite:
        A = alpha.phase_matrix()
        T = group.index_table()
        inv = group.inverse_indices()
        ar = np.arange(group.order)
        worst = [_max_abs_phase(A[inv, ar] - A[ar, inv]), 0.0, 0.0, 0.0]
        for r in _blocks(group.order, group.order):  # one side of one block alive at a time
            prod_inv = A[T[r], inv]                                    # alpha(ab, b^-1)
            worst[1] = _max_abs_phase(A[r] + prod_inv, worst[1])
            worst[2] = _max_abs_phase(A[inv[r, None], inv] + A[:, r].T, worst[2])
            worst[3] = _max_abs_phase(prod_inv - A[inv[:, None], inv[r]].T, worst[3])
        detail = None
    else:
        a, b = sampling.lattice_points(group, sampling.rng_from_seed(seed),
                                       samples, 2, box=box)
        ia, ib, ab = -a, -b, a + b
        prod_inv = alpha.phases(ab, ib)
        worst = map(_max_abs_phase, (alpha.phases(ib, b) - alpha.phases(b, ib),
                                     alpha.phases(a, b) + prod_inv,
                                     alpha.phases(ia, ib) + alpha.phases(b, a),
                                     prod_inv - alpha.phases(ib, ia)))
        detail = f"{samples} sampled pairs, box {box}"
    names = ("inverse_pair_symmetry", "product_cancellation",
             "inverse_antisymmetry", "inverse_exchange")
    for name, w in zip(names, worst):
        report.add(name, float(w), tol, detail=detail if name == names[0] else None)
    return report


def _max_abs_phase(r: np.ndarray, worst: float = 0.0) -> float:
    """max(worst, max |reduce_phase(r)|); NaN propagates, so a NaN phase fails."""
    return np.maximum(worst, np.max(np.abs(reduce_phase(r)), initial=0.0))


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
    _require_cocycle(group, alpha, tol=tol)
    A = alpha.phase_matrix()
    worst = 0.0
    for r in _blocks(group.order, group.order):
        worst = _max_abs_phase(A[r] - A[:, r].T, worst)
    return bool(worst < tol)
