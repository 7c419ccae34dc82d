"""Fourier analysis on group functions: transforms, convolutions, Plancherel.

Three pictures of the transform f_hat = sum_a f(a) x(a) are supported:

* formal -- the tautological embedding into the algebra (any group, any
  cocycle); inverted by the integration functional.
* matrix -- x(a) realized by concrete monomial matrices obeying the
  projective product rule; verified entrywise at construction.
* character -- the vector case on (Z_n)^D, where the one-dimensional
  representations chi_q(a) = exp(-2 pi i q.a / n) diagonalize everything.
  Integration over the dual group is the D-dimensional DFT, so the
  transform and its inverse are numpy's ``fftn`` and ``ifftn``.

Multiplying transforms deforms the convolution on the function side by the
cocycle phase; :func:`deformed_convolution` is that product.
:func:`moyal_star` is its image on character transforms: inverse FFT, the
finite-group product kernel, forward FFT, for any cocycle.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator

import numpy as np

from . import algebra, cocycles, sampling
from .algebra import AlgebraElement, _compose, _densify, _multiply, _prune
from .cocycles import (Cocycle, _blocks, _require_finite_group, _require_normalized,
                       _require_same_group, _triple_scan, _words, zero_cocycle)
from .errors import RepresentationInconsistencyError, UnsupportedOperationError
from .groups import CyclicPowerGroup, Group
from .integration import (GroupFunction, _random_lattice_functions, _star_integral,
                          as_algebra_element)
from .phases import TWO_PI
from .report import VerificationReport


class FormalRepresentation:
    """Tautological representation: transform values are algebra elements."""

    def __init__(self, group: Group, cocycle: Cocycle):
        _require_same_group(group, cocycle)
        self.group = group
        self.cocycle = cocycle

    def transform(self, f: GroupFunction) -> AlgebraElement:
        return as_algebra_element(f, self.cocycle)


def projective_product_rule(group: Group, perm: np.ndarray, phase: np.ndarray,
                            cocycle: Cocycle | None = None, tol: float | None = None) -> tuple:
    """Bound max|M(a) M(b) - exp(i alpha(a, b)) M(ab)| over all pairs from generator columns.

    For each s in S | {e}, S = ``group.generators()``, one array expression compares
    M(x) M(s) with exp(i alpha(x, s)) M(xs) for every x; g is the worst residual.  Without
    a ``cocycle``, alpha(x, s) is measured there (alpha(e, .) = alpha(., e) = 0 where M(e)
    is exactly I) and the other columns are filled along words:
    alpha(a, bs) = alpha(a, b) + alpha(ab, s) - alpha(b, s).  With unit phases
    (:func:`_as_monomial`), err(a, bs) <= err(a, b) + 2g + c, c the worst
    :func:`_triple_scan` residual, so with L the word depth every pair is within
    (2L + 1) g + L c: O(|S| order dim + |S| order^2) work.  Returns (table, bound,
    worst generator pair, L); a bound not below ``tol`` raises.
    """
    T = group.index_table()
    S, lengths, L = _words(group)
    table = np.zeros(T.shape) if cocycle is None else cocycle.phase_matrix()
    res = np.empty((len(T), S.size))
    with np.errstate(invalid="ignore", divide="ignore"):
        for k, s in enumerate(S):
            p_perm, p_val = _compose((perm, phase), (perm[s], phase[s]))  # M(x) M(s)
            q_val = phase[T[:, s]]
            moved = p_perm != perm[T[:, s]]  # P's entry off Q's column
            if cocycle is None:
                table[:, s] = np.angle(np.where(moved, 0, p_val / q_val).sum(axis=1))
            q_val = np.exp(1j * table[:, s])[:, None] * q_val  # exp(i alpha(x, s)) M(xs)
            r = np.where(moved, np.maximum(np.abs(p_val), np.abs(q_val)), np.abs(p_val - q_val))
            res[:, k] = r.max(axis=1)
        if cocycle is None:
            if perm[0].tolist() == [*range(perm.shape[1])] and set(phase[0].tolist()) == {1}:
                table[0], table[:, 0] = 0.0, 0.0  # M(e) = I: exact zeros, not angles of z / z
            for depth in range(2, L + 1):  # each column c = bs once, from one b a letter shorter
                i, j = np.nonzero((lengths[:, None] == depth - 1) & (lengths[T[:, S]] == depth))
                c, first = np.unique(T[i, S[j]], return_index=True)
                b, s = i[first], S[j[first]]
                x = table[:, b] + table[T[:, b], s] - table[b, s]
                table[:, c] = x - TWO_PI * np.rint(x / TWO_PI)  # [-pi, pi]; np.mod loses digits
    k = int(np.argmax(res))  # the first NaN, so a non-finite pair is reported
    x, s = group.element_at(k // S.size), group.element_at(int(S[k % S.size]))
    bound = (2 * L + 1) * float(res.flat[k]) + L * _triple_scan(group, table, S)[0]
    if tol is not None and not bound < tol:
        raise RepresentationInconsistencyError(
            f"matrices break the projective product rule: bound {bound:.3e} (tol {tol:.1e}), "
            f"worst generator pair ({group.describe(x)}, {group.describe(s)}), depth {L}")
    return table, bound, (x, s), L


def _as_monomial(group: Group, matrices, tol: float) -> tuple:
    """(perm, phase) of a family, the one gate for matrix families: a (perm, phase)
    pair of (order, dim) arrays, checked but not copied, or converted once from
    a mapping of each element to its dense square matrix.

    Row j keeps its largest entry; a matrix with a non-finite entry, or any
    other entry above ``tol``, raises RepresentationInconsistencyError, and so
    does a phase off the unit circle by more than ``tol``, or not finite, naming
    its element: the bound of :func:`projective_product_rule` needs unit phases.
    A bad shape or column index raises ValueError.
    """
    if isinstance(matrices, tuple):
        perm, phase = map(np.asarray, matrices)
        if (perm.ndim != 2 or perm.shape != phase.shape or len(perm) != group.order
                or perm.dtype.kind not in "iu" or phase.dtype.kind not in "iufc"
                or not 0 <= perm.min() <= perm.max() < perm.shape[1]):
            raise ValueError(f"a monomial family is two numeric ({group.order}, dim) "
                             "arrays, perm of column indices in [0, dim)")
    else:
        perm, phase = [], []
        for a in group.indexing()[0]:
            if a not in matrices:
                raise ValueError(f"missing matrix for element {group.describe(a)}")
            m = np.asarray(matrices[a], dtype=complex)
            if m.ndim != 2 or m.shape != (len(perm[0]) if perm else len(m),) * 2:
                raise ValueError("representation matrices must be square, of one dimension")
            cols = np.argmax(np.abs(m), axis=1)
            vals = m[np.arange(len(m)), cols]
            with np.errstate(invalid="ignore"):  # inf - inf is nan, and fails below
                off = float(np.max(np.abs(m - _densify(cols, vals))))
            if not off <= tol:
                raise RepresentationInconsistencyError(
                    f"the matrix of {group.describe(a)} is not monomial with finite "
                    f"entries: {off:.3e} off its rows' largest entries")
            perm.append(cols)
            phase.append(vals)
        perm, phase = np.array(perm), np.array(phase)
    for r in _blocks(len(phase), phase.shape[1]):
        off = np.flatnonzero(~(np.abs(np.abs(phase[r]) - 1) <= tol).all(axis=1))  # NaN fails
        if off.size:
            raise RepresentationInconsistencyError(
                f"the matrix of {group.describe(group.element_at(r.start + int(off[0])))} "
                f"has a non-finite phase or one off the unit circle (tol {tol:.1e})")
    return perm, phase


def _held(a: np.ndarray) -> np.ndarray:
    """``a`` if it and every array in its ``.base`` chain are read-only, else a read-only copy."""
    b = a
    while isinstance(b, np.ndarray) and not b.flags.writeable:
        b = b.base
    if b is not None:
        a = a.copy()
        a.setflags(write=False)
    return a


class MatrixRepresentation:
    """Concrete matrices M(a) with M(a) M(b) = exp(i alpha(a, b)) M(ab).

    The family is monomial, held as two read-only (order, dim) arrays in
    ``group.indexing()`` order: row j of M(a) holds ``phase[a, j]`` in
    column ``perm[a, j]``.  ``matrices`` maps each element to its dense
    matrix, or is the (perm, phase) pair itself, held as is where it and every
    array it views are read-only, else copied.  Non-finite data and phases off
    the unit circle are refused where they enter; with ``check`` the bound
    (2L + 1) g + L c of :func:`projective_product_rule`, from generator columns
    in O(|S| order dim + |S| order^2) work, must lie below ``tol``.
    """

    def __init__(self, group: Group, cocycle: Cocycle, matrices, *,
                 check: bool = True, tol: float = 1e-10):
        _require_same_group(group, cocycle)
        _require_finite_group(group, "a matrix representation")
        perm, phase = map(_held, _as_monomial(group, matrices, tol))
        self.group, self.cocycle, self.perm, self.phase = group, cocycle, perm, phase
        self.dim = int(perm.shape[1])
        if check:
            projective_product_rule(group, perm, phase, cocycle, tol)

    def matrix(self, a) -> np.ndarray:
        ia = self.group.element_index(a)
        return _densify(self.perm[ia], self.phase[ia])

    def row_blocks(self, f: GroupFunction):
        """Rows of sum_a f(a) M(a) in blocks of j, scattered over (j, a): O(order dim).
        An entry's terms share j, so they add in order of a; bins and weights are built
        in (j, a) order, so (T.T, E.T) is read in place, with no transposed copy."""
        _require_same_group(self.group, f)
        vec, d = f._vector(), self.dim
        for c in _blocks(d, len(vec)):
            rows = np.zeros((c.stop - c.start) * d, dtype=complex)
            np.add.at(rows, (np.arange(c.stop - c.start)[:, None] * d + self.perm[:, c].T).ravel(),
                      (vec * self.phase[:, c].T).ravel())
            yield rows.reshape(-1, d)

    def transform(self, f: GroupFunction) -> np.ndarray:
        """sum_a f(a) M(a), from :meth:`row_blocks`."""
        out = np.empty((self.dim, self.dim), dtype=complex)
        for c, rows in zip(_blocks(self.dim, self.group.order), self.row_blocks(f)):
            out[c] = rows
        return out


class CharacterRepresentation:
    """One character chi_q(a) = exp(-2 pi i q.a / n) of (Z_n)^D; vector case only."""

    def __init__(self, group: CyclicPowerGroup, q):
        self.group = _require_cyclic_power(group)
        self.q = group.canonical(q)

    def value(self, a) -> complex:
        a = self.group.canonical(a)
        dot = sum(qi * ai for qi, ai in zip(self.q, a))
        return cmath.exp(-2j * np.pi * dot / self.group.n)

    def transform(self, f: GroupFunction) -> complex:
        _require_same_group(self.group, f)
        return sum(v * self.value(a) for a, v in f.items())


def fourier(f: GroupFunction, rep) -> "AlgebraElement | np.ndarray | complex":
    """Transform of f in the given representation picture."""
    return rep.transform(f)


def _require_cyclic_power(group: Group) -> CyclicPowerGroup:
    if not isinstance(group, CyclicPowerGroup):
        raise UnsupportedOperationError("character tables need a cyclic-power group")
    return group


def character_matrix(group: CyclicPowerGroup) -> np.ndarray:
    """X[q, a] = exp(-2 pi i q.a / n) over the element enumeration order."""
    coords = np.array(list(_require_cyclic_power(group).elements()), dtype=np.int64)
    dots = coords @ coords.T
    return np.exp(-2j * np.pi * dots / group.n)


def _is_zero_cocycle(alpha: Cocycle) -> bool:
    """Whether a finite-group cocycle is the vector case: every phase below 1e-14."""
    A = alpha.phase_matrix()
    return bool(max(A.max(), -A.min()) < 1e-14)


def character_transform(f: GroupFunction, *,
                        volume_normalized: bool = False) -> np.ndarray:
    """Full character table of f, shaped (n,) * D: the D-dimensional DFT.

    With ``volume_normalized`` the sum carries a 1/order factor (the
    compact-group convention); the matching flag on
    :func:`character_inverse` undoes it.
    """
    g = _require_cyclic_power(f.group)
    return np.fft.fftn(f._vector().reshape((g.n,) * g.d),
                       norm="forward" if volume_normalized else "backward")


def character_inverse(table, group: CyclicPowerGroup, *,
                      volume_normalized: bool = False) -> GroupFunction:
    """Inverse of :func:`character_transform`: f(a) = (1/order) sum_q table[q] conj(chi_q(a)).

    ``table`` may have any shape with ``order`` entries, in C order.
    """
    g = _require_cyclic_power(group)
    grid = np.asarray(table, dtype=complex).reshape((g.n,) * g.d)
    vec = np.fft.ifftn(grid, norm="forward" if volume_normalized else "backward")
    return GroupFunction._from_vector(g, vec.ravel())


def regular_matrix_rep(group: Group, cocycle: Cocycle | None = None) -> MatrixRepresentation:
    """The twisted right regular representation of ``cocycle`` (default zero): row b
    of R(a) holds exp(i alpha(b, a)) in column ba, so (perm, phase) is (T.T, E.T),
    held as transposed views of the tables, not copied."""
    alpha = zero_cocycle(group) if cocycle is None else cocycle
    family = (group.index_table().T, alpha.phase_exp().T)
    # Its product rule is the cocycle identity: skip the generator columns and triple scan.
    return MatrixRepresentation(group, alpha, family, check=False)


def convolution_theorem_residual(rep: MatrixRepresentation, f: np.ndarray, g: np.ndarray,
                                 h: np.ndarray, v: np.ndarray) -> float:
    """max|rho(h) v - rho(f) (rho(g) v)| / max(1, max|rho(f) (rho(g) v)|), the worst of a
    (k, length) stack of vectors (1-D: one): 0 up to rounding, which grows with the sums,
    for h = f ⋆_alpha g.  Row j of M(a) v is phase[a, j] v[perm[a, j]], so rho(u) v is one
    gather and one weighted sum of its rows, in blocks of j, k times as wide: no dense
    matrix and no product kernel.  The sums are einsum loops: BLAS pays thread start-up."""
    rho_gv, lhs, rhs = np.empty((3, *v.shape), dtype=complex)
    k = v[..., :1].size
    # One vector is gathered flat, on numpy's 1-D path: twice as fast as take.
    gather = lambda x, c: (x.reshape(-1)[rep.perm[:, c]] if k == 1
                           else np.take(x, rep.perm[:, c], axis=-1))
    # Gathers are weighted in place, phase first: complex * is not commutative to the bit.
    for c in _blocks(rep.dim, k * len(rep.perm)):
        moved = gather(v, c)
        np.multiply(rep.phase[:, c], moved, out=moved)  # row a: (M(a) v)[c]; g and h share it
        rho_gv[..., c], lhs[..., c] = (np.einsum("...aj,...a->...j", moved, u) for u in (g, h))
    for c in _blocks(rep.dim, k * len(rep.perm)):
        moved = gather(rho_gv, c)
        rhs[..., c] = np.einsum("...aj,...a->...j",
                                np.multiply(rep.phase[:, c], moved, out=moved), f)
    num, den = (np.max(np.abs(x), axis=-1) for x in (lhs - rhs, rhs))
    return float(np.max(num / np.maximum(1.0, den)))


def _trial_blocks(group: Group, rng, trials: int, functions: int, extra: int, width: int):
    """Blocks of ``trials`` draws of ``functions`` vectors then ``extra`` values, one
    :func:`sampling.random_complex` call a block (the words of one call a trial), the
    vectors pruned as a GroupFunction's are; as many trials a block as fit ``_CHUNK``
    complex128 slots at ``width`` a trial, at least one."""
    k, n = max(1, cocycles._CHUNK // width), group.order
    for i in range(0, trials, k):
        x = sampling.random_complex(rng, min(k, trials - i) * (functions * n + extra))
        x = x.reshape(-1, functions * n + extra)
        _prune(group, np.arange(n)[:, None], x[:, :functions * n].reshape(len(x), functions, n))
        yield x


def convolution_theorem_trials(rep: MatrixRepresentation, rng, trials: int) -> float:
    """The worst :func:`convolution_theorem_residual` of ``trials`` draws of f, g, then v,
    as stacks through the product kernel and the residual.  A trial's slots: four a pair
    (f g, E's gather, the weights, the index gather and bins) and v gathered twice."""
    _require_normalized(rep.cocycle, "deformed convolution")
    group, n, d = rep.group, rep.group.order, rep.dim
    worst = 0.0
    for x in _trial_blocks(group, rng, trials, 2, d, 2 * n * (2 * n + d)):
        f, g = x[:, :n], x[:, n:2 * n]
        h = algebra._finite_product(group, rep.cocycle.phase_exp(), f, g)
        h = _prune(group, np.arange(n)[:, None], h)
        worst = max(worst, convolution_theorem_residual(rep, f, g, h, x[:, 2 * n:]))
    return worst


def plancherel_trials(alpha: Cocycle, rng, trials: int) -> float:
    """The worst |integral(f_hat* f_hat) - sum |f|^2| of :func:`plancherel_values` over
    ``trials`` random functions, one :func:`integration._star_integral` a block: on a
    finite group stacks, at the 16 slots a value its draw makes (words through the mix,
    floats, values); on a lattice one function a block, all drawn at once."""
    group, worst = alpha.group, 0.0
    blocks = (_trial_blocks(group, rng, trials, 1, 0, 16 * group.order) if group.is_finite
              else _random_lattice_functions(group, rng, trials))
    for x in blocks:
        lhs, vals, _ = _star_integral(alpha, x, x)
        for value, row in zip(np.atleast_1d(lhs).tolist(), np.atleast_2d(vals)):
            worst = max(worst, abs(value - sum(abs(v) ** 2 for v in row.tolist())))
    return worst


def matrix_rep_inverse(fhat, rep: MatrixRepresentation) -> GroupFunction:
    """Recover f from a matrix-picture transform via trace orthogonality.

    Uses f(a) = (1/dim) Tr[M(a)^dagger fhat], valid whenever
    (1/dim) Tr[M(a)^dagger M(b)] = delta_{a,b} -- true for the regular
    representation and for the torus realizations built in
    :mod:`projalg.clockshift`.  Here that is a gather: the trace is
    sum_j conj(phase[a, j]) fhat[j, perm[a, j]], added in order of j, so the
    matrix and its :meth:`MatrixRepresentation.row_blocks` give the same bits.
    """
    if not isinstance(fhat, Iterator):
        fhat = np.asarray(fhat, dtype=complex)
        if fhat.shape != (rep.dim, rep.dim):
            raise ValueError(f"expected a {rep.dim}x{rep.dim} transform, got {fhat.shape}")
        fhat = map(fhat.__getitem__, _blocks(rep.dim, len(rep.perm)))
    vals, j = np.zeros(len(rep.perm), dtype=complex), 0
    for rows in fhat:  # gathered in (j, a) order
        c, j = slice(j, j + len(rows)), j + len(rows)
        terms = rows[np.arange(len(rows))[:, None], rep.perm[:, c].T]
        # A conjugated copy of the phases: conj(phase conj(t)) flips signs of exact zeros.
        for t in np.multiply(rep.phase[:, c].T.conj(), terms, out=terms):
            vals += t
    if j != rep.dim:
        raise ValueError(f"expected {rep.dim} transform rows, got {j}")
    return GroupFunction._from_vector(rep.group, vals / rep.dim)


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
    _require_finite_group(group, "vector-case inversion")
    if cocycle is not None and not _is_zero_cocycle(cocycle):
        raise UnsupportedOperationError(
            "inversion by summing representations applies to the vector "
            "case; use the algebraic inverse for projective data")
    fhat = np.asarray(fhat, dtype=complex)
    if isinstance(group, CyclicPowerGroup) and fhat.shape == (group.n,) * group.d:
        return character_inverse(fhat, group)
    if fhat.shape == (group.order, group.order):
        return matrix_rep_inverse(fhat, regular_matrix_rep(group))
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
    _require_normalized(alpha, "deformed convolution")
    return _multiply(alpha, f1, f2)


def plancherel_values(f: GroupFunction, alpha: Cocycle) -> tuple[complex, float]:
    """(integral(f_hat* f_hat), sum |f(a)|^2) for the formal transform, both summed
    in the order of the terms of :func:`integration._star_integral` of f with
    itself: the two routes differ by the rounding of each term, not of the sums."""
    lhs, vals, _ = _star_integral(alpha, f, f)
    return lhs, float(sum(abs(v) ** 2 for v in vals.tolist()))


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

    f and g are recovered by the inverse FFT, multiplied once by the
    finite-group product kernel, sum_{a,b} f(a) g(b) exp(i alpha(a, b)) x(a + b),
    and the product is transformed back by the forward FFT.  Any cocycle is
    accepted, normalized or not; for a normalized one the result is the
    character transform of deformed_convolution(f, g, alpha), and for the
    zero cocycle it is the pointwise product.
    """
    group = _require_cyclic_power(alpha.group)
    shape = (group.n,) * group.d
    ft = np.asarray(ftilde, dtype=complex)
    gt = np.asarray(gtilde, dtype=complex)
    if ft.shape != shape or gt.shape != shape:
        raise ValueError(f"dual tables must have shape {shape}")
    f, g = (character_inverse(t, group) for t in (ft, gt))
    return character_transform(_multiply(alpha, f, g))
