"""Shift and clock unitaries: the n x n realization of the (Z_n)^2 algebra.

The shift U1 (cyclic permutation) and clock U2 (diagonal n-th roots of
unity) satisfy U1^n = U2^n = 1 and U1 U2 = exp(2 pi i / n) U2 U1.  Each
group element m = (m1, m2) of (Z_n)^2 is realized by the phase-dressed
unitary

    x(m) = exp(i pi m1 m2 / n) U1^m1 U2^m2,

whose traces vanish away from the identity: Tr x(m) = n delta_{m,0}.  Each
x(m) is monomial, built in closed form: row j holds exp(i pi m1 m2 / n)
omega^(m2 (j + m1)), omega = exp(2 pi i / n), in column j + m1 mod n.  Only
:func:`element_matrices` and :func:`realize` build dense matrices.  The
cocycle of this realization is *measured* from the matrix products rather
than postulated: :func:`projalg.harmonic.projective_product_rule` measures it on
generator columns, fills the rest along words and bounds all pairs by (2L + 1) g
+ L c (unit phases only) in O(n^4) work; every identity downstream is checked
against the matrices, and for n = 2 the measured value at ((1,0),(0,1)) is -pi/2.
The gauge-invariant content is the commutator pairing
beta(e1, e2) = 2 pi / n.

Because trace extraction of the identity coefficient equals matrix trace
over n, the integration functional transported to this realization is
(1/n) Tr.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import sampling
from .algebra import _compose, _dagger, _densify
from .cocycles import TabulatedCocycle, normalize
from .groups import VALIDATION_ORDER_LIMIT, Group, make_cyclic_power
from .harmonic import (MatrixRepresentation, _as_monomial,
                       convolution_theorem_trials, fourier,
                       projective_product_rule)
from .integration import _random_function, as_algebra_element, ati_integral, invert
from .report import VerificationReport

SUPPORTED_RANGE = range(2, math.isqrt(VALIDATION_ORDER_LIMIT) + 1)  # n^2 within the order bound


def _require_supported(n: int) -> None:
    if n not in SUPPORTED_RANGE:
        raise ValueError(f"n={n} outside the supported range "
                         f"{SUPPORTED_RANGE.start}..{SUPPORTED_RANGE.stop - 1}")


def clock_shift_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(U1, U2) = (x(1, 0), x(0, 1)): cyclic shift and diagonal clock, of order n."""
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"clock-shift matrices need n >= 2, got {n}")
    return realize(n, (1, 0)), realize(n, (0, 1))


def _rows(n: int, m1, m2) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of x(m) for m1, m2 of one shape; exponents in pi / n, mod 2n."""
    m1, m2 = np.asarray(m1)[..., None], np.asarray(m2)[..., None]
    perm = (np.arange(n) + m1) % n
    return perm, np.exp(1j * np.pi * ((m1 * m2 + 2 * m2 * perm) % (2 * n)) / n)


def _family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of every x(m), each of shape (n^2, n), in index order."""
    return _rows(n, *np.divmod(np.arange(n * n), n))


def element_matrices(n: int) -> dict:
    """All phase-dressed unitaries x(m), keyed by canonical m in [0, n)^2."""
    return dict(zip(make_cyclic_power(n, 2).indexing()[0], _densify(*_family(n))))


def realize(n: int, m) -> np.ndarray:
    """The matrix x(m) = exp(i pi m1 m2 / n) U1^m1 U2^m2."""
    return _densify(*_rows(n, *make_cyclic_power(n, 2).canonical(m)))


def measure_cocycle_from_matrices(group: Group, matrices, *,
                                  tol: float = 1e-10) -> TabulatedCocycle:
    """Extract the cocycle realized by a family of matrices.

    ``matrices`` is taken as :class:`MatrixRepresentation` takes it, unit phases
    only.  :func:`projective_product_rule` measures alpha on generator columns,
    fills the rest along words and bounds every pair by (2L + 1) g + L c, in
    O(|S| order dim + |S| order^2) work; a bound not below ``tol`` raises.
    ``_witness`` is (bound, worst generator pair, L).
    """
    table, *witness = projective_product_rule(group, *_as_monomial(group, matrices, tol), tol=tol)
    alpha = TabulatedCocycle(group, table)
    alpha._witness = witness
    return alpha


@functools.lru_cache(maxsize=None)
def measured_cocycle(n: int) -> TabulatedCocycle:
    """The cocycle of the phase-dressed realization, tabulated on (Z_n)^2.

    Cached: the table is read-only, so callers share one measurement per n.
    """
    return measure_cocycle_from_matrices(make_cyclic_power(n, 2), _family(n))


def matrix_representation(n: int, *, normalized: bool = True) -> MatrixRepresentation:
    """The torus realization as a verified matrix representation.

    With ``normalized`` (default) the measured cocycle is normalized and the
    phases are dressed by the realizing gauge, so the representation's
    cocycle has vanishing identity and inverse-pair phases -- the form the
    convolution and norm identities assume.  For n = 2 the measured cocycle
    is already normalized and the dressing is the identity.
    """
    group = make_cyclic_power(n, 2)
    alpha = measured_cocycle(n)
    perm, phase = _family(n)
    if normalized and not alpha.normalized:
        alpha, phi = normalize(group, alpha)
        phase = np.exp(-1j * phi.table())[:, None] * phase
    for arr in (perm, phase):  # fresh arrays: held read-only, not copied
        arr.setflags(write=False)
    return MatrixRepresentation(group, alpha, (perm, phase))


def trace_integral(n: int, a_matrix) -> complex:
    """Tr[A] / n: the integration functional transported to the realization."""
    mat = np.asarray(a_matrix, dtype=complex)
    if mat.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} matrix, got {mat.shape}")
    return complex(np.trace(mat)) / n


def consistency_check(n: int, *, trials: int = 20, seed: int | None = None,
                      tol: float | None = None) -> VerificationReport:
    """Tie the realization to the abstract algebra and transform machinery.

    * the matrices realize the measured cocycle on all pairs: the report
      gives the cached measurement's bound (2L + 1) g + L c over all pairs,
      from generator columns of unit phases in O(|S| order n + |S| order^2)
      work, its worst generator pair and L; the dressed representation is
      bounded again when it is built;
    * the matrix transform of the deformed convolution equals the matrix
      product of transforms on a random vector (seeded random pairs);
    * (1/n) Tr agrees with the abstract integration functional on seeded
      random elements, transported through inversion and the transform.

    ``tol`` replaces every tolerance: by default 1e-11 for the product rule, else 1e-12.
    """
    _require_supported(n)
    tol_rule, tol = (1e-11, 1e-12) if tol is None else (tol, tol)
    group = make_cyclic_power(n, 2)
    report = VerificationReport(suite=f"clockshift_n{n}")
    rng = sampling.rng_from_seed(seed)

    # Monomial products, then elementwise residuals: no BLAS.
    U1, U2 = _rows(n, 1, 0), _rows(n, 0, 1)
    off = lambda x, z: float(np.max(np.abs(_densify(*x) - z * np.eye(n))))
    report.add("generator_order", max(off(functools.reduce(_compose, [U] * n), 1)
                                      for U in (U1, U2)), tol)
    comm = functools.reduce(_compose, (U1, U2, _dagger(U1), _dagger(U2)))
    report.add("commutator_phase", off(comm, np.exp(2j * np.pi / n)), tol)

    rep = matrix_representation(n)
    bound, (x, s), depth = measured_cocycle(n)._witness
    report.add("projective_product_rule", bound, tol_rule,
               detail=f"bound (2L + 1) g + L c, worst generator pair "
                      f"({group.describe(x)}, {group.describe(s)}), depth {depth}")

    alpha = rep.cocycle
    worst = convolution_theorem_trials(rep, rng, trials)
    report.add("deformed_convolution_transform", worst, tol,
               detail=f"{trials} random pairs, relative to transform magnitude")

    worst = 0.0
    for _ in range(trials):
        u = as_algebra_element(_random_function(group, rng), alpha)
        fhat = fourier(invert(u), rep)
        worst = max(worst, abs(trace_integral(n, fhat) - ati_integral(u)))
    report.add("trace_vs_algebraic_integral", worst, tol,
               detail=f"{trials} random elements")
    return report
