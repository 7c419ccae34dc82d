"""Shift and clock unitaries: the n x n realization of the (Z_n)^2 algebra.

The shift U1 (cyclic permutation) and clock U2 (diagonal n-th roots of
unity) satisfy U1^n = U2^n = 1 and U1 U2 = exp(2 pi i / n) U2 U1.  Each
group element m = (m1, m2) of (Z_n)^2 is realized by the phase-dressed
unitary

    x(m) = exp(i pi m1 m2 / n) U1^m1 U2^m2,

whose traces vanish away from the identity: Tr x(m) = n delta_{m,0}.  The
cocycle of this realization is *measured* from the matrix products rather
than postulated, in the same batched pass over all pairs
(:func:`projalg.harmonic.projective_product_rule`) that checks the product
rule; every downstream identity is checked against the matrices themselves,
and for n = 2 the measured value at ((1,0),(0,1)) is -pi/2.
The gauge-invariant content is the commutator pairing
beta(e1, e2) = 2 pi / n.

Because trace extraction of the identity coefficient equals matrix trace
over n, the integration functional transported to this realization is
(1/n) Tr.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import sampling
from .algebra import AlgebraElement
from .cocycles import TabulatedCocycle, normalize
from .errors import RepresentationInconsistencyError
from .groups import Group, make_cyclic_power
from .harmonic import (MatrixRepresentation, deformed_convolution, fourier,
                       projective_product_rule)
from .integration import GroupFunction, ati_integral, invert
from .report import VerificationReport

SUPPORTED_RANGE = range(2, 17)


def _require_supported(n: int) -> None:
    if n not in SUPPORTED_RANGE:
        raise ValueError(f"n={n} outside the supported range "
                         f"{SUPPORTED_RANGE.start}..{SUPPORTED_RANGE.stop - 1}")


def clock_shift_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(U1, U2): cyclic shift and diagonal clock, both of order n."""
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"clock-shift matrices need n >= 2, got {n}")
    ar = np.arange(n)
    U1 = np.zeros((n, n), dtype=complex)
    U1[ar, (ar + 1) % n] = 1.0
    U2 = np.diag(np.exp(2j * np.pi * ar / n)).astype(complex)
    U1.setflags(write=False)
    U2.setflags(write=False)
    return U1, U2


@functools.lru_cache(maxsize=None)
def _element_stack(n: int) -> np.ndarray:
    """Read-only (n^2, n, n) stack of x(m), in (Z_n)^2 index order."""
    U1, U2 = clock_shift_matrices(n)
    pow1 = [np.eye(n, dtype=complex)]
    pow2 = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        pow1.append(pow1[-1] @ U1)
        pow2.append(pow2[-1] @ U2)
    stack = np.array([np.exp(1j * np.pi * m1 * m2 / n) * (pow1[m1] @ pow2[m2])
                      for m1 in range(n) for m2 in range(n)])
    stack.setflags(write=False)
    return stack


def element_matrices(n: int) -> dict:
    """All phase-dressed unitaries x(m), keyed by canonical m in [0, n)^2."""
    return dict(zip(make_cyclic_power(n, 2).indexing()[0], _element_stack(n)))


def realize(n: int, m) -> np.ndarray:
    """The matrix x(m) = exp(i pi m1 m2 / n) U1^m1 U2^m2."""
    group = make_cyclic_power(n, 2)
    return _element_stack(n)[group.element_index(m)]


def measure_cocycle_from_matrices(group: Group, matrices, *,
                                  tol: float = 1e-10) -> TabulatedCocycle:
    """Extract the cocycle realized by a family of matrices.

    One pass of :func:`projective_product_rule` measures each alpha(a, b)
    and checks x(a) x(b) = exp(i alpha(a, b)) x(ab) entrywise; a family
    that is not a projective representation raises with its worst pair.
    """
    stack = np.array([matrices[a] for a in group.indexing()[0]], dtype=complex)
    table, worst, (a, b) = projective_product_rule(group, stack)
    if not worst < tol:
        raise RepresentationInconsistencyError(
            f"x({group.describe(a)}) x({group.describe(b)}) is not a unit "
            f"phase times the product element (residual {worst:.3e}, "
            f"tol {tol:.1e})")
    return TabulatedCocycle(group, table)


@functools.lru_cache(maxsize=None)
def measured_cocycle(n: int) -> TabulatedCocycle:
    """The cocycle of the phase-dressed realization, tabulated on (Z_n)^2.

    Cached like :func:`_element_stack`: the table is read-only, so callers
    share one measurement per n.
    """
    group = make_cyclic_power(n, 2)
    return measure_cocycle_from_matrices(group, element_matrices(n))


def matrix_representation(n: int, *, normalized: bool = True) -> MatrixRepresentation:
    """The torus realization as a verified matrix representation.

    With ``normalized`` (default) the measured cocycle is normalized and the
    matrices are dressed by the realizing gauge, so the representation's
    cocycle has vanishing identity and inverse-pair phases -- the form the
    convolution and norm identities assume.  For n = 2 the measured cocycle
    is already normalized and the dressing is the identity.
    """
    group = make_cyclic_power(n, 2)
    alpha = measured_cocycle(n)
    stack = _element_stack(n)
    if normalized and not alpha.normalized:
        alpha, phi = normalize(group, alpha)
        stack = np.exp(-1j * phi.table())[:, None, None] * stack
    return MatrixRepresentation(group, alpha, dict(zip(group.indexing()[0], stack)))


def trace_integral(n: int, a_matrix) -> complex:
    """Tr[A] / n: the integration functional transported to the realization."""
    mat = np.asarray(a_matrix, dtype=complex)
    if mat.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} matrix, got {mat.shape}")
    return complex(np.trace(mat)) / n


def consistency_check(n: int, *, trials: int = 20, seed: int | None = None,
                      tol_realize: float = 1e-11, tol_conv: float = 1e-12,
                      tol_trace: float = 1e-12) -> VerificationReport:
    """Tie the realization to the abstract algebra and transform machinery.

    * the dressed matrices realize the measured cocycle on all pairs;
    * the matrix transform of the deformed convolution equals the matrix
      product of transforms (seeded random pairs);
    * (1/n) Tr agrees with the abstract integration functional on seeded
      random elements, transported through inversion and the transform.
    """
    _require_supported(n)
    group = make_cyclic_power(n, 2)
    report = VerificationReport(suite=f"clockshift_n{n}")
    rng = sampling.rng_from_seed(seed)

    U1, U2 = clock_shift_matrices(n)
    eye = np.eye(n)
    pow_res = max(float(np.max(np.abs(np.linalg.matrix_power(U, n) - eye)))
                  for U in (U1, U2))
    report.add("generator_order", pow_res, tol_conv)
    comm = U1 @ U2 @ U1.conj().T @ U2.conj().T
    report.add("commutator_phase",
               float(np.max(np.abs(comm - np.exp(2j * np.pi / n) * eye))),
               tol_conv)

    _, worst, (a, b) = projective_product_rule(group, _element_stack(n))
    report.add("projective_product_rule", worst, tol_realize,
               detail=f"worst pair ({group.describe(a)}, {group.describe(b)})")

    rep = matrix_representation(n)
    alpha = rep.cocycle
    worst = 0.0
    for _ in range(trials):
        f = GroupFunction(group, sampling.random_coefficients(group, rng))
        g = GroupFunction(group, sampling.random_coefficients(group, rng))
        h = deformed_convolution(f, g, alpha)
        lhs = fourier(h, rep)
        rhs = fourier(f, rep) @ fourier(g, rep)
        # n^2-term sums grow with the order, so compare relative to the
        # transform magnitude; at small n this coincides with the entrywise
        # absolute residual.
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    report.add("deformed_convolution_transform", worst, tol_conv,
               detail=f"{trials} random pairs, relative to transform magnitude")

    worst = 0.0
    for _ in range(trials):
        coeffs = sampling.random_coefficients(group, rng)
        u = AlgebraElement(group, alpha, coeffs)
        fhat = fourier(invert(u), rep)
        worst = max(worst, abs(trace_integral(n, fhat) - ati_integral(u)))
    report.add("trace_vs_algebraic_integral", worst, tol_trace,
               detail=f"{trials} random elements")
    return report
