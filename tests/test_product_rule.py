"""The one-pass product-rule check against the per-pair loops it replaced.

``projective_product_rule`` measures or checks M(a) M(b) = exp(i alpha(a, b))
M(ab) for a whole matrix family, and ``self_conjugacy_residual`` evaluates
C R(a) C = L(a) in index space.  The reference functions below are the loops
``measure_cocycle_from_matrices``, ``MatrixRepresentation``,
``consistency_check`` and the self-conjugacy checks used to run, one pair (or
one dense matrix product) at a time.
"""

import cmath

import numpy as np
import pytest

import projalg as pa
from projalg.algebra import self_conjugacy_residual
from projalg.harmonic import projective_product_rule
from projalg.phases import reduce_phase

S3 = pa.symmetric_group(3)
S4 = pa.symmetric_group(4)


# -- reference per-pair loops ----------------------------------------------------


def ref_measure(group, matrices, tol=1e-10):
    """Phase table of a family, one pair at a time; raises on a bad pair."""
    n = group.order
    table = np.zeros((n, n))
    for a in group.elements():
        ia = group.element_index(a)
        for b in group.elements():
            ib = group.element_index(b)
            P = matrices[a] @ matrices[b]
            Q = matrices[group.prod(a, b)]
            mask = np.abs(Q) > 0.5
            if float(np.max(np.abs(P[~mask]), initial=0.0)) > tol:
                raise pa.RepresentationInconsistencyError("support mismatch")
            ratios = P[mask] / Q[mask]
            mean = ratios.mean()
            if float(np.max(np.abs(ratios - mean))) > tol or abs(abs(mean) - 1) > tol:
                raise pa.RepresentationInconsistencyError("no common phase")
            table[ia, ib] = np.angle(mean)
    return table


def ref_product_residual(group, alpha, matrices):
    """(worst, pair) of max|M(a) M(b) - exp(i alpha(a, b)) M(ab)|."""
    worst, pair = 0.0, (group.identity(), group.identity())
    for a in group.elements():
        for b in group.elements():
            target = cmath.exp(1j * alpha.phase(a, b)) * matrices[group.prod(a, b)]
            r = float(np.max(np.abs(matrices[a] @ matrices[b] - target)))
            if r > worst:
                worst, pair = r, (a, b)
    return worst, pair


def ref_self_conjugacy(group, alpha):
    pair = pa.regular_reps(group, alpha)
    worst = 0.0
    for a in group.elements():
        worst = max(worst, float(np.max(np.abs(
            pair.C @ pair.R[a] @ pair.C - pair.L[a]))))
    return worst


def ref_transform(rep, f):
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for a, v in f.items():
        out += v * rep.matrix(a)
    return out


def ref_matrix_rep_inverse(fhat, rep):
    return pa.GroupFunction(rep.group, {
        a: complex(np.trace(rep.matrix(a).conj().T @ fhat)) / rep.dim
        for a in rep.group.elements()})


# -- families -----------------------------------------------------------------


def torus(n, dressed):
    """(group, matrices) of the clock/shift realization, raw or gauge-dressed."""
    g = pa.make_cyclic_power(n, 2)
    mats = pa.element_matrices(n)
    if dressed:
        _, phi = pa.normalize(g, pa.measured_cocycle(n))
        mats = {m: np.exp(-1j * phi.value(m)) * mats[m] for m in g.elements()}
    return g, mats


def _stack(group, matrices):
    return np.array([matrices[a] for a in group.indexing()[0]])


def tampered(n):
    g, mats = torus(n, dressed=False)
    bad = mats[(1, 1)].copy()
    bad[0, 1] *= np.exp(0.3j)
    return g, {**mats, (1, 1): bad}


def bicharacter(n, theta):
    g = pa.make_cyclic_power(n, 2)
    coords = np.array(list(g.elements()))
    return g, pa.TabulatedCocycle(g, 2 * np.pi * (coords @ theta @ coords.T) / n)


# -- measured tables and residuals -----------------------------------------------


@pytest.mark.parametrize("dressed", [False, True])
@pytest.mark.parametrize("n", range(2, 11))
def test_measured_table_matches_loop(n, dressed):
    g, mats = torus(n, dressed)
    measured = pa.measure_cocycle_from_matrices(g, mats).phase_matrix()
    assert np.max(np.abs(reduce_phase(measured - ref_measure(g, mats)))) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_residual_matches_loop(n):
    g, mats = torus(n, dressed=False)
    alpha = pa.measured_cocycle(n)
    worst_ref, _ = ref_product_residual(g, alpha, mats)
    _, worst, _ = projective_product_rule(g, _stack(g, mats), alpha)
    assert worst < 1e-13 and abs(worst - worst_ref) < 1e-14
    report = pa.consistency_check(n, trials=1)
    check = next(c for c in report.checks if c.name == "projective_product_rule")
    assert abs(check.max_residual - worst_ref) < 1e-14


def test_worst_pair_is_the_broken_one():
    g = pa.make_cyclic_power(3, 2)
    alpha = pa.measured_cocycle(3)
    mats = dict(pa.element_matrices(3))
    mats[(2, 1)] = mats[(2, 1)] * np.exp(0.2j)
    ref_worst, ref_pair = ref_product_residual(g, alpha, mats)
    _, worst, pair = projective_product_rule(g, _stack(g, mats), alpha)
    assert pair == ref_pair
    assert abs(worst - ref_worst) < 1e-14


def test_consistency_check_names_worst_pair():
    report = pa.consistency_check(3, trials=1)
    check = next(c for c in report.checks if c.name == "projective_product_rule")
    assert check.detail.startswith("worst pair (")


# -- rejected families --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4])
def test_tampered_family_raises_in_both(n):
    g, mats = tampered(n)
    with pytest.raises(pa.RepresentationInconsistencyError):
        ref_measure(g, mats)
    with pytest.raises(pa.RepresentationInconsistencyError):
        pa.measure_cocycle_from_matrices(g, mats)
    alpha = pa.measured_cocycle(n)
    assert ref_product_residual(g, alpha, mats)[0] >= 1e-10
    with pytest.raises(pa.RepresentationInconsistencyError):
        pa.MatrixRepresentation(g, alpha, mats)


def test_support_mismatch_raises():
    g, mats = torus(3, dressed=False)
    mats = {**mats, (0, 1): mats[(0, 1)] + 1e-6}
    with pytest.raises(pa.RepresentationInconsistencyError):
        ref_measure(g, mats)
    with pytest.raises(pa.RepresentationInconsistencyError):
        pa.measure_cocycle_from_matrices(g, mats)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_family_raises(entry):
    g, mats = torus(3, dressed=False)
    bad = mats[(1, 2)].copy()
    bad[1, :] = entry
    mats = {**mats, (1, 2): bad}
    with pytest.raises(pa.RepresentationInconsistencyError):
        pa.MatrixRepresentation(g, pa.measured_cocycle(3), mats)
    with pytest.raises(pa.RepresentationInconsistencyError):
        pa.measure_cocycle_from_matrices(g, mats)


# -- the stacked family ------------------------------------------------------------


@pytest.mark.parametrize("rep", [pa.matrix_representation(4), pa.regular_matrix_rep(S3)],
                         ids=["torus", "regular"])
def test_transform_and_inverse_match_loops(rep, rng):
    f = pa.GroupFunction(rep.group, {a: complex(*rng.standard_normal(2))
                                     for a in rep.group.elements()})
    fhat = pa.fourier(f, rep)
    assert np.max(np.abs(fhat - ref_transform(rep, f))) < 1e-12
    back = pa.matrix_rep_inverse(fhat, rep)
    assert back.max_diff(ref_matrix_rep_inverse(fhat, rep)) < 1e-12
    assert back.max_diff(f) < 1e-12


def test_matrices_are_read_only():
    rep = pa.matrix_representation(3)
    with pytest.raises(ValueError):
        rep.matrix((1, 0))[0, 0] = 0


# -- self-conjugacy ------------------------------------------------------------------


def _normalized(group, alpha):
    return pa.normalize(group, alpha)[0]


def _coboundary(group, seed):
    phi = np.random.default_rng(seed).uniform(-np.pi, np.pi, group.order)
    phi[0] = 0.0
    return pa.coboundary(group, pa.GaugePhase.from_table(group, phi))


CONTEXTS = [
    (S3, pa.zero_cocycle(S3)),
    (S3, _coboundary(S3, 1)),
    (S4, pa.zero_cocycle(S4)),
    (S4, _coboundary(S4, 2)),
    (pa.make_cyclic_power(4, 2), pa.measured_cocycle(4)),
    (pa.make_cyclic_power(5, 2), pa.measured_cocycle(5)),
    bicharacter(6, np.array([[1, 0], [0, 0]])),
    bicharacter(6, np.array([[5, 3], [4, 5]])),
    bicharacter(4, np.array([[0, 1], [3, 2]])),
]


@pytest.mark.parametrize("group, alpha", CONTEXTS)
def test_self_conjugacy_bitwise_equal_to_dense_loop(group, alpha):
    alpha_n = _normalized(group, alpha)
    assert self_conjugacy_residual(group, alpha_n) == ref_self_conjugacy(group, alpha_n)


def test_self_conjugacy_detects_a_broken_cocycle():
    # Normalized, but not a cocycle: alpha(3^-1, 1) = 0.5 != alpha(1, 2) = 0.
    g = pa.make_cyclic_power(4, 1)
    table = np.zeros((4, 4))
    table[1, 1] = 0.5
    alpha = pa.TabulatedCocycle(g, table)
    assert alpha.normalized
    ref = ref_self_conjugacy(g, alpha)
    assert ref > 0.1
    assert self_conjugacy_residual(g, alpha) == ref
    with pytest.raises(pa.RepresentationInconsistencyError):
        pa.conjugation_matrix(g, alpha)
