"""The one-pass product-rule check against the per-pair loops it replaced.

``projective_product_rule`` measures or checks M(a) M(b) = exp(i alpha(a, b))
M(ab) for a whole monomial family, and ``self_conjugacy_residual`` evaluates
C R(a) C = L(a) in index space.  The reference functions below are the loops
``measure_cocycle_from_matrices``, ``MatrixRepresentation``,
``consistency_check`` and the self-conjugacy checks used to run, one pair (or
one dense matrix product) at a time, and the batched dense matmul pass
(``ref_product_rule``) that held the family as an (order, dim, dim) stack.
"""

import cmath
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg import clockshift
from projalg.algebra import self_conjugacy_residual
from projalg.harmonic import _as_monomial, projective_product_rule
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


def ref_product_rule(group, stack, cocycle=None):
    """The batched dense pass: (table, worst, pair, per-pair residuals).

    ``stack[i]`` is M of element i in ``group.indexing()`` order; each a takes
    one batched matmul over all b.
    """
    elems, _ = group.indexing()
    T = group.index_table()
    table = np.zeros(T.shape) if cocycle is None else cocycle.phase_matrix().copy()
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
    ia, ib = np.unravel_index(int(np.argmax(res)), res.shape)
    return table, float(res[ia, ib]), (elems[ia], elems[ib]), res


def dense(perm, phase):
    """(order, dim, dim) stack of a monomial family, built entry by entry."""
    order, dim = perm.shape
    stack = np.zeros((order, dim, dim), dtype=complex)
    for a in range(order):
        for j in range(dim):
            stack[a, j, perm[a, j]] = phase[a, j]
    return stack


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


def _arrays(group, matrices):
    return _as_monomial(group, matrices, 1e-10)


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
    _, worst, _ = projective_product_rule(g, *_arrays(g, mats), alpha)
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
    _, worst, pair = projective_product_rule(g, *_arrays(g, mats), alpha)
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


def test_caller_arrays_are_copied_not_frozen():
    g, perm, phase = _z2_family()
    perm, phase = perm.copy(), phase.copy()
    rep = pa.MatrixRepresentation(g, pa.zero_cocycle(g), (perm, phase))
    assert perm.flags.writeable and phase.flags.writeable
    held = rep.perm.copy(), rep.phase.copy()
    perm[:], phase[:] = 0, 7.0
    assert np.array_equal(rep.perm, held[0]) and np.array_equal(rep.phase, held[1])


def test_read_only_views_of_writeable_arrays_are_copied():
    g, perm, phase = _z2_family()
    bases = perm.copy(), phase.copy()
    views = [b.view() for b in bases]
    for v in views:
        v.setflags(write=False)
    rep = pa.MatrixRepresentation(g, pa.zero_cocycle(g), tuple(views))
    held = rep.perm.copy(), rep.phase.copy()
    bases[0][:], bases[1][1, 0] = 0, 5.0
    assert np.array_equal(rep.perm, held[0]) and np.array_equal(rep.phase, held[1])


def test_read_only_tables_are_held_in_place():
    alpha = _coboundary(S3, 1)
    for cocycle in (alpha, pa.zero_cocycle(S3)):
        rep = pa.regular_matrix_rep(S3, cocycle)
        assert np.shares_memory(rep.phase, cocycle.phase_exp())
        assert np.shares_memory(rep.perm, S3.index_table())


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


# -- monomial pass against the dense stack ------------------------------------------


def _coboundary_regular(group, seed):
    """(perm, phase, cocycle) of the right regular family of a coboundary."""
    alpha = _coboundary(group, seed)
    return group.index_table().T, alpha.phase_exp().T, alpha


FAMILIES = [
    lambda: _coboundary_regular(pa.make_cyclic_power(3, 1), 3),
    lambda: _coboundary_regular(pa.make_cyclic_power(2, 2), 4),
    lambda: _coboundary_regular(S3, 5),
    lambda: (*clockshift._family(2), pa.measured_cocycle(2)),
    lambda: (*clockshift._family(3), pa.measured_cocycle(3)),
]


@st.composite
def monomial_families(draw):
    """A valid monomial family, relabelled by a random monomial unitary V
    (M -> V M V^dagger), then tampered: phase turns and modulus changes of
    single entries, two rows sent to one column.  Every phase stays finite,
    as ``_as_monomial`` requires of a family before the pass.

    Turns stay within 0.5 rad, so each pair's ratios P / Q lie in a half
    plane and their mean is far from 0: the measured angle is well
    conditioned, and both summation orders agree to rounding.
    """
    perm, phase, alpha = FAMILIES[draw(st.integers(0, len(FAMILIES) - 1))]()
    group = alpha.group
    order, dim = perm.shape
    sigma = np.array(draw(st.permutations(range(dim))))
    turn = np.exp(1j * np.array(draw(st.lists(st.floats(-np.pi, np.pi),
                                              min_size=dim, max_size=dim))))
    # Row j of V M(a) V^dagger holds turn[j] phase[a, sigma[j]] conj(turn[k])
    # in column k = sigma^-1(perm[a, sigma[j]]).
    inv = np.argsort(sigma)
    perm = inv[perm[:, sigma]]
    phase = turn * phase[:, sigma] * turn[perm].conj()
    entry = st.tuples(st.integers(0, order - 1), st.integers(0, dim - 1))
    for kind, (a, j) in draw(st.lists(st.tuples(
            st.sampled_from(["turn", "scale", "collide"]), entry), max_size=3)):
        if kind == "turn":
            phase[a, j] *= np.exp(1j * draw(st.floats(-0.5, 0.5)))
        elif kind == "scale":
            phase[a, j] *= draw(st.floats(0.3, 2.0))
        elif kind == "collide" and dim > 1:
            perm[a, j] = perm[a, (j + 1) % dim]
    return group, perm, phase, draw(st.sampled_from([None, alpha]))


def assert_matches_dense_stack(group, perm, phase, cocycle):
    table, worst, pair = projective_product_rule(group, perm, phase, cocycle)
    ref_table, ref_worst, ref_pair, ref_res = ref_product_rule(
        group, dense(perm, phase), cocycle)
    nan = np.isnan(ref_table)
    assert np.array_equal(np.isnan(table), nan)
    assert np.max(np.abs(reduce_phase(table - ref_table)[~nan]), initial=0.0) < 1e-14
    if np.isnan(ref_worst):
        assert np.isnan(worst) and pair == ref_pair
        return
    assert abs(worst - ref_worst) < 1e-14
    # Pairs whose residuals tie to rounding are told apart by summation
    # order alone, so a tie may name any of its pairs.
    index = group.indexing()[1]
    tied = ref_res >= ref_worst - 1e-14
    assert tied[index[pair[0]], index[pair[1]]]
    if tied.sum() == 1:
        assert pair == ref_pair


@settings(max_examples=150, deadline=None)
@given(monomial_families())
def test_monomial_pass_matches_dense_stack(family):
    assert_matches_dense_stack(*family)


def _crafted():
    """A family on Z_3 where a row of P and of Q sit in different columns.

    Row 0 of M(1) is tripled and row 1 of M(2) shares row 0's column, so
    row 0 of M(1) M(2) alone holds the largest modulus, off Q's column.
    """
    perm, phase, alpha = _coboundary_regular(pa.make_cyclic_power(3, 1), 3)
    perm, phase = perm.copy(), phase.copy()
    phase[1, 0] *= 3.0
    perm[2, 1] = perm[2, 0]
    return alpha.group, perm, phase, alpha


@pytest.mark.parametrize("measure", [False, True])
def test_crafted_families_match_dense_stack(measure):
    group, perm, phase, alpha = _crafted()
    assert_matches_dense_stack(group, perm, phase, None if measure else alpha)
    _, worst, pair = projective_product_rule(group, perm, phase, alpha)
    assert abs(worst - 3.0) < 1e-12 and pair == ((1,), (2,))


def _unitary(dim, seed):
    z = np.random.default_rng(seed).standard_normal((dim, 2 * dim)).view(complex)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(n, V):
    g = pa.make_cyclic_power(n, 2)
    return g, {m: V @ x @ V.conj().T for m, x in pa.element_matrices(n).items()}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_non_monomial_family_is_rejected(n):
    """A unitary conjugate of the clock/shift family realizes the same cocycle,
    but its matrices are not monomial, so it is refused, naming an element."""
    g, mats = _conjugated(n, _unitary(n, n))
    with pytest.raises(pa.RepresentationInconsistencyError, match="not monomial"):
        pa.MatrixRepresentation(g, pa.measured_cocycle(n), mats)
    with pytest.raises(pa.RepresentationInconsistencyError, match="not monomial"):
        pa.measure_cocycle_from_matrices(g, mats)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_matrix_is_named(entry):
    g, mats = torus(3, dressed=False)
    bad = mats[(1, 2)].copy()
    bad[1, 0] = entry
    mats = {**mats, (1, 2): bad}
    for build in (lambda: pa.MatrixRepresentation(g, pa.measured_cocycle(3), mats,
                                                  check=False),
                  lambda: pa.measure_cocycle_from_matrices(g, mats)):
        with pytest.raises(pa.RepresentationInconsistencyError,
                           match=r"matrix of \(1, 2\) is not monomial with finite"):
            build()


# -- (perm, phase) families are checked where they enter -----------------------------


def _z2_family():
    g = pa.make_cyclic_power(2, 1)
    return g, g.index_table().T, pa.zero_cocycle(g).phase_exp().T


def test_negative_perm_is_refused():
    """perm = T.T - 2 passes the product rule on Z_2, as every gather wraps the
    negative columns alike, yet the transform's flat bins wrap into the other row."""
    g, perm, phase = _z2_family()
    with pytest.raises(ValueError, match="column indices"):
        pa.MatrixRepresentation(g, pa.zero_cocycle(g), (perm - 2, phase))


@pytest.mark.parametrize("bad", ["float perm", "perm past dim", "missing row", "one-d"])
def test_malformed_family_is_refused(bad):
    g, perm, phase = _z2_family()
    family = {"float perm": (perm.astype(float), phase),
              "perm past dim": (perm + 2, phase),
              "missing row": (perm[:1], phase[:1]),
              "one-d": (perm[0], phase[0])}[bad]
    with pytest.raises(ValueError, match="column indices"):
        pa.MatrixRepresentation(g, pa.zero_cocycle(g), family, check=False)
    with pytest.raises(ValueError, match="column indices"):
        pa.measure_cocycle_from_matrices(g, family)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(np.inf, np.nan)])
def test_non_finite_phase_is_refused_without_the_check(entry):
    g, perm, phase = _z2_family()
    phase = phase.copy()
    phase[1, 0] = entry
    with pytest.raises(pa.RepresentationInconsistencyError, match="non-finite phase"):
        pa.MatrixRepresentation(g, pa.zero_cocycle(g), (perm, phase), check=False)
    # The product-rule pass itself still reports a NaN residual, not an error.
    with np.errstate(invalid="ignore"):  # 0 * inf
        assert np.isnan(projective_product_rule(g, perm, phase, pa.zero_cocycle(g))[1])


@pytest.mark.parametrize("entry", [np.inf, complex(np.inf, np.nan)])
@pytest.mark.parametrize("measure", [False, True])
def test_product_rule_pass_on_an_infinite_phase_warns_nothing(entry, measure):
    # Complex products with an infinite phase form 0 * inf under the pass's own
    # errstate; only _as_monomial keeps such a family from the pass.
    g, perm, phase = _z2_family()
    phase = phase.copy()
    phase[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = projective_product_rule(g, perm, phase,
                                        None if measure else pa.zero_cocycle(g))[1]
    assert np.isnan(worst)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dft_conjugate_stays_monomial(n):
    """The DFT maps the shift to a clock and the clock to a shift (up to
    inverses), so the DFT-conjugated family is monomial again and realizes
    the same cocycle."""
    k = np.arange(n)
    F = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    g, mats = _conjugated(n, F)
    measured = pa.measure_cocycle_from_matrices(g, mats).phase_matrix()
    assert np.max(np.abs(reduce_phase(
        measured - pa.measured_cocycle(n).phase_matrix()))) < 1e-12
    pa.MatrixRepresentation(g, pa.measured_cocycle(n), mats)


def test_regular_transform_round_trip_memory(rng):
    """The regular family on (Z_6)^3 is two (216, 216) arrays: no R(a), L(a)
    or (order, dim, dim) stack is built to transform and invert."""
    group = pa.make_cyclic_power(6, 3)
    f = pa.GroupFunction(group, {a: complex(*rng.standard_normal(2))
                                 for a in group.elements()})
    tracemalloc.start()
    try:
        rep = pa.regular_matrix_rep(group)
        back = pa.matrix_rep_inverse(pa.fourier(f, rep), rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.max_diff(f) < 1e-12
    assert peak < 8 * 2 ** 20
