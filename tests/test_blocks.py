"""The order**2 passes on finite groups, run over blocks of ``cocycles._CHUNK``.

The one-shot expressions below are the forms these passes had before they
were split into row or column blocks.  With the budget patched down to a few
pairs, so that every pass runs many blocks, the product, the matrix transform
and its inverse, the identity check, the self-conjugacy residual, the
triviality test and the monomial gate must equal their one-shot forms bit for
bit, NaN phases included, and the convolution-theorem residual, whose einsum
sums depend on the layout, must agree to 1e-14.  Traced runs at orders 216
and 1024 bound what each pass allocates at the default budget of 2**13 pairs
(128 KiB of complex128): under 0.75 and 1 MiB, where each traced at most 0.6.
"""

import copy
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import projalg as pa
from projalg import algebra, cocycles, harmonic
from projalg.phases import reduce_phase

from test_harmonic import bicharacter

BUDGETS = [7, 1000]


def binned_sum(bins, w, n):
    """Complex sums of ``w`` into ``n`` bins, accumulated in C order."""
    h = np.zeros(n, dtype=complex)
    np.add.at(h, bins.ravel(), w.ravel())
    return h


def one_shot_product(group, E, f, g):
    sf, sg = np.flatnonzero(f), np.flatnonzero(g)
    rows = np.ix_(sf, sg)
    return binned_sum(group.index_table()[rows],
                      f[sf, None] * g[None, sg] * E[rows], group.order)


def one_shot_transform(rep, f):
    d = rep.dim
    weights = f._vector()[:, None] * rep.phase
    return binned_sum((np.arange(d) * d + rep.perm).T, weights.T, d * d).reshape(d, d)


def one_shot_inverse(fhat, rep):
    gathered = fhat[np.arange(rep.dim), rep.perm]
    vals = (rep.phase.conj() * gathered).sum(axis=1) / rep.dim
    return pa.GroupFunction._from_vector(rep.group, vals)


def one_shot_residual(rep, f, g, h, v):
    moved = rep.phase * v[rep.perm]
    gv = np.einsum("aj,a->j", moved, g._vector())
    rhs = np.einsum("aj,a->j", rep.phase * gv[rep.perm], f._vector())
    lhs = np.einsum("aj,a->j", moved, h._vector())
    return float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs))))


def one_shot_identities(group, alpha):
    A = alpha.phase_matrix()
    T, inv, ar = group.index_table(), group.inverse_indices(), np.arange(group.order)
    prod_inv = A[T, inv]
    M = A[np.ix_(inv, inv)]
    sides = (A[inv, ar] - A[ar, inv], A + prod_inv, M + A.T, prod_inv - M.T)
    return [float(np.max(np.abs(reduce_phase(r)), initial=0.0)) for r in sides]


def one_shot_self_conjugacy(group, alpha):
    E, T, inv = alpha.phase_exp(), group.index_table(), group.inverse_indices()
    return float(np.max(np.abs(E[inv, :].T - np.take_along_axis(E, T[inv], 1))))


def one_shot_beta(alpha):
    A = alpha.phase_matrix()
    return float(np.abs(reduce_phase(A - A.T)).max())


def one_shot_gate_refuses(phase):
    return bool(np.flatnonzero(~(np.abs(phase) < np.inf)).size)


def s4_coboundary():
    g = pa.symmetric_group(4)
    vals = np.random.default_rng(4).uniform(-np.pi, np.pi, g.order)
    vals[0] = 0.0
    return g, pa.coboundary(g, pa.GaugePhase.from_table(g, vals))


def contexts():
    return [bicharacter(6, 3), s4_coboundary()]


def vectors(group, rng):
    """Full, real (whose exact zeros must keep their signs), sparse (three
    entries), one-entry and empty coefficient vectors."""
    n = group.order
    full = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sparse = np.zeros(n, dtype=complex)
    sparse[rng.choice(n, 3, replace=False)] = full[:3]
    single = np.zeros(n, dtype=complex)
    single[n - 1] = 2 - 1j
    return [full, full.real + 0j, sparse, single, np.zeros(n, dtype=complex)]


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("group, alpha", contexts())
def test_product_is_the_one_shot_kernel(group, alpha, budget):
    E = alpha.phase_exp()
    vecs = vectors(group, np.random.default_rng(1))
    with mock.patch.object(cocycles, "_CHUNK", budget):
        for f in vecs:
            for g in vecs:
                got = algebra._finite_product(group, E, f, g)
                assert_same_bits(got, one_shot_product(group, E, f, g))


def assert_transform_and_inverse_are_one_shot(rep, budget, rng):
    for vec in vectors(rep.group, rng):
        f = pa.GroupFunction._from_vector(rep.group, vec)
        with mock.patch.object(cocycles, "_CHUNK", budget):
            fhat = rep.transform(f)
            back = pa.matrix_rep_inverse(fhat, rep)
        assert_same_bits(fhat, one_shot_transform(rep, f))
        assert_same_bits(back._vector(), one_shot_inverse(fhat, rep)._vector())


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("group, alpha", contexts())
def test_transform_and_inverse_are_the_one_shot_forms(group, alpha, budget):
    alpha_n, _ = pa.normalize(group, alpha)
    rep = pa.regular_matrix_rep(group, alpha_n)
    assert_transform_and_inverse_are_one_shot(rep, budget, np.random.default_rng(2))


@pytest.mark.parametrize("budget", BUDGETS)
def test_row_major_family_is_the_one_shot_form(budget):
    """A torus family, held row-major, unlike the regular representation's
    transposed views: its blocks are laid out the other way round."""
    rep = pa.matrix_representation(6)
    assert_transform_and_inverse_are_one_shot(rep, budget, np.random.default_rng(6))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("group, alpha", contexts())
def test_residual_is_the_one_shot_form(group, alpha, budget):
    alpha_n, _ = pa.normalize(group, alpha)
    rep = pa.regular_matrix_rep(group, alpha_n)
    rng = np.random.default_rng(3)
    f, g, *_ = (pa.GroupFunction._from_vector(group, vec)
                for vec in vectors(group, rng))
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    for h in (pa.deformed_convolution(f, g, alpha_n),
              pa.deformed_convolution(g, f, alpha_n)):
        with mock.patch.object(cocycles, "_CHUNK", budget):
            got = harmonic.convolution_theorem_residual(rep, f, g, h, v)
        assert abs(got - one_shot_residual(rep, f, g, h, v)) <= 1e-14


def with_nan_phase(alpha, row):
    """A copy of a normalized tabulated cocycle with alpha(a, b) NaN at one
    pair of ``row``: tables with NaN are refused at construction, not here."""
    table = alpha.phase_matrix().copy()
    table[row, 3] = np.nan
    table.setflags(write=False)
    bad = copy.copy(alpha)
    bad._table, bad._exp = table, None
    return bad


def float_bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("nan_row", [None, 0, 2, -5])
@pytest.mark.parametrize("group, alpha", contexts())
def test_identity_passes_are_the_one_shot_forms(group, alpha, nan_row, budget):
    """check_identities and self_conjugacy_residual give the one-shot maxima,
    a NaN phase in any block included, and the monomial gate refuses exactly
    the families whose one-shot test finds a non-finite phase."""
    alpha_n, _ = pa.normalize(group, alpha)
    if nan_row is not None:
        alpha_n = with_nan_phase(alpha_n, nan_row)
    with mock.patch.object(cocycles, "_CHUNK", budget):
        report = pa.check_identities(group, alpha_n)
        residual = algebra.self_conjugacy_residual(group, alpha_n)
    got = [c.max_residual for c in report.checks]
    assert float_bits(got) == float_bits(one_shot_identities(group, alpha_n))
    assert float_bits(residual) == float_bits(one_shot_self_conjugacy(group, alpha_n))
    assert np.isnan(residual) == (nan_row is not None)
    perm, phase = group.index_table().T, alpha_n.phase_exp().T
    for entry in (None, np.nan, np.inf, complex(np.inf, np.nan)):
        tampered = phase.copy()
        if entry is not None:
            tampered[-3, 1] = entry
        with mock.patch.object(cocycles, "_CHUNK", budget):
            try:
                harmonic._as_monomial(group, (perm, tampered), 1e-10)
                refused = False
            except pa.RepresentationInconsistencyError:
                refused = True
        assert refused == one_shot_gate_refuses(tampered)
        assert refused == (nan_row is not None or entry is not None)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n, d", [(6, 3), (4, 2)])
def test_triviality_is_the_one_shot_form(n, d, budget):
    """is_trivial_abelian compares the one-shot max |beta| with its tolerance:
    False at that maximum, True one ulp above it."""
    group, alpha = bicharacter(n, d)
    beta = one_shot_beta(alpha)
    with mock.patch.object(cocycles, "_CHUNK", budget):
        assert not pa.is_trivial_abelian(group, alpha, tol=beta)
        assert pa.is_trivial_abelian(group, alpha, tol=float(np.nextafter(beta, np.inf)))


def test_verify_catches_a_mutant_kernel_in_small_blocks(tmp_path, monkeypatch):
    """The kernel with alpha(b, a) in place of alpha(a, b) fails verify's
    convolution theorem also when every pass runs in blocks of 7 pairs."""
    from projalg import cli
    kernel = algebra._finite_product
    monkeypatch.setattr(algebra, "_finite_product",
                        lambda group, E, f, g: kernel(group, E.T, f, g))
    monkeypatch.setattr(cocycles, "_CHUNK", 7)
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text('{"kind": "cyclic_power", "n": 6, "d": 2}')
    _, alpha = bicharacter(6, 2)
    cpath.write_text(json.dumps({"kind": "table", "alpha": alpha.phase_matrix().tolist()}))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--group", str(gpath), "--cocycle", str(cpath),
                     "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["convolution_theorem"]["max_residual"] > 0.1
    assert not checks["convolution_theorem"]["pass"]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 36, 37])
def test_blocks_cover_the_rows_in_order(n, monkeypatch):
    """Blocks of 7 // width rows, at least two, the last up to one longer."""
    monkeypatch.setattr(cocycles, "_CHUNK", 7)
    for width in (0, 1, 3, 8):
        blocks = cocycles._blocks(n, width)
        assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]),
                              np.arange(n))
        step = max(2, min(n, 7 // max(1, width)))
        sizes = [b.stop - b.start for b in blocks]
        assert all(s == step for s in sizes[:-1])
        assert min(n, 2) <= sizes[-1] <= min(n, step + 1)


def test_validation_buffers_hold_at_most_the_order():
    """At order 36 the budget fits 75 rows of 36 x 3 triples; the two float64
    buffers hold the 36 rows there are."""
    group = pa.make_cyclic_power(6, 2)
    alpha = bicharacter(6, 2)[1]
    group.index_table()
    row = 36 * 3
    assert cocycles._CHUNK // row > 36
    assert traced_peak(pa.validate_cocycle, group, alpha) < 2 * 8 * 36 * row + 128 * 2 ** 10


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_passes_hold(n, d, bound):
    """Each order**2 pass on (Z_n)^d with the bicharacter traces under ``bound``
    bytes above its start, the transform under its result's bytes plus ``bound``."""
    group, alpha = bicharacter(n, d)
    alpha_n, _ = pa.normalize(group, alpha)
    rep = pa.regular_matrix_rep(group, alpha_n)
    rng = np.random.default_rng(5)
    N = group.order
    f, g = (pa.GroupFunction._from_vector(
        group, rng.standard_normal(N) + 1j * rng.standard_normal(N)) for _ in "fg")
    h = pa.deformed_convolution(f, g, alpha_n)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    fhat = rep.transform(f)
    zero = pa.zero_cocycle(group)
    assert traced_peak(pa.deformed_convolution, f, g, alpha_n) < bound
    assert traced_peak(pa.matrix_rep_inverse, fhat, rep) < bound
    assert traced_peak(harmonic.convolution_theorem_residual, rep, f, g, h, v) < bound
    assert traced_peak(pa.validate_cocycle, group, alpha) < bound
    assert traced_peak(pa.normalize, group, zero) < bound
    assert traced_peak(rep.transform, f) < fhat.nbytes + bound
    assert traced_peak(pa.check_identities, group, alpha_n) < bound
    assert traced_peak(algebra.self_conjugacy_residual, group, alpha_n) < bound
    assert traced_peak(harmonic._as_monomial, group, (rep.perm, rep.phase), 1e-10) < bound
    assert traced_peak(pa.is_trivial_abelian, group, alpha) < bound
    assert traced_peak(pa.zero_cocycle, group) < 64 * 2 ** 10


def test_order_1024_passes_hold_a_block():
    """At order 1024 each pass traced 0.2-0.6 MiB; with blocks of 2**15 pairs,
    0.4-1.7 MiB, and one-shot, 9-56 MiB (is_trivial_abelian 21 MiB).  The zero
    cocycle holds no table: it traced 17 MiB with one."""
    assert_passes_hold(32, 2, 2 ** 20)


def test_order_216_passes_hold_a_block():
    """At order 216 blocks of 2**15 pairs were two, the first 70 % of the pass,
    and most passes traced 0.9-1.3 MiB; blocks of 2**13 pairs trace 0.2-0.5 MiB."""
    assert_passes_hold(6, 3, 3 * 2 ** 18)
