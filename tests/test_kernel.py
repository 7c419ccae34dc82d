"""The product kernels against the per-term dict loops they replaced.

The reference functions below are the loops every product used to run: one
``prod``/``phase``/``cmath.exp`` call per support pair.  Each kernel-routed
public function must agree with its reference to 1e-12 on random groups,
cocycles and sparse supports, for finite groups and for the lattice Z^D.
"""

import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg import algebra
from projalg.groups import LATTICE_COORD_LIMIT, CyclicPowerGroup

TOL = 1e-12

S3 = pa.symmetric_group(3)
S4 = pa.symmetric_group(4)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- reference dict loops ------------------------------------------------------


def ref_product(u, v):
    g, alpha = u.group, u.cocycle
    out = {}
    for a, fa in u.items():
        for b, gb in v.items():
            c = g.prod(a, b)
            out[c] = out.get(c, 0j) + fa * gb * cmath.exp(1j * alpha.phase(a, b))
    return pa.AlgebraElement(g, alpha, out)


def ref_apply_R(a, u):
    g, alpha = u.group, u.cocycle
    a = g.canonical(a)
    out = {}
    for b, fb in u.items():
        c = g.prod(b, a)
        out[c] = out.get(c, 0j) + fb * cmath.exp(1j * alpha.phase(b, a))
    return pa.AlgebraElement(g, alpha, out)


def ref_apply_L(a, u):
    g, alpha = u.group, u.cocycle
    a = g.canonical(a)
    out = {}
    for c, fc in u.items():
        b = g.prod(a, c)
        out[b] = out.get(b, 0j) + fc * cmath.exp(1j * alpha.phase(a, c))
    return pa.AlgebraElement(g, alpha, out)


def ref_convolution(f1, f2):
    g = f1.group
    out = {}
    for b, v1 in f1.items():
        for c, v2 in f2.items():
            k = g.prod(b, c)
            out[k] = out.get(k, 0j) + v1 * v2
    return pa.GroupFunction(g, out)


def ref_deformed_convolution(f1, f2, alpha):
    g = f1.group
    out = {}
    for b, v1 in f1.items():
        for c, v2 in f2.items():
            k = g.prod(b, c)
            out[k] = out.get(k, 0j) + v1 * v2 * cmath.exp(1j * alpha.phase(b, c))
    return pa.GroupFunction(g, out)


def ref_invert(u):
    """f(a) = integral(u x(a^-1)), one product per support element."""
    g, alpha = u.group, u.cocycle
    return pa.GroupFunction(g, {
        a: pa.ati_integral(ref_product(u, pa.generator(g, alpha, g.inv(a))))
        for a in u.support})


def ref_completeness_matrix(group, alpha):
    """M[b, c] = integral(x(b) x(c^-1)), one reference product per entry."""
    elems = list(group.elements())
    M = np.empty((group.order, group.order), dtype=complex)
    for ib, b in enumerate(elems):
        xb = pa.generator(group, alpha, b)
        for ic, c in enumerate(elems):
            xc_inv = pa.generator(group, alpha, group.inv(c))
            M[ib, ic] = pa.ati_integral(ref_product(xb, xc_inv))
    return M


# -- strategies ------------------------------------------------------------------


def _cocycle(group, kind, rng):
    if kind == "bicharacter":
        # 2 pi a.Theta.b / n with integer Theta is well defined mod n.
        theta = rng.integers(0, group.n, size=(group.d, group.d))
        coords = np.array(list(group.elements()))
        table = 2 * np.pi * (coords @ theta @ coords.T) / group.n
        return pa.TabulatedCocycle(group, table)
    phi = rng.uniform(-np.pi, np.pi, group.order)
    phi[0] = 0.0
    return pa.coboundary(group, pa.GaugePhase.from_table(group, phi))


@st.composite
def contexts(draw, normalized=False):
    """(group, cocycle, numpy generator) over (Z_n)^D, S_3 and S_4."""
    group = draw(st.one_of(
        st.builds(pa.make_cyclic_power, st.integers(1, 6), st.integers(1, 3)),
        st.sampled_from([S3, S4])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["coboundary"]
    if isinstance(group, CyclicPowerGroup):
        kinds.append("bicharacter")
    alpha = _cocycle(group, draw(st.sampled_from(kinds)), rng)
    if normalized or draw(st.booleans()):
        alpha, _ = pa.normalize(group, alpha, validate=False)
    return group, alpha, rng


def _coeffs(draw, group, rng, max_size=8):
    idx = draw(st.lists(st.integers(0, group.order - 1), max_size=max_size,
                        unique=True))
    return {group.element_at(i): complex(rng.standard_normal(), rng.standard_normal())
            for i in idx}


@st.composite
def element_pairs(draw):
    group, alpha, rng = draw(contexts())
    u = pa.AlgebraElement(group, alpha, _coeffs(draw, group, rng))
    v = pa.AlgebraElement(group, alpha, _coeffs(draw, group, rng))
    return u, v


@st.composite
def function_pairs(draw):
    group, alpha, rng = draw(contexts(normalized=True))
    f1 = pa.GroupFunction(group, _coeffs(draw, group, rng))
    f2 = pa.GroupFunction(group, _coeffs(draw, group, rng))
    return f1, f2, alpha


# -- kernel against reference ------------------------------------------------


@SETTINGS
@given(element_pairs())
def test_product_matches_reference(pair):
    u, v = pair
    assert (u * v).max_diff(ref_product(u, v)) < TOL


@SETTINGS
@given(element_pairs(), st.data())
def test_apply_operators_match_reference(pair, data):
    u, _ = pair
    g = u.group
    a = g.element_at(data.draw(st.integers(0, g.order - 1)))
    assert pa.apply_R(a, u).max_diff(ref_apply_R(a, u)) < TOL
    assert pa.apply_L(a, u).max_diff(ref_apply_L(a, u)) < TOL


@SETTINGS
@given(function_pairs())
def test_deformed_convolution_matches_reference(args):
    f1, f2, alpha = args
    h = pa.deformed_convolution(f1, f2, alpha)
    assert h.max_diff(ref_deformed_convolution(f1, f2, alpha)) < TOL


@SETTINGS
@given(function_pairs())
def test_convolution_matches_reference(args):
    f1, f2, _ = args
    assert pa.convolution(f1, f2).max_diff(ref_convolution(f1, f2)) < TOL


@SETTINGS
@given(contexts(normalized=True), st.data())
def test_invert_matches_product_route(ctx, data):
    group, alpha, rng = ctx
    u = pa.AlgebraElement(group, alpha, _coeffs(data.draw, group, rng))
    assert pa.invert(u).max_diff(ref_invert(u)) < TOL


def _lattice_element(alpha, seed):
    rng = np.random.default_rng(seed)
    pts = [tuple(int(x) for x in rng.integers(-5, 6, size=2)) for _ in range(10)]
    return pa.AlgebraElement(alpha.group, alpha,
                             {p: complex(*rng.standard_normal(2)) for p in pts})


def test_invert_matches_product_route_on_lattice():
    g = pa.make_lattice(2)
    bilinear, _ = pa.normalize(g, pa.BilinearCocycle(g, [[0.3, 0.7], [-0.2, 0.1]]))
    phi = pa.GaugePhase.from_callable(g, lambda a: 0.4 * a[0] ** 2 - 0.3 * a[0] * a[1])
    gauged, _ = pa.normalize(g, pa.coboundary(g, phi))
    assert isinstance(gauged, pa.GaugedCocycle)
    for seed, alpha in enumerate([bilinear, gauged]):
        u = _lattice_element(alpha, seed)
        assert pa.invert(u).max_diff(ref_invert(u)) < TOL


@settings(max_examples=15, deadline=None)
@given(contexts(normalized=True).filter(lambda ctx: ctx[0].order <= 36))
def test_completeness_matches_reference(ctx):
    group, alpha, _ = ctx
    worst = float(np.max(np.abs(ref_completeness_matrix(group, alpha)
                                - np.eye(group.order))))
    report = pa.completeness_check(group, alpha)
    assert report.passed
    assert abs(report.checks[0].max_residual - worst) < TOL


# -- supports and cancellation ---------------------------------------------------


@pytest.mark.parametrize("group", [pa.make_cyclic_power(4, 2), S3])
def test_empty_and_singleton_supports(group):
    alpha = pa.zero_cocycle(group)
    empty = pa.AlgebraElement(group, alpha, {})
    a = group.element_at(group.order - 1)
    x = pa.generator(group, alpha, a)
    assert len(empty * x) == 0 and len(x * empty) == 0
    assert (x * x).max_diff(ref_product(x, x)) == 0.0
    f = pa.GroupFunction(group, {})
    assert len(pa.convolution(f, pa.GroupFunction.delta(group, a))) == 0


def test_exact_cancellation_leaves_empty_support():
    g = pa.make_cyclic_power(2, 1)
    alpha = pa.zero_cocycle(g)
    u = pa.AlgebraElement(g, alpha, {(0,): 1.0, (1,): 1.0})
    v = pa.AlgebraElement(g, alpha, {(0,): 1.0, (1,): -1.0})
    assert len(u - u) == 0
    assert len(u * 0) == 0
    # (1 + x)(1 - x) = 1 - x^2 = 0 on Z_2: every bin cancels exactly.
    assert len(u * v) == 0


def test_lattice_keeps_sparse_path():
    g = pa.make_lattice(2)
    alpha = pa.BilinearCocycle(g, [[0.0, 0.7], [-0.2, 0.1]])
    rng = np.random.default_rng(3)
    pts = [tuple(int(x) for x in rng.integers(-5, 6, size=2)) for _ in range(12)]
    u = pa.AlgebraElement(g, alpha, {p: complex(*rng.standard_normal(2)) for p in pts[:6]})
    v = pa.AlgebraElement(g, alpha, {p: complex(*rng.standard_normal(2)) for p in pts[6:]})
    assert (u * v).max_diff(ref_product(u, v)) < TOL
    assert pa.apply_R((1, -2), u).max_diff(ref_apply_R((1, -2), u)) < TOL
    assert pa.apply_L((1, -2), u).max_diff(ref_apply_L((1, -2), u)) < TOL


# -- the lattice kernel ------------------------------------------------------------

LATTICE_KINDS = ["bilinear", "bilinear_normalized", "gauged"]


def _lattice_cocycle(group, kind, rng):
    if kind == "gauged":
        # A callable gauge has no array form: phases() loops over phase().
        c = rng.uniform(-1.0, 1.0, size=(group.d, group.d))
        phi = pa.GaugePhase.from_callable(
            group, lambda a, _c=c: float(np.asarray(a) @ _c @ np.asarray(a)) ** 2 / 7)
        alpha, _ = pa.normalize(group, pa.coboundary(group, phi), validate=False)
        assert isinstance(alpha, pa.GaugedCocycle)
        return alpha
    alpha = pa.BilinearCocycle(group, rng.uniform(-1.5, 1.5, size=(group.d, group.d)))
    if kind == "bilinear_normalized":
        alpha, _ = pa.normalize(group, alpha, validate=False)
    return alpha


@st.composite
def lattice_contexts(draw, kinds=LATTICE_KINDS):
    group = pa.make_lattice(draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return group, _lattice_cocycle(group, draw(st.sampled_from(kinds)), rng), rng


def _lattice_coeffs(draw, group, rng, max_size=8):
    """Points in a small box, so pair sums collide; on Z^1 the same element
    may appear both as an int and as a 1-tuple, and the two are summed."""
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * group.d),
                        max_size=max_size))
    out = {}
    for p in pts:
        key = p[0] if group.d == 1 and draw(st.booleans()) else p
        out[key] = complex(rng.standard_normal(), rng.standard_normal())
    return out


@st.composite
def lattice_element_pairs(draw):
    group, alpha, rng = draw(lattice_contexts())
    return (pa.AlgebraElement(group, alpha, _lattice_coeffs(draw, group, rng)),
            pa.AlgebraElement(group, alpha, _lattice_coeffs(draw, group, rng)))


@SETTINGS
@given(lattice_element_pairs())
def test_lattice_product_matches_reference(pair):
    u, v = pair
    assert (u * v).max_diff(ref_product(u, v)) < TOL
    assert set((u * v).support) == set(ref_product(u, v).support)


@SETTINGS
@given(lattice_contexts(kinds=["bilinear_normalized", "gauged"]), st.data())
def test_lattice_deformed_convolution_matches_reference(ctx, data):
    group, alpha, rng = ctx
    f1 = pa.GroupFunction(group, _lattice_coeffs(data.draw, group, rng))
    f2 = pa.GroupFunction(group, _lattice_coeffs(data.draw, group, rng))
    h = pa.deformed_convolution(f1, f2, alpha)
    assert h.max_diff(ref_deformed_convolution(f1, f2, alpha)) < TOL


@SETTINGS
@given(lattice_contexts(), st.data())
def test_phases_base_loop_matches_override(ctx, data):
    group, alpha, rng = ctx
    d = group.d
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4))
    A = rng.integers(-6, 7, size=(m, 1, d))
    B = rng.integers(-6, 7, size=(1, n, d))
    looped = pa.Cocycle.phases(alpha, A, B)
    assert looped.shape == (m, n)
    for i in range(m):
        for j in range(n):
            assert looped[i, j] == alpha.phase(tuple(A[i, 0].tolist()),
                                               tuple(B[0, j].tolist()))
    assert np.max(np.abs(alpha.phases(A, B) - looped), initial=0.0) < TOL
    # One row against a stack, and one pair.
    assert np.max(np.abs(alpha.phases(A[:, 0], B[0, 0])
                         - pa.Cocycle.phases(alpha, A[:, 0], B[0, 0])),
                  initial=0.0) < TOL
    if m:
        assert abs(float(alpha.phases(A[0, 0], B[0, 0])) - looped[0, 0]) < TOL


@pytest.mark.parametrize("kind", LATTICE_KINDS)
def test_lattice_empty_and_singleton_supports(kind):
    g = pa.make_lattice(2)
    alpha = _lattice_cocycle(g, kind, np.random.default_rng(5))
    empty = pa.AlgebraElement(g, alpha, {})
    x = pa.generator(g, alpha, (2, -3))
    assert len(empty * x) == 0 and len(x * empty) == 0 and len(empty * empty) == 0
    assert (x * x).max_diff(ref_product(x, x)) < TOL
    assert set((x * x).support) == {(4, -6)}


def test_lattice_exact_cancellation():
    g = pa.make_lattice(2)
    alpha = pa.zero_cocycle(g)
    u = pa.AlgebraElement(g, alpha, {(0, 0): 1.0, (1, 0): 1.0})
    v = pa.AlgebraElement(g, alpha, {(0, 0): 1.0, (1, 0): -1.0})
    # (1 + x)(1 - x) = 1 - x^2: the two x terms cancel exactly.
    w = u * v
    assert w._keys.tolist() == [[0, 0], [2, 0]] and w._vals.tolist() == [1.0, -1.0]
    assert len(u * (v - v)) == 0


def test_distinct_rows_matches_unique():
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (40, 1), (200, 2), (300, 3)]:
        S = rng.integers(-4, 5, size=shape)
        rows, bins = algebra._distinct_rows(S)
        ref_rows, ref_bins = np.unique(S, axis=0, return_inverse=True)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(bins, ref_bins.reshape(-1))


def test_lattice_product_leaving_the_coordinate_range_raises():
    g = pa.make_lattice(2)
    alpha = pa.BilinearCocycle(g, [[0.0, 0.25], [-0.25, 0.0]])
    edge = pa.generator(g, alpha, (LATTICE_COORD_LIMIT, 0))
    assert set((edge * pa.generator(g, alpha, (-1, 5))).support) == {
        (LATTICE_COORD_LIMIT - 1, 5)}
    with pytest.raises(ValueError, match="2\\*\\*53"):
        edge * pa.generator(g, alpha, (1, 0))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        pa.deformed_convolution(pa.GroupFunction.delta(g, (0, -LATTICE_COORD_LIMIT)),
                                pa.GroupFunction.delta(g, (0, -1)), alpha)


# -- the lattice kernel's two numberings of the pair sums ---------------------------


def ref_sorted_product(alpha, f, g):
    """The sort-only lattice kernel: every pair sum numbered by a row sort,
    the weights (f (x) g) exp(i alpha) in one expression, bincount sums.
    Returns (key rows, values), as the kernel does."""
    d = alpha.group.d
    (Sa, fv), (Sb, gv) = (f._keys, f._vals), (g._keys, g._vals)
    keys, bins = np.unique((Sa[:, None] + Sb[None]).reshape(-1, d), axis=0,
                           return_inverse=True)
    w = (fv[:, None] * gv[None] * np.exp(1j * alpha.phases(Sa[:, None], Sb[None]))).ravel()
    h = np.empty(len(keys), dtype=complex)
    h.real = np.bincount(bins.ravel(), w.real, len(keys))
    h.imag = np.bincount(bins.ravel(), w.imag, len(keys))
    keep = np.flatnonzero(~(np.abs(h) < algebra.PRUNE_TOL))
    return keys[keep], h[keep]


def assert_same_bits(h, ref):
    """The same key rows in the same order, and values with the same bits."""
    (keys, vals), (ref_keys, ref_vals) = h, ref
    assert keys.dtype == ref_keys.dtype == np.int64 and np.array_equal(keys, ref_keys)
    assert vals.dtype == ref_vals.dtype == complex
    assert np.array_equal(vals.view(np.uint64), ref_vals.view(np.uint64))


@st.composite
def lattice_supports(draw, group, rng):
    """A function on a dense box of up to 30 points, anywhere within 2**51
    of the origin, or on up to 6 points spread to 2**52."""
    d = group.d
    if draw(st.booleans()):
        r = draw(st.integers(0, 2))
        offset = draw(st.integers(-2**51, 2**51))
        pts = rng.integers(-r, r, size=(draw(st.integers(1, 30)), d), endpoint=True) + offset
    else:
        pts = rng.integers(-2**52, 2**52, size=(draw(st.integers(1, 6)), d), endpoint=True)
    return pa.GroupFunction(group, {tuple(p): complex(*rng.standard_normal(2))
                                    for p in pts.tolist()})


@SETTINGS
@given(lattice_contexts(), st.data())
def test_lattice_product_matches_the_sorted_kernel_bit_for_bit(ctx, data):
    group, alpha, rng = ctx
    f = data.draw(lattice_supports(group, rng))
    g = data.draw(lattice_supports(group, rng))
    assert_same_bits(algebra._lattice_product(alpha, f, g), ref_sorted_product(alpha, f, g))


BOX_ALPHA = pa.BilinearCocycle(pa.make_lattice(2), [[0.3, -0.8], [0.45, 0.1]])


def _box_functions(n, seed):
    """Two n-point functions in [-20, 20]^2, the 81 x 81 box of sums."""
    rng = np.random.default_rng(seed)
    box = [(x, y) for x in range(-20, 21) for y in range(-20, 21)]
    return [pa.GroupFunction(BOX_ALPHA.group, {
        box[i]: complex(*rng.standard_normal(2))
        for i in rng.choice(len(box), n, replace=False).tolist()}) for _ in range(2)]


def test_dense_box_product_sorts_no_pair_sums(monkeypatch):
    f, g = _box_functions(200, 1)

    def never(S):
        raise AssertionError("sorted the pair sums of a dense box")

    ref = ref_sorted_product(BOX_ALPHA, f, g)
    monkeypatch.setattr(algebra, "_distinct_rows", never)
    assert_same_bits(algebra._lattice_product(BOX_ALPHA, f, g), ref)


def test_wide_product_sorts_its_pair_sums(monkeypatch):
    rng = np.random.default_rng(2)
    f, g = (pa.GroupFunction(BOX_ALPHA.group, {tuple(p): 1.0 + 0.5j for p in pts})
            for pts in [rng.integers(-2**52, 2**52, size=(5, 2)).tolist() for _ in range(2)])
    calls = []

    def counting(S, _real=algebra._distinct_rows):
        calls.append(len(S))
        return _real(S)

    monkeypatch.setattr(algebra, "_distinct_rows", counting)
    assert_same_bits(algebra._lattice_product(BOX_ALPHA, f, g),
                     ref_sorted_product(BOX_ALPHA, f, g))
    assert calls == [25]


def test_dense_box_product_temporaries():
    """Beyond its result, a 200 x 200 product holds the box's keys and sums and
    one block's weights and bins, about 9 bytes a pair: the sort-only kernel
    peaked near 48, and one that held every pair weight and bin near 28."""
    f, g = _box_functions(200, 3)
    algebra._lattice_product(BOX_ALPHA, f, g)
    tracemalloc.start()
    try:
        h = algebra._lattice_product(BOX_ALPHA, f, g)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h[1]) > 5000
    assert (peak - retained) / (200 * 200) <= 16
