"""The finite-group product kernel against the per-term dict loops it replaced.

The reference functions below are the loops every finite-group product used
to run: one ``prod``/``phase``/``cmath.exp`` call per support pair.  Each
kernel-routed public function must agree with its reference to 1e-12 on
random groups, cocycles and sparse supports.
"""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg.groups import CyclicPowerGroup

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
