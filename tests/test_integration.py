import tracemalloc

import numpy as np
import pytest

import projalg as pa


def normalized_coboundary(group, rng):
    vals = rng.uniform(-np.pi, np.pi, group.order)
    vals[0] = 0.0
    alpha = pa.coboundary(group, pa.GaugePhase.from_table(group, vals))
    out, _ = pa.normalize(group, alpha)
    return out


def random_element(group, alpha, rng):
    coeffs = {a: complex(rng.standard_normal(), rng.standard_normal())
              for a in group.elements()}
    return pa.AlgebraElement(group, alpha, coeffs)


def random_function(group, rng):
    return pa.GroupFunction(group, {a: complex(rng.standard_normal(),
                                               rng.standard_normal())
                                    for a in group.elements()})


class TestIntegral:
    def test_identity_generator(self, z4):
        alpha = pa.zero_cocycle(z4)
        assert pa.ati_integral(pa.generator(z4, alpha, (0,))) == 1.0

    def test_non_identity_generators_vanish(self, z4):
        alpha = pa.zero_cocycle(z4)
        for a in [(1,), (2,), (3,)]:
            assert pa.ati_integral(pa.generator(z4, alpha, a)) == 0j

    def test_linearity(self, z4):
        alpha = pa.zero_cocycle(z4)
        u = 2 * pa.generator(z4, alpha, (0,)) + 3j * pa.generator(z4, alpha, (1,))
        assert pa.ati_integral(u) == 2.0

    def test_linearity_random(self, z32, rng):
        alpha = normalized_coboundary(z32, rng)
        u = random_element(z32, alpha, rng)
        v = random_element(z32, alpha, rng)
        lam, mu = 1.5 - 0.5j, -2.0 + 1j
        combo = lam * u + mu * v
        assert pa.ati_integral(combo) == pytest.approx(
            lam * pa.ati_integral(u) + mu * pa.ati_integral(v), abs=1e-15)

    def test_involution_symmetry(self, z32, rng):
        alpha = normalized_coboundary(z32, rng)
        u = random_element(z32, alpha, rng)
        assert pa.ati_integral(u.star()) == pytest.approx(
            np.conj(pa.ati_integral(u)), abs=1e-15)

    def test_tracial_property(self, z4, rng):
        g = pa.make_cyclic_power(2, 2)
        cases = [(z4, normalized_coboundary(z4, rng)),
                 (g, pa.measured_cocycle(2))]
        for group, alpha in cases:
            for _ in range(20):
                u = random_element(group, alpha, rng)
                v = random_element(group, alpha, rng)
                assert abs(pa.ati_integral(u * v)
                           - pa.ati_integral(v * u)) < 1e-12

    def test_positive_on_involutive_squares(self, z32, rng):
        alpha = normalized_coboundary(z32, rng)
        for _ in range(10):
            u = random_element(z32, alpha, rng)
            val = pa.ati_integral(u.star() * u)
            expected = sum(abs(c) ** 2 for _, c in u.items())
            assert val.real == pytest.approx(expected, rel=1e-12)
            assert abs(val.imag) < 1e-12
            assert val.real >= 0.0


def dense_completeness_residual(group, alpha):
    """The oracle: the dense M[b, c] = integral(x(b) x(c^-1)) against np.eye."""
    inv = group.inverse_indices()
    M = np.where(group.index_table()[:, inv] == 0, alpha.phase_exp()[:, inv], 0)
    return float(np.max(np.abs(M - np.eye(group.order))))


def completeness_cases():
    """Normalized coboundaries and bicharacters, each also with alpha(b, b^-1)
    moved off 0 within the normalization tolerance, so residuals are nonzero."""
    rng = np.random.default_rng(11)
    cases = [(g, normalized_coboundary(g, rng))
             for g in (pa.symmetric_group(3), pa.symmetric_group(4),
                       pa.make_cyclic_power(5, 1), pa.make_cyclic_power(3, 3))]
    for n, d in ((4, 2), (6, 2), (3, 3)):
        g = pa.make_cyclic_power(n, d)
        coords = np.array(list(g.elements()))
        bichar = 2 * np.pi * np.outer(coords[:, 0], coords[:, 1]) / n
        cases.append((g, pa.normalize(g, pa.TabulatedCocycle(g, bichar))[0]))
    for g, alpha in list(cases):
        table = alpha.phase_matrix().copy()
        ar, inv = np.arange(1, g.order), g.inverse_indices()[1:]
        table[ar, inv] += rng.uniform(-5e-13, 5e-13, g.order - 1)
        cases.append((g, pa.TabulatedCocycle(g, table)))
    return cases + [(pa.symmetric_group(4), pa.zero_cocycle(pa.symmetric_group(4)))]


class TestCompleteness:
    @pytest.mark.parametrize("group, alpha", completeness_cases(),
                             ids=lambda x: repr(x)[:30])
    def test_diagonal_residual_is_the_dense_ones(self, group, alpha):
        report = pa.completeness_check(group, alpha)
        assert report.checks[0].max_residual == dense_completeness_residual(group, alpha)
        assert report.passed

    def test_memory_at_order_1024(self):
        group = pa.make_cyclic_power(32, 2)
        alpha = pa.zero_cocycle(group)
        alpha.phase_exp()  # E cached, as in verify
        pa.completeness_check(group, alpha)  # and the group's index arrays
        tracemalloc.start()
        try:
            report = pa.completeness_check(group, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2 ** 20

    def test_z2_zero(self, z2):
        assert pa.completeness_check(z2, pa.zero_cocycle(z2)).passed

    def test_z4_nontrivial_normalized(self, z4, rng):
        alpha = normalized_coboundary(z4, rng)
        assert np.max(np.abs(alpha.phase_matrix())) > 0.1  # actually nonzero
        report = pa.completeness_check(z4, alpha)
        assert report.passed
        assert report.checks[0].max_residual < 1e-12

    def test_s3_vector(self, s3):
        assert pa.completeness_check(s3, pa.zero_cocycle(s3)).passed

    def test_unnormalized_rejected(self):
        g = pa.make_cyclic_power(3, 2)
        with pytest.raises(pa.NormalizationRequiredError):
            pa.completeness_check(g, pa.measured_cocycle(3))


class TestInvert:
    def test_generator_gives_indicator(self, z3):
        alpha = pa.zero_cocycle(z3)
        f = pa.invert(pa.generator(z3, alpha, (2,)))
        assert f.get((2,)) == 1.0
        assert len(f) == 1

    def test_round_trip_z3(self, z3, rng):
        alpha = normalized_coboundary(z3, rng)
        f = random_function(z3, rng)
        u = pa.as_algebra_element(f, alpha)
        assert pa.invert(u).max_diff(f) < 1e-14

    def test_round_trip_clockshift(self, rng):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        f = random_function(g, rng)
        u = pa.as_algebra_element(f, alpha)
        assert pa.invert(u).max_diff(f) < 1e-14

    def test_requires_normalized(self):
        g = pa.make_cyclic_power(3, 2)
        u = pa.generator(g, pa.measured_cocycle(3), (1, 0))
        with pytest.raises(pa.NormalizationRequiredError):
            pa.invert(u)

    @staticmethod
    def element_with_signed_zeros(group, alpha, keys, rng):
        """u on the given key rows, in their order, with signed zeros in the
        first values: the public constructor would add them to 0j."""
        vals = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        vals[:6] = [complex(-0.0, 1.5), complex(0.0, -2.0), complex(-0.0, -0.5),
                    complex(3.0, -0.0), complex(-1.0, -0.0), complex(-0.0, 0.25)]
        return pa.AlgebraElement._wrap(group, np.asarray(keys, dtype=np.int64), vals,
                                       cocycle=alpha)

    @staticmethod
    def assert_unit_weights_keep_the_bits(u, back):
        """Every inverse-pair phase is an exact zero, so each value is multiplied
        by exactly 1+0j: Python's complex product, signed zeros included, in u's
        key order.  A nonzero part keeps its bits; (-0 - 0.5j) * (1+0j) has
        real part -0.0 - (-0.5 * 0.0) = +0.0, under numpy as under Python."""
        g, alpha = u.group, u.cocycle
        weights = [np.exp(1j * alpha.phase(a, g.inv(a))) for a in u.support]
        assert all(w.real == 1.0 and w.imag == 0.0 and np.copysign(1.0, w.imag) == 1.0
                   for w in weights)
        expected = np.array([v * complex(w) for v, w in zip(u._vals.tolist(), weights)])
        assert np.array_equal(back._keys, u._keys)
        assert back._vals.tobytes() == expected.tobytes()
        assert back._vals[6:].tobytes() == u._vals[6:].tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_normalized_bilinear_keeps_the_bits_up_to_2_52(self, d):
        rng = np.random.default_rng(40 + d)
        g = pa.make_lattice(d)
        theta = rng.uniform(-1, 1, (d, d))
        normalized, _ = pa.normalize(g, pa.BilinearCocycle(g, theta), validate=False)
        for alpha in (normalized, pa.BilinearCocycle(g, theta - theta.T)):
            keys = rng.integers(-2 ** 52, 2 ** 52, (300, d), endpoint=True)
            keys[:4] = [[2 ** 52] * d, [-2 ** 52] * d, [2 ** 52 - 1] * d,
                        [3] + [2 ** 40] * (d - 1)]
            keys = np.unique(keys, axis=0)
            keys = keys[rng.permutation(len(keys))]
            u = self.element_with_signed_zeros(g, alpha, keys, rng)
            self.assert_unit_weights_keep_the_bits(u, pa.invert(u))

    @pytest.mark.parametrize("n", [4, 6])
    def test_normalize_output_keeps_the_bits_on_a_finite_group(self, n, rng):
        g = pa.make_cyclic_power(n, 2)
        for alpha in (normalized_coboundary(g, rng), pa.normalize(g, pa.measured_cocycle(n))[0]):
            keys = rng.permutation(g.order)[:g.order - 3, None]
            u = self.element_with_signed_zeros(g, alpha, keys, rng)
            self.assert_unit_weights_keep_the_bits(u, pa.invert(u))

    def test_finite_inversion_builds_no_order_length_vector(self):
        g = pa.make_cyclic_power(32, 2)
        table = np.zeros((g.order, g.order))
        for alpha in (pa.zero_cocycle(g), pa.TabulatedCocycle(g, table)):
            u = pa.generator(g, alpha, (3, 5)) + pa.generator(g, alpha, (31, 0))
            g.inverse_indices()
            tracemalloc.start()
            try:
                back = pa.invert(u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dict(back.items()) == {(3, 5): 1 + 0j, (31, 0): 1 + 0j}
            assert peak < 4 * g.order  # order-length vectors would hold ~50 KiB here


class TestScalarProduct:
    def test_delta_orthonormality(self, z4):
        d0 = pa.GroupFunction.delta(z4, (0,))
        d1 = pa.GroupFunction.delta(z4, (1,))
        assert pa.scalar_product(d0, d0) == 1.0
        assert pa.scalar_product(d0, d1) == 0j

    def test_matches_direct_sum(self, z4, rng):
        f = random_function(z4, rng)
        g = random_function(z4, rng)
        direct = sum(np.conj(f.get(a)) * g.get(a) for a in z4.elements())
        assert pa.scalar_product(f, g) == pytest.approx(direct, abs=1e-13)

    def test_with_nontrivial_cocycle(self, z4, rng):
        alpha = normalized_coboundary(z4, rng)
        f = random_function(z4, rng)
        g = random_function(z4, rng)
        direct = sum(np.conj(f.get(a)) * g.get(a) for a in z4.elements())
        assert pa.scalar_product(f, g, alpha) == pytest.approx(direct, abs=1e-13)

    def test_group_mismatch(self, z2, z4, rng):
        with pytest.raises(pa.ContextMismatchError):
            pa.scalar_product(random_function(z2, rng), random_function(z4, rng))

    def test_lattice_range_follows_the_pairs_of_f_star_g(self, lattice2):
        """f* g holds x(b - a) for a in f, b in g: refused only beyond 2**53,
        as the full product refused it."""
        edge = 2 ** 53

        def fn(*points):
            return pa.GroupFunction(lattice2, {p: 1.0 for p in points})

        assert pa.scalar_product(fn((edge, 0), (-edge, 0)), fn((0, 0))) == 0j
        for f, g in ((fn((edge, 0)), fn((-edge, 0))), (fn((-edge, 0)), fn((edge, 0))),
                     (fn((edge, 0), (-1, 0)), fn((edge, 0)))):
            with pytest.raises(ValueError, match="exceed 2"):
                pa.scalar_product(f, g)

    @pytest.mark.parametrize("check", ["scalar_product", "plancherel_check"])
    def test_routes_agree_at_order_1000(self, check, rng):
        """The direct sums add their terms in the order of the identity bin of
        f* g, so the routes agree to rounding of each term, not of the sum."""
        from projalg.integration import _random_function
        g = pa.make_cyclic_power(10, 3)
        for alpha in (pa.zero_cocycle(g), normalized_coboundary(g, rng)):
            for _ in range(10):
                f, h = _random_function(g, rng), _random_function(g, rng)
                if check == "scalar_product":
                    pa.scalar_product(f, h, alpha)  # raises beyond 1e-13
                else:
                    assert pa.plancherel_check(f, alpha).passed


def test_group_function_canonicalizes_and_prunes():
    g = pa.make_cyclic_power(4, 1)
    f = pa.GroupFunction(g, {(5,): 1.0, (1,): 2.0, (3,): 1e-20})
    assert f.get((1,)) == 3.0  # (5,) wraps onto (1,)
    assert len(f) == 1


@pytest.mark.parametrize("group", [pa.make_cyclic_power(3, 2), pa.make_lattice(2)])
def test_norm_sq_sums_the_squared_moduli(group):
    f = pa.GroupFunction(group, {(1, 2): 3 - 4j, (2, 0): 0.5, (0, 1): -2j})
    assert f.norm_sq() == pytest.approx(sum(abs(v) ** 2 for _, v in f.items()))
    assert f.norm_sq() == 29.25  # 25 + 0.25 + 4, exact in binary


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex(float("nan"), 0.0)])
def test_group_function_rejects_non_finite(value):
    g = pa.make_lattice(1)
    with pytest.raises(ValueError, match="not finite"):
        pa.GroupFunction(g, {(0,): 1.0, (2,): value})
