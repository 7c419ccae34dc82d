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


class TestCompleteness:
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex(float("nan"), 0.0)])
def test_group_function_rejects_non_finite(value):
    g = pa.make_lattice(1)
    with pytest.raises(ValueError, match="not finite"):
        pa.GroupFunction(g, {(0,): 1.0, (2,): value})
