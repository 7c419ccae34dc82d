import numpy as np
import pytest

import projalg as pa
from projalg import sampling


def random_lattice_element(group, alpha, rng, *, terms=4, box=4):
    coeffs = {}
    for _ in range(terms):
        m = tuple(int(x) for x in rng.integers(-box, box + 1, group.d))
        coeffs[m] = complex(rng.standard_normal(), rng.standard_normal())
    return pa.AlgebraElement(group, alpha, coeffs)


@pytest.fixture
def bilinear2(lattice2):
    return pa.BilinearCocycle(lattice2, [[0.0, 0.7], [-0.7, 0.0]])


class TestDerive:
    def test_identity_maps_to_zero(self, lattice2, bilinear2):
        d = pa.CoordinateDerivation(lattice2, 0)
        u = pa.generator(lattice2, bilinear2, (0, 0))
        assert len(pa.derive(d, u)) == 0

    def test_coordinate_weight(self, lattice2, bilinear2):
        d = pa.CoordinateDerivation(lattice2, 0)
        u = pa.generator(lattice2, bilinear2, (3, 2))
        assert pa.derive(d, u).coeff((3, 2)) == -3j

    def test_zero_sigma_is_zero_map(self, z3, rng):
        d = pa.SigmaDerivation(z3, lambda a: 0.0)
        u = pa.AlgebraElement(z3, pa.zero_cocycle(z3),
                              {a: 1.0 for a in z3.elements()})
        assert len(pa.derive(d, u)) == 0

    def test_axis_out_of_range(self, lattice2):
        with pytest.raises(ValueError):
            pa.CoordinateDerivation(lattice2, 2)

    def test_cyclic_power_rejected(self, z22):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.CoordinateDerivation(z22, 0)


class TestSigmaValidation:
    def test_non_additive_rejected(self, z3):
        with pytest.raises(ValueError, match="additive"):
            pa.SigmaDerivation(z3, lambda a: float(a[0] == 1))

    def test_linear_form_on_lattice_accepted(self, lattice2):
        d = pa.SigmaDerivation(lattice2, lambda m: 2.0 * m[0] - 1j * m[1])
        assert d.sigma((1, 1)) == pytest.approx(2.0 - 1j)

    def test_non_additive_on_lattice_rejected(self, lattice2):
        with pytest.raises(ValueError, match="additive"):
            pa.SigmaDerivation(lattice2, lambda m: float(m[0] ** 2))

    @pytest.mark.parametrize("make", [lambda: pa.make_cyclic_power(4, 2),
                                      lambda: pa.symmetric_group(3)])
    def test_sigma_is_called_once_per_element(self, make):
        g = make()
        calls = []

        def sigma(a):
            calls.append(a)
            return 0.0

        pa.SigmaDerivation(g, sigma)
        assert calls == list(g.elements())

    def test_nan_sigma_rejected(self, z3, lattice2):
        with pytest.raises(ValueError, match="additive"):
            pa.SigmaDerivation(z3, lambda a: float("nan") if a == (2,) else 0.0)
        with pytest.raises(ValueError, match="additive"):
            pa.SigmaDerivation(lattice2, lambda m: float("nan") if m[0] > 3 else 0.0)

    @staticmethod
    def first_failure(g, fn, pairs):
        """The message of the per-pair loop: its first non-additive pair."""
        for a, b in pairs:
            lhs, rhs = complex(fn(g.prod(a, b))), complex(fn(a)) + complex(fn(b))
            if not abs(lhs - rhs) <= 1e-12:
                return (f"sigma is not additive on ({g.describe(a)}, {g.describe(b)}): "
                        f"sigma(ab)={lhs!r} but sigma(a)+sigma(b)={rhs!r}")

    def test_finite_failure_names_the_first_pair_in_order(self, s3):
        def fn(a):
            return 0.25 * a + 1j * (a == 4)

        pairs = [(a, b) for a in s3.elements() for b in s3.elements()]
        with pytest.raises(ValueError) as err:
            pa.SigmaDerivation(s3, fn)
        assert str(err.value) == self.first_failure(s3, fn, pairs)

    def test_lattice_failure_names_the_first_sampled_pair(self, lattice2):
        def fn(m):
            return float(m[0] * m[1])

        rng = sampling.rng_from_seed(9)
        pairs = [(sampling.random_element(lattice2, rng, box=5),
                  sampling.random_element(lattice2, rng, box=5)) for _ in range(400)]
        with pytest.raises(ValueError) as err:
            pa.SigmaDerivation(lattice2, fn, seed=9)
        assert str(err.value) == self.first_failure(lattice2, fn, pairs)


class TestLeibniz:
    def test_bilinear_lattice(self, lattice2, bilinear2):
        d = pa.CoordinateDerivation(lattice2, 1)
        report = pa.check_leibniz(d, lattice2, bilinear2, trials=50)
        assert report.passed
        assert report.checks[0].max_residual < 1e-12

    def test_generator_pair_expansion(self, lattice2, bilinear2):
        # D(x(a) x(b)) carries -i (a_i + b_i) times the product phase
        d = pa.CoordinateDerivation(lattice2, 0)
        a, b = (2, 1), (-1, 3)
        u = pa.generator(lattice2, bilinear2, a)
        v = pa.generator(lattice2, bilinear2, b)
        lhs = pa.derive(d, u * v)
        c = lattice2.prod(a, b)
        expected = -1j * c[0] * np.exp(1j * bilinear2.phase(a, b))
        assert lhs.coeff(c) == pytest.approx(expected)
        rhs = pa.derive(d, u) * v + u * pa.derive(d, v)
        assert lhs.max_diff(rhs) < 1e-15

    def test_zero_derivation(self, z3):
        d = pa.SigmaDerivation(z3, lambda a: 0.0)
        assert pa.check_leibniz(d, z3, pa.zero_cocycle(z3), trials=20).passed

    def test_sigma_derivation_on_lattice(self, lattice2, bilinear2):
        d = pa.SigmaDerivation(lattice2, lambda m: m[0] + 2j * m[1])
        assert pa.check_leibniz(d, lattice2, bilinear2, trials=30).passed


class TestIntegralOfDerivation:
    def test_identity_generator(self, lattice2, bilinear2):
        d = pa.CoordinateDerivation(lattice2, 0)
        u = pa.generator(lattice2, bilinear2, (0, 0))
        assert pa.integral_of_derivation(d, u) == 0j

    def test_non_identity_generator(self, lattice2, bilinear2):
        d = pa.CoordinateDerivation(lattice2, 0)
        u = pa.generator(lattice2, bilinear2, (2, 5))
        assert pa.integral_of_derivation(d, u) == 0j

    def test_random_elements_exactly_zero(self, lattice2, bilinear2, rng):
        d = pa.CoordinateDerivation(lattice2, 1)
        for _ in range(100):
            u = random_lattice_element(lattice2, bilinear2, rng)
            assert abs(pa.integral_of_derivation(d, u)) < 1e-15


class TestAutomorphism:
    def test_zero_phase_is_identity(self, lattice2, bilinear2, rng):
        s = pa.Automorphism(lattice2, (0.0, 0.0))
        u = random_lattice_element(lattice2, bilinear2, rng)
        assert pa.apply_automorphism(s, u).max_diff(u) == 0.0

    def test_half_turn_on_z1(self, lattice1):
        alpha = pa.zero_cocycle(lattice1)
        s = pa.Automorphism(lattice1, (np.pi,))
        x1 = pa.apply_automorphism(s, pa.generator(lattice1, alpha, (1,)))
        assert x1.coeff((1,)) == pytest.approx(-1.0, abs=1e-12)
        x2 = pa.apply_automorphism(s, pa.generator(lattice1, alpha, (2,)))
        assert x2.coeff((2,)) == pytest.approx(1.0, abs=1e-12)

    def test_one_phase_entry_per_coordinate(self, lattice2, z32):
        for g, phi in ((lattice2, (0.0,)), (z32, (0.0, 0.0, 0.0))):
            with pytest.raises(ValueError, match=f"expected 2 phase entries, got {len(phi)}"):
                pa.Automorphism(g, phi)

    def test_unquantized_phase_rejected_on_residues(self, z32):
        with pytest.raises(ValueError, match="multiple"):
            pa.Automorphism(z32, (0.1, 0.0))

    def test_quantized_phase_accepted(self, z32):
        s = pa.Automorphism(z32, (2 * np.pi / 3, 4 * np.pi / 3))
        assert s.phase_factor((1, 0)) == pytest.approx(np.exp(-2j * np.pi / 3))

    def test_finite_table_group_rejected(self, s3):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.Automorphism(s3, (0.0,))

    def test_multiplicative(self, lattice2, bilinear2, rng):
        s = pa.Automorphism(lattice2, (0.3, -1.2))
        for _ in range(20):
            u = random_lattice_element(lattice2, bilinear2, rng)
            v = random_lattice_element(lattice2, bilinear2, rng)
            lhs = pa.apply_automorphism(s, u * v)
            rhs = pa.apply_automorphism(s, u) * pa.apply_automorphism(s, v)
            assert lhs.max_diff(rhs) < 1e-12

    def test_composition(self, lattice2, bilinear2, rng):
        s1 = pa.Automorphism(lattice2, (0.4, 0.0))
        s2 = pa.Automorphism(lattice2, (-0.1, 0.9))
        u = random_lattice_element(lattice2, bilinear2, rng)
        combined = pa.apply_automorphism(s1.compose(s2), u)
        chained = pa.apply_automorphism(s1, pa.apply_automorphism(s2, u))
        assert combined.max_diff(chained) < 1e-14

    def test_inverse_composes_to_the_identity(self, lattice2, bilinear2, rng):
        s = pa.Automorphism(lattice2, (0.4, -1.1))
        identity = s.compose(s.inverse())
        assert identity.phi == (0.0, 0.0)
        u = random_lattice_element(lattice2, bilinear2, rng)
        assert pa.apply_automorphism(identity, u).max_diff(u) == 0.0

    def test_star_commutation(self, lattice2, bilinear2, rng):
        # conjugating the phase and inverting the label cancel, so the
        # involution commutes with S(phi) outright (conjugation by a unitary
        # commutes with dagger in any matrix picture)
        s = pa.Automorphism(lattice2, (0.7, 0.2))
        u = random_lattice_element(lattice2, bilinear2, rng)
        lhs = pa.apply_automorphism(s, u).star()
        rhs = pa.apply_automorphism(s, u.star())
        assert lhs.max_diff(rhs) < 1e-14

    def test_generator_rescaling(self, lattice2, bilinear2):
        s = pa.Automorphism(lattice2, (0.5, 0.0))
        u1 = pa.generator(lattice2, bilinear2, (1, 0))
        assert pa.apply_automorphism(s, u1).coeff((1, 0)) == pytest.approx(
            np.exp(-0.5j))


class TestMeasureInvariance:
    def test_lattice_with_bilinear(self, lattice2, bilinear2):
        s = pa.Automorphism(lattice2, (0.8, -0.3))
        report = pa.measure_invariance_check(s, lattice2, bilinear2, trials=50)
        assert report.passed
        assert report.checks[0].max_residual == 0.0  # integral exactly invariant

    def test_cyclic_power_with_torus_cocycle(self):
        g = pa.make_cyclic_power(3, 2)
        alpha, _ = pa.normalize(g, pa.measured_cocycle(3))
        s = pa.Automorphism(g, (2 * np.pi / 3, 0.0))
        report = pa.measure_invariance_check(s, g, alpha, trials=30)
        assert report.passed

    def test_transport_phase_oracle(self, lattice2, bilinear2, rng):
        # inverting S(phi) f_hat multiplies f by exp(-i phi . m) pointwise
        s = pa.Automorphism(lattice2, (0.25, 1.5))
        coeffs = {(1, 0): 1.0 + 2j, (0, 3): -0.5, (2, 2): 1j}
        f = pa.GroupFunction(lattice2, coeffs)
        fhat = pa.as_algebra_element(f, bilinear2)
        back = pa.invert(pa.apply_automorphism(s, fhat))
        for m, v in coeffs.items():
            expected = v * np.exp(-1j * (s.phi[0] * m[0] + s.phi[1] * m[1]))
            assert back.get(m) == pytest.approx(expected, abs=1e-12)
