import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg.phases import reduce_phase


def random_phase_table(group, rng):
    vals = rng.uniform(-np.pi, np.pi, group.order)
    vals[0] = 0.0
    return pa.GaugePhase.from_table(group, vals)


class TestValidate:
    def test_zero_passes_everywhere(self, z4, z32, s3, lattice2):
        for g in (z4, z32, s3, lattice2):
            rep = pa.validate_cocycle(g, pa.zero_cocycle(g))
            assert rep.passed
            assert rep.checks[0].max_residual == 0.0

    def test_bilinear_upper_triangular(self, lattice2):
        alpha = pa.BilinearCocycle(lattice2, [[0.0, 1.0], [0.0, 0.0]])
        assert pa.validate_cocycle(lattice2, alpha).passed

    def test_bilinear_condition_against_expansion(self, lattice2):
        theta = np.array([[0.2, 1.0], [-0.3, 0.4]])
        alpha = pa.BilinearCocycle(lattice2, theta)
        for a, b, c in [((1, 2), (3, -1), (0, 2)), ((2, 0), (-1, 1), (4, 4))]:
            av, bv, cv = (np.array(x, dtype=float) for x in (a, b, c))
            # both sides of the constraint equal theta contracted over all pairs
            expansion = av @ theta @ bv + av @ theta @ cv + bv @ theta @ cv
            lhs = alpha.phase(a, b) + alpha.phase(lattice2.prod(a, b), c)
            rhs = alpha.phase(b, c) + alpha.phase(a, lattice2.prod(b, c))
            assert abs(reduce_phase(lhs - expansion)) < 1e-12
            assert abs(reduce_phase(rhs - expansion)) < 1e-12
            assert pa.cocycle_condition_residual(alpha, a, b, c) < 1e-12

    def test_diagonal_phase_on_z2_is_valid(self, z2):
        table = np.zeros((2, 2))
        table[1, 1] = 0.3
        assert pa.validate_cocycle(z2, pa.TabulatedCocycle(z2, table)).passed

    def test_forced_failure_names_triple(self, z2):
        table = np.zeros((2, 2))
        table[1, 1] = 0.3
        table[0, 1] = 0.1
        rep = pa.validate_cocycle(z2, pa.TabulatedCocycle(z2, table))
        assert not rep.passed
        assert "worst triple" in rep.checks[0].detail

    def test_lattice_sampling_is_deterministic(self, lattice2):
        alpha = pa.BilinearCocycle(lattice2, [[0.0, 0.7], [0.0, 0.0]])
        r1 = pa.validate_cocycle(lattice2, alpha, seed=123)
        r2 = pa.validate_cocycle(lattice2, alpha, seed=123)
        assert r1.to_json() == r2.to_json()

    def test_group_mismatch(self, z2, lattice2):
        alpha = pa.BilinearCocycle(lattice2, np.zeros((2, 2)))
        with pytest.raises(pa.ContextMismatchError):
            pa.validate_cocycle(z2, alpha)

    def test_bilinear_rejected_off_lattice(self, z22):
        with pytest.raises(pa.BackingMismatchError):
            pa.BilinearCocycle(z22, np.zeros((2, 2)))

    def test_tabulated_rejected_on_lattice(self, lattice2):
        with pytest.raises(pa.BackingMismatchError):
            pa.TabulatedCocycle(lattice2, np.zeros((2, 2)))


class TestCoboundary:
    def test_zero_phase_gives_zero_cocycle(self, z4):
        alpha = pa.coboundary(z4, pa.GaugePhase.zero(z4))
        assert np.max(np.abs(alpha.phase_matrix())) == 0.0

    def test_z2_half_turn_value(self, z2):
        phi = pa.GaugePhase.from_table(z2, [0.0, np.pi / 3])
        alpha = pa.coboundary(z2, phi)
        # phi(1+1) - 2 phi(1) = 0 - 2 pi/3
        assert alpha.phase((1,), (1,)) == pytest.approx(-2 * np.pi / 3)

    def test_nonzero_identity_phase_rejected(self, z2):
        with pytest.raises(ValueError, match="identity"):
            pa.coboundary(z2, pa.GaugePhase.from_table(z2, [0.5, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_coboundaries_always_satisfy_constraint(self, tail):
        g = pa.make_cyclic_power(4, 1)
        phi = pa.GaugePhase.from_table(g, [0.0] + tail)
        rep = pa.validate_cocycle(g, pa.coboundary(g, phi), tol=1e-12)
        assert rep.passed

    def test_lattice_coboundary_valid(self, lattice2):
        phi = pa.GaugePhase.from_mapping(lattice2, {(1, 0): 0.7, (0, 2): -0.4})
        assert pa.validate_cocycle(lattice2, pa.coboundary(lattice2, phi)).passed

    def test_abelian_coboundary_has_zero_pairing(self, z3, rng):
        alpha = pa.coboundary(z3, random_phase_table(z3, rng))
        for a in z3.elements():
            for b in z3.elements():
                assert abs(pa.commutator_pairing(z3, alpha, a, b)) < 1e-12


class TestGaugeTransform:
    def test_zero_phase_is_identity(self, z4, rng):
        alpha = pa.coboundary(z4, random_phase_table(z4, rng))
        gauged = pa.gauge_transform(alpha, pa.GaugePhase.zero(z4))
        assert np.allclose(gauged.phase_matrix(), alpha.phase_matrix())

    def test_inverse_gauge_recovers_zero(self, z4, rng):
        phi = random_phase_table(z4, rng)
        alpha = pa.coboundary(z4, phi)
        back = pa.gauge_transform(alpha, -phi)
        assert np.max(np.abs(reduce_phase(back.phase_matrix()))) < 1e-12

    def test_clockshift_gauge_kills_inverse_pairs(self):
        g = pa.make_cyclic_power(3, 2)
        alpha = pa.measured_cocycle(3)
        phi = pa.GaugePhase.from_table(
            g, [0.5 * alpha.phase(m, g.inv(m)) for m in g.elements()])
        gauged = pa.gauge_transform(alpha, phi)
        for m in g.elements():
            assert abs(gauged.phase(m, g.inv(m))) < 1e-10
        # oracle: dress the matrices with the same gauge and re-measure
        mats = pa.element_matrices(3)
        dressed = {m: np.exp(-1j * phi.value(m)) * mats[m] for m in g.elements()}
        remeasured = pa.measure_cocycle_from_matrices(g, dressed)
        diff = reduce_phase(gauged.phase_matrix() - remeasured.phase_matrix())
        assert np.max(np.abs(diff)) < 1e-10

    def test_lattice_gauged_backing(self, lattice2):
        alpha = pa.BilinearCocycle(lattice2, [[0.0, 0.5], [0.0, 0.0]])
        phi = pa.GaugePhase.from_mapping(lattice2, {(1, 0): 0.3})
        gauged = pa.gauge_transform(alpha, phi)
        a, b = (1, 0), (1, 1)
        expected = (alpha.phase(a, b) + phi.value(lattice2.prod(a, b))
                    - phi.value(a) - phi.value(b))
        assert gauged.phase(a, b) == pytest.approx(reduce_phase(expected))


class TestNormalize:
    def test_already_normalized_gives_identity_gauge(self, z4):
        alpha = pa.zero_cocycle(z4)
        out, phi = pa.normalize(z4, alpha)
        assert out.normalized
        assert np.max(np.abs(phi.table())) == 0.0

    def test_z2_half_phase(self, z2):
        c = 0.8
        table = np.zeros((2, 2))
        table[1, 1] = c
        out, phi = pa.normalize(z2, pa.TabulatedCocycle(z2, table))
        assert out.phase((1,), (1,)) == pytest.approx(0.0, abs=1e-15)
        assert phi.value((1,)) == pytest.approx(c / 2)
        assert phi.value((0,)) == 0.0

    def test_bilinear_antisymmetrizes(self, lattice2, rng):
        theta = rng.uniform(-1, 1, (2, 2))
        alpha = pa.BilinearCocycle(lattice2, theta)
        out, phi = pa.normalize(lattice2, alpha)
        assert isinstance(out, pa.BilinearCocycle)
        assert np.allclose(out.theta, (theta - theta.T) / 2)
        for _ in range(20):
            a = tuple(int(x) for x in rng.integers(-5, 6, 2))
            av = np.array(a, dtype=float)
            assert phi.value(a) == pytest.approx(-0.5 * float(av @ theta @ av))
            assert abs(out.phase(a, lattice2.inv(a))) < 1e-12

    def test_inverse_pair_across_branch_cut(self):
        # alpha((1,2), (5,4)) rounds to pi - 4e-16 and alpha((5,4), (1,2)) to
        # -pi + 4e-16: equal mod 2 pi, but their halves differ by pi.
        g = pa.make_cyclic_power(6, 2)
        coords = np.array(list(g.elements()))
        theta = np.array([[5, 3], [4, 5]])
        alpha = pa.TabulatedCocycle(g, 2 * np.pi * (coords @ theta @ coords.T) / 6)
        out, _ = pa.normalize(g, alpha)
        assert out.normalized
        assert pa.check_identities(g, out).passed

    def test_idempotent(self, z32, rng):
        alpha = pa.coboundary(z32, random_phase_table(z32, rng))
        once, _ = pa.normalize(z32, alpha)
        twice, phi2 = pa.normalize(z32, once)
        assert np.max(np.abs(phi2.table())) < 1e-12
        assert np.max(np.abs(reduce_phase(
            once.phase_matrix() - twice.phase_matrix()))) < 1e-12

    def test_constant_shift_handled(self, z2):
        # a constant table is a valid cocycle with nonzero identity phase
        c = 0.6
        alpha = pa.TabulatedCocycle(z2, np.full((2, 2), c))
        assert pa.validate_cocycle(z2, alpha).passed
        out, phi = pa.normalize(z2, alpha)
        assert out.normalized
        assert np.max(np.abs(out.phase_matrix())) < 1e-12
        assert phi.value((0,)) == pytest.approx(c)

    def test_non_cocycle_rejected(self, z2):
        table = np.zeros((2, 2))
        table[0, 1] = 0.1
        with pytest.raises(ValueError, match="constraint"):
            pa.normalize(z2, pa.TabulatedCocycle(z2, table))

    def test_measured_cocycles_normalize(self):
        for n in range(2, 6):
            g = pa.make_cyclic_power(n, 2)
            out, _ = pa.normalize(g, pa.measured_cocycle(n))
            assert out.normalized
            assert pa.check_identities(g, out).passed

    def test_lattice_generic_backing(self, lattice2):
        phi0 = pa.GaugePhase.from_mapping(lattice2, {(1, 0): 0.7, (0, 1): -0.2})
        alpha = pa.coboundary(lattice2, phi0)
        out, _ = pa.normalize(lattice2, alpha)
        assert out.normalized
        for a in [(1, 0), (2, -3), (0, 1), (4, 4)]:
            assert abs(out.phase(a, lattice2.inv(a))) < 1e-12


class TestNonFiniteInput:
    def test_tabulated_rejects_nan(self, z3):
        table = np.zeros((3, 3))
        table[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pa.TabulatedCocycle(z3, table)

    def test_bilinear_rejects_inf(self, lattice2):
        with pytest.raises(ValueError, match="non-finite"):
            pa.BilinearCocycle(lattice2, [[0.0, np.inf], [0.0, 0.0]])

    def test_gauge_table_rejects_nan(self, z3):
        with pytest.raises(ValueError, match="non-finite"):
            pa.GaugePhase.from_table(z3, [0.0, np.nan, 0.1])


class TestIdentities:
    def test_zero_cocycle_passes(self, z4, s3):
        for g in (z4, s3):
            assert pa.check_identities(g, pa.zero_cocycle(g)).passed

    def test_measured_n2_passes_directly(self):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        assert alpha.normalized  # already clean for n = 2
        assert pa.check_identities(g, alpha).passed

    def test_antisymmetric_bilinear_passes_unnormalized(self, lattice2):
        alpha = pa.BilinearCocycle(lattice2, [[0.0, 0.4], [-0.4, 0.0]])
        assert alpha.normalized
        assert pa.check_identities(lattice2, alpha).passed

    def test_requires_normalization(self):
        alpha = pa.measured_cocycle(3)
        g = pa.make_cyclic_power(3, 2)
        with pytest.raises(pa.NormalizationRequiredError):
            pa.check_identities(g, alpha)


class TestCommutatorPairing:
    def test_measured_z22_pairing(self):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        beta = pa.commutator_pairing(g, alpha, (1, 0), (0, 1))
        assert abs(reduce_phase(beta - np.pi)) < 1e-12

    def test_measured_z32_pairing(self):
        g = pa.make_cyclic_power(3, 2)
        beta = pa.commutator_pairing(g, pa.measured_cocycle(3), (1, 0), (0, 1))
        assert abs(reduce_phase(beta - 2 * np.pi / 3)) < 1e-12

    def test_bilinear_pairing_formula(self, lattice2, rng):
        theta = rng.uniform(-1, 1, (2, 2))
        alpha = pa.BilinearCocycle(lattice2, theta)
        for _ in range(20):
            a = tuple(int(x) for x in rng.integers(-4, 5, 2))
            b = tuple(int(x) for x in rng.integers(-4, 5, 2))
            av, bv = np.array(a, float), np.array(b, float)
            expected = float(av @ (theta - theta.T) @ bv)
            assert abs(reduce_phase(
                pa.commutator_pairing(lattice2, alpha, a, b) - expected)) < 1e-12

    def test_gauge_invariance(self, rng):
        g = pa.make_cyclic_power(3, 2)
        alpha = pa.measured_cocycle(3)
        for _ in range(10):
            gauged = pa.gauge_transform(alpha, random_phase_table(g, rng))
            for _ in range(10):
                a = g.element_at(int(rng.integers(g.order)))
                b = g.element_at(int(rng.integers(g.order)))
                before = pa.commutator_pairing(g, alpha, a, b)
                after = pa.commutator_pairing(g, gauged, a, b)
                assert abs(reduce_phase(before - after)) < 1e-10

    def test_nonabelian_rejected(self, s3):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.commutator_pairing(s3, pa.zero_cocycle(s3), 1, 2)


class TestTriviality:
    def test_coboundary_trivial(self, z4, rng):
        alpha = pa.coboundary(z4, random_phase_table(z4, rng))
        assert pa.is_trivial_abelian(z4, alpha)

    def test_zero_trivial(self, z4):
        assert pa.is_trivial_abelian(z4, pa.zero_cocycle(z4))

    def test_measured_z32_not_trivial(self):
        g = pa.make_cyclic_power(3, 2)
        assert not pa.is_trivial_abelian(g, pa.measured_cocycle(3))

    def test_nonabelian_rejected(self, s3):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.is_trivial_abelian(s3, pa.zero_cocycle(s3))

    def test_lattice_rejected(self, lattice2):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.is_trivial_abelian(lattice2, pa.zero_cocycle(lattice2))
