import numpy as np
import pytest

import projalg as pa


def dense(u):
    g = u.group
    vec = np.zeros(g.order, dtype=complex)
    for a, c in u.items():
        vec[g.element_index(a)] = c
    return vec


def random_element(group, alpha, rng):
    coeffs = {a: complex(rng.standard_normal(), rng.standard_normal())
              for a in group.elements()}
    return pa.AlgebraElement(group, alpha, coeffs)


def normalized_coboundary(group, rng):
    vals = rng.uniform(-np.pi, np.pi, group.order)
    vals[0] = 0.0
    alpha = pa.coboundary(group, pa.GaugePhase.from_table(group, vals))
    out, _ = pa.normalize(group, alpha)
    return out


class TestProduct:
    def test_z2_zero_cocycle(self, z2):
        alpha = pa.zero_cocycle(z2)
        u = pa.generator(z2, alpha, (1,)) * pa.generator(z2, alpha, (1,))
        assert u.coeff((0,)) == 1.0
        assert len(u) == 1

    def test_identity_element_is_unit(self, z4, rng):
        alpha = pa.zero_cocycle(z4)
        u = pa.generator(z4, alpha, (1,)) + pa.generator(z4, alpha, (3,))
        e = pa.generator(z4, alpha, (0,))
        assert (u * e).max_diff(u) == 0.0
        assert (e * u).max_diff(u) == 0.0

    def test_phase_rule_exact(self, z4, rng):
        alpha = normalized_coboundary(z4, rng)
        for a in z4.elements():
            for b in z4.elements():
                u = pa.multiply(pa.generator(z4, alpha, a), pa.generator(z4, alpha, b))
                expected = np.exp(1j * alpha.phase(a, b))
                assert u.coeff(z4.prod(a, b)) == expected
                assert len(u) == 1

    def test_clockshift_generators_match_matrix_oracle(self):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        u = pa.generator(g, alpha, (1, 0)) * pa.generator(g, alpha, (0, 1))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        x11 = pa.realize(2, (1, 1))
        ratio = (sx @ sz)[0, 1] / x11[0, 1]
        assert ratio == pytest.approx(np.exp(-1j * np.pi / 2))
        assert u.coeff((1, 1)) == pytest.approx(ratio)

    def test_generator_times_inverse_is_identity(self, z32, rng):
        alpha = normalized_coboundary(z32, rng)
        for a in z32.elements():
            u = pa.generator(z32, alpha, a) * pa.generator(z32, alpha, z32.inv(a))
            assert abs(u.coeff(z32.identity()) - 1.0) < 1e-12
            assert len(u) == 1

    def test_associativity_random(self, z4, s3, rng):
        cases = [(z4, normalized_coboundary(z4, rng))]
        vals = rng.uniform(-np.pi, np.pi, s3.order)
        vals[0] = 0.0
        cases.append((s3, pa.coboundary(s3, pa.GaugePhase.from_table(s3, vals))))
        for g, alpha in cases:
            for _ in range(20):
                u = random_element(g, alpha, rng)
                v = random_element(g, alpha, rng)
                w = random_element(g, alpha, rng)
                assert ((u * v) * w).max_diff(u * (v * w)) < 1e-12

    def test_context_mismatch(self, z2, z4):
        u = pa.generator(z2, pa.zero_cocycle(z2), (1,))
        v = pa.generator(z4, pa.zero_cocycle(z4), (1,))
        with pytest.raises(pa.ContextMismatchError):
            u * v

    def test_pruning(self, z2):
        alpha = pa.zero_cocycle(z2)
        u = pa.AlgebraElement(z2, alpha, {(1,): 1e-20})
        assert len(u) == 0
        assert pa.ati_integral(u) == 0j

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       complex(0.0, float("-inf"))])
    def test_non_finite_coefficient_rejected(self, z2, value):
        with pytest.raises(ValueError, match="not finite"):
            pa.AlgebraElement(z2, pa.zero_cocycle(z2), {(0,): 1.0, (1,): value})


class TestInvolution:
    def test_generator_star(self, z3):
        alpha = pa.zero_cocycle(z3)
        u = pa.involution(pa.generator(z3, alpha, (1,)))
        assert u.coeff((2,)) == 1.0

    def test_antilinearity(self, z3):
        alpha = pa.zero_cocycle(z3)
        u = 1j * pa.generator(z3, alpha, (1,))
        assert u.star().coeff((2,)) == -1j

    def test_involutive(self, z32, rng):
        alpha = normalized_coboundary(z32, rng)
        u = random_element(z32, alpha, rng)
        assert u.star().star().max_diff(u) == 0.0

    def test_antimultiplicative(self, z3, rng):
        alpha = normalized_coboundary(z3, rng)
        for _ in range(20):
            u = random_element(z3, alpha, rng)
            v = random_element(z3, alpha, rng)
            assert (u * v).star().max_diff(v.star() * u.star()) < 1e-12

    def test_requires_normalized_cocycle(self):
        g = pa.make_cyclic_power(3, 2)
        alpha = pa.measured_cocycle(3)
        u = pa.generator(g, alpha, (1, 1))
        with pytest.raises(pa.NormalizationRequiredError):
            u.star()


class TestRegularReps:
    def test_z2_shift_matrix(self, z2):
        pair = pa.regular_reps(z2, pa.zero_cocycle(z2))
        assert np.array_equal(pair.R[(1,)], np.array([[0, 1], [1, 0]]))

    def test_identity_matrix(self, z4, s3):
        for g in (z4, s3):
            pair = pa.regular_reps(g, pa.zero_cocycle(g))
            assert np.array_equal(pair.R[g.identity()], np.eye(g.order))
            assert np.array_equal(pair.L[g.identity()], np.eye(g.order))

    def test_s3_vector_homomorphism(self, s3):
        pair = pa.regular_reps(s3, pa.zero_cocycle(s3))
        for a in s3.elements():
            for b in s3.elements():
                assert np.allclose(pair.R[a] @ pair.R[b], pair.R[s3.prod(a, b)])
                assert np.allclose(pair.L[a] @ pair.L[b], pair.L[s3.prod(a, b)])

    def test_projective_homomorphism_with_phase(self):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        pair = pa.regular_reps(g, alpha)
        for a in g.elements():
            for b in g.elements():
                phase = np.exp(1j * alpha.phase(a, b))
                assert np.allclose(pair.R[a] @ pair.R[b],
                                   phase * pair.R[g.prod(a, b)], atol=1e-12)
                assert np.allclose(pair.L[a] @ pair.L[b],
                                   phase * pair.L[g.prod(a, b)], atol=1e-12)

    def test_lattice_unsupported(self, lattice2):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.regular_reps(lattice2, pa.zero_cocycle(lattice2))

    def test_unnormalized_rejected(self):
        g = pa.make_cyclic_power(3, 2)
        with pytest.raises(pa.NormalizationRequiredError):
            pa.regular_reps(g, pa.measured_cocycle(3))


class TestConjugationMatrix:
    def test_z2_identity(self, z2):
        C = pa.conjugation_matrix(z2, pa.zero_cocycle(z2))
        assert np.array_equal(C, np.eye(2))

    def test_z3_swap(self, z3):
        C = pa.conjugation_matrix(z3, pa.zero_cocycle(z3))
        assert np.array_equal(C, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))

    def test_row_sums_and_symmetry(self, z4, z32, s3):
        for g in (z4, z32, s3):
            C = pa.conjugation_matrix(g, pa.zero_cocycle(g))
            assert np.array_equal(C, C.T)
            assert np.array_equal(C @ C, np.eye(g.order))
            assert np.array_equal(C.sum(axis=1), np.ones(g.order))

    def test_intertwines_projective_case(self):
        g = pa.make_cyclic_power(3, 2)
        alpha, _ = pa.normalize(g, pa.measured_cocycle(3))
        pa.conjugation_matrix(g, alpha)  # raises on failure

    def test_bra_column_bookkeeping(self, s3):
        # C columns pick out inverses: C[b, c] = 1 iff b = c^-1
        C = pa.conjugation_matrix(s3, pa.zero_cocycle(s3))
        inv = s3.inverse_indices()
        assert np.array_equal(np.argmax(C, axis=0), inv)

    def test_eigen_bra_phase_identity(self):
        # (x C) R(a) = x(a) (x C) reduces to alpha(c a^-1, a) = alpha(a, c^-1)
        g = pa.make_cyclic_power(3, 2)
        alpha, _ = pa.normalize(g, pa.measured_cocycle(3))
        for a in g.elements():
            for c in g.elements():
                lhs = alpha.phase(g.prod(c, g.inv(a)), a)
                rhs = alpha.phase(a, g.inv(c))
                assert abs(pa.reduce_phase(lhs - rhs)) < 1e-10


class TestApplyOperators:
    def test_identity_acts_trivially(self, z4, rng):
        alpha = pa.zero_cocycle(z4)
        u = random_element(z4, alpha, rng)
        assert pa.apply_R(z4.identity(), u).max_diff(u) == 0.0
        assert pa.apply_L(z4.identity(), u).max_diff(u) == 0.0

    def test_matches_matrix_action(self, z4, rng):
        alpha = normalized_coboundary(z4, rng)
        pair = pa.regular_reps(z4, alpha)
        for _ in range(10):
            u = random_element(z4, alpha, rng)
            for a in z4.elements():
                right = dense(pa.apply_R(a, u))
                assert np.allclose(right, pair.R[a].T @ dense(u), atol=1e-13)
                left = dense(pa.apply_L(a, u))
                assert np.allclose(left, pair.L[a] @ dense(u), atol=1e-13)

    def test_lattice_single_step(self, lattice2):
        theta = np.array([[0.0, 0.3], [-0.1, 0.0]])
        alpha = pa.BilinearCocycle(lattice2, theta)
        u = pa.generator(lattice2, alpha, (0, 1))
        moved = pa.apply_R((1, 0), u)
        assert moved.coeff((1, 1)) == pytest.approx(np.exp(-0.1j))
        moved_l = pa.apply_L((1, 0), u)
        assert moved_l.coeff((1, 1)) == pytest.approx(np.exp(0.3j))

    def test_apply_r_is_right_multiplication(self, z32, rng):
        alpha = normalized_coboundary(z32, rng)
        u = random_element(z32, alpha, rng)
        a = (1, 2)
        direct = u * pa.generator(z32, alpha, a)
        assert pa.apply_R(a, u).max_diff(direct) < 1e-14
        direct_l = pa.generator(z32, alpha, a) * u
        assert pa.apply_L(a, u).max_diff(direct_l) < 1e-14


class TestRefusals:
    def test_elements_under_different_cocycles_do_not_combine(self, lattice2):
        u = pa.generator(lattice2, pa.zero_cocycle(lattice2), (1, 0))
        v = pa.generator(lattice2, pa.BilinearCocycle(lattice2, [[0, 0.5], [-0.5, 0]]), (1, 0))
        for op in (lambda: u + v, lambda: u - v, lambda: u * v):
            with pytest.raises(pa.ContextMismatchError, match="different cocycles"):
                op()

    def test_non_elements_are_refused(self, z3):
        u = pa.generator(z3, pa.zero_cocycle(z3), (1,))
        for op, fragment in ((lambda: u + 1, "unsupported operand"),
                             (lambda: u - 1, "unsupported operand"),
                             (lambda: u * "x", "can't multiply sequence")):
            with pytest.raises(TypeError, match=fragment):
                op()
