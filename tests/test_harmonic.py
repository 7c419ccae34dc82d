import json
import tracemalloc

import numpy as np
import pytest

import projalg as pa
from projalg import harmonic


def normalized_coboundary(group, rng):
    vals = rng.uniform(-np.pi, np.pi, group.order)
    vals[0] = 0.0
    alpha = pa.coboundary(group, pa.GaugePhase.from_table(group, vals))
    out, _ = pa.normalize(group, alpha)
    return out


def random_function(group, rng):
    return pa.GroupFunction(group, {a: complex(rng.standard_normal(),
                                               rng.standard_normal())
                                    for a in group.elements()})


def dense(f):
    g = f.group
    vec = np.zeros(g.order, dtype=complex)
    for a, v in f.items():
        vec[g.element_index(a)] = v
    return vec


class TestFourier:
    def test_formal_delta_is_identity_element(self, z4):
        alpha = pa.zero_cocycle(z4)
        rep = pa.FormalRepresentation(z4, alpha)
        fhat = pa.fourier(pa.GroupFunction.delta(z4, (0,)), rep)
        assert fhat.max_diff(pa.generator(z4, alpha, (0,))) == 0.0

    def test_matrix_delta_is_identity_matrix(self):
        rep = pa.matrix_representation(2)
        g = rep.group
        fhat = pa.fourier(pa.GroupFunction.delta(g, (0, 0)), rep)
        assert np.array_equal(fhat, np.eye(2))

    def test_character_delta_is_constant_one(self, z3):
        f = pa.GroupFunction.delta(z3, (0,))
        table = pa.character_transform(f)
        assert np.allclose(table, np.ones(3))

    def test_z2_characters_hand_values(self, z2):
        f = pa.GroupFunction(z2, {(0,): 1.0, (1,): 1j})
        table = pa.character_transform(f)
        assert table[0] == pytest.approx(1 + 1j)
        assert table[1] == pytest.approx(1 - 1j)

    def test_single_character_rep(self, z2):
        f = pa.GroupFunction(z2, {(0,): 1.0, (1,): 1j})
        assert pa.fourier(f, pa.CharacterRepresentation(z2, (1,))) == pytest.approx(1 - 1j)

    def test_clockshift_single_term_is_shift_matrix(self):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        rep = pa.MatrixRepresentation(g, alpha, pa.element_matrices(2))
        fhat = pa.fourier(pa.GroupFunction.delta(g, (1, 0)), rep)
        assert np.array_equal(fhat, np.array([[0, 1], [1, 0]]))

    def test_volume_normalized_round_trip(self, z4, rng):
        f = random_function(z4, rng)
        table = pa.character_transform(f, volume_normalized=True)
        back = pa.character_inverse(table, z4, volume_normalized=True)
        assert back.max_diff(f) < 1e-13


class TestCharacterMatmulOracle:
    """The FFT transforms against the dense character table X[q, a] = chi_q(a).

    The oracle is the matmul route the FFT replaced: X @ vec forward and
    X^dagger @ table back, with 1/order on the un-normalized side.
    """

    def test_matches_the_character_table(self, rng):
        for n, d in [(1, 2), (2, 1), (5, 3), (6, 3), (32, 2)]:
            g = pa.make_cyclic_power(n, d)
            X = harmonic.character_matrix(g)
            f = random_function(g, rng)
            spectrum = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
            for volume_normalized in (False, True):
                table = pa.character_transform(f, volume_normalized=volume_normalized)
                ref = X @ dense(f) / (g.order if volume_normalized else 1)
                assert table.shape == (n,) * d
                assert np.max(np.abs(table.ravel() - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

                back = pa.character_inverse(spectrum.reshape((n,) * d), g,
                                            volume_normalized=volume_normalized)
                ref = X.conj().T @ spectrum / (1 if volume_normalized else g.order)
                assert np.max(np.abs(dense(back) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("group", [pa.symmetric_group(3), pa.make_lattice(2)])
    def test_off_cyclic_power_groups_raise(self, group):
        f = pa.GroupFunction.delta(group, group.identity())
        with pytest.raises(pa.UnsupportedOperationError):
            pa.character_transform(f)
        # The group is checked before the table is read.
        with pytest.raises(pa.UnsupportedOperationError):
            pa.character_inverse("not a table", group)

    def test_wrong_number_of_entries(self, z22):
        with pytest.raises(ValueError):
            pa.character_inverse(np.zeros(5), z22)


class TestInvertVectorFinite:
    def test_delta_round_trip_characters(self, z3):
        f = pa.GroupFunction.delta(z3, (0,))
        back = pa.invert_vector_finite(pa.character_transform(f), z3)
        assert back.max_diff(f) < 1e-14

    def test_random_round_trip_z5(self, z5, rng):
        for _ in range(20):
            f = random_function(z5, rng)
            back = pa.invert_vector_finite(pa.character_transform(f), z5)
            assert back.max_diff(f) < 1e-13

    def test_s3_regular_trace_identity(self, s3):
        pair = pa.regular_reps(s3, pa.zero_cocycle(s3))
        for a in s3.elements():
            expected = 6.0 if a == s3.identity() else 0.0
            assert np.trace(pair.R[a]) == expected
        # inverting fhat = identity picks out the delta at e
        back = pa.invert_vector_finite(np.eye(6), s3)
        assert back.max_diff(pa.GroupFunction.delta(s3, 0)) < 1e-14

    def test_s3_regular_round_trip(self, s3, rng):
        rep = pa.regular_matrix_rep(s3)
        for _ in range(10):
            f = random_function(s3, rng)
            back = pa.invert_vector_finite(pa.fourier(f, rep), s3)
            assert back.max_diff(f) < 1e-12

    def test_shape_mismatch(self, z3):
        with pytest.raises(ValueError):
            pa.invert_vector_finite(np.zeros(4), z3)

    def test_projective_cocycle_rejected(self):
        g = pa.make_cyclic_power(2, 2)
        with pytest.raises(pa.UnsupportedOperationError):
            pa.invert_vector_finite(np.zeros((2, 2)), g, pa.measured_cocycle(2))

    def test_near_zero_cocycle_rejected(self):
        g = pa.make_cyclic_power(4, 2)
        table = np.full((16, 16), 1e-13)
        with pytest.raises(pa.UnsupportedOperationError):
            pa.invert_vector_finite(np.zeros((4, 4)), g, pa.TabulatedCocycle(g, table))
        f = pa.GroupFunction.delta(g, (1, 2))
        for zero in (pa.zero_cocycle(g), pa.TabulatedCocycle(g, np.zeros((16, 16)))):
            back = pa.invert_vector_finite(pa.character_transform(f), g, zero)
            assert back.max_diff(f) < 1e-15

    @pytest.mark.parametrize("entry, zero", [(2e-14, False), (-2e-14, False),
                                             (5e-15, True), (-5e-15, True)])
    def test_zero_cocycle_threshold(self, entry, zero):
        g = pa.make_cyclic_power(4, 2)
        table = np.zeros((16, 16))
        table[3, 5] = entry
        assert harmonic._is_zero_cocycle(pa.TabulatedCocycle(g, table)) is zero


class TestConvolution:
    def test_delta_is_unit(self, z4, rng):
        f = random_function(z4, rng)
        h = pa.convolution(pa.GroupFunction.delta(z4, (0,)), f)
        assert h.max_diff(f) < 1e-15

    def test_z2_hand_values(self, z2):
        f1 = pa.GroupFunction(z2, {(0,): 1.0, (1,): 2.0})
        f2 = pa.GroupFunction(z2, {(0,): 3.0, (1,): 4.0})
        h = pa.convolution(f1, f2)
        assert h.get((0,)) == 11.0
        assert h.get((1,)) == 10.0

    def test_character_transform_multiplies(self, z4, rng):
        f1 = random_function(z4, rng)
        f2 = random_function(z4, rng)
        lhs = pa.character_transform(pa.convolution(f1, f2))
        rhs = pa.character_transform(f1) * pa.character_transform(f2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestDeformedConvolution:
    def test_zero_cocycle_reduces_to_plain(self, z4, rng):
        f1, f2 = random_function(z4, rng), random_function(z4, rng)
        h1 = pa.deformed_convolution(f1, f2, pa.zero_cocycle(z4))
        assert h1.max_diff(pa.convolution(f1, f2)) < 1e-15

    def test_identity_value_is_phase_free(self, rng):
        g = pa.make_cyclic_power(3, 2)
        alpha, _ = pa.normalize(g, pa.measured_cocycle(3))
        f1, f2 = random_function(g, rng), random_function(g, rng)
        h = pa.deformed_convolution(f1, f2, alpha)
        plain = sum(f1.get(b) * f2.get(g.inv(b)) for b in g.elements())
        assert h.get(g.identity()) == pytest.approx(plain, abs=1e-12)

    def test_matrix_transform_multiplies(self, rng):
        rep = pa.matrix_representation(2)
        g, alpha = rep.group, rep.cocycle
        for _ in range(10):
            f1, f2 = random_function(g, rng), random_function(g, rng)
            h = pa.deformed_convolution(f1, f2, alpha)
            lhs = pa.fourier(h, rep)
            rhs = pa.fourier(f1, rep) @ pa.fourier(f2, rep)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_associative(self, z4, rng):
        alpha = normalized_coboundary(z4, rng)
        for _ in range(10):
            f = random_function(z4, rng)
            g = random_function(z4, rng)
            h = random_function(z4, rng)
            lhs = pa.deformed_convolution(pa.deformed_convolution(f, g, alpha), h, alpha)
            rhs = pa.deformed_convolution(f, pa.deformed_convolution(g, h, alpha), alpha)
            assert lhs.max_diff(rhs) < 1e-11

    def test_requires_normalized(self, rng):
        g = pa.make_cyclic_power(3, 2)
        f1, f2 = random_function(g, rng), random_function(g, rng)
        with pytest.raises(pa.NormalizationRequiredError):
            pa.deformed_convolution(f1, f2, pa.measured_cocycle(3))


class TestPlancherel:
    def test_delta(self, z4):
        rep = pa.plancherel_check(pa.GroupFunction.delta(z4, (0,)),
                                  pa.zero_cocycle(z4))
        assert rep.passed

    def test_z2_hand_value(self, z2):
        f = pa.GroupFunction(z2, {(0,): 1.0, (1,): 1j})
        lhs, rhs = pa.plancherel_values(f, pa.zero_cocycle(z2))
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0)

    def test_random_with_nontrivial_cocycle(self, z4, rng):
        alpha = normalized_coboundary(z4, rng)
        for _ in range(20):
            f = random_function(z4, rng)
            lhs, rhs = pa.plancherel_values(f, alpha)
            assert abs(lhs - rhs) < 1e-12


def ref_moyal_star(ftilde, gtilde, alpha):
    """The spectral double sum sum_{a,b} f(a) g(b) exp(i alpha(a, b)) chi_q(a) chi_q(b)."""
    group = alpha.group
    X = harmonic.character_matrix(group)
    fv = X.conj().T @ np.ravel(ftilde) / group.order
    gv = X.conj().T @ np.ravel(gtilde) / group.order
    W = np.outer(fv, gv) * np.exp(1j * alpha.phase_matrix())
    return np.einsum("qa,ab,qb->q", X, W, X).reshape(np.shape(ftilde))


def star_cocycle(case):
    """A cocycle on (Z_n)^D for the star-product oracle, by case name."""
    if case == "raw-measured-3":
        alpha = pa.measured_cocycle(3)
        assert not alpha.normalized
        return alpha
    if case == "coboundary-z3-cubed":
        g = pa.make_cyclic_power(3, 3)
        phi = np.random.default_rng(3).uniform(-np.pi, np.pi, g.order)
        phi[0] = 0.0
        return pa.coboundary(g, pa.GaugePhase.from_table(g, phi))
    n = int(case.rsplit("-", 1)[1])
    return pa.normalize(pa.make_cyclic_power(n, 2), pa.measured_cocycle(n))[0]


class TestMoyalStar:
    @pytest.mark.parametrize("case", ["normalized-measured-2", "normalized-measured-3",
                                      "normalized-measured-4", "normalized-measured-5",
                                      "raw-measured-3", "coboundary-z3-cubed"])
    def test_matches_the_spectral_double_sum(self, case, rng):
        alpha = star_cocycle(case)
        g = alpha.group
        shape = (g.n,) * g.d
        ft, gt = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in range(2))
        ref = ref_moyal_star(ft, gt, alpha)
        out = pa.moyal_star(ft, gt, alpha)
        assert out.shape == shape
        assert np.max(np.abs(out - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_zero_cocycle_is_pointwise_product(self, rng):
        g = pa.make_cyclic_power(4, 2)
        f1, f2 = random_function(g, rng), random_function(g, rng)
        ft = pa.character_transform(f1)
        gt = pa.character_transform(f2)
        out = pa.moyal_star(ft, gt, pa.zero_cocycle(g))
        assert np.allclose(out, ft * gt, atol=1e-10)

    def test_unit(self):
        g = pa.make_cyclic_power(2, 2)
        alpha = pa.measured_cocycle(2)
        ones = np.ones((2, 2), dtype=complex)
        out = pa.moyal_star(ones, ones, alpha)
        assert np.allclose(out, ones, atol=1e-13)

    def test_two_routes_agree(self, rng):
        # Both routes run the finite-group kernel; the double-sum oracle
        # above is the independent check.
        for n in (2, 3):
            g = pa.make_cyclic_power(n, 2)
            alpha, _ = pa.normalize(g, pa.measured_cocycle(n))
            f1, f2 = random_function(g, rng), random_function(g, rng)
            spectral = pa.moyal_star(pa.character_transform(f1),
                                     pa.character_transform(f2), alpha)
            direct = pa.character_transform(
                pa.deformed_convolution(f1, f2, alpha))
            assert np.max(np.abs(spectral - direct)) < 1e-12

    def test_wrong_shape_rejected(self):
        g = pa.make_cyclic_power(2, 2)
        with pytest.raises(ValueError):
            pa.moyal_star(np.ones(2), np.ones(2), pa.zero_cocycle(g))

    def test_lattice_rejected(self, lattice2):
        with pytest.raises(pa.UnsupportedOperationError):
            pa.moyal_star(np.ones((2, 2)), np.ones((2, 2)),
                          pa.zero_cocycle(lattice2))


class TestMatrixRepresentation:
    def test_inconsistent_cocycle_rejected(self):
        g = pa.make_cyclic_power(3, 2)
        # the torus matrices do not realize the zero cocycle
        with pytest.raises(pa.RepresentationInconsistencyError):
            pa.MatrixRepresentation(g, pa.zero_cocycle(g), pa.element_matrices(3))

    def test_missing_matrix_rejected(self, z2):
        with pytest.raises(ValueError, match="missing"):
            pa.MatrixRepresentation(z2, pa.zero_cocycle(z2),
                                    {(0,): np.eye(2)})

    @pytest.mark.parametrize("second", [np.ones((3, 2)), np.eye(3), np.ones(2)])
    def test_shapes_must_be_square_and_shared(self, z2, second):
        with pytest.raises(ValueError, match="square"):
            pa.MatrixRepresentation(z2, pa.zero_cocycle(z2),
                                    {(0,): np.eye(2), (1,): second})

    def test_matrix_rep_inverse_needs_a_dim_by_dim_transform(self):
        rep = pa.matrix_representation(3)
        with pytest.raises(ValueError, match=r"expected a 3x3 transform, got \(3, 2\)"):
            pa.matrix_rep_inverse(np.zeros((3, 2)), rep)

    def test_matrix_rep_inverse_round_trip(self, rng):
        rep = pa.matrix_representation(3)
        f = random_function(rep.group, rng)
        back = pa.matrix_rep_inverse(pa.fourier(f, rep), rep)
        assert back.max_diff(f) < 1e-12


class TestRegularInverseGather:
    """invert_vector_finite on an (order, order) transform gathers, no R(a) built.

    The oracle is the trace loop it replaced: f(a) = vdot(R(a), fhat) / order
    with the zero-cocycle right regular matrix R(a)[b, c] = delta_{ba, c},
    built here one element at a time.
    """

    @staticmethod
    def R(group, ia):
        n = group.order
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(n), group.index_table()[:, ia]] = 1.0
        return m

    def test_oracle_matrices_are_the_regular_ones(self, s3):
        R = pa.regular_reps(s3, pa.zero_cocycle(s3)).R
        for ia, a in enumerate(s3.elements()):
            assert np.array_equal(self.R(s3, ia), R[a])

    @pytest.mark.parametrize("group", [pa.symmetric_group(3), pa.symmetric_group(4),
                                       pa.make_cyclic_power(4, 2),
                                       pa.make_cyclic_power(6, 3)])
    def test_matches_the_trace_loop(self, group, rng):
        n = group.order
        fhat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        back = pa.invert_vector_finite(fhat, group)
        for ia, a in enumerate(group.elements()):
            expected = np.vdot(self.R(group, ia), fhat) / n
            assert abs(back.get(a) - expected) < 1e-13

    def test_round_trip_s4(self, rng):
        s4 = pa.symmetric_group(4)
        rep = pa.regular_matrix_rep(s4)
        f = random_function(s4, rng)
        assert pa.invert_vector_finite(pa.fourier(f, rep), s4).max_diff(f) < 1e-12

    def test_memory_at_order_216(self, rng):
        group = pa.make_cyclic_power(6, 3)
        fhat = rng.standard_normal((216, 216)) + 1j * rng.standard_normal((216, 216))
        tracemalloc.start()
        try:
            pa.invert_vector_finite(fhat, group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def bicharacter(n, d=2):
    """alpha(a, b) = 2 pi a_0 b_1 / n on (Z_n)^d, tabulated unreduced."""
    g = pa.make_cyclic_power(n, d)
    coords = np.array(list(g.elements()))
    return g, pa.TabulatedCocycle(g, 2 * np.pi * np.outer(coords[:, 0], coords[:, 1]) / n)


def nontrivial_cases():
    s3 = pa.symmetric_group(3)
    vals = np.random.default_rng(3).uniform(-np.pi, np.pi, s3.order)
    vals[0] = 0.0
    # S_3 has only coboundaries; this one is not normalized.
    cob = pa.coboundary(s3, pa.GaugePhase.from_table(s3, vals))
    return [(s3, cob), bicharacter(6)]


def plancherel_cases():
    """(group, normalized cocycle): tabulated on finite groups; bilinear, and
    bilinear gauged by an odd phase, on lattices."""
    rng = np.random.default_rng(8)
    s4 = pa.symmetric_group(4)
    cases = [(g, normalized_coboundary(g, rng))
             for g in (pa.make_cyclic_power(5, 1), pa.symmetric_group(3), s4)]
    cases.append((s4, pa.zero_cocycle(s4)))
    for n in (2, 6):
        g, alpha = bicharacter(n)
        cases.append((g, pa.normalize(g, alpha)[0]))
    torus = pa.make_cyclic_power(4, 2)
    cases.append((torus, pa.normalize(torus, pa.measured_cocycle(4))[0]))
    for d in (1, 2, 3):
        lat = pa.make_lattice(d)
        theta = rng.uniform(-2, 2, (d, d))
        antisymmetric = pa.BilinearCocycle(lat, theta - theta.T)
        odd = pa.GaugePhase(lat, lambda a: 0.3 * sum(a) + 0.01 * sum(a) ** 3)
        cases.append((lat, antisymmetric))
        cases.append((lat, pa.normalize(lat, pa.BilinearCocycle(lat, theta))[0]))
        cases.append((lat, pa.GaugedCocycle(antisymmetric, odd, normalized=True)))
    return cases


@pytest.mark.parametrize("group, alpha", plancherel_cases(),
                         ids=lambda x: repr(x)[:40])
def test_plancherel_identity_bin_is_the_products_to_the_bit(group, alpha, monkeypatch):
    """plancherel_values and scalar_product sum only the identity bin of f* g,
    in the kernel's order: the full product, kept here as the oracle, gives
    the same bits, for g = f and for a g with a support of its own."""
    from projalg import algebra
    seed = group.order if group.is_finite else group.d
    rng, rng_g = np.random.default_rng(seed), np.random.default_rng(seed + 100)

    def random_function(rng):
        if group.is_finite:
            k = int(rng.integers(0, group.order + 1))
            keys = [group.element_at(int(i))
                    for i in rng.choice(group.order, k, replace=False)]
        else:
            keys = [tuple(p) for p in rng.integers(-9, 10, (int(rng.integers(0, 40)),
                                                            group.d)).tolist()]
        scale = 10.0 ** rng.integers(-9, 6, len(keys))
        vals = (rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))) * scale
        return pa.GroupFunction(group, dict(zip(keys, vals.tolist())))

    cases = []
    for _ in range(25):
        f, g = random_function(rng), random_function(rng_g)
        fhat, ghat = pa.as_algebra_element(f, alpha), pa.as_algebra_element(g, alpha)
        cases.append((f, g, pa.ati_integral(fhat.star() * fhat),
                      pa.ati_integral(fhat.star() * ghat)))

    def no_product(*args):
        raise AssertionError("the identity bin formed a full product")

    monkeypatch.setattr(algebra, "_multiply", no_product)
    for f, g, expected, expected_fg in cases:
        assert repr(pa.plancherel_values(f, alpha)[0]) == repr(expected)
        # Scaled values can leave the routes 1e-13 apart; only the bits count here.
        assert repr(pa.scalar_product(f, g, alpha, tol=np.inf)) == repr(expected_fg)


@pytest.fixture
def mutant_kernel(monkeypatch):
    """The finite product kernel with alpha(b, a) in place of alpha(a, b)."""
    from projalg import algebra
    kernel = algebra._finite_product
    monkeypatch.setattr(algebra, "_finite_product",
                        lambda group, E, f, g: kernel(group, E.T, f, g))


class TestConvolutionTheorem:
    """rho(f ⋆_alpha g) v = rho(f) (rho(g) v) in the twisted regular picture."""

    @pytest.mark.parametrize("group, alpha", nontrivial_cases())
    def test_twisted_regular_rep_passes_the_product_rule(self, group, alpha):
        rep = pa.regular_matrix_rep(group, alpha)
        assert rep.cocycle is alpha
        # (perm, phase) are views of T and E, transposed: no copies.
        assert np.shares_memory(rep.perm, group.index_table())
        assert np.shares_memory(rep.phase, alpha.phase_exp())
        pa.MatrixRepresentation(group, alpha, (rep.perm, rep.phase), check=True)
        with pytest.raises(pa.RepresentationInconsistencyError):
            pa.MatrixRepresentation(group, pa.zero_cocycle(group),
                                    (rep.perm, rep.phase), check=True)

    @pytest.mark.parametrize("group, alpha", nontrivial_cases())
    def test_matrices_are_the_regular_reps(self, group, alpha):
        alpha_n, _ = pa.normalize(group, alpha)
        rep = pa.regular_matrix_rep(group, alpha_n)
        R = pa.regular_reps(group, alpha_n).R
        for a in group.elements():
            assert np.array_equal(rep.matrix(a), R[a])

    @pytest.mark.parametrize("group, alpha", nontrivial_cases())
    def test_residual_matches_dense_matrices(self, group, alpha, rng):
        alpha_n, _ = pa.normalize(group, alpha)
        rep = pa.regular_matrix_rep(group, alpha_n)
        f, g = random_function(group, rng), random_function(group, rng)
        v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        h = pa.deformed_convolution(f, g, alpha_n)
        assert harmonic.convolution_theorem_residual(rep, f, g, h, v) < 1e-14
        # A wrong h: the dense oracle and the gather agree on its residual.
        wrong = pa.deformed_convolution(g, f, alpha_n)
        rhs = pa.fourier(f, rep) @ (pa.fourier(g, rep) @ v)
        expected = (np.max(np.abs(pa.fourier(wrong, rep) @ v - rhs))
                    / max(1.0, np.max(np.abs(rhs))))
        got = harmonic.convolution_theorem_residual(rep, f, g, wrong, v)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got > 0.1

    def test_context_mismatch(self, z4, rng):
        rep = pa.regular_matrix_rep(pa.make_cyclic_power(2, 2))
        f = random_function(z4, rng)
        with pytest.raises(pa.ContextMismatchError):
            harmonic.convolution_theorem_residual(rep, f, f, f, np.ones(4))

    def test_verify_catches_a_mutant_kernel(self, tmp_path, mutant_kernel):
        from projalg import cli
        group, alpha = bicharacter(6)
        gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
        gpath.write_text('{"kind": "cyclic_power", "n": 6, "d": 2}')
        cpath.write_text(json.dumps({"kind": "table",
                                     "alpha": alpha.phase_matrix().tolist()}))
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--group", str(gpath), "--cocycle", str(cpath),
                         "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["convolution_theorem"]["max_residual"] > 0.1
        assert not checks["convolution_theorem"]["pass"]

    @pytest.mark.parametrize("n", [4, 32])
    def test_clockshift_catches_a_mutant_kernel(self, n, mutant_kernel):
        report = pa.consistency_check(n, trials=3)
        check = next(c for c in report.checks
                     if c.name == "deformed_convolution_transform")
        assert check.max_residual > 0.1
        assert not report.passed
