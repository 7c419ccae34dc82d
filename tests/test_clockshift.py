import functools
import json
import os

import numpy as np
import pytest

import projalg as pa
from projalg import algebra, cli, clockshift, cocycles, harmonic
from projalg.phases import reduce_phase


class TestMatrices:
    def test_n2_pauli_pair(self):
        u1, u2 = pa.clock_shift_matrices(2)
        assert np.array_equal(u1, np.array([[0, 1], [1, 0]]))
        assert np.max(np.abs(u2 - np.diag([1.0, -1.0]))) < 1e-15

    def test_n3_clock_diagonal(self):
        _, u2 = pa.clock_shift_matrices(3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(u2, np.diag([1.0, w, w ** 2]))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_order(self, n):
        u1, u2 = pa.clock_shift_matrices(n)
        assert np.max(np.abs(np.linalg.matrix_power(u1, n) - np.eye(n))) < 1e-12
        assert np.max(np.abs(np.linalg.matrix_power(u2, n) - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_commutation_phase(self, n):
        u1, u2 = pa.clock_shift_matrices(n)
        lhs = u1 @ u2
        rhs = np.exp(2j * np.pi / n) * (u2 @ u1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pa.clock_shift_matrices(1)

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_monomial_checks_match_the_dense_products(self, n):
        """consistency_check composes (perm, phase) rows with no dense product;
        the dense products and powers are its oracle."""
        u1, u2 = pa.clock_shift_matrices(n)
        x1, x2 = clockshift._rows(n, 1, 0), clockshift._rows(n, 0, 1)
        dense = lambda x: algebra._densify(*x)
        assert np.array_equal(dense(x1), u1) and np.array_equal(dense(x2), u2)
        for x, u in ((x1, u1), (x2, u2)):
            assert np.array_equal(dense(clockshift._dagger(x)), u.conj().T)
            power = functools.reduce(clockshift._compose, [x] * n)
            assert np.max(np.abs(dense(power) - np.linalg.matrix_power(u, n))) < 1e-14
        comm = functools.reduce(clockshift._compose,
                                (x1, x2, clockshift._dagger(x1), clockshift._dagger(x2)))
        assert np.max(np.abs(dense(comm) - u1 @ u2 @ u1.conj().T @ u2.conj().T)) < 1e-14
        records = {c.name: c.max_residual for c in pa.consistency_check(n, trials=1).checks}
        assert records["generator_order"] < 1e-13 and records["commutator_phase"] < 1e-13


class TestRealize:
    def test_identity(self):
        for n in (2, 3, 5):
            assert np.array_equal(pa.realize(n, (0, 0)), np.eye(n))

    def test_n2_single_factors(self):
        assert np.array_equal(pa.realize(2, (1, 0)), np.array([[0, 1], [1, 0]]))
        assert np.max(np.abs(pa.realize(2, (0, 1)) - np.diag([1.0, -1.0]))) < 1e-15

    def test_n2_dressed_cross_term(self):
        expected = np.array([[0, -1j], [1j, 0]])
        assert np.max(np.abs(pa.realize(2, (1, 1)) - expected)) < 1e-15

    def test_unitary(self):
        for n in (2, 3, 4):
            for m, mat in pa.element_matrices(n).items():
                assert np.max(np.abs(mat @ mat.conj().T - np.eye(n))) < 1e-12

    def test_wraps_to_canonical(self):
        assert np.array_equal(pa.realize(3, (4, -2)), pa.realize(3, (1, 1)))


class TestMeasuredCocycle:
    def test_n2_hand_values(self):
        alpha = pa.measured_cocycle(2)
        assert alpha.phase((1, 0), (0, 1)) == pytest.approx(-np.pi / 2)
        assert alpha.phase((0, 1), (1, 0)) == pytest.approx(np.pi / 2)

    def test_identity_row_is_zero(self):
        """M(e) = I exactly, so alpha(e, .) and alpha(., e) are exact zeros, not angles
        of sums of z / z (positive up to 1.6e-17 at n = 6, 12, 18, 24 to 27, 29, 30, 32)."""
        for n in clockshift.SUPPORTED_RANGE:
            A = pa.measured_cocycle(n).phase_matrix()
            assert not A[0].any() and not A[:, 0].any(), n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_validates_exhaustively(self, n):
        g = pa.make_cyclic_power(n, 2)
        report = pa.validate_cocycle(g, pa.measured_cocycle(n))
        assert report.passed
        assert report.checks[0].max_residual < 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pairing_is_gauge_invariant_content(self, n):
        g = pa.make_cyclic_power(n, 2)
        beta = pa.commutator_pairing(g, pa.measured_cocycle(n), (1, 0), (0, 1))
        assert abs(reduce_phase(beta - 2 * np.pi / n)) < 1e-12

    def test_product_rule_against_matrices(self):
        n = 4
        g = pa.make_cyclic_power(n, 2)
        alpha = pa.measured_cocycle(n)
        mats = pa.element_matrices(n)
        for a in g.elements():
            for b in g.elements():
                lhs = mats[a] @ mats[b]
                rhs = np.exp(1j * alpha.phase(a, b)) * mats[g.prod(a, b)]
                assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_inconsistent_matrices_rejected(self, z22):
        mats = dict(pa.element_matrices(2))
        bad = mats[(1, 1)].copy()
        bad[0, 1] *= np.exp(0.3j)  # break the common-phase property
        mats[(1, 1)] = bad
        with pytest.raises(pa.RepresentationInconsistencyError):
            pa.measure_cocycle_from_matrices(z22, mats)


class TestTraceIntegral:
    def test_trace_of_elements(self):
        for n in (2, 3, 5):
            g = pa.make_cyclic_power(n, 2)
            for m in g.elements():
                tr = np.trace(pa.realize(n, m))
                expected = n if m == (0, 0) else 0.0
                assert abs(tr - expected) < 1e-12

    def test_identity_matrix(self):
        assert pa.trace_integral(3, np.eye(3)) == 1.0

    def test_random_coefficients_pick_identity_term(self, rng):
        n = 3
        g = pa.make_cyclic_power(n, 2)
        coeffs = {m: complex(rng.standard_normal(), rng.standard_normal())
                  for m in g.elements()}
        total = sum(c * pa.realize(n, m) for m, c in coeffs.items())
        assert pa.trace_integral(n, total) == pytest.approx(coeffs[(0, 0)],
                                                            abs=1e-12)

    def test_trace_orthogonality(self):
        n = 4
        g = pa.make_cyclic_power(n, 2)
        mats = pa.element_matrices(n)
        for a in g.elements():
            for b in g.elements():
                val = np.trace(mats[a].conj().T @ mats[b]) / n
                expected = 1.0 if a == b else 0.0
                assert abs(val - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pa.trace_integral(3, np.eye(4))


class TestConsistency:
    @pytest.mark.parametrize("n", [2, 5])
    def test_full_suite(self, n):
        report = pa.consistency_check(n)
        assert report.passed

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pa.consistency_check(33)

    def test_matrix_representation_cocycle_is_normalized(self):
        for n in (2, 3):
            rep = pa.matrix_representation(n)
            assert rep.cocycle.normalized

    def test_unnormalized_representation_keeps_measured_cocycle(self):
        rep = pa.matrix_representation(3, normalized=False)
        assert rep.cocycle == pa.measured_cocycle(3)


def test_matrix_fourier_measures_the_cocycle_once(tmp_path, monkeypatch):
    """`fourier --rep matrix --cocycle clockshift` shares one measured table.

    The cocycle file and the torus realization both ask for the measured
    cocycle; with the cache one product-rule pass measures it and a second
    checks the dressed representation.
    """
    passes = []
    real = harmonic.projective_product_rule

    def counting(*args, **kwargs):
        passes.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(harmonic, "projective_product_rule", counting)
    monkeypatch.setattr(clockshift, "projective_product_rule", counting)
    clockshift.measured_cocycle.cache_clear()
    files = {"g.json": {"kind": "cyclic_power", "n": 3, "d": 2},
             "c.json": {"kind": "clockshift"},
             "f.json": [{"element": [1, 2], "re": 1.0, "im": 0.5}]}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    code = cli.main(["fourier", "--group", str(tmp_path / "g.json"),
                     "--cocycle", str(tmp_path / "c.json"),
                     "--in", str(tmp_path / "f.json"), "--rep", "matrix",
                     "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert len(passes) == 2


def test_clockshift_command_measures_the_cocycle_once(monkeypatch):
    """`clockshift --n N` reports the cached measurement's bound.

    One product-rule pass measures the cocycle and a second checks the dressed
    representation; the raw family is not measured again for the report, whose
    detail names the worst generator pair and the word depth.
    """
    passes = []
    real = harmonic.projective_product_rule

    def counting(*args, **kwargs):
        passes.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(harmonic, "projective_product_rule", counting)
    monkeypatch.setattr(clockshift, "projective_product_rule", counting)
    clockshift.measured_cocycle.cache_clear()
    assert cli.main(["clockshift", "--n", "4", "--out", os.devnull]) == 0
    assert len(passes) == 2
    group = pa.make_cyclic_power(4, 2)
    _, bound, pair, depth = real(group, *clockshift._family(4))
    check = next(c for c in pa.consistency_check(4, trials=1).checks
                 if c.name == "projective_product_rule")
    assert check.max_residual == bound
    assert check.detail == ("bound (2L + 1) g + L c, worst generator pair "
                            f"({group.describe(pair[0])}, {group.describe(pair[1])}), "
                            f"depth {depth}")


def test_matrix_fourier_normalizes_the_cocycle_once(tmp_path, monkeypatch):
    """The torus realization's normalized cocycle is the one the command uses.

    `fourier --rep matrix --cocycle clockshift` used to validate and
    normalize the measured cocycle in the CLI and again in
    `matrix_representation`; the output is the same with one pass of each.
    """
    calls = {"normalize": 0, "validate_cocycle": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(cocycles, name))
        for module in (cocycles, cli, clockshift):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    files = {"g.json": {"kind": "cyclic_power", "n": 10, "d": 2},
             "c.json": {"kind": "clockshift"},
             "f.json": [{"element": [1, 2], "re": 1.0, "im": 0.5},
                        {"element": [7, 3], "re": -0.2, "im": 0.0}]}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    code = cli.main(["fourier", "--group", str(tmp_path / "g.json"),
                     "--cocycle", str(tmp_path / "c.json"),
                     "--in", str(tmp_path / "f.json"), "--rep", "matrix",
                     "--roundtrip", "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert calls == {"normalize": 1, "validate_cocycle": 1}
    checks = json.loads((tmp_path / "out.json").read_text())["checks"]
    assert checks["plancherel"]["pass"] and checks["roundtrip"]["pass"]


class TestConsistencyTolerance:
    def test_default_tolerances(self):
        tolerances = {c.name: c.tolerance for c in pa.consistency_check(3).checks}
        assert tolerances.pop("projective_product_rule") == 1e-11
        assert set(tolerances.values()) == {1e-12}

    def test_one_tolerance_for_every_check(self):
        report = pa.consistency_check(3, tol=1e-3)
        assert len(report.checks) == 5
        assert {c.tolerance for c in report.checks} == {1e-3}
