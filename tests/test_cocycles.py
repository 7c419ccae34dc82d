import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg import cocycles, sampling
from projalg.groups import CyclicPowerGroup, word_lengths
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


# Allowance between one computed residual and its exact value: four phases
# in (-pi, pi] summed and reduced mod 2 pi in float64.
ROUNDING = 5e-15


def exhaustive_check(group, alpha, chunk=2 ** 18):
    """The oracle: the constraint over every order**3 triple (a, b, c).

    This is the chunked loop validate_cocycle ran before it checked
    generator triples only.  Returns the largest residual, NaN if a phase is.
    """
    A = np.asarray(alpha.phase_matrix(), dtype=float)
    T = group.index_table()
    n = group.order
    rows = max(1, chunk // n ** 2)
    tops = []
    for s in range(0, n, rows):
        e = min(s + rows, n)
        x = A[T[s:e]] + A[s:e, :, None] - A - A[s:e][:, T]
        tops.append(np.max(np.abs(x - np.rint(x / cocycles.TWO_PI) * cocycles.TWO_PI)))
    return float(np.max(tops))


def generator_columns(group):
    """Indices of the identity and the generators, ascending, and the depth."""
    index = group.indexing()[1]
    S = np.unique([0, *(index[s] for s in group.generators())])
    depth = word_lengths(group.index_table(), S)
    assert depth.min() >= 0, "the generators must reach every element"
    return S, int(depth.max())


def generator_residuals(group, alpha):
    """The constraint on every generator triple (a, b, s) at once."""
    A = np.asarray(alpha.phase_matrix(), dtype=float)
    T = group.index_table()
    S, _ = generator_columns(group)
    return np.abs(reduce_phase(A[:, S][T] + A[:, :, None] - A[:, S] - A[:, T[:, S]]))


def reported_triple(group, report):
    """Parse the report's worst triple back into elements.

    Element descriptions may contain ", " themselves, so whole names are
    matched from the left.
    """
    names = {group.describe(x): x for x in group.elements()}
    detail = report.checks[0].detail
    rest = detail[len("worst triple ("):detail.rindex(") of ")]
    triple = []
    while rest:
        name = next(m for m in names if rest == m or rest.startswith(m + ", "))
        triple.append(names[name])
        rest = rest[len(name) + 2:]
    return tuple(triple)


def reported_indices(group, report):
    """Index triple (a, b, j) of the reported worst triple, s = S[j]."""
    a, b, s = (group.element_index(x) for x in reported_triple(group, report))
    S, _ = generator_columns(group)
    return a, b, int(np.searchsorted(S, s))


def chunk_sizes(group):
    """One row per chunk, a row count that does not divide the order, the default."""
    n = group.order
    k = generator_columns(group)[0].size
    rows = [1] + [r for r in range(n - 1, 1, -1) if n % r][:1]
    return [r * n * k for r in rows] + [cocycles._CHUNK]


def tampered(group, alpha, rng, delta):
    table = np.array(alpha.phase_matrix())
    i, j = rng.integers(0, group.order, size=2)
    table[i, j] += delta
    return pa.TabulatedCocycle(group, table)


S3 = pa.symmetric_group(3)
S4 = pa.symmetric_group(4)


@st.composite
def validation_cases(draw):
    """(group, cocycle) over (Z_n)^D (n <= 6, D <= 3) and S_3, S_4."""
    group = draw(st.one_of(
        st.builds(pa.make_cyclic_power, st.integers(1, 6), st.integers(1, 3)),
        st.sampled_from([S3, S4])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["zero", "coboundary"]
    if isinstance(group, CyclicPowerGroup):
        kinds.append("bicharacter")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        alpha = pa.zero_cocycle(group)
    elif kind == "bicharacter":
        theta = rng.integers(0, group.n, size=(group.d, group.d))
        coords = np.array(list(group.elements()))
        alpha = pa.TabulatedCocycle(
            group, 2 * np.pi * (coords @ theta @ coords.T) / group.n)
    else:
        phi = rng.uniform(-np.pi, np.pi, group.order)
        phi[0] = 0.0
        alpha = pa.coboundary(group, pa.GaugePhase.from_table(group, phi))
    if draw(st.booleans()):
        delta = draw(st.one_of(st.floats(1e-9, np.pi), st.floats(-np.pi, -1e-9)))
        alpha = tampered(group, alpha, rng, delta)
    return group, alpha


def check_against_exhaustive(group, alpha):
    top = exhaustive_check(group, alpha)
    S, depth = generator_columns(group)
    gen = generator_residuals(group, alpha)
    flat = np.sort(gen, axis=None)
    unique_by_margin = flat.size == 1 or flat[-1] - flat[-2] > 2 * ROUNDING
    for chunk in chunk_sizes(group):
        with mock.patch.object(cocycles, "_CHUNK", chunk):
            report = pa.validate_cocycle(group, alpha)
        check = report.checks[0]
        assert check.detail.endswith(
            f" of {group.order}^2 x {S.size} generator triples, depth {depth}")
        # Same verdict as the exhaustive check, and a residual that bounds it.
        assert report.passed == (top < 1e-10)
        assert top <= check.max_residual + (3 * depth + 2) * ROUNDING
        assert abs(check.max_residual - (3 * depth + 1) * gen.max()) <= (
            (3 * depth + 1) * ROUNDING)
        a, b, j = reported_indices(group, report)
        assert abs(gen[a, b, j] - gen.max()) <= 2 * ROUNDING
        assert abs(pa.cocycle_condition_residual(
            alpha, *(group.element_at(int(i)) for i in (a, b, S[j])))
            - gen.max()) <= 2 * ROUNDING
        if unique_by_margin:
            assert (a, b, j) == np.unravel_index(np.argmax(gen), gen.shape)


class TestChunkedValidation:
    """The generator-triple check against the exhaustive chunked loop it replaced."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(validation_cases())
    def test_matches_one_shot(self, case):
        check_against_exhaustive(*case)

    def test_order_216_tampered_bicharacter(self):
        g = pa.make_cyclic_power(6, 3)
        coords = np.array(list(g.elements()))
        theta = np.array([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
        alpha = pa.TabulatedCocycle(g, 2 * np.pi * (coords @ theta @ coords.T) / 6)
        check_against_exhaustive(g, alpha)
        check_against_exhaustive(g, tampered(g, alpha, np.random.default_rng(4), 0.3))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_ties_report_first_triple_in_c_order(self, z32, rows):
        # Zero table with one dyadic entry: every tied residual is exactly 0.5.
        table = np.zeros((9, 9))
        table[4, 7] = 0.5
        alpha = pa.TabulatedCocycle(z32, table)
        gen = generator_residuals(z32, alpha)
        S, depth = generator_columns(z32)
        with mock.patch.object(cocycles, "_CHUNK", rows * 9 * S.size):
            report = pa.validate_cocycle(z32, alpha)
        assert report.checks[0].max_residual == (3 * depth + 1) * 0.5
        assert reported_indices(z32, report) == np.unravel_index(
            np.argmax(gen), gen.shape)

    @pytest.mark.parametrize("rows", [1, 4])
    def test_nan_phase_fails_without_raising(self, z32, rows):
        class NaNCocycle(pa.Cocycle):
            def __init__(self, group):
                self.group = group
                self.normalized = False

            def phase_matrix(self):
                table = np.zeros((9, 9))
                table[5, 2] = np.nan
                return table

        alpha = NaNCocycle(z32)
        gen = generator_residuals(z32, alpha)
        S, _ = generator_columns(z32)
        with mock.patch.object(cocycles, "_CHUNK", rows * 9 * S.size):
            report = pa.validate_cocycle(z32, alpha)
        assert np.isnan(report.checks[0].max_residual)
        assert np.isnan(exhaustive_check(z32, alpha))
        assert not report.passed
        # argmax returns the first NaN in C order.
        assert reported_indices(z32, report) == np.unravel_index(
            np.argmax(gen), gen.shape)

    def test_one_element_group(self):
        g = pa.make_cyclic_power(1, 1)
        report = pa.validate_cocycle(g, pa.zero_cocycle(g))
        assert report.passed
        assert report.checks[0].max_residual == 0.0

    def test_peak_memory_is_chunk_sized(self):
        for n in (6, 10):
            g = pa.make_cyclic_power(n, 3)
            alpha = pa.zero_cocycle(g)
            order = g.order
            # The multiplication table is cached on the group and shared by
            # every finite-group operation; build it first so the peak is the
            # check's own.
            g.index_table()
            k = generator_columns(g)[0].size
            # Two float64 work buffers of _CHUNK triples (64 KiB each) and a few
            # order x k phase and index columns; one order**3 float64 array
            # of the exhaustive triples alone is 8 * order**3 bytes.
            expected = 2 * 8 * max(cocycles._CHUNK, order * k) + 4 * 8 * order * k
            bound = 16 * 2**20
            assert expected < bound < 8 * order ** 3
            tracemalloc.start()
            try:
                report = pa.validate_cocycle(g, alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.passed
            assert peak < bound


# -- sampled lattice checks ------------------------------------------------------

# Allowance between the array residuals and the scalar loops' values.
SAMPLED_ROUNDING = 4e-15


def ref_points(group, samples, k, box, seed):
    """Lattice points drawn one element at a time, as the scalar loops drew them."""
    rng = sampling.rng_from_seed(seed)
    return [tuple(sampling.random_element(group, rng, box=box) for _ in range(k))
            for _ in range(samples)]


def ref_validate_lattice(group, alpha, samples, box, seed):
    """The scalar loop validate_cocycle ran on lattices.

    Returns every triple, its residual, and the loop's worst value and
    triple (a running ``>``, which skips NaN).
    """
    triples = ref_points(group, samples, 3, box, seed)
    res = [pa.cocycle_condition_residual(alpha, a, b, c) for a, b, c in triples]
    worst, triple = 0.0, (group.identity(),) * 3
    for r, t in zip(res, triples):
        if r > worst:
            worst, triple = r, t
    return triples, np.array(res), worst, triple


def ref_identities_lattice(group, alpha, samples, box, seed):
    """The scalar loop check_identities ran on lattices, one row per pair."""
    rows = []
    for a, b in ref_points(group, samples, 2, box, seed):
        ia, ib = group.inv(a), group.inv(b)
        ab = group.prod(a, b)
        rows.append([abs(reduce_phase(alpha.phase(ib, b) - alpha.phase(b, ib))),
                     abs(reduce_phase(alpha.phase(a, b) + alpha.phase(ab, ib))),
                     abs(reduce_phase(alpha.phase(ia, ib) + alpha.phase(b, a))),
                     abs(reduce_phase(alpha.phase(ab, ib) - alpha.phase(ib, ia)))])
    return np.array(rows, dtype=float).reshape(-1, 4)


class CubicPhase(pa.Cocycle):
    """alpha(a, b) = c a_0^2 b_0 on Z^D: fails the constraint, has no array form."""

    def __init__(self, group, c, *, normalized=False):
        self.group = group
        self.c = c
        self.normalized = normalized

    def phase(self, a, b):
        a, b = self.group.canonical(a), self.group.canonical(b)
        return reduce_phase(self.c * a[0] ** 2 * b[0])


def sampled_cocycle(group, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "bilinear":
        return pa.BilinearCocycle(group, rng.uniform(-1.5, 1.5, (group.d, group.d)))
    if kind == "antisymmetric":
        theta = rng.uniform(-1.5, 1.5, (group.d, group.d))
        return pa.BilinearCocycle(group, theta - theta.T)
    if kind == "gauged":
        phi = {tuple(int(x) for x in rng.integers(-3, 4, group.d)): rng.uniform(-3, 3)
               for _ in range(20)}
        phi.pop(group.identity(), None)
        # Flagged normalized, which it is not, so check_identities runs and fails.
        return pa.GaugedCocycle(pa.zero_cocycle(group),
                                pa.GaugePhase.from_mapping(group, phi), normalized=True)
    return CubicPhase(group, rng.uniform(0.1, 0.9), normalized=True)


SAMPLED_CASES = [(d, kind, box, seed)
                 for d in (1, 2, 3)
                 for kind in ("bilinear", "antisymmetric", "gauged", "cubic")
                 for box, seed in ((4, 0), (6, 1))]


class TestSampledLatticeChecks:
    """The array forms of the sampled lattice checks against the scalar loops."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("box", [4, 6])
    @pytest.mark.parametrize("k", [2, 3])
    def test_block_draw_matches_per_element_draws(self, d, box, k):
        g = pa.make_lattice(d)
        block = sampling.lattice_points(g, sampling.rng_from_seed(0x5EED + d), 200,
                                        k, box=box)
        ref = ref_points(g, 200, k, box, 0x5EED + d)
        assert [tuple(tuple(p[i].tolist()) for p in block) for i in range(200)] == ref

    @pytest.mark.parametrize("d,kind,box,seed", SAMPLED_CASES)
    def test_validate_matches_scalar_loop(self, d, kind, box, seed):
        g = pa.make_lattice(d)
        alpha = sampled_cocycle(g, kind, seed)
        samples = 300
        _, res, worst, triple = ref_validate_lattice(g, alpha, samples, box, seed)
        report = pa.validate_cocycle(g, alpha, samples=samples, box=box, seed=seed)
        check = report.checks[0]
        assert abs(check.max_residual - worst) <= SAMPLED_ROUNDING
        assert check.passed == (worst < 1e-10)
        assert check.passed == (kind != "cubic")
        top = np.sort(res)
        if top[-1] - top[-2] > 2 * SAMPLED_ROUNDING or top[-1] == 0.0:
            assert check.detail == (f"worst sampled triple {triple} "
                                    f"({samples} triples, box {box})")

    @pytest.mark.parametrize("d,kind,box,seed", SAMPLED_CASES)
    def test_identities_match_scalar_loop(self, d, kind, box, seed):
        g = pa.make_lattice(d)
        alpha = sampled_cocycle(g, kind, seed)
        if not alpha.normalized:
            alpha, _ = pa.normalize(g, alpha, validate=False)
        ref = ref_identities_lattice(g, alpha, 300, box, seed).max(axis=0)
        report = pa.check_identities(g, alpha, samples=300, box=box, seed=seed)
        got = np.array([c.max_residual for c in report.checks])
        assert np.all(np.abs(got - ref) <= SAMPLED_ROUNDING)
        assert [c.passed for c in report.checks] == list(ref < 1e-10)

    def test_empty_sample(self, lattice2):
        alpha = pa.BilinearCocycle(lattice2, [[0.0, 0.3], [-0.3, 0.0]])
        report = pa.validate_cocycle(lattice2, alpha, samples=0)
        assert report.checks[0].max_residual == 0.0
        assert report.checks[0].detail == (
            "worst sampled triple ((0, 0), (0, 0), (0, 0)) (0 triples, box 6)")
        ids = pa.check_identities(lattice2, alpha, samples=0)
        assert ids.passed and all(c.max_residual == 0.0 for c in ids.checks)

    def test_all_zero_sample_names_identity_triple(self, lattice2):
        report = pa.validate_cocycle(lattice2, pa.zero_cocycle(lattice2), seed=3)
        assert report.checks[0].max_residual == 0.0
        assert report.checks[0].detail.startswith(
            "worst sampled triple ((0, 0), (0, 0), (0, 0))")

    @staticmethod
    def nan_gauged(group, *, normalized=False):
        phi = pa.GaugePhase.from_mapping(group, {(1, 1): float("nan")})
        return pa.GaugedCocycle(pa.zero_cocycle(group), phi, normalized=normalized)

    def test_nan_phase_fails_validation(self, lattice2):
        alpha = self.nan_gauged(lattice2)
        triples, res, _, _ = ref_validate_lattice(lattice2, alpha, 1000, 6, 1)
        first_nan = int(np.flatnonzero(np.isnan(res))[0])
        report = pa.validate_cocycle(lattice2, alpha, seed=1)
        assert np.isnan(report.checks[0].max_residual)
        assert not report.passed
        assert report.checks[0].detail.startswith(
            f"worst sampled triple {triples[first_nan]} ")

    def test_nan_phase_fails_identities(self, lattice2):
        alpha = self.nan_gauged(lattice2, normalized=True)
        has_nan = np.isnan(ref_identities_lattice(lattice2, alpha, 1000, 6, 1)).any(axis=0)
        assert has_nan.any()
        report = pa.check_identities(lattice2, alpha, seed=1)
        assert [bool(np.isnan(c.max_residual)) for c in report.checks] == list(has_nan)
        assert not report.passed


@pytest.mark.parametrize("group", [pa.make_cyclic_power(4, 2), S3])
def test_zero_cocycle_holds_no_table(group):
    """Read-only 0-stride views of one 0.0 and one 1+0j, with the bits, equality
    and hash of the tabulated all-zero table."""
    alpha = pa.zero_cocycle(group)
    tabulated = pa.TabulatedCocycle(group, np.zeros((group.order, group.order)))
    assert alpha.normalized and alpha == tabulated and hash(alpha) == hash(tabulated)
    for view, table in ((alpha.phase_matrix(), tabulated.phase_matrix()),
                        (alpha.phase_exp(), tabulated.phase_exp())):
        assert view.strides == (0, 0) and not view.flags.writeable
        assert view.base is not None and not view.base.flags.writeable
        assert view.dtype == table.dtype and view.tobytes() == table.tobytes()


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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_lazy_gauge_tabulates_as_the_gauge_transform(self, s3, sign):
        """GaugedCocycle's phase_matrix and phase_exp are the base class's
        per-pair loops; a mapping-backed phase (and its negation) is
        tabulated by calling it per element."""
        phi = pa.GaugePhase.from_mapping(s3, {1: 0.4, 2: -1.3, 3: 2.9, 5: 0.7})
        phi = phi if sign == 1 else -phi
        lazy = pa.GaugedCocycle(pa.zero_cocycle(s3), phi)
        table = pa.GaugePhase.from_table(s3, phi.table())
        for psi in (phi, table):
            eager = pa.gauge_transform(pa.zero_cocycle(s3), psi)
            assert np.max(np.abs(reduce_phase(
                lazy.phase_matrix() - eager.phase_matrix()))) < 1e-15
            assert np.max(np.abs(lazy.phase_exp() - eager.phase_exp())) < 1e-15
        assert pa.validate_cocycle(s3, lazy).passed
        assert pa.normalize(s3, lazy)[0].normalized

    def test_zero_phase_on_a_lattice(self, lattice2):
        phi = pa.GaugePhase.zero(lattice2)
        assert [phi.value(a) for a in [(0, 0), (3, -7)]] == [0.0, 0.0]

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

    def test_zero_table_is_returned_without_validation(self):
        """Every residual of an exact zero table is 0, so it passes the scan at any
        tolerance VerificationReport.add takes: the scan is skipped for it, and
        only for it.  A tolerance add refuses is refused as before."""
        g = pa.make_cyclic_power(6, 2)
        alpha = pa.TabulatedCocycle(g, np.zeros((36, 36)))
        one_entry = np.zeros((36, 36))
        one_entry[7, 11] = 0.5
        with mock.patch.object(cocycles, "validate_cocycle",
                               wraps=cocycles.validate_cocycle) as check:
            out, phi = pa.normalize(g, alpha)
            check.assert_not_called()
            with pytest.raises(ValueError, match="associativity"):
                pa.normalize(g, pa.TabulatedCocycle(g, one_entry))
            check.assert_called_once()
        for zero in (alpha, pa.zero_cocycle(g)):
            for tol in (0.0, -1.0, np.inf, np.nan):
                with pytest.raises(ValueError, match="tolerance must be finite"):
                    pa.normalize(g, zero, tol=tol)
        assert out is alpha and not phi.table().any()
        # The gauge path's table, 0 + 0 - 0 - 0, to the bit.
        gauged = pa.gauge_transform(alpha, pa.GaugePhase.from_table(g, phi.table()))
        assert gauged.phase_matrix().tobytes() == out.phase_matrix().tobytes()

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

    def test_inverse_pairs_are_exact_zeros_on_an_unreduced_table(self):
        # A[a, a^-1] and A[a^-1, a] of 2 pi a_0 b_1 / 32 reach ~190 rad, so
        # after reduce_phase they agree only to ulps of that magnitude.
        g = pa.make_cyclic_power(32, 2)
        coords = np.array(list(g.elements()))
        alpha = pa.TabulatedCocycle(
            g, 2 * np.pi * np.outer(coords[:, 0], coords[:, 1]) / 32)
        out, _ = pa.normalize(g, alpha)
        table = out.phase_matrix()
        assert np.all(table[np.arange(g.order), g.inverse_indices()] == 0.0)
        assert np.all(table[0] == 0.0) and np.all(table[:, 0] == 0.0)

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

    def test_identity_row_within_tolerance_is_gauged_to_zero(self, z2):
        # alpha(e, b) = 1e-12: within the check's tolerance of a cocycle, but
        # above NORMALIZED_TOL, and no gauge moves the identity row.
        alpha = pa.TabulatedCocycle(z2, [[0.0, 1e-12], [0.0, 0.0]])
        assert pa.validate_cocycle(z2, alpha).passed
        out, _ = pa.normalize(z2, alpha)
        assert out.normalized
        assert not out.phase_matrix().any()

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

    def test_bilinear_rejects_a_form_that_overflows(self, lattice2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                pa.BilinearCocycle(lattice2, [[1e308, 0.0], [0.0, 1e308]])
            with pytest.raises(ValueError, match="overflows"):
                pa.BilinearCocycle(lattice2, [[1e300, -1e300], [1e300, 1e300]])
        # sum |theta| 2**106 is finite here, so every phase is finite.
        alpha = pa.BilinearCocycle(lattice2, [[1e200, 0.0], [0.0, 1e200]])
        edge = 2 ** 53
        assert np.isfinite(alpha.phases(np.array([[edge, -edge]]), np.array([[edge, edge]])))

    def test_gauge_table_rejects_nan(self, z3):
        with pytest.raises(ValueError, match="non-finite"):
            pa.GaugePhase.from_table(z3, [0.0, np.nan, 0.1])


class TestShapesAndEquality:
    def test_gauge_table_needs_a_finite_group_and_one_value_per_element(self, z3, lattice2):
        with pytest.raises(pa.BackingMismatchError, match="need a finite group"):
            pa.GaugePhase.from_table(lattice2, [0.0, 0.1])
        with pytest.raises(ValueError, match=r"expected 3 phase values, got \(2,\)"):
            pa.GaugePhase.from_table(z3, [0.0, 0.1])

    def test_tabulated_needs_an_order_by_order_table(self, z3):
        with pytest.raises(ValueError, match=r"expected a 3x3 phase table, got \(2, 3\)"):
            pa.TabulatedCocycle(z3, np.zeros((2, 3)))

    def test_bilinear_needs_a_d_by_d_form(self, lattice2):
        with pytest.raises(ValueError, match=r"expected a 2x2 form, got \(3, 3\)"):
            pa.BilinearCocycle(lattice2, np.zeros((3, 3)))

    def test_bilinear_equality_and_hash_follow_the_form(self, lattice2):
        theta = np.array([[0.0, 0.5], [-0.5, 0.0]])
        a, b = pa.BilinearCocycle(lattice2, theta), pa.BilinearCocycle(lattice2, theta.copy())
        assert a == b and hash(a) == hash(b)
        assert a != pa.BilinearCocycle(lattice2, -theta)
        assert a != pa.BilinearCocycle(pa.make_lattice(3), np.zeros((3, 3)))
        assert a != pa.zero_cocycle(pa.make_cyclic_power(2, 2))


class TestBilinearPhases:
    """The elementwise bilinear form against exact sums and its scalar phase."""

    @staticmethod
    def wide_rows(rng, n, d):
        """n rows with coordinates up to +-2**52, the edges included."""
        A = rng.integers(-2 ** 52, 2 ** 52, (n, d), endpoint=True)
        A[:4] = [[2 ** 52] * d, [-2 ** 52] * d, [2 ** 52 - 1] * d,
                 [3] + [2 ** 52] * (d - 1)]
        return A

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_inverse_pairs_of_an_antisymmetric_form_are_exact_zeros(self, d):
        rng = np.random.default_rng(d)
        g = pa.make_lattice(d)
        theta = rng.uniform(-1, 1, (d, d))
        normalized, _ = pa.normalize(g, pa.BilinearCocycle(g, theta), validate=False)
        for alpha in (normalized, pa.BilinearCocycle(g, theta - theta.T)):
            A = self.wide_rows(rng, 2000, d)
            assert np.count_nonzero(alpha.phases(A, -A)) == 0
            assert np.count_nonzero(alpha.phases(-A, A)) == 0
            for a in A[:10].tolist():
                assert alpha.phase(a, g.inv(a)) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("bits", [4, 26, 52])
    def test_phase_is_phases_to_the_bit(self, d, bits):
        rng = np.random.default_rng(100 * d + bits)
        g = pa.make_lattice(d)
        alpha = pa.BilinearCocycle(g, rng.uniform(-1, 1, (d, d)))
        A, B = rng.integers(-2 ** bits, 2 ** bits, (2, 200, d), endpoint=True)
        scalar = [alpha.phase(a, b) for a, b in zip(A.tolist(), B.tolist())]
        assert np.array(scalar).tobytes() == alpha.phases(A, B).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_generic_form_is_within_float64_rounding_of_the_exact_sum(self, d):
        """The products a_i b_j are exact below 2**26, and each of the
        d (d + 1) / 2 summands (a diagonal term or a mirrored pair) carries
        at most m + 1 roundings, so the form is within
        (m + 1) 2**-52 sum |theta_ij a_i b_j| of the exact sum.  Near 2**40
        that bound, and the float64 spacing, are ~1e-4: no phase there keeps
        1e-12, which the sum of small coordinates does."""
        rng = np.random.default_rng(7 + d)
        g = pa.make_lattice(d)
        theta = rng.uniform(-1, 1, (d, d))
        alpha = pa.BilinearCocycle(g, theta)
        assert not alpha.normalized
        m = d * (d + 1) // 2
        for bits, tol in ((3, 1e-12), (20, None)):
            A, B = rng.integers(-2 ** bits, 2 ** bits, (2, 100, d), endpoint=True)
            form = cocycles._bilinear_form(theta, A, B)
            got = alpha.phases(A, B)
            for k in range(len(A)):
                terms = [Fraction(float(theta[i, j])) * int(A[k, i]) * int(B[k, j])
                         for i in range(d) for j in range(d)]
                exact = sum(terms)
                bound = (m + 1) * 2.0 ** -52 * float(sum(map(abs, terms)))
                assert abs(Fraction(float(form[k])) - exact) <= bound
                off = abs(reduce_phase(got[k] - reduce_phase(float(exact))))
                assert off <= (tol if tol is not None else 2 * bound + 1e-15)


class TestBilinearNormalizedFlag:
    """Only an exactly antisymmetric theta has alpha(a, -a) = 0.0 at every
    coordinate, so only such a form is flagged normalized."""

    NEAR = [[0.0, 0.3], [-0.3 + 1e-15, 0.0]]
    POINTS = np.array([[2 ** 52, 2 ** 52 - 1], [3, 2 ** 40]])

    def test_a_nearly_antisymmetric_form_is_not_normalized(self, lattice2):
        alpha = pa.BilinearCocycle(lattice2, self.NEAR)
        assert not alpha.normalized
        assert np.count_nonzero(alpha.phases(self.POINTS, -self.POINTS)) == 2
        u = pa.AlgebraElement(lattice2, alpha, {tuple(self.POINTS[0].tolist()): 1.0})
        for refused in (lambda: pa.invert(u), u.star,
                        lambda: pa.check_identities(lattice2, alpha)):
            with pytest.raises(pa.NormalizationRequiredError, match="normalized cocycle"):
                refused()

    def test_normalize_of_it_reads_exact_zeros(self, lattice2):
        out, _ = pa.normalize(lattice2, pa.BilinearCocycle(lattice2, self.NEAR))
        assert out.normalized
        assert np.array_equal(out.theta, -out.theta.T)
        for phases in (out.phases(self.POINTS, -self.POINTS),
                       out.phases(-self.POINTS, self.POINTS)):
            assert phases.tobytes() == np.zeros(2).tobytes()
        u = pa.AlgebraElement(lattice2, out, {tuple(self.POINTS[0].tolist()): 1.0})
        assert pa.invert(u).items() == [(tuple(self.POINTS[0].tolist()), 1 + 0j)]

    @pytest.mark.parametrize("theta", [[[0.0, 0.3], [-0.3, 0.0]], [[-0.0, 0.3], [-0.3, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]]])
    def test_exactly_antisymmetric_forms_stay_flagged(self, lattice2, theta):
        assert pa.BilinearCocycle(lattice2, theta).normalized


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

    def test_non_cocycle_names_the_worst_triple(self, z3):
        """is_trivial_abelian refuses a non-cocycle with normalize's words."""
        table = np.zeros((3, 3))
        table[2, 1] = 0.5
        alpha = pa.TabulatedCocycle(z3, table)
        with pytest.raises(ValueError) as trivial:
            pa.is_trivial_abelian(z3, alpha)
        with pytest.raises(ValueError) as normalize:
            pa.normalize(z3, alpha)
        message = str(trivial.value)
        assert message.startswith("input fails the associativity phase constraint: "
                                  "worst triple ((")
        assert message == str(normalize.value)
