"""The shared coefficient store of GroupFunction and AlgebraElement.

The store holds two read-only arrays: distinct int64 key rows (the element's
index on a finite group, its coordinates on Z^D) and complex values.  Keys
are canonicalized once, by the public constructors.  Internal results
(kernel products, sums, the involution, conversions, inversion, convolution,
derivations, automorphisms, serialization) hand arrays to
``_CoefficientStore._wrap``, which skips ``group.canonical``.  The oracle for
each of them is the public constructor applied to the result's own items: it
must build the same arrays, and the same public keys of the same types.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg import cli, cocycles, groups, sampling, serialize
from projalg.algebra import PRUNE_TOL, _CoefficientStore

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

CYCLIC = [(n, d) for n in range(2, 7) for d in range(1, 4)]
GROUPS = ([("cyclic", n, d) for n, d in CYCLIC] + [("sym", 3, 0), ("sym", 4, 0)]
          + [("lattice", 0, d) for d in (1, 2, 3)])


@functools.lru_cache(maxsize=None)
def build_group(kind, n, d):
    if kind == "cyclic":
        return pa.make_cyclic_power(n, d)
    if kind == "sym":
        return pa.symmetric_group(n)
    return pa.make_lattice(d)


@functools.lru_cache(maxsize=None)
def normalized_cocycles(kind, n, d):
    """Normalized cocycles on a group: zero plus one or two twisted ones."""
    g = build_group(kind, n, d)
    if not g.is_finite:
        theta = np.array([[0.0, 0.7, -0.3], [-0.7, 0.0, 1.1], [0.3, -1.1, 0.0]])
        return [pa.zero_cocycle(g), pa.BilinearCocycle(g, theta[:d, :d])]
    rng = np.random.default_rng(g.order)
    phi = pa.GaugePhase.from_table(g, np.r_[0.0, rng.uniform(-3, 3, g.order - 1)])
    out = [pa.zero_cocycle(g), pa.normalize(g, pa.coboundary(g, phi))[0]]
    if kind == "cyclic":
        coords = np.array(list(g.elements()))
        bichar = 2 * np.pi * np.outer(coords[:, 0], coords[:, -1]) / n
        out.append(pa.normalize(g, pa.TabulatedCocycle(g, bichar))[0])
    return out


@st.composite
def contexts(draw):
    """(group, normalized cocycle, two random coefficient dicts)."""
    spec = draw(st.sampled_from(GROUPS))
    g = build_group(*spec)
    alpha = draw(st.sampled_from(normalized_cocycles(*spec)))
    if g.is_finite:
        keys = st.integers(0, g.order - 1).map(g.element_at)
    else:
        keys = st.tuples(*[st.integers(-6, 6)] * g.d)
    values = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                allow_infinity=False)
    coeffs = st.dictionaries(keys, values, max_size=12)
    return g, alpha, draw(coeffs), draw(coeffs)


def key_types(store):
    return [(type(k), tuple(map(type, k)) if isinstance(k, tuple) else ())
            for k in store.support]


def assert_same_store(a, b):
    """The same key rows and values, in the same order."""
    assert a._keys.dtype == b._keys.dtype == np.int64
    assert np.array_equal(a._keys, b._keys)
    assert a._vals.dtype == b._vals.dtype == complex
    assert np.array_equal(a._vals, b._vals)


def assert_canonical_result(result):
    """``result`` is what the public constructor builds from its own items."""
    if isinstance(result, pa.AlgebraElement):
        public = pa.AlgebraElement(result.group, result.cocycle, dict(result.items()))
    else:
        public = pa.GroupFunction(result.group, dict(result.items()))
    assert_same_store(result, public)
    width = 1 if result.group.is_finite else result.group.d
    assert result._keys.shape == (len(result), width)
    assert len({tuple(k) for k in result._keys.tolist()}) == len(result)
    assert not (result._keys.flags.writeable or result._vals.flags.writeable)
    assert np.isfinite(result._vals).all() and (np.abs(result._vals) >= PRUNE_TOL).all()
    assert key_types(result) == key_types(public)
    assert all(type(v) is complex for _, v in result.items())


class TestInternalResultsAreCanonical:
    @SETTINGS
    @given(contexts(), st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                          allow_infinity=False))
    def test_algebra_results(self, ctx, scalar):
        g, alpha, c1, c2 = ctx
        u, v = pa.AlgebraElement(g, alpha, c1), pa.AlgebraElement(g, alpha, c2)
        for result in (u * v, u + v, u - v, -u, scalar * u, u * np.float64(2.5),
                       u.star(), pa.apply_R(g.identity(), u)):
            assert_canonical_result(result)
        # The old route: each result built by the public constructor from
        # non-canonical input gives the same coefficients.
        assert dict(u.star().items()) == dict(pa.AlgebraElement(
            g, alpha, {g.inv(a): c.conjugate() for a, c in u.items()}).items())

    @SETTINGS
    @given(contexts())
    def test_function_results(self, ctx):
        g, alpha, c1, c2 = ctx
        f1, f2 = pa.GroupFunction(g, c1), pa.GroupFunction(g, c2)
        fhat = pa.as_algebra_element(f1, alpha)
        assert fhat._keys is f1._keys and fhat._vals is f1._vals
        h = pa.deformed_convolution(f1, f2, alpha)
        back = pa.invert(fhat)
        for result in (fhat, h, back):
            assert_canonical_result(result)
        assert back.max_diff(f1) < 1e-12
        assert h.max_diff(fhat * pa.as_algebra_element(f2, alpha)) < 1e-12

    @SETTINGS
    @given(contexts())
    def test_serialized_results(self, ctx):
        g, alpha, c1, _ = ctx
        u = pa.AlgebraElement(g, alpha, c1)
        text = pa.dumps_canonical(serialize.function_to_spec(u))
        assert text == pa.dumps_canonical(
            serialize.function_to_spec(pa.GroupFunction(g, dict(u.items()))))
        back = pa.as_algebra_element(serialize.function_from_spec(json.loads(text), g), alpha)
        assert_canonical_result(back)
        assert dict(back.items()) == dict(u.items())

    @SETTINGS
    @given(contexts())
    def test_transform_inverses(self, ctx):
        g, _, c1, _ = ctx
        if not g.is_finite or g.order > 36:
            return
        f = pa.GroupFunction(g, c1)
        rep = regular_rep(g)
        back = pa.matrix_rep_inverse(pa.fourier(f, rep), rep)
        assert_canonical_result(back)
        assert back.max_diff(f) < 1e-12
        if isinstance(g, groups.CyclicPowerGroup):
            back = pa.character_inverse(pa.character_transform(f), g)
            assert_canonical_result(back)
            assert back.max_diff(f) < 1e-12

    @SETTINGS
    @given(contexts())
    def test_calculus_results(self, ctx):
        g, alpha, c1, _ = ctx
        if g.is_finite and not isinstance(g, groups.CyclicPowerGroup):
            return
        u = pa.AlgebraElement(g, alpha, c1)
        phi = [2 * np.pi * (i + 1) / getattr(g, "n", 7.3) for i in range(g.d)]
        assert_canonical_result(pa.apply_automorphism(pa.Automorphism(g, phi), u))
        if not g.is_finite:
            assert_canonical_result(pa.derive(pa.CoordinateDerivation(g, 0), u))


def ref_max_diff(u, v):
    """The dict max_diff the store ran before its key-row union: the oracle."""
    a, b = dict(u.items()), dict(v.items())
    return max((abs(a.get(k, 0j) - b.get(k, 0j)) for k in a.keys() | b.keys()),
               default=0.0)


def ref_add(u, v):
    """The dict sum of u + v's items in first-seen order: the oracle of u + v."""
    acc = {}
    for k, c in u.items() + v.items():
        acc[k] = acc.get(k, 0j) + complex(c)
    return pa.AlgebraElement(u.group, u.cocycle, acc)


@st.composite
def store_pairs(draw):
    """(group, cocycle, two coefficient dicts) with disjoint, overlapping,
    equal or empty supports; on shared keys g may cancel f."""
    spec = draw(st.sampled_from(GROUPS))
    g = build_group(*spec)
    alpha = draw(st.sampled_from(normalized_cocycles(*spec)))
    if g.is_finite:
        keys = st.integers(0, g.order - 1).map(g.element_at)
    else:
        keys = st.tuples(*[st.integers(-6, 6)] * g.d)
    pool = draw(st.lists(keys, unique=True, max_size=16))
    cut = draw(st.integers(0, len(pool)))
    relation = draw(st.sampled_from(["disjoint", "overlapping", "equal", "empty"]))
    if relation == "disjoint":
        fk, gk = pool[:cut], pool[cut:]
    elif relation == "overlapping":
        fk, gk = pool[:cut], pool[draw(st.integers(0, cut)):]
    elif relation == "equal":
        fk, gk = pool, draw(st.permutations(pool))
    else:
        fk, gk = pool[:cut], []
    values = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                allow_infinity=False)
    # Real parts of 0.0, which negation turns into -0.0.
    values = st.one_of(values, values.map(lambda c: complex(0.0, c.imag)))
    c1 = {k: draw(values) for k in fk}
    c2 = {k: draw(st.one_of(values, st.just(-c1[k]))) if k in c1 else draw(values)
          for k in gk}
    return g, alpha, c1, c2


@SETTINGS
@given(store_pairs())
def test_sum_and_max_diff_match_the_dict_oracles(ctx):
    g, alpha, c1, c2 = ctx
    u, v = pa.AlgebraElement(g, alpha, c1), pa.AlgebraElement(g, alpha, c2)
    # The public constructor adds each value to 0j, so its stores hold no -0.0;
    # negated stores do, and the dict sum turns -0.0 + -0.0 into 0.0.
    for a, b in ((u, v), (v, u), (u, u), (u, -v), (-u, -v)):
        assert repr(a.max_diff(b)) == repr(ref_max_diff(a, b))
        f = pa.GroupFunction(g, dict(b.items()))
        assert repr(f.max_diff(a)) == repr(ref_max_diff(f, a))
        got, expected = a + b, ref_add(a, b)
        assert got.items() == expected.items()  # row order and values
        assert got._keys.tobytes() == expected._keys.tobytes()
        assert got._vals.tobytes() == expected._vals.tobytes()  # signed zeros too
        assert_canonical_result(got)


def test_lattice_scalar_product_makes_no_point_lookup(monkeypatch):
    g = pa.make_lattice(2)
    rng = np.random.default_rng(20)

    def random_function():
        """2,000 points of a 60 x 60 box, so two functions share about 1,100."""
        cells = rng.choice(3600, 2000, replace=False)
        keys = [(int(c) // 60 - 30, int(c) % 60 - 30) for c in cells]
        vals = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        return pa.GroupFunction(g, dict(zip(keys, vals.tolist())))

    f, h = random_function(), random_function()
    assert len(f) == len(h) == 2000
    direct = sum(c.conjugate() * h.get(a) for a, c in f.items())

    def lookup(*args):
        raise AssertionError("scalar_product looked up a point")

    for name in ("coeff", "get"):
        monkeypatch.setattr(pa.GroupFunction, name, lookup)
    assert pa.scalar_product(f, h) == pytest.approx(direct, abs=1e-12)


@functools.lru_cache(maxsize=None)
def regular_rep(g):
    return pa.regular_matrix_rep(g)


@pytest.mark.parametrize("g, alpha", [
    (pa.make_cyclic_power(4, 2), pa.normalize(pa.make_cyclic_power(4, 2),
                                              pa.measured_cocycle(4))[0]),
    (pa.make_cyclic_power(3, 3), pa.zero_cocycle(pa.make_cyclic_power(3, 3))),
    (pa.make_lattice(2), pa.BilinearCocycle(pa.make_lattice(2),
                                            [[0.0, 0.4], [-0.4, 0.0]])),
    (pa.make_lattice(3), pa.zero_cocycle(pa.make_lattice(3))),
])
def test_internal_results_never_canonicalize(g, alpha, monkeypatch):
    rng = np.random.default_rng(3)
    if g.is_finite:
        keys = [g.element_at(int(i)) for i in rng.choice(g.order, 8, replace=False)]
    else:
        keys = [tuple(int(x) for x in rng.integers(-5, 6, g.d)) for _ in range(8)]
    vals = rng.normal(size=8) + 1j * rng.normal(size=8)
    f1 = pa.GroupFunction(g, dict(zip(keys, vals)))
    f2 = pa.GroupFunction(g, dict(zip(keys[::-1], vals)))
    u, v = pa.as_algebra_element(f1, alpha), pa.as_algebra_element(f2, alpha)

    calls = []
    for cls in (groups.CyclicPowerGroup, groups.LatticeGroup):
        real = cls.canonical

        def counting(self, a, _real=real):
            calls.append(a)
            return _real(self, a)

        monkeypatch.setattr(cls, "canonical", counting)
    u * v
    u + v
    u.star()
    pa.as_algebra_element(f1, alpha)
    pa.deformed_convolution(f1, f2, alpha)
    serialize.function_to_spec(f1)
    serialize.function_to_spec(u * v)
    assert calls == []
    pa.GroupFunction(g, {keys[0]: 1.0})
    assert len(calls) == 1


@pytest.mark.parametrize("g", [pa.make_cyclic_power(3, 2), pa.symmetric_group(3),
                               pa.make_lattice(2)])
def test_overflowing_product_is_rejected(g):
    alpha = pa.zero_cocycle(g)
    a = g.identity()
    u = pa.AlgebraElement(g, alpha, {a: 1e200})
    f = pa.GroupFunction(g, {a: 1e200})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            u * u
        with pytest.raises(ValueError, match="not finite"):
            pa.deformed_convolution(f, f, alpha)
    with pytest.raises(ValueError, match="not finite"):
        u * math.inf
    # Every entry of w * w is inf - inf = NaN: rejected, not pruned to zero.
    w = pa.AlgebraElement(g, alpha, {a: complex(1e200, 1e200)})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            w * w
        with pytest.raises(ValueError, match="not finite"):
            pa.deformed_convolution(*[pa.GroupFunction(g, dict(w.items()))] * 2, alpha)
    # Finite parts whose modulus overflows float64, as input and as a product.
    big = complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match="too large"):
        pa.GroupFunction(g, {a: big})
    with pytest.raises(ValueError, match="too large"):
        pa.AlgebraElement(g, alpha, {a: 1.0}) * big


@pytest.mark.parametrize("g", [pa.make_cyclic_power(2, 1), pa.symmetric_group(3)])
def test_cancelling_overflow_is_rejected(g):
    # b is its own inverse, so both entries of the product are inf - inf = NaN.
    alpha, e, b = pa.zero_cocycle(g), g.identity(), g.element_at(1)
    u = pa.AlgebraElement(g, alpha, {e: 1e200, b: 1e200})
    v = pa.AlgebraElement(g, alpha, {e: 1e200, b: -1e200})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            u * v


FINITE_GROUPS = [pa.make_cyclic_power(1, 1), pa.make_cyclic_power(1, 3),
                 pa.make_cyclic_power(3, 2), pa.make_cyclic_power(2, 3),
                 pa.make_cyclic_power(5, 1), pa.symmetric_group(3),
                 pa.symmetric_group(4),
                 pa.make_finite_from_table([[0, 1], [1, 0]], ["e", "s"])]


@pytest.mark.parametrize("g", FINITE_GROUPS, ids=repr)
def test_vector_round_trip_is_exact(g):
    rng = np.random.default_rng(g.order)
    vec = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    vec[rng.random(g.order) < 0.3] = 0
    vec[rng.random(g.order) < 0.2] *= 1e-16          # below PRUNE_TOL
    kept = np.where(np.abs(vec) < PRUNE_TOL, 0, vec)
    alpha = pa.zero_cocycle(g)
    elems = g.indexing()[0]
    for cls, fields in ((pa.GroupFunction, {}), (pa.AlgebraElement, {"cocycle": alpha})):
        store = cls._from_vector(g, vec, **fields)
        assert type(store) is cls
        assert_canonical_result(store)
        assert np.array_equal(store._vector(), kept)
        assert np.array_equal(store._keys[:, 0], np.flatnonzero(kept))
        assert store.support == [elems[i] for i in np.flatnonzero(kept)]
        again = cls._from_vector(g, store._vector(), **fields)
        assert_same_store(again, store)
        assert again.items() == store.items()
    # A public store with keys in any order gives the same vector.
    order = rng.permutation(g.order)
    f = pa.GroupFunction(g, {elems[i]: complex(kept[i]) for i in order if kept[i]})
    assert np.array_equal(f._vector(), kept)
    assert dict(pa.GroupFunction._from_vector(g, f._vector()).items()) == dict(f.items())


@pytest.mark.parametrize("g", FINITE_GROUPS[:6] + [pa.make_lattice(2)], ids=repr)
def test_random_functions_keep_the_per_element_stream(g):
    """One draw for a finite group gives the numbers of one draw per element."""
    from projalg.integration import _random_function
    rng, ref = sampling.rng_from_seed(7), sampling.rng_from_seed(7)
    f = _random_function(g, rng)
    if g.is_finite:
        coeffs = {a: complex(sampling.random_complex(ref)) for a in g.elements()}
    else:
        coeffs = {}
        for _ in range(5):
            coeffs[sampling.random_element(g, ref)] = complex(sampling.random_complex(ref))
    expected = pa.GroupFunction(g, coeffs)
    assert_same_store(f, expected)
    assert f.items() == expected.items()
    assert rng.uniform(-1.0, 1.0) == ref.uniform(-1.0, 1.0)


def test_splitmix64_reference_vector():
    words = sampling.rng_from_seed(0)._words(3).tolist()
    assert words == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [2**64, 2**128, 2**64 + 1, 3 * 2**200])
def test_seeds_differing_above_bit_64_differ(seed):
    words = sampling.rng_from_seed(seed)._words(4).tolist()
    assert words != sampling.rng_from_seed(seed % 2**64)._words(4).tolist()
    assert words == sampling.rng_from_seed(seed)._words(4).tolist()


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        sampling.rng_from_seed(-1)


def test_draws_stay_in_their_ranges():
    rng = sampling.rng_from_seed(0x5EED)
    ints = rng.integers(-4, 5, size=(500, 3))
    assert ints.dtype == np.int64 and set(ints.ravel().tolist()) == set(range(-4, 5))
    u = rng.uniform(-1.0, 1.0, 4000)
    assert u.min() >= -1.0 and u.max() < 1.0
    # k 2**-52 - 1 for a 53-bit k: every value is exact on a 2**-52 grid.
    assert np.array_equal(u * 2.0**52, np.round(u * 2.0**52))
    scalars = sampling.rng_from_seed(3)
    block = sampling.rng_from_seed(3).integers(-4, 5, 6)
    assert [scalars.integers(-4, 5) for _ in range(6)] == block.tolist()


@pytest.mark.parametrize("kind, n, d", [("cyclic", 3, 2), ("cyclic", 4, 1),
                                        ("sym", 3, 0), ("sym", 4, 0),
                                        ("lattice", 0, 1), ("lattice", 0, 2),
                                        ("lattice", 0, 3)])
def test_finite_invert_and_star_make_no_phase_call(kind, n, d, monkeypatch):
    g = build_group(kind, n, d)
    alpha = normalized_cocycles(kind, n, d)[1]
    rng = np.random.default_rng(5)
    if g.is_finite:
        keys = [g.element_at(int(i)) for i in rng.choice(g.order, g.order // 2 + 1)]
    else:
        keys = [tuple(p) for p in rng.integers(-6, 7, size=(9, g.d)).tolist()]
    u = pa.AlgebraElement(g, alpha, {a: complex(*rng.normal(size=2)) for a in keys})
    # The per-element routes, as oracles.
    inverted = {a: v * np.exp(1j * alpha.phase(a, g.inv(a))) for a, v in u.items()}
    starred = {g.inv(a): v.conjugate() for a, v in u.items()}

    calls = []
    for cls in (cocycles.Cocycle, cocycles.TabulatedCocycle, cocycles.BilinearCocycle):
        real = cls.phase

        def counting(self, a, b, _real=real):
            calls.append((a, b))
            return _real(self, a, b)

        monkeypatch.setattr(cls, "phase", counting)
    back, star = pa.invert(u), u.star()
    assert calls == []
    assert back.max_diff(pa.GroupFunction(g, inverted)) < 1e-15
    assert dict(star.items()) == dict(pa.AlgebraElement(g, alpha, starred).items())
    assert_canonical_result(back)
    assert_canonical_result(star)


def test_verify_draws_its_random_inputs_without_canonical(tmp_path, monkeypatch):
    group = tmp_path / "g.json"
    group.write_text('{"kind": "cyclic_power", "n": 4, "d": 2}', encoding="utf-8")
    calls = []
    real = groups.CyclicPowerGroup.canonical

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(groups.CyclicPowerGroup, "canonical", counting)
    assert cli.main(["verify", "--group", str(group), "--out",
                     str(tmp_path / "r.json")]) == 0
    assert calls == []


def test_internal_results_prune_like_the_constructor():
    g = pa.make_cyclic_power(4, 1)
    u = pa.generator(g, pa.zero_cocycle(g), (1,))
    assert len(u - u) == 0
    assert len(1e-16 * u) == 0
    assert (u + 1e-16 * u).items() == [((1,), 1.0)]
    assert np.array_equal((u + 1e-16 * u)._keys, [[1]])


def test_store_is_shared_and_named():
    g = pa.make_cyclic_power(3, 1)
    f = pa.GroupFunction(g, {4: 2.0})
    assert isinstance(f, _CoefficientStore)
    assert f.get(1) == f.coeff((1,)) == 2.0
    u = pa.as_algebra_element(f, pa.zero_cocycle(g))
    assert repr(f) == "GroupFunction({(1,): 2+0j})"
    assert repr(u) == "AlgebraElement({(1,): 2+0j})"
    assert f.max_diff(u) == 0.0
    with pytest.raises(AttributeError):
        f.extra = 1
