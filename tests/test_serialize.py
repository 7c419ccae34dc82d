import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projalg as pa
from projalg import serialize
from projalg.groups import LATTICE_COORD_LIMIT

from test_report import ref_dumps


def group_to_spec(group) -> dict:
    """The spec group_from_spec reads back as ``group``."""
    if isinstance(group, pa.CyclicPowerGroup):
        return {"kind": "cyclic_power", "n": group.n, "d": group.d}
    if isinstance(group, pa.LatticeGroup):
        return {"kind": "lattice", "d": group.d}
    assert isinstance(group, pa.FiniteTableGroup)
    spec = {"kind": "table", "table": group.index_table().tolist()}
    if group.names is not None:
        spec["elements"] = list(group.names)
    return spec


class TestGroupSpecs:
    def test_cyclic_power_round_trip(self):
        g = serialize.group_from_spec({"kind": "cyclic_power", "n": 4, "d": 2})
        assert g == pa.make_cyclic_power(4, 2)
        assert group_to_spec(g) == {"kind": "cyclic_power", "n": 4, "d": 2}

    def test_lattice_round_trip(self):
        g = serialize.group_from_spec({"kind": "lattice", "d": 3})
        assert g == pa.make_lattice(3)
        assert group_to_spec(g) == {"kind": "lattice", "d": 3}

    def test_table_with_names(self):
        spec = {"kind": "table", "elements": ["e", "a", "b"],
                "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        g = serialize.group_from_spec(spec)
        assert g.order == 3
        assert group_to_spec(g) == spec

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            serialize.group_from_spec({"kind": "free_group"})


class TestCocycleSpecs:
    def test_zero(self, z4):
        alpha = serialize.cocycle_from_spec({"kind": "zero"}, z4)
        assert np.max(np.abs(alpha.phase_matrix())) == 0.0

    def test_bilinear(self, lattice2):
        alpha = serialize.cocycle_from_spec(
            {"kind": "bilinear", "theta": [[0.0, 0.5], [-0.5, 0.0]]}, lattice2)
        assert isinstance(alpha, pa.BilinearCocycle)
        assert alpha.normalized

    def test_table(self, z2):
        alpha = serialize.cocycle_from_spec(
            {"kind": "table", "alpha": [[0.0, 0.0], [0.0, 0.4]]}, z2)
        assert alpha.phase((1,), (1,)) == pytest.approx(0.4)

    def test_coboundary(self, z3):
        alpha = serialize.cocycle_from_spec(
            {"kind": "coboundary", "phi": [0.0, 0.3, -0.1]}, z3)
        assert pa.validate_cocycle(z3, alpha).passed

    def test_coboundary_needs_finite_group(self, lattice2):
        with pytest.raises(ValueError):
            serialize.cocycle_from_spec(
                {"kind": "coboundary", "phi": [0.0, 1.0]}, lattice2)

    def test_clockshift(self, z22):
        alpha = serialize.cocycle_from_spec({"kind": "clockshift"}, z22)
        assert alpha == pa.measured_cocycle(2)

    def test_clockshift_needs_rank_two(self, z4):
        with pytest.raises(ValueError):
            serialize.cocycle_from_spec({"kind": "clockshift"}, z4)


def records(spec) -> list:
    """The records a function file holds: the canonical text, read back."""
    return json.loads(pa.dumps_canonical(spec))


class TestFunctionSpecs:
    def test_round_trip_vector_group(self, z22):
        f = pa.GroupFunction(z22, {(1, 0): 1.5 - 2j, (0, 1): 3j})
        spec = records(serialize.function_to_spec(f))
        back = serialize.function_from_spec(spec, z22)
        assert back.max_diff(f) == 0.0
        assert all(isinstance(rec["element"], list) for rec in spec)

    def test_round_trip_table_group(self, s3):
        f = pa.GroupFunction(s3, {1: 2.0, 4: -1j})
        spec = records(serialize.function_to_spec(f))
        assert all(isinstance(rec["element"], int) for rec in spec)
        assert serialize.function_from_spec(spec, s3).max_diff(f) == 0.0

    def test_duplicate_records_accumulate(self, z2):
        items = [{"element": [1], "re": 1.0, "im": 0.0},
                 {"element": [1], "re": 0.5, "im": 0.0}]
        f = serialize.function_from_spec(items, z2)
        assert f.get((1,)) == 1.5

    def test_rejects_non_list(self, z2):
        with pytest.raises(ValueError):
            serialize.function_from_spec({"element": [1]}, z2)

    @pytest.mark.parametrize("re, im", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_rejects_non_finite(self, z2, re, im):
        items = [{"element": [1], "re": re, "im": im}]
        with pytest.raises(ValueError, match="not finite"):
            serialize.function_from_spec(items, z2)

    def test_deterministic_ordering(self, z22):
        f = pa.GroupFunction(z22, {(1, 1): 1.0, (0, 1): 2.0, (1, 0): 3.0})
        spec = records(serialize.function_to_spec(f))
        assert [rec["element"] for rec in spec] == [[0, 1], [1, 0], [1, 1]]


class TestElementSpecs:
    def test_round_trip(self, z22):
        alpha = pa.measured_cocycle(2)
        u = pa.generator(z22, alpha, (1, 0)) + 2j * pa.generator(z22, alpha, (1, 1))
        spec = records(serialize.function_to_spec(u))
        back = pa.as_algebra_element(serialize.function_from_spec(spec, z22), alpha)
        assert back.max_diff(u) == 0.0


# -- function records against the list of dicts they replaced ---------------------


def ref_function_to_spec(f) -> list:
    """The previous records: one dict per coefficient, in element index order."""
    g = f.group
    rank = g.indexing()[1].__getitem__ if g.is_finite else (lambda a: a)
    return [{"element": [int(x) for x in a] if isinstance(a, tuple) else int(a),
             "re": v.real, "im": v.imag}
            for a, v in sorted(f.items(), key=lambda kv: rank(kv[0]))]


# Parts whose moduli stay finite, with signed zeros and the largest scales.
parts = st.one_of(st.floats(-1e308, 1e308),
                  st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324]))

function_groups = st.one_of(
    st.sampled_from([pa.symmetric_group(3), pa.symmetric_group(4)]),
    st.builds(pa.make_cyclic_power, st.integers(1, 5), st.integers(1, 3)),
    st.builds(pa.make_lattice, st.integers(1, 3)))


@st.composite
def functions(draw):
    group = draw(function_groups)
    if group.is_finite:
        keys = st.integers(0, group.order - 1).map(group.element_at)
    else:
        limit = LATTICE_COORD_LIMIT
        coord = st.one_of(st.integers(-3, 3), st.integers(-limit, limit))
        keys = st.tuples(*[coord] * group.d)
    coeffs = draw(st.dictionaries(keys, st.builds(complex, parts, parts), max_size=12))
    return pa.GroupFunction(group, coeffs)


@settings(max_examples=200, deadline=None)
@given(functions())
def test_function_records_match_the_dicts(f):
    assert pa.dumps_canonical(serialize.function_to_spec(f)) == ref_dumps(
        ref_function_to_spec(f))


@pytest.mark.parametrize("group", [pa.symmetric_group(3), pa.make_cyclic_power(3, 2),
                                   pa.make_lattice(1), pa.make_lattice(3)])
def test_empty_function_writes_an_empty_list(group):
    spec = serialize.function_to_spec(pa.GroupFunction(group, {}))
    assert pa.dumps_canonical(spec) == "[]" == ref_dumps([])
    assert pa.dumps_canonical({"result": spec}) == '{"result":[]}'


def test_character_records_match_the_dicts():
    g = pa.make_cyclic_power(3, 2)
    f = pa.GroupFunction(g, {(1, 2): 0.5 - 1j, (2, 0): -0.0 + 1e308j})
    table = pa.character_transform(f)
    oracle = [{"q": list(q), "re": complex(table[q]).real, "im": complex(table[q]).imag}
              for q in g.elements()]
    assert pa.dumps_canonical(serialize.character_to_spec(table)) == ref_dumps(oracle)


def test_function_record_peak_memory():
    """Writing 5,000 records holds the text and a block of rows, not a dict
    and a str per record."""
    rng = np.random.default_rng(2)
    points = rng.integers(-10**6, 10**6, size=(5000, 2)).tolist()
    f = pa.GroupFunction(pa.make_lattice(2), {
        tuple(p): complex(*rng.standard_normal(2)) for p in points})
    spec = serialize.function_to_spec(f)
    tracemalloc.start()
    try:
        text = pa.dumps_canonical(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(text)) == len(f) > 4900
    assert peak <= 3 * len(text)


def test_matrix_spec_shape():
    m = np.array([[1j, 0], [0, -1]])
    oracle = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    spec = serialize.matrix_to_spec(m)
    assert spec.tolist() == oracle
    assert pa.dumps_canonical(spec) == ref_dumps(oracle)


def test_matrix_spec_matches_entrywise_lists():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m[0, :] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), -0.0 - 0.0j]
    spec = serialize.matrix_to_spec(m)
    oracle = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    assert repr(spec.tolist()) == repr(oracle)  # repr tells -0.0 from 0.0
    assert pa.dumps_canonical(spec) == ref_dumps(oracle)


def test_matrix_spec_is_a_view_of_the_pairs():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    spec = serialize.matrix_to_spec(m)
    assert np.array_equal(spec, np.stack((m.real, m.imag), axis=-1))
    assert np.shares_memory(spec, m)
    assert np.array_equal(serialize.matrix_to_spec(m.T), np.stack((m.T.real, m.T.imag), axis=-1))


def test_matrix_report_peak_memory():
    """Writing a transform holds the output and its rows, not a Python float
    per entry: nested lists of floats peaked at 5x the output length."""
    rng = np.random.default_rng(1)
    m = rng.standard_normal((216, 216)) + 1j * rng.standard_normal((216, 216))
    tracemalloc.start()
    try:
        text = pa.dumps_canonical({"transform": {"matrix": serialize.matrix_to_spec(m)}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


class TestGroupSpecBounds:
    """group_from_spec is the one reader of a group spec and holds its bounds."""

    @pytest.mark.parametrize("d", ["100000000", 100000000, 65.0, 10 ** 12])
    def test_dimension_refused_before_construction(self, d, monkeypatch):
        def never(*args):
            raise AssertionError("constructed a group past the dimension bound")
        monkeypatch.setattr(serialize, "make_cyclic_power", never)
        monkeypatch.setattr(serialize, "make_lattice", never)
        for spec in ({"kind": "cyclic_power", "n": 3, "d": d}, {"kind": "lattice", "d": d}):
            with pytest.raises(ValueError, match="group dimension .* exceeds the limit 64"):
                serialize.group_from_spec(spec)

    def test_order_bound(self):
        assert serialize.group_from_spec({"kind": "cyclic_power", "n": "2", "d": "10"}).order == 1024
        assert serialize.group_from_spec({"kind": "cyclic_power", "n": 4.0, "d": 2.0}).order == 16
        with pytest.raises(ValueError, match="group order 2048 exceeds the limit 1024"):
            serialize.group_from_spec({"kind": "cyclic_power", "n": 2, "d": 11})
