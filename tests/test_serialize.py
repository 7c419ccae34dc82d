import numpy as np
import pytest

import projalg as pa
from projalg import serialize


class TestGroupSpecs:
    def test_cyclic_power_round_trip(self):
        g = serialize.group_from_spec({"kind": "cyclic_power", "n": 4, "d": 2})
        assert g == pa.make_cyclic_power(4, 2)
        assert serialize.group_to_spec(g) == {"kind": "cyclic_power", "n": 4, "d": 2}

    def test_lattice_round_trip(self):
        g = serialize.group_from_spec({"kind": "lattice", "d": 3})
        assert g == pa.make_lattice(3)
        assert serialize.group_to_spec(g) == {"kind": "lattice", "d": 3}

    def test_table_with_names(self):
        spec = {"kind": "table", "elements": ["e", "a", "b"],
                "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        g = serialize.group_from_spec(spec)
        assert g.order == 3
        assert serialize.group_to_spec(g) == spec

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


class TestFunctionSpecs:
    def test_round_trip_vector_group(self, z22):
        f = pa.GroupFunction(z22, {(1, 0): 1.5 - 2j, (0, 1): 3j})
        spec = serialize.function_to_spec(f)
        back = serialize.function_from_spec(spec, z22)
        assert back.max_diff(f) == 0.0
        assert all(isinstance(rec["element"], list) for rec in spec)

    def test_round_trip_table_group(self, s3):
        f = pa.GroupFunction(s3, {1: 2.0, 4: -1j})
        spec = serialize.function_to_spec(f)
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
        spec = serialize.function_to_spec(f)
        assert [rec["element"] for rec in spec] == [[0, 1], [1, 0], [1, 1]]


class TestElementSpecs:
    def test_round_trip(self, z22):
        alpha = pa.measured_cocycle(2)
        u = pa.generator(z22, alpha, (1, 0)) + 2j * pa.generator(z22, alpha, (1, 1))
        spec = serialize.element_to_spec(u)
        back = serialize.element_from_spec(spec, z22, alpha)
        assert back.max_diff(u) == 0.0


def test_matrix_spec_shape():
    spec = serialize.matrix_to_spec(np.array([[1j, 0], [0, -1]]))
    assert spec == [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
