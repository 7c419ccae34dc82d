import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projalg import (GroupConstructionError, UnsupportedOperationError,
                     make_cyclic_power, make_finite_from_table, make_lattice,
                     symmetric_group)
from projalg.groups import VALIDATION_ORDER_LIMIT, word_lengths


class TestCyclicPower:
    def test_smallest_cyclic(self):
        g = make_cyclic_power(2, 1)
        assert g.order == 2
        assert list(g.elements()) == [(0,), (1,)]

    def test_modular_negation(self):
        g = make_cyclic_power(3, 2)
        assert g.order == 9
        assert g.inv((1, 2)) == (2, 1)

    def test_mod4_addition(self):
        g = make_cyclic_power(4, 2)
        assert g.order == 16
        assert g.prod((3, 3), (2, 1)) == (1, 0)

    def test_abelian_with_identity_at_zero(self):
        g = make_cyclic_power(5, 2)
        assert g.is_abelian
        assert g.identity() == (0, 0)
        assert g.element_index(g.identity()) == 0

    @pytest.mark.parametrize("n,d", [(0, 1), (2, 0), (0, 0)])
    def test_invalid_parameters(self, n, d):
        with pytest.raises(ValueError):
            make_cyclic_power(n, d)

    def test_canonical_wraps(self):
        g = make_cyclic_power(4, 2)
        assert g.canonical((-1, 7)) == (3, 3)
        with pytest.raises(ValueError):
            g.canonical((1, 2, 3))

    def test_index_round_trip(self):
        g = make_cyclic_power(4, 2)
        for i, a in enumerate(g.elements()):
            assert g.element_index(a) == i
            assert g.element_at(i) == a

    def test_index_table_matches_prod(self):
        g = make_cyclic_power(3, 2)
        table = g.index_table()
        elems = list(g.elements())
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert g.element_at(int(table[i, j])) == g.prod(a, b)
        inv = g.inverse_indices()
        for i, a in enumerate(elems):
            assert g.element_at(int(inv[i])) == g.inv(a)

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 1), (5, 2), (4, 4), (6, 3), (32, 2)])
    def test_index_table_matches_coordinate_sums(self, n, d):
        """Bit-identical to the (N, N, D) coordinate-sum table it replaced."""
        coords = np.array(list(make_cyclic_power(n, d).elements()), dtype=np.int64)
        weights = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
        expected = ((coords[:, None, :] + coords[None, :, :]) % n) @ weights
        table = make_cyclic_power(n, d).index_table()
        assert table.dtype == expected.dtype
        assert np.array_equal(table, expected)

    def test_index_table_memory(self):
        g = make_cyclic_power(10, 3)
        tracemalloc.start()
        try:
            table = g.index_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.nbytes

    @pytest.mark.parametrize("group", [
        symmetric_group(3), symmetric_group(4), make_cyclic_power(1, 1),
        make_cyclic_power(5, 1), make_cyclic_power(4, 3), make_cyclic_power(6, 2)])
    def test_inverse_indices_match_argmin(self, group):
        """The column of the identity in each row, as argmin over the table found it."""
        expected = np.argmin(group.index_table(), axis=1)
        inv = group.inverse_indices()
        assert inv.dtype == expected.dtype
        assert np.array_equal(inv, expected)
        assert not inv.flags.writeable

    def test_inverse_indices_memory(self):
        """At order 1024 a boolean table (1 MiB) and the indices; argmin traced 8 MiB."""
        g = make_cyclic_power(32, 2)
        g.index_table()
        tracemalloc.start()
        try:
            g.inverse_indices()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.order ** 2 + 64 * 2 ** 10


class TestLattice:
    def test_vector_addition(self, lattice2):
        assert lattice2.prod((1, 2), (3, -1)) == (4, 1)

    def test_inverse(self, lattice2):
        assert lattice2.inv((2, -5)) == (-2, 5)

    def test_identity_d1(self, lattice1):
        assert lattice1.identity() == (0,)

    def test_no_enumeration(self, lattice2):
        assert not lattice2.is_finite
        with pytest.raises(UnsupportedOperationError):
            lattice2.elements()
        with pytest.raises(UnsupportedOperationError):
            lattice2.index_table()

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_lattice(0)

    def test_rejects_non_integers(self, lattice2):
        with pytest.raises(TypeError):
            lattice2.canonical((0.5, 1))


class TestVectorGroupRule:
    """(Z_n)^D and Z^D share one coordinate rule: prod and inv are canonical
    of the coordinatewise sum and of the negation."""

    @staticmethod
    def points(rng, d, lo, hi):
        pts = [tuple(int(x) for x in row) for row in rng.integers(lo, hi, (30, d))]
        return pts + [tuple(np.int64(x) for x in pts[0]), list(pts[1])]

    @pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
    def test_cyclic_power_matches_the_closed_forms(self, n, d, rng):
        g = make_cyclic_power(n, d)
        pts = self.points(rng, d, -2 * n, 3 * n)
        for a in pts:
            assert g.inv(a) == tuple((-int(x)) % n for x in a)
            for b in pts:
                got = g.prod(a, b)
                assert got == tuple((int(x) + int(y)) % n for x, y in zip(a, b))
                assert all(type(x) is int for x in got)

    def test_lattice_matches_the_closed_forms(self, lattice2, rng):
        pts = self.points(rng, 2, -2 ** 52, 2 ** 52) + [(2 ** 53, -2 ** 53)]
        for a in pts:
            assert lattice2.inv(a) == tuple(-int(x) for x in a)
            for b in pts:
                if max(abs(int(x) + int(y)) for x, y in zip(a, b)) <= 2 ** 53:
                    got = lattice2.prod(a, b)
                    assert got == tuple(int(x) + int(y) for x, y in zip(a, b))
                    assert all(type(x) is int for x in got)

    def test_bare_integers_when_d_is_one(self, lattice1):
        g = make_cyclic_power(5, 1)
        assert g.prod(3, np.int64(4)) == (2,)
        assert g.inv(np.int64(2)) == (3,)
        assert lattice1.prod(3, -5) == (-2,)
        assert lattice1.inv(3) == (-3,)

    def test_lattice_product_beyond_the_limit_is_refused(self, lattice2):
        edge = 2 ** 53
        assert lattice2.prod((edge - 1, 0), (1, 0)) == (edge, 0)
        assert lattice2.prod((-edge, 0), (edge, -edge)) == (0, -edge)
        for a, b in [((edge, 0), (1, 0)), ((0, -edge), (0, -1)), ((edge, 5), (edge, 5))]:
            with pytest.raises(ValueError, match=re.escape("exceed 2**53")):
                lattice2.prod(a, b)
        with pytest.raises(ValueError, match=re.escape("exceed 2**53")):
            lattice2.inv((edge + 1, 0))

    def test_wrong_length_is_refused(self, lattice2):
        for g in (lattice2, make_cyclic_power(4, 2)):
            with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
                g.canonical((1, 2, 3))
            with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
                g.prod((1,), (1, 2))


class TestFiniteTable:
    def test_bad_index_raises_element_at_message(self):
        g = make_finite_from_table([[(i + j) % 3 for j in range(3)] for i in range(3)])
        for bad in (3, -1, np.int64(7)):
            message = f"element index {int(bad)} out of range for order 3"
            for call in (g.canonical, g.element_at, g.describe, g.inv):
                with pytest.raises(ValueError, match=re.escape(message)):
                    call(bad)
        with pytest.raises(TypeError):
            g.canonical(1.0)
        assert g.canonical(np.int64(2)) == 2 and type(g.canonical(np.int64(2))) is int

    def test_empty_table_is_refused(self):
        with pytest.raises(GroupConstructionError, match="table is empty"):
            make_finite_from_table(np.empty((0, 0), dtype=np.int64))

    def test_names_of_the_wrong_length_are_refused(self):
        with pytest.raises(GroupConstructionError,
                           match="got 2 element names for a table of order 3"):
            make_finite_from_table([[(i + j) % 3 for j in range(3)] for i in range(3)],
                                   names=["e", "a"])

    def test_symmetric_group_of_nothing_is_refused(self):
        with pytest.raises(ValueError, match="symmetric group needs k >= 1, got k=0"):
            symmetric_group(0)

    def test_z3_addition_table(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        g = make_finite_from_table(table)
        assert g.is_abelian
        assert g.order == 3
        assert g.inv(1) == 2

    def test_s3_is_valid_nonabelian(self, s3):
        assert s3.order == 6
        assert not s3.is_abelian

    def test_symmetric_group_matches_composition_oracle(self, s3_table):
        g = symmetric_group(3)
        assert np.array_equal(g.index_table(), np.asarray(s3_table))

    def test_broken_associativity_names_triple(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        table[1][2] = 1
        with pytest.raises(GroupConstructionError, match="associativity"):
            make_finite_from_table(table)
        with pytest.raises(GroupConstructionError, match="a"):
            make_finite_from_table(table, names=["e", "a", "b"])

    def test_missing_identity(self):
        with pytest.raises(GroupConstructionError, match="identity"):
            make_finite_from_table([[1, 0], [0, 1]])

    def test_missing_inverse(self):
        # associative monoid with identity but no inverse for element 1
        with pytest.raises(GroupConstructionError, match="inverse"):
            make_finite_from_table([[0, 1], [1, 1]])

    def test_large_table_needs_skip_flag(self):
        n = VALIDATION_ORDER_LIMIT + 1
        table = np.add.outer(np.arange(n), np.arange(n)) % n
        with pytest.raises(GroupConstructionError, match="skip_validation"):
            make_finite_from_table(table)
        g = make_finite_from_table(table, skip_validation=True)
        assert g.prod(n - 1, 1) == 0
        assert g.inv(1) == n - 1
        assert g.is_abelian

    def test_table_at_the_limit_validates(self):
        n = VALIDATION_ORDER_LIMIT
        g = make_finite_from_table(np.add.outer(np.arange(n), np.arange(n)) % n)
        assert g.generators() == (1,)

    def test_out_of_range_entries(self):
        with pytest.raises(GroupConstructionError):
            make_finite_from_table([[0, 1], [1, 5]])


class TestGenerators:
    @pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 3), (10, 3)])
    def test_cyclic_power_unit_vectors(self, n, d):
        g = make_cyclic_power(n, d)
        assert g.generators() == tuple(tuple(np.eye(d, dtype=int)[j].tolist())
                                       for j in range(d))

    def test_one_element_group_needs_none(self):
        assert make_cyclic_power(1, 2).generators() == ()
        assert make_finite_from_table([[0]]).generators() == ()

    def test_lattice_has_none(self, lattice2):
        with pytest.raises(UnsupportedOperationError):
            lattice2.generators()

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_symmetric_groups_are_reached_greedily(self, k):
        g = symmetric_group(k)
        gens = g.generators()
        assert 2 ** len(gens) <= g.order
        # The greedy choice is the first element not yet reached, so the
        # generators ascend, and the words in them reach every element.
        assert list(gens) == sorted(gens)
        depth = word_lengths(g.index_table(), gens)
        assert depth.min() >= 0
        # Shortest words: one more generator adds at most one to the length,
        # and every element but e is one generator past a shorter word.
        step = g.index_table()[:, gens]
        assert np.all(depth[step] <= depth[:, None] + 1)
        reached = np.zeros(g.order, dtype=bool)
        reached[step[depth[step] == depth[:, None] + 1]] = True
        assert reached[1:].all()

    def test_word_lengths_on_cyclic_power(self):
        g = make_cyclic_power(4, 2)
        index = g.indexing()[1]
        gens = [index[s] for s in g.generators()]
        depth = word_lengths(g.index_table(), gens)
        assert depth.tolist() == [sum(a) for a in g.elements()]
        assert word_lengths(g.index_table(), []).tolist() == [0] + [-1] * 15

    def test_non_associative_latin_square_names_triple(self):
        # A loop of order 5: a latin square with a two-sided identity, not a group.
        table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        with pytest.raises(GroupConstructionError,
                           match=r"associativity fails on triple") as exc:
            make_finite_from_table(table, names="eabcd")
        names = str(exc.value).split("(")[1].rstrip(")").split(", ")
        a, b, c = ("eabcd".index(x) for x in names)
        assert table[table[a, b], c] != table[a, table[b, c]]
        assert c in make_finite_from_table(table, skip_validation=True).generators()

    def test_table_needing_too_many_generators_is_refused(self):
        # Associative with a two-sided identity, but ab = a for a, b != e:
        # each generator reaches only itself, so three are needed at order 4.
        table = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]]
        with pytest.raises(GroupConstructionError, match="not a group"):
            make_finite_from_table(table)

    def test_failure_seen_only_by_a_later_generator(self):
        # The greedy generators are 1 and 2, and (ab)1 = a(b1) on every pair:
        # only triples ending in 2 show that the table is not associative.
        table = np.array([[0, 1, 2, 3], [1, 0, 0, 1], [2, 3, 0, 1], [3, 2, 1, 0]])
        assert word_lengths(table, [1]).min() < 0 <= word_lengths(table, [1, 2]).min()
        col = table[:, 1]
        assert np.array_equal(col[table], table[:, col])
        with pytest.raises(GroupConstructionError,
                           match=r"associativity fails on triple \(\d, \d, 2\)"):
            make_finite_from_table(table)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["S3", "S4", "Z2^3", "Z4xZ2"]),
           st.lists(st.tuples(st.integers(1, 23), st.integers(1, 23),
                              st.integers(0, 23)), min_size=1, max_size=3))
    def test_tampered_tables_against_exhaustive_check(self, name, edits):
        """Refused when some triple fails; a named triple really fails."""
        table = np.array(TABLES[name])
        n = len(table)
        for a, b, c in edits:
            table[a % (n - 1) + 1, b % (n - 1) + 1] = c % n
        associative = np.array_equal(table[table], table[:, table])
        try:
            make_finite_from_table(table)
        except GroupConstructionError as exc:
            named = re.search(r"associativity fails on triple \((\d+), (\d+), (\d+)\)",
                              str(exc))
            if named:
                a, b, c = map(int, named.groups())
                assert table[table[a, b], c] != table[a, table[b, c]]
            else:
                assert "associativity" not in str(exc)
            return
        assert associative


TABLES = {
    "S3": symmetric_group(3).index_table(),
    "S4": symmetric_group(4).index_table(),
    "Z2^3": make_cyclic_power(2, 3).index_table(),
    "Z4xZ2": np.array([[((a // 2 + b // 2) % 4) * 2 + (a + b) % 2 for b in range(8)]
                       for a in range(8)]),
}


def test_two_sided_inverses_exhaustive(s3):
    cases = [make_cyclic_power(2, 1), make_cyclic_power(4, 1),
             make_cyclic_power(3, 2), s3]
    for g in cases:
        e = g.identity()
        for a in g.elements():
            assert g.prod(a, g.inv(a)) == e
            assert g.prod(g.inv(a), a) == e


def test_lattice_inverses_sampled(rng):
    g = make_lattice(3)
    for _ in range(50):
        a = tuple(int(x) for x in rng.integers(-10, 11, 3))
        assert g.prod(a, g.inv(a)) == g.identity()
        assert g.prod(g.inv(a), a) == g.identity()
