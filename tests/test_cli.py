import hashlib
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from projalg import cli


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def z4_group(tmp_path):
    return write(tmp_path / "group.json", {"kind": "cyclic_power", "n": 4, "d": 1})


@pytest.fixture
def torus_group(tmp_path):
    return write(tmp_path / "torus.json", {"kind": "cyclic_power", "n": 2, "d": 2})


class TestVerify:
    def test_vector_case_passes(self, tmp_path, z4_group):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--group", z4_group, "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True
        names = [c["name"] for c in data["checks"]]
        assert "cocycle_condition" in names
        assert "self_conjugacy" in names
        assert "identity_resolution" in names
        assert "plancherel" in names

    def test_clockshift_cocycle_passes(self, tmp_path, torus_group):
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--group", torus_group, "--cocycle", cocycle,
                         "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert any(c["name"].startswith("clockshift.") for c in data["checks"])

    def test_lattice_group_passes(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "bilinear", "theta": [[0.0, 0.5], [-0.5, 0.0]]})
        code = cli.main(["verify", "--group", group, "--cocycle", cocycle,
                         "--out", str(tmp_path / "r.json")])
        assert code == 0

    def test_math_failure_exits_one(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 2, "d": 1})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "table", "alpha": [[0.0, 0.1], [0.0, 0.3]]})
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--group", group, "--cocycle", cocycle,
                         "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["pass"] is False

    def test_broken_group_exits_two(self, tmp_path):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        table[1][2] = 1
        group = write(tmp_path / "g.json", {"kind": "table", "table": table})
        assert cli.main(["verify", "--group", group]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["verify", "--group", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_two(self, tmp_path):
        bad = tmp_path / "g.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["verify", "--group", str(bad)]) == 2

    def test_bad_seed_exits_two(self, tmp_path, z4_group):
        assert cli.main(["verify", "--group", z4_group, "--seed", "zzz"]) == 2

    def test_byte_identical_reports(self, tmp_path, torus_group):
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert cli.main(["verify", "--group", torus_group, "--cocycle",
                             cocycle, "--seed", "BEEF", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFourier:
    def test_character_roundtrip(self, tmp_path, z4_group):
        fn = write(tmp_path / "f.json",
                   [{"element": [0], "re": 1.0, "im": 0.0},
                    {"element": [1], "re": 0.0, "im": 1.0},
                    {"element": [3], "re": -2.0, "im": 0.5}])
        out = tmp_path / "out.json"
        code = cli.main(["fourier", "--group", z4_group, "--in", fn,
                         "--rep", "character", "--roundtrip", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["transform"]) == 4
        assert data["checks"]["plancherel"]["pass"] is True
        assert data["checks"]["roundtrip"]["pass"] is True

    def test_delta_character_transform_is_flat(self, tmp_path, z4_group):
        fn = write(tmp_path / "f.json", [{"element": [0], "re": 1.0, "im": 0.0}])
        out = tmp_path / "out.json"
        assert cli.main(["fourier", "--group", z4_group, "--in", fn,
                         "--rep", "character", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        for rec in data["transform"]:
            assert rec["re"] == pytest.approx(1.0)
            assert rec["im"] == pytest.approx(0.0)

    def test_matrix_rep_clockshift(self, tmp_path, torus_group):
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        fn = write(tmp_path / "f.json", [{"element": [1, 0], "re": 1.0, "im": 0.0}])
        out = tmp_path / "out.json"
        code = cli.main(["fourier", "--group", torus_group, "--cocycle", cocycle,
                         "--in", fn, "--rep", "matrix", "--roundtrip",
                         "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        mat = np.array([[complex(re, im) for re, im in row]
                        for row in data["transform"]["matrix"]])
        assert np.allclose(mat, np.array([[0, 1], [1, 0]]))

    def test_formal_rep_roundtrip(self, tmp_path, torus_group):
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        fn = write(tmp_path / "f.json",
                   [{"element": [1, 1], "re": 0.5, "im": -1.5},
                    {"element": [0, 1], "re": 2.0, "im": 0.0}])
        out = tmp_path / "out.json"
        assert cli.main(["fourier", "--group", torus_group, "--cocycle", cocycle,
                         "--in", fn, "--roundtrip", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["checks"]["roundtrip"]["max_residual"] < 1e-13

    def test_character_rep_rejects_projective(self, tmp_path, torus_group):
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        fn = write(tmp_path / "f.json", [{"element": [0, 0], "re": 1.0, "im": 0.0}])
        assert cli.main(["fourier", "--group", torus_group, "--cocycle", cocycle,
                         "--in", fn, "--rep", "character"]) == 2

    @pytest.mark.parametrize("phase, code", [(1e-13, 2), (0.0, 0)])
    def test_character_rep_needs_phases_below_1e_14(self, tmp_path, phase, code):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 4, "d": 2})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "table", "alpha": [[phase] * 16] * 16})
        fn = write(tmp_path / "f.json", [{"element": [1, 2], "re": 1.0, "im": 0.0}])
        assert cli.main(["fourier", "--group", group, "--cocycle", cocycle,
                         "--in", fn, "--rep", "character", "--roundtrip",
                         "--out", str(tmp_path / "out.json")]) == code

    def test_matrix_rep_on_a_lattice_exits_two(self, tmp_path, capsys):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        fn = write(tmp_path / "f.json", [{"element": [1, -2], "re": 1.0, "im": 0.0}])
        out = tmp_path / "out.json"
        assert cli.main(["fourier", "--group", group, "--in", fn, "--rep", "matrix",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: matrix transforms need a finite group\n"
        assert not out.exists()

    def test_bad_function_file_exits_two(self, tmp_path, z4_group):
        fn = write(tmp_path / "f.json", [{"element": [0, 1], "re": 1.0}])
        assert cli.main(["fourier", "--group", z4_group, "--in", fn]) == 2

    def test_z5_character_roundtrip_residual(self, tmp_path):
        rng = np.random.default_rng(11)
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 5, "d": 1})
        fn = write(tmp_path / "f.json",
                   [{"element": [k], "re": float(rng.standard_normal()),
                     "im": float(rng.standard_normal())} for k in range(5)])
        out = tmp_path / "out.json"
        assert cli.main(["fourier", "--group", group, "--in", fn,
                         "--rep", "character", "--roundtrip",
                         "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["checks"]["roundtrip"]["max_residual"] < 1e-13


class TestConvolve:
    def test_delta_is_unit(self, tmp_path, z4_group):
        f1 = write(tmp_path / "f1.json",
                   [{"element": [1], "re": 1.0, "im": 0.0},
                    {"element": [2], "re": 0.0, "im": 3.0}])
        f2 = write(tmp_path / "f2.json", [{"element": [0], "re": 1.0, "im": 0.0}])
        out = tmp_path / "h.json"
        code = cli.main(["convolve", "--group", z4_group, "--in", f1,
                         "--in2", f2, "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["result"] == json.loads(Path(f1).read_text())

    def test_clockshift_cross_check(self, tmp_path, torus_group):
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        f1 = write(tmp_path / "f1.json",
                   [{"element": [1, 0], "re": 1.0, "im": 2.0},
                    {"element": [1, 1], "re": -0.5, "im": 0.0}])
        f2 = write(tmp_path / "f2.json",
                   [{"element": [0, 1], "re": 0.5, "im": 0.5}])
        out = tmp_path / "h.json"
        code = cli.main(["convolve", "--group", torus_group, "--cocycle", cocycle,
                         "--in", f1, "--in2", f2, "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["checks"]["convolution_theorem"]["max_residual"] < 1e-12

    def test_zero_cocycle_matches_plain_convolution(self, tmp_path, z4_group):
        import projalg as pa
        f1_items = [{"element": [1], "re": 1.0, "im": 0.0},
                    {"element": [2], "re": 2.0, "im": -1.0}]
        f2_items = [{"element": [0], "re": 3.0, "im": 0.0},
                    {"element": [3], "re": 0.0, "im": 4.0}]
        f1 = write(tmp_path / "f1.json", f1_items)
        f2 = write(tmp_path / "f2.json", f2_items)
        out = tmp_path / "h.json"
        assert cli.main(["convolve", "--group", z4_group, "--in", f1,
                         "--in2", f2, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        g = pa.make_cyclic_power(4, 1)
        plain = pa.convolution(
            pa.GroupFunction(g, {(1,): 1.0, (2,): 2.0 - 1j}),
            pa.GroupFunction(g, {(0,): 3.0, (3,): 4j}))
        for rec in data["result"]:
            assert plain.get(tuple(rec["element"])) == pytest.approx(
                complex(rec["re"], rec["im"]))

    def test_wrong_coordinate_length_exits_two(self, tmp_path, z4_group):
        f1 = write(tmp_path / "f1.json", [{"element": [1, 0], "re": 1.0, "im": 0.0}])
        f2 = write(tmp_path / "f2.json", [{"element": [0], "re": 1.0, "im": 0.0}])
        assert cli.main(["convolve", "--group", z4_group, "--in", f1,
                         "--in2", f2]) == 2


class TestClockshiftCommand:
    def test_passes(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["clockshift", "--n", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_out_of_range_exits_two(self):
        assert cli.main(["clockshift", "--n", "99"]) == 2

    @pytest.mark.parametrize("n", [1, 33])
    def test_just_outside_the_range_exits_two(self, n):
        """The range is 2..isqrt(VALIDATION_ORDER_LIMIT): its edges are refused one step out."""
        assert cli.main(["clockshift", "--n", str(n)]) == 2

    def test_bottom_of_the_range(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["clockshift", "--n", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_top_of_the_range(self):
        proc = subprocess.run([sys.executable, "-m", "projalg", "clockshift",
                               "--n", "32"], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr


class TestReport:
    def test_passing_report(self, tmp_path, z4_group, capsys):
        out = tmp_path / "r.json"
        cli.main(["verify", "--group", z4_group, "--out", str(out)])
        assert cli.main(["report", "--in", str(out)]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_failing_report(self, tmp_path):
        data = {"suite": "x", "pass": False,
                "checks": [{"name": "c", "max_residual": 1.0,
                            "tolerance": 0.5, "pass": False}]}
        path = write(tmp_path / "r.json", data)
        assert cli.main(["report", "--in", path]) == 1

    def test_malformed_report(self, tmp_path):
        path = write(tmp_path / "r.json", {"something": "else"})
        assert cli.main(["report", "--in", path]) == 2

    def test_non_numeric_residual(self, tmp_path, capsys):
        data = {"suite": "x", "pass": True,
                "checks": [{"name": "c", "max_residual": "small",
                            "tolerance": 0.5, "pass": True}]}
        path = write(tmp_path / "r.json", data)
        assert cli.main(["report", "--in", path]) == 2
        assert "malformed check records" in capsys.readouterr().err


class TestNonFiniteInput:
    """Non-finite numbers in input files exit 2 with one error line."""

    @staticmethod
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "projalg", *argv],
                              capture_output=True, text=True)

    def assert_input_error(self, proc):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["fourier", "convolve"])
    def test_nan_coefficient(self, tmp_path, command):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 1})
        fn = write(tmp_path / "f.json", [{"element": [1], "re": float("nan"),
                                          "im": 0.0}])
        extra = ["--in2", fn] if command == "convolve" else []
        self.assert_input_error(self.run(command, "--group", group, "--in", fn,
                                         *extra))

    def test_infinite_coefficient(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 1})
        fn = write(tmp_path / "f.json", [{"element": [1], "re": float("inf"),
                                          "im": 0.0}])
        self.assert_input_error(self.run("fourier", "--group", group, "--in", fn))

    def test_infinite_group_size(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": float("inf"),
                                            "d": 2})
        self.assert_input_error(self.run("verify", "--group", group))

    def test_coefficient_modulus_past_float_range(self, tmp_path):
        # Both parts are finite, but |1.5e308 + 1.5e308 i| overflows float64.
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 1})
        fn = write(tmp_path / "f.json", [{"element": [1], "re": 1.5e308,
                                          "im": 1.5e308}])
        proc = self.run("fourier", "--group", group, "--in", fn)
        self.assert_input_error(proc)
        assert "too large" in proc.stderr

    def test_nan_table_cocycle(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 1})
        alpha = [[0.0] * 3 for _ in range(3)]
        alpha[1][2] = float("nan")
        cocycle = write(tmp_path / "c.json", {"kind": "table", "alpha": alpha})
        self.assert_input_error(self.run("verify", "--group", group,
                                         "--cocycle", cocycle))

    def test_nan_coboundary_phi(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 1})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "coboundary", "phi": [0.0, float("nan"), 0.2]})
        self.assert_input_error(self.run("verify", "--group", group,
                                         "--cocycle", cocycle))


class TestLatticeCoordinateRange:
    """Lattice coordinates beyond 2**53, read or computed, exit 2 with one error line."""

    run = staticmethod(TestNonFiniteInput.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    @staticmethod
    def files(tmp_path, *functions):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "bilinear", "theta": [[0.1, 0.4], [-0.2, 0.3]]})
        paths = [write(tmp_path / f"f{i}.json",
                       [{"element": e, "re": 1.0, "im": 0.5} for e in elems])
                 for i, elems in enumerate(functions)]
        return ["--group", group, "--cocycle", cocycle], paths

    def test_function_file_out_of_range(self, tmp_path):
        common, (f1, f2) = self.files(tmp_path, [[2**70, 1]], [[0, 1]])
        self.assert_input_error(self.run("convolve", *common, "--in", f1, "--in2", f2))
        common, (f,) = self.files(tmp_path, [[1, 2], [0, 2**53 + 1]])
        self.assert_input_error(self.run("fourier", *common, "--in", f))

    def test_convolution_leaving_the_range(self, tmp_path):
        common, (f1, f2) = self.files(tmp_path, [[2**53, 0], [3, 4]], [[1, 0]])
        self.assert_input_error(self.run("convolve", *common, "--in", f1, "--in2", f2))

    def test_plancherel_product_leaving_the_range(self, tmp_path):
        # f* f holds x(-a) x(b) for a = (2**53, 0) and b = (-2**53, 0).
        common, (f,) = self.files(tmp_path, [[2**53, 0], [-2**53, 0]])
        self.assert_input_error(self.run("fourier", *common, "--in", f))

    def test_edge_of_the_range_is_accepted(self, tmp_path):
        common, (f1, f2) = self.files(tmp_path, [[2**53, -2**53]], [[-1, 1]])
        out = tmp_path / "h.json"
        assert cli.main(["convolve", *common, "--in", f1, "--in2", f2,
                         "--out", str(out)]) == 0
        assert [r["element"] for r in json.loads(out.read_text())["result"]] == [
            [2**53 - 1, 1 - 2**53]]
        assert cli.main(["fourier", *common, "--in", f1, "--roundtrip",
                         "--out", str(out)]) == 0


class TestClockshiftRange:
    """A clockshift cocycle outside 2 <= n <= 32 is refused before any work."""

    assert_input_error = TestNonFiniteInput.assert_input_error

    @staticmethod
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "projalg", *argv],
                              capture_output=True, text=True, timeout=60)

    @staticmethod
    def files(tmp_path, n):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": n, "d": 2})
        cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
        fn = write(tmp_path / "f.json", [{"element": [1, 0], "re": 1.0, "im": 0.0}])
        return ["--group", group, "--cocycle", cocycle], fn

    def test_verify_n33_exits_two(self, tmp_path):
        common, _ = self.files(tmp_path, 33)
        started = time.perf_counter()
        self.assert_input_error(self.run("verify", *common))
        assert time.perf_counter() - started < 20

    def test_verify_n1_exits_two(self, tmp_path):
        """(Z_1)^2 passes the order bound, so the torus range itself refuses it."""
        common, _ = self.files(tmp_path, 1)
        self.assert_input_error(self.run("verify", *common))

    def test_matrix_fourier_n40_exits_two(self, tmp_path):
        common, fn = self.files(tmp_path, 40)
        started = time.perf_counter()
        self.assert_input_error(self.run("fourier", *common, "--in", fn,
                                         "--rep", "matrix"))
        assert time.perf_counter() - started < 20

    def test_edges_of_the_range(self, tmp_path):
        for n in (2, 32):
            common, fn = self.files(tmp_path, n)
            assert cli.main(["fourier", *common, "--in", fn, "--rep", "matrix",
                             "--roundtrip", "--out", str(tmp_path / "o.json")]) == 0
        common, fn = self.files(tmp_path, 1)
        assert cli.main(["fourier", *common, "--in", fn]) == 2


class TestOrderBound:
    """Finite groups of order above groups.VALIDATION_ORDER_LIMIT are refused
    with exit 2 before any table is built."""

    run = staticmethod(TestClockshiftRange.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    @pytest.mark.parametrize("d", [14, 64])
    def test_large_cyclic_power_exits_two(self, tmp_path, d):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 2, "d": d})
        fn = write(tmp_path / "f.json", [{"element": [1] * d, "re": 1.0, "im": 0.0}])
        for argv in (["verify"], ["fourier", "--in", fn],
                     ["convolve", "--in", fn, "--in2", fn]):
            proc = self.run(argv[0], "--group", group, *argv[1:])
            self.assert_input_error(proc)
            assert f"group order {2 ** d} exceeds the limit 1024" in proc.stderr

    def test_order_past_the_int_string_limit_names_the_bound(self, tmp_path):
        # n**D has 6,400 digits, more than str() of an int may print.
        group = write(tmp_path / "g.json",
                      {"kind": "cyclic_power", "n": "9" * 100, "d": 64})
        proc = self.run("verify", "--group", group)
        self.assert_input_error(proc)
        assert "exceeds the limit 1024" in proc.stderr
        assert "4300 digits" not in proc.stderr

    def test_the_limit_itself_is_accepted(self, tmp_path):
        for d, code in ((10, 0), (11, 2)):
            group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 2, "d": d})
            fn = write(tmp_path / "f.json", [{"element": [1] * d, "re": 1.0, "im": 0.0}])
            assert cli.main(["fourier", "--group", group, "--in", fn,
                             "--out", str(tmp_path / "o.json")]) == code


class TestUnwritableOut:
    """An --out that cannot be written exits 2 with one error line naming it."""

    run = staticmethod(TestClockshiftRange.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    @pytest.mark.parametrize("command", ["verify", "fourier", "convolve", "clockshift"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_exits_two(self, tmp_path, command, target):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        fn = write(tmp_path / "f.json", [{"element": [1, 2], "re": 0.5, "im": 0.0}])
        argv = {"verify": ["verify", "--group", group],
                "fourier": ["fourier", "--group", group, "--in", fn],
                "convolve": ["convolve", "--group", group, "--in", fn, "--in2", fn],
                "clockshift": ["clockshift", "--n", "2"]}[command]
        out = tmp_path / "nope" / "x.json" if target == "missing_dir" else tmp_path
        proc = self.run(*argv, "--out", str(out))
        self.assert_input_error(proc)
        assert proc.stderr.startswith(f"error: cannot write {out}: ")


class TestStdoutMatchesOut:
    """Without --out the same pieces reach stdout, so the text is the same."""

    @pytest.mark.parametrize("command", ["verify", "matrix", "character", "formal",
                                         "convolve", "clockshift"])
    def test_same_text(self, tmp_path, capsys, command):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 4, "d": 2})
        fn = write(tmp_path / "f.json", [{"element": [1, 2], "re": 0.6, "im": 0.0},
                                         {"element": [3, 0], "re": 0.0, "im": 0.8}])
        fourier = ["fourier", "--group", group, "--in", fn, "--roundtrip", "--rep"]
        argv = {"verify": ["verify", "--group", group],
                "convolve": ["convolve", "--group", group, "--in", fn, "--in2", fn],
                "clockshift": ["clockshift", "--n", "3"]}.get(command, fourier + [command])
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")


class TestNegativeSeed:
    """A negative --seed exits 2 with one error line, on every seeded command."""

    run = staticmethod(TestClockshiftRange.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    @pytest.mark.parametrize("command", ["verify", "convolve", "clockshift"])
    def test_exits_two(self, tmp_path, command):
        group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 1})
        fn = write(tmp_path / "f.json", [{"element": [1], "re": 0.5, "im": 0.0}])
        argv = {"verify": ["verify", "--group", group],
                "convolve": ["convolve", "--group", group, "--in", fn, "--in2", fn],
                "clockshift": ["clockshift", "--n", "2"]}[command]
        proc = self.run(*argv, "--seed=-5")
        self.assert_input_error(proc)
        assert proc.stderr == "error: seed must be non-negative, got '-5'\n"


def test_commands_never_import_numpy_random(tmp_path):
    """Seeded draws come from sampling's own stream, not numpy.random."""
    group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 3, "d": 2})
    lattice = write(tmp_path / "z2.json", {"kind": "lattice", "d": 2})
    fn = write(tmp_path / "f.json", [{"element": [1, 2], "re": 0.5, "im": 0.1},
                                     {"element": [-3, 0], "re": 0.0, "im": 0.8}])
    out = str(tmp_path / "out.json")
    runs = [["verify", "--group", group, "--out", out],
            ["clockshift", "--n", "4", "--out", out],
            ["convolve", "--group", lattice, "--in", fn, "--in2", fn, "--out", out]]
    code = ("import sys\nfrom projalg import cli\n"
            f"print([cli.main(a) for a in {runs!r}], 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


def blas_resident_kib():
    """Resident KiB of this process's mappings of a file named like *blas*, read
    from /proc/self/smaps; None without smaps or without such a mapping."""
    try:
        lines = Path("/proc/self/smaps").read_text().splitlines()
    except OSError:
        return None
    kib, found, blas = 0, False, False
    for line in lines:
        head = line.split()
        if head and "-" in head[0] and not head[0].endswith(":"):  # a mapping's header
            blas = "blas" in line.lower()
            found |= blas
        elif blas and head and head[0] == "Rss:":
            kib += int(head[1])
    return kib if found else None


def test_lattice_commands_fault_in_no_blas_pages(tmp_path):
    """Bilinear phases are elementwise, so convolve, fourier and verify on Z^2
    touch no page of the BLAS library that numpy loads."""
    convolve = _pinned_argv(tmp_path, "lattice-convolve")
    runs = [convolve, _pinned_argv(tmp_path, "lattice-fourier"),
            ["verify", *convolve[1:5], "--seed", "3"]]
    runs = [argv + ["--out", str(tmp_path / "out.json")] for argv in runs]
    code = (f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from projalg import cli\nfrom test_cli import blas_resident_kib\n"
            f"before = blas_resident_kib()\ncodes = [cli.main(a) for a in {runs!r}]\n"
            "print(codes, before, blas_resident_kib())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    codes, before, after = proc.stdout.splitlines()[-1].rsplit(" ", 2)
    assert codes == "[0, 0, 0]"
    if before == "None":
        pytest.skip("no BLAS library mapped, or no /proc/self/smaps")
    assert int(after) <= int(before)


def test_module_entry_point(tmp_path):
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"kind": "cyclic_power", "n": 3, "d": 1}))
    proc = subprocess.run([sys.executable, "-m", "projalg", "verify",
                           "--group", str(group)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def bicharacter_files(tmp_path, n):
    """(Z_n)^2 and the unreduced table 2 pi a_0 b_1 / n, as bench/workloads.py writes it."""
    coords = [[a, b] for a in range(n) for b in range(n)]
    group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": n, "d": 2})
    cocycle = write(tmp_path / "c.json", {"kind": "table", "alpha": [
        [2 * np.pi * a[0] * b[1] / n for b in coords] for a in coords]})
    return group, cocycle


class TestConvolutionTheorem:
    """The convolution_theorem record and the twisted regular matrix picture."""

    def test_verify_at_order_1024_with_the_unreduced_bicharacter(self, tmp_path):
        group, cocycle = bicharacter_files(tmp_path, 32)
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--group", group, "--cocycle", cocycle,
                         "--seed", "1", "--out", str(out)]) == 0
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert "convolution_theorem" in names
        assert "deformed_convolution_product" not in names

    def test_matrix_fourier_with_a_table_cocycle(self, tmp_path):
        import projalg as pa
        from projalg.serialize import cocycle_from_spec
        group, cocycle = bicharacter_files(tmp_path, 4)
        fn = write(tmp_path / "f.json", [{"element": [1, 2], "re": 0.6, "im": 0.0},
                                         {"element": [3, 1], "re": 0.0, "im": 0.8}])
        out = tmp_path / "o.json"
        assert cli.main(["fourier", "--group", group, "--cocycle", cocycle, "--in", fn,
                         "--rep", "matrix", "--roundtrip", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["checks"]["roundtrip"]["pass"]
        mat = np.array([[complex(re, im) for re, im in row]
                        for row in data["transform"]["matrix"]])
        g = pa.make_cyclic_power(4, 2)
        alpha = cocycle_from_spec(json.loads(Path(cocycle).read_text()), g)
        R = pa.regular_reps(g, pa.normalize(g, alpha)[0]).R
        assert np.allclose(mat, 0.6 * R[(1, 2)] + 0.8j * R[(3, 1)], atol=1e-15)

    def test_convolve_on_a_finite_group(self, tmp_path):
        group, cocycle = bicharacter_files(tmp_path, 3)
        f1 = write(tmp_path / "f1.json", [{"element": [1, 2], "re": 1.0, "im": 2.0},
                                          {"element": [2, 0], "re": -0.5, "im": 0.0}])
        f2 = write(tmp_path / "f2.json", [{"element": [0, 1], "re": 0.5, "im": 0.5}])
        out = tmp_path / "h.json"
        assert cli.main(["convolve", "--group", group, "--cocycle", cocycle,
                         "--in", f1, "--in2", f2, "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert list(checks) == ["convolution_theorem"]
        assert checks["convolution_theorem"]["max_residual"] < 1e-15

    def test_lattice_has_no_convolution_record(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "bilinear", "theta": [[0.3, 0.7], [-0.2, 0.1]]})
        fn = write(tmp_path / "f.json", [{"element": [1, 2], "re": 0.6, "im": 0.0}])
        out = tmp_path / "o.json"
        assert cli.main(["convolve", "--group", group, "--cocycle", cocycle,
                         "--in", fn, "--in2", fn, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["checks"] == {}
        assert cli.main(["verify", "--group", group, "--cocycle", cocycle,
                         "--out", str(out)]) == 0
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert not any("convolution" in name for name in names)


class TestDimensionBound:
    """A group dimension above groups.DIMENSION_LIMIT exits 2 before any array
    is built; the sizes here are ones whose arrays could never be allocated."""

    run = staticmethod(TestClockshiftRange.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    @pytest.mark.parametrize("spec", [{"kind": "lattice", "d": 10 ** 6},
                                      {"kind": "cyclic_power", "n": 1, "d": 10 ** 12}])
    def test_huge_dimension_exits_two(self, tmp_path, spec):
        group = write(tmp_path / "g.json", spec)
        proc = self.run("verify", "--group", group)
        self.assert_input_error(proc)
        assert f"group dimension {spec['d']} exceeds the limit 64" in proc.stderr


class TestUnreadableFile:
    """A file that json cannot read exits 2 with one error line, not a traceback."""

    run = staticmethod(TestClockshiftRange.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    @pytest.mark.parametrize("content", [
        b'{"kind": "lattice", "d": ' + b"1" * 5000 + b"}",  # past the int-string limit
        b"[" * 100_000 + b"]" * 100_000,                    # nested past the recursion limit
        b'\xff\xfe{"kind": "lattice", "d": 2}',             # not UTF-8
    ], ids=["long-integer", "deep-nesting", "not-utf8"])
    def test_group_file(self, tmp_path, content):
        group = tmp_path / "g.json"
        group.write_bytes(content)
        proc = self.run("verify", "--group", str(group))
        self.assert_input_error(proc)
        assert "is not valid JSON" in proc.stderr

    def test_long_integer_in_a_function_file(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        fn = tmp_path / "f.json"
        fn.write_text('[{"element": [1, 2], "re": ' + "7" * 5000 + "}]")
        self.assert_input_error(self.run("fourier", "--group", group, "--in", str(fn)))


class TestBilinearOverflow:
    """A bilinear form whose phases overflow at coordinates up to 2**53 is refused."""

    run = staticmethod(TestClockshiftRange.run)
    assert_input_error = TestNonFiniteInput.assert_input_error

    def test_overflowing_form_exits_two(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "bilinear", "theta": [[1e308, 0.0], [0.0, 1e308]]})
        proc = self.run("verify", "--group", group, "--cocycle", cocycle)
        self.assert_input_error(proc)
        assert "bilinear form overflows" in proc.stderr

    def test_large_finite_form_is_accepted(self, tmp_path):
        group = write(tmp_path / "g.json", {"kind": "lattice", "d": 2})
        cocycle = write(tmp_path / "c.json",
                        {"kind": "bilinear", "theta": [[1e200, 0.0], [0.0, 1e200]]})
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--group", group, "--cocycle", cocycle,
                         "--out", str(out)]) == 1
        assert json.loads(out.read_text())["pass"] is False


def test_verify_runs_on_a_cocycle_whose_identity_row_is_within_tolerance(tmp_path):
    """Normalization gauges alpha(e, b) = 1e-12 to zero, so the checks that
    need a normalized cocycle run instead of raising."""
    group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 2, "d": 1})
    cocycle = write(tmp_path / "c.json", {"kind": "table", "alpha": [[0.0, 1e-12], [0.0, 0.0]]})
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--group", group, "--cocycle", cocycle,
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_verify_tol_reaches_the_clockshift_records(tmp_path):
    group = write(tmp_path / "g.json", {"kind": "cyclic_power", "n": 4, "d": 2})
    cocycle = write(tmp_path / "c.json", {"kind": "clockshift"})
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--group", group, "--cocycle", cocycle,
                     "--tol", "1e-3", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert sum(c["name"].startswith("clockshift.") for c in checks) == 5
    assert {c["tolerance"] for c in checks} == {1e-3}


# -- pinned outputs ------------------------------------------------------------


def _grid_function(lo, hi, a, b):
    """Sevenths and ninths on the box [lo, hi]^2, some of them zero: IEEE
    division rounds them alike on every platform."""
    return [{"element": [x, y], "re": ((a * x + 3 * y) % 5 - 2) / 7,
             "im": ((2 * x - b * y) % 7 - 3) / 9}
            for x in range(lo, hi + 1) for y in range(lo, hi + 1)]


def _pinned_argv(tmp_path, case):
    lattice = write(tmp_path / "z2.json", {"kind": "lattice", "d": 2})
    bilinear = write(tmp_path / "bil.json", {"kind": "bilinear",
                                             "theta": [[0.3, 0.7], [-0.2, 0.1]]})
    f1 = write(tmp_path / "f1.json", _grid_function(-5, 5, 7, 5))
    f2 = write(tmp_path / "f2.json", _grid_function(-6, 4, 4, 1))
    z4sq = write(tmp_path / "z4sq.json", {"kind": "cyclic_power", "n": 4, "d": 2})
    cob = write(tmp_path / "cob.json", {"kind": "coboundary",
                                        "phi": [0.0] + [(5 * i % 13 - 6) / 4 for i in range(1, 16)]})
    f4 = write(tmp_path / "f4.json", [r for r in _grid_function(0, 3, 7, 5)
                                      if (r["element"][0] + r["element"][1]) % 3])
    # Points near +-2**52: their box of sums is far larger than the 6 pairs,
    # so the product numbers its pair sums by a row sort.
    w1 = write(tmp_path / "wide1.json", [
        {"element": [2 ** 52, -2 ** 52], "re": 0.6, "im": 0.2},
        {"element": [-2 ** 52, 17], "re": -0.3, "im": 0.9},
        {"element": [3, 2 ** 52 - 1], "re": 0.1, "im": -0.4}])
    w2 = write(tmp_path / "wide2.json", [
        {"element": [-2 ** 52, 2 ** 52], "re": 0.5, "im": 0.5},
        {"element": [2 ** 52 - 1, -2], "re": -0.7, "im": 0.1}])
    perms = list(itertools.permutations(range(3)))
    s3 = write(tmp_path / "s3.json", {
        "kind": "table", "elements": ["e", "b", "a", "ab", "ba", "aba"],
        "table": [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
                  for p in perms]})
    cob3 = write(tmp_path / "cob3.json", {"kind": "coboundary",
                                          "phi": [0.0, 0.1, -1.3, 2.9, -0.7, 1.7]})
    z6sq = write(tmp_path / "z6sq.json", {"kind": "cyclic_power", "n": 6, "d": 2})
    coords = list(itertools.product(range(6), repeat=2))
    # alpha(a, b) = 2 pi a_0 b_1 / 6, unreduced, as the verify-finite workload writes it.
    bichar = write(tmp_path / "bichar.json", {"kind": "table", "alpha": [
        [2 * math.pi * a[0] * b[1] / 6 for b in coords] for a in coords]})
    return {
        "lattice-fourier": ["fourier", "--group", lattice, "--cocycle", bilinear,
                            "--in", f1, "--rep", "formal", "--roundtrip"],
        "lattice-convolve": ["convolve", "--group", lattice, "--cocycle", bilinear,
                             "--in", f1, "--in2", f2],
        "coboundary-fourier": ["fourier", "--group", z4sq, "--cocycle", cob,
                               "--in", f4, "--rep", "formal", "--roundtrip"],
        "wide-convolve": ["convolve", "--group", lattice, "--cocycle", bilinear,
                          "--in", w1, "--in2", w2],
        "named-table-verify": ["verify", "--group", s3, "--cocycle", cob3,
                               "--seed", "2A"],
        "bicharacter-verify": ["verify", "--group", z6sq, "--cocycle", bichar,
                               "--seed", "3C1"],
        "clockshift-8": ["clockshift", "--n", "8", "--seed", "9E"],
    }[case]


# SHA-256 of each output as earlier versions wrote it: the per-class element
# indexing and a lattice kernel that held every pair weight for the last two,
# the dict-backed coefficient store for coboundary-fourier, and for the two
# lattice cases under the bilinear cocycle the elementwise phases with their
# mirrored pairs (the matrix-product phases they replace moved the last bits,
# by at most 8.9e-16, over the same keys), and a GroupFunction per random trial
# for bicharacter-verify and clockshift-8.  Every byte must stay.
PINNED = {
    "lattice-fourier": "5f4b7a2b04cd75065a428ee74f909ab0a280fc50479e9dd624032034bb0707ab",
    "lattice-convolve": "eeeabb3b6e0d045a6416c2ccc136c17d7f9afa81680ca0e32a5e4947bd823e0d",
    "coboundary-fourier": "ed6f80928bce52cf262b326f730227e45a7476605d2e1e3693607d7d9931b571",
    "wide-convolve": "1a162b1cb404a958047aaf031545a47abdda94475e9129f72e95e4697b857a2b",
    "named-table-verify": "f154ac6377f19fbd87baf56d4ac369b9dee41bb1a346f36dc6e820283c6dba9b",
    "bicharacter-verify": "20168885929a79124d48a0d4c2db35b13974c49835af6a881dbba5f95592fdb2",
    "clockshift-8": "6646fcc652d1ead4aac5e4720e9529cb9b41506d11e90cdc4aa36a2899b1c38d",
}


def test_wide_formal_roundtrip_holds(tmp_path):
    """The normalized form is antisymmetric, so every inverse-pair phase
    alpha(a, -a) is an exact zero at the pinned points near 2**52: Plancherel
    and the round trip hold exactly there."""
    wide = _pinned_argv(tmp_path, "wide-convolve")
    out = tmp_path / "out.json"
    assert cli.main(["fourier", *wide[1:7], "--rep", "formal", "--roundtrip",
                     "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks["plancherel"]["pass"] and checks["roundtrip"]["pass"]
    assert checks["plancherel"]["lhs"] == pytest.approx(1.47, abs=1e-15)
    assert checks["roundtrip"]["max_residual"] == 0


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_output_bytes(tmp_path, case):
    out = tmp_path / "out.json"
    assert cli.main(_pinned_argv(tmp_path, case) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[case]
