import json
import subprocess
import sys

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
        assert data["result"] == json.loads(open(f1).read())

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
        assert data["checks"]["transform_product"]["max_residual"] < 1e-12

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


def test_module_entry_point(tmp_path):
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"kind": "cyclic_power", "n": 3, "d": 1}))
    proc = subprocess.run([sys.executable, "-m", "projalg", "verify",
                           "--group", str(group)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
