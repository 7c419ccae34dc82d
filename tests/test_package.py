"""What one process loads, and the public API of the package namespace.

A ``python -m projalg`` process imports only the modules its command runs:
``calculus`` and ``clockshift`` load on first use, and no record type is a
dataclass, so no command imports ``dataclasses``.
"""

import json
import subprocess
import sys

import pytest

import projalg as pa

# The names the package exported before calculus and clockshift loaded lazily.
ALL = """
AlgebraElement Automorphism BackingMismatchError BilinearCocycle CharacterRepresentation
CheckResult Cocycle ContextMismatchError CoordinateDerivation CrossCheckError
CyclicPowerGroup Derivation FiniteTableGroup FormalRepresentation GaugePhase
GaugedCocycle Group GroupConstructionError GroupFunction LatticeGroup
MatrixRepresentation NormalizationRequiredError RegularRepPair
RepresentationInconsistencyError SigmaDerivation TabulatedCocycle
UnsupportedOperationError VerificationReport algebra apply_L apply_R
apply_automorphism as_algebra_element ati_integral calculus character_inverse
character_transform check_identities check_leibniz circle_distance
clock_shift_matrices clockshift coboundary cocycle_condition_residual cocycles
commutator_pairing completeness_check conjugation_matrix consistency_check
convolution deformed_convolution derive dumps_canonical element_matrices errors
fourier gauge_transform generator groups harmonic integral_of_derivation
integration invert invert_vector_finite involution is_trivial_abelian
make_cyclic_power make_finite_from_table make_lattice matrix_rep_inverse
matrix_representation measure_cocycle_from_matrices measure_invariance_check
measured_cocycle moyal_star multiply normalize phases plancherel_check
plancherel_values realize reduce_phase regular_matrix_rep regular_reps report
sampling scalar_product symmetric_group trace_integral validate_cocycle
zero_cocycle
""".split()

LAZY = ("projalg.calculus", "projalg.clockshift", "dataclasses")

# Runs ``python -m projalg`` with the arguments in sys.argv[1:], then prints the
# sorted names in sys.modules as JSON on the last line of stdout.
RUN_MODULE = """
import json, runpy, sys
sys.argv = ["projalg", *sys.argv[1:]]
try:
    runpy.run_module("projalg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_modules(*argv) -> tuple:
    """(exit code, modules loaded) of a fresh process that runs the command ``argv``."""
    proc = subprocess.run([sys.executable, "-c", RUN_MODULE, *argv],
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.fixture(scope="module")
def numpy_modules():
    code = "import json, sys, numpy\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    return set(json.loads(proc.stdout))


def write(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    n = 4
    coords = [(a, b) for a in range(n) for b in range(n)]
    return {
        "group": write(tmp_path / "g.json", {"kind": "cyclic_power", "n": n, "d": 2}),
        "zero": write(tmp_path / "zero.json", {"kind": "zero"}),
        "bichar": write(tmp_path / "bichar.json", {"kind": "table", "alpha": [
            [6.283185307179586 * a[0] * b[1] / n for b in coords] for a in coords]}),
        "cs": write(tmp_path / "cs.json", {"kind": "clockshift"}),
        "f": write(tmp_path / "f.json", [{"element": [1, 2], "re": 0.6, "im": 0.0},
                                         {"element": [3, 1], "re": 0.0, "im": 0.8}]),
        "out": str(tmp_path / "out.json"),
    }


@pytest.mark.parametrize("command", [
    ["fourier", "--cocycle", "zero", "--in", "f", "--rep", "character", "--roundtrip"],
    ["fourier", "--cocycle", "bichar", "--in", "f", "--rep", "matrix", "--roundtrip"],
    ["convolve", "--cocycle", "zero", "--in", "f", "--in2", "f"],
    ["verify", "--cocycle", "bichar"],
    ["verify"],
], ids=["fourier-character", "fourier-matrix", "convolve", "verify-table", "verify-zero"])
def test_commands_load_neither_lazy_module_nor_dataclasses(command, inputs, numpy_modules):
    argv = [inputs.get(a, a) for a in command]
    code, modules = loaded_modules(*argv, "--group", inputs["group"], "--out", inputs["out"])
    assert code == 0
    extra = modules - numpy_modules
    assert "projalg.cli" in extra
    assert not extra & set(LAZY)


@pytest.mark.parametrize("command", [
    ["clockshift", "--n", "4"],
    ["verify", "--group", "group", "--cocycle", "cs"],
])
def test_clockshift_commands_load_clockshift_only(command, inputs):
    code, modules = loaded_modules(*[inputs.get(a, a) for a in command],
                                   "--out", inputs["out"])
    assert code == 0
    assert "projalg.clockshift" in modules
    assert "projalg.calculus" not in modules


def test_numpy_alone_loads_no_dataclasses(numpy_modules):
    """Else the commands' check above could not see an eager dataclasses import."""
    assert "dataclasses" not in numpy_modules


def test_lazy_names_resolve_on_first_use():
    code = """
import sys
import projalg as pa
loaded = lambda: [m for m in ("projalg.calculus", "projalg.clockshift") if m in sys.modules]
first = loaded()
pa.measured_cocycle(3)
second = loaded()
assert callable(pa.check_leibniz) and pa.calculus.check_leibniz is pa.check_leibniz
namespace = {}
exec("from projalg import *", namespace)
print(first, second, loaded(), sorted(set(pa.__all__) - set(namespace)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.splitlines()[-1] == (
        "[] ['projalg.clockshift'] ['projalg.calculus', 'projalg.clockshift'] []")


def test_public_names_are_unchanged():
    assert pa.__all__ == ALL
    assert set(ALL) <= set(dir(pa))
    for name in ALL:
        assert getattr(pa, name) is not None
    assert pa.clockshift.measured_cocycle is pa.measured_cocycle
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        pa.missing  # noqa: B018


def test_check_result_construction_repr_and_equality():
    a = pa.CheckResult("c", 0.5, 1.0, True)
    b = pa.CheckResult(name="c", max_residual=0.5, tolerance=1.0, passed=True, detail=None)
    assert a == b and a.detail is None
    assert repr(a) == ("CheckResult(name='c', max_residual=0.5, tolerance=1.0, "
                       "passed=True, detail=None)")
    assert pa.CheckResult("c", 0.5, 1.0, True, "d") != a


def test_verification_report_construction_repr_and_equality():
    check = pa.CheckResult("c", 0.5, 1.0, True)
    a = pa.VerificationReport("s")
    assert a.checks == [] and a.elapsed_seconds is None
    assert a.checks is not pa.VerificationReport("s").checks
    b = pa.VerificationReport(suite="s", checks=[check], elapsed_seconds=2.0)
    assert repr(b) == ("VerificationReport(suite='s', checks=[CheckResult(name='c', "
                       "max_residual=0.5, tolerance=1.0, passed=True, detail=None)], "
                       "elapsed_seconds=2.0)")
    a.add("c", 0.5, 1.0)
    assert a != b
    a.elapsed_seconds = 2.0
    assert a == b and a != ("s", [check], 2.0)
    with pytest.raises(TypeError):
        hash(a)


def test_regular_rep_pair_construction_repr_and_equality():
    a = pa.RegularRepPair(1, 2, {}, {}, 3)
    assert a == pa.RegularRepPair(group=1, cocycle=2, R={}, L={}, C=3)
    assert repr(a) == "RegularRepPair(group=1, cocycle=2, R={}, L={}, C=3)"
    assert (a.group, a.cocycle, a.R, a.L, a.C) == (1, 2, {}, {}, 3)
