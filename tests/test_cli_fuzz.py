"""Fuzz the command line over malformed group, cocycle and function specs.

Every input ends in exit 0, 1 or 2, no exception escapes ``cli.main`` and
no warning is raised; a refusal (exit 2) prints exactly one ``error:`` line
on stderr.  Every group that is accepted has order <= 64, so an example
runs in milliseconds: large sizes appear only in specs refused before any
array is built.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from projalg import cli

# Small valid values, then values refused before any array is built.
SMALL_N = st.sampled_from([1, 2, 3, 4, 8])
SMALL_D = st.sampled_from([1, 2])
BAD_INT = st.sampled_from([0, -1, -7, 65, 10 ** 6, 10 ** 12, 2 ** 64, 10 ** 400])
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.sampled_from([math.nan, math.inf, -math.inf, 2.5, -0.0, 1e308]),
                 st.just([1, 2]), st.just({"a": 1}))


def spelled(ints):
    """An integer as JSON may carry it: a number, a float or a string."""
    return ints.flatmap(lambda k: st.sampled_from([k, str(k), float(k)])
                        if abs(k) < 2 ** 53 else st.sampled_from([k, str(k)]))


def with_key_changes(spec_strategy):
    """Specs with one key dropped, or its value replaced by junk."""
    def mutate(spec, draw_key, junk, drop):
        spec = dict(spec)
        key = sorted(spec)[draw_key % len(spec)]
        if drop:
            del spec[key]
        else:
            spec[key] = junk
        return spec
    return st.builds(mutate, spec_strategy, st.integers(0, 9), JUNK, st.booleans())


def z_table(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
            [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]  # S_3

# Accepted groups, as (spec, coordinates per element or None for tables, order).
VALID_GROUPS = st.one_of(
    st.tuples(SMALL_N, SMALL_D).flatmap(lambda nd: st.tuples(
        st.builds(lambda n, d: {"kind": "cyclic_power", "n": n, "d": d},
                  spelled(st.just(nd[0])), spelled(st.just(nd[1]))),
        st.just(nd[1]), st.just(nd[0] ** nd[1]))),
    st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(
        spelled(st.just(d)).map(lambda x: {"kind": "lattice", "d": x}),
        st.just(d), st.none())),
    st.integers(1, 6).map(lambda k: ({"kind": "table", "table": z_table(k)}, None, k)),
    st.just(({"kind": "table", "table": S3_TABLE}, None, 6)),
)

FLOAT = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([1e200, -1e308, 1e308]), JUNK)
SMALL_FLOAT = st.floats(-4.0, 4.0)
# Coefficients; the large ones are finite, but their products overflow float64.
VALUE = st.one_of(SMALL_FLOAT, st.sampled_from([1e155, -1e200, 1e308]))


def valid_cocycles(spec, d, order):
    """Cocycle specs that parse on the group; some fail the constraint."""
    if order is None:
        form = st.lists(st.lists(SMALL_FLOAT, min_size=d, max_size=d),
                        min_size=d, max_size=d)
        return st.one_of(st.just({"kind": "zero"}),
                         form.map(lambda t: {"kind": "bilinear", "theta": t}),
                         st.just({"kind": "bilinear", "theta": [[1e200] * d] * d}))
    choices = [st.just({"kind": "zero"}),
               st.lists(SMALL_FLOAT, min_size=order - 1, max_size=order - 1).map(
                   lambda p: {"kind": "coboundary", "phi": [0.0, *p]}),
               st.lists(st.lists(SMALL_FLOAT, min_size=order, max_size=order),
                        min_size=order, max_size=order).map(
                   lambda t: {"kind": "table", "alpha": t})]
    if spec["kind"] == "cyclic_power" and d == 2 and order > 1:
        choices.append(st.just({"kind": "clockshift"}))
    return st.one_of(choices)


def valid_functions(d, order):
    element = (st.integers(0, order - 1) if d is None
               else st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    record = st.fixed_dictionaries({"element": element},
                                   optional={"re": VALUE, "im": VALUE})
    return st.lists(record, max_size=4)


MALFORMED_GROUPS = st.one_of(
    st.builds(lambda n, d: {"kind": "cyclic_power", "n": n, "d": d},
              st.one_of(spelled(SMALL_N), spelled(BAD_INT)), spelled(BAD_INT)),
    st.builds(lambda n: {"kind": "cyclic_power", "n": n, "d": 1},
              spelled(st.sampled_from([2000, 10 ** 9]))),
    spelled(BAD_INT).map(lambda d: {"kind": "lattice", "d": d}),
    st.builds(lambda rows: {"kind": "table", "table": rows},
              st.lists(st.lists(st.one_of(st.integers(-2, 4), JUNK), max_size=4),
                       max_size=4)),
    with_key_changes(st.just({"kind": "cyclic_power", "n": 3, "d": 2})),
    with_key_changes(st.just({"kind": "lattice", "d": 2})),
    JUNK,
)

MALFORMED_COCYCLES = st.one_of(
    st.builds(lambda t: {"kind": "bilinear", "theta": t},
              st.lists(st.lists(FLOAT, min_size=1, max_size=3), min_size=1,
                       max_size=3)),
    st.builds(lambda x: {"kind": "bilinear", "theta": [[x, 0.0], [0.0, x]]},
              st.sampled_from([1e300, 1e308, -1e308])),
    st.builds(lambda t: {"kind": "table", "alpha": t},
              st.lists(st.lists(FLOAT, max_size=4), max_size=4)),
    st.builds(lambda p: {"kind": "coboundary", "phi": p}, st.lists(FLOAT, max_size=8)),
    with_key_changes(st.just({"kind": "bilinear", "theta": [[0.0, 1.0], [-1.0, 0.0]]})),
    st.just({"kind": "clockshift"}),
    JUNK,
)

COORD = st.one_of(st.integers(-9, 9), st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 60]),
                  JUNK)
MALFORMED_FUNCTIONS = st.one_of(
    st.lists(st.fixed_dictionaries(
        {"element": st.one_of(st.lists(COORD, max_size=3), COORD)},
        optional={"re": FLOAT, "im": FLOAT}), min_size=1, max_size=4),
    JUNK,
    st.lists(JUNK, min_size=1, max_size=2),
)

COMMANDS = st.sampled_from([
    ["verify"], ["fourier"], ["fourier", "--rep", "character", "--roundtrip"],
    ["fourier", "--rep", "matrix", "--roundtrip"], ["convolve"]])


@st.composite
def cli_inputs(draw):
    """(command, group, cocycle, function): a valid set, then at most one
    part replaced by a malformed spec, as JSON text."""
    group, d, order = draw(VALID_GROUPS)
    parts = {"group": group, "cocycle": draw(valid_cocycles(group, d, order)),
             "function": draw(valid_functions(d, order))}
    broken = draw(st.sampled_from([None, *parts]))
    if broken is not None:
        parts[broken] = draw({"group": MALFORMED_GROUPS, "cocycle": MALFORMED_COCYCLES,
                              "function": MALFORMED_FUNCTIONS}[broken])
    return (draw(COMMANDS), *(as_text(parts[k]) for k in ("group", "cocycle", "function")))


def as_text(spec):
    return json.dumps(spec)


def run_main(command, group, cocycle, function):
    """cli.main on the three file contents; (code, stderr, warnings).

    Warnings are recorded, since a command-line run would print them on stderr.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, content in (("g", group), ("c", cocycle), ("f", function)):
            path = Path(tmp) / f"{name}.json"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            paths.append(str(path))
        argv = [command[0], "--group", paths[0], "--cocycle", paths[1],
                "--out", str(Path(tmp) / "out.json"), *command[1:]]
        if command[0] != "verify":
            argv += ["--in", paths[2]]
        if command[0] == "convolve":
            argv += ["--in2", paths[2]]
        err = io.StringIO()
        with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


LONG_LITERAL = '{"kind": "lattice", "d": ' + "1" * 5000 + "}"
DEEP = "[" * 100_000 + "]" * 100_000
NOT_UTF8 = b'\xff\xfe{"kind": "zero"}'
OVERFLOWING_FORM = as_text({"kind": "bilinear", "theta": [[1e308, 0.0], [0.0, 1e308]]})
Z2 = as_text({"kind": "lattice", "d": 2})
ZERO = as_text({"kind": "zero"})
F = as_text([{"element": [1, 2], "re": 0.5, "im": 0.0}])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.large_base_example])
@given(cli_inputs())
@example((["verify"], Z2, OVERFLOWING_FORM, F))
@example((["convolve"], Z2, OVERFLOWING_FORM, F))
@example((["verify"], LONG_LITERAL, ZERO, F))
@example((["verify"], DEEP, ZERO, F))
@example((["verify"], NOT_UTF8, ZERO, F))
@example((["fourier"], Z2, ZERO, '[{"element": [1, 2], "re": ' + "7" * 5000 + "}]"))
@example((["fourier"], Z2, NOT_UTF8, DEEP))
@example((["fourier"], Z2, ZERO, as_text([{"element": [1, 1], "re": 1e200}])))
@example((["convolve"], as_text({"kind": "cyclic_power", "n": 3, "d": 2}), ZERO,
          as_text([{"element": [1, 1], "re": 1e200}])))
@example((["fourier", "--rep", "character", "--roundtrip"],
          as_text({"kind": "cyclic_power", "n": 2, "d": 1}), ZERO,
          as_text([{"element": [0], "im": 1e308}])))
def test_every_spec_is_accepted_or_refused_in_one_line(inputs):
    command, group, cocycle, function = inputs
    code, err, caught = run_main(command, group, cocycle, function)
    event(f"{command[0]} exit {code}")
    assert code in (0, 1, 2)
    assert caught == []
    if code == 2:
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert err.count("error:") == 1


def test_a_dimension_written_as_a_string_is_refused_at_once(tmp_path):
    """(Z_3)^D with D = "100000000" would compute 3**D; it must exit 2 first."""
    group = tmp_path / "g.json"
    group.write_text(as_text({"kind": "cyclic_power", "n": 3, "d": "100000000"}))
    proc = subprocess.run([sys.executable, "-m", "projalg", "verify",
                           "--group", str(group)],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "group dimension 100000000 exceeds the limit 64" in proc.stderr


Z3SQ = as_text({"kind": "cyclic_power", "n": 3, "d": 2})


def assert_refused(code, err, caught, *needles):
    assert (code, caught) == (2, [])
    assert err.startswith("error: ") and err.count("\n") == 1
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("command", ["verify", "fourier", "convolve"])
@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "0", "-1"])
def test_a_tolerance_not_finite_and_above_zero_is_refused(command, tol):
    """A NaN or infinite --tol cannot be written to a report, and one at or below
    0 fails every check: each is refused before any input is read."""
    assert_refused(*run_main([command, "--tol", tol], Z3SQ, ZERO, F),
                   "tol must be finite and above 0")


@pytest.mark.parametrize("spec, named", [
    ({"kind": "cyclic_power", "n": 4.7, "d": 2}, "'n' must be an integer, got 4.7"),
    ({"kind": "cyclic_power", "n": True, "d": 2}, "'n' must be an integer, got True"),
    ({"kind": "cyclic_power", "n": 3, "d": 2.9}, "'d' must be an integer, got 2.9"),
    ({"kind": "lattice", "d": 2.5}, "'d' must be an integer, got 2.5")],
    ids=["n-fraction", "n-bool", "d-fraction", "lattice-d-fraction"])
def test_a_group_field_that_int_would_truncate_is_refused(spec, named):
    assert_refused(*run_main(["verify"], as_text(spec), ZERO, F), named)
