"""The canonical JSON writer against the token-list writer it replaced."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import projalg as pa
from projalg import cli, report


def ref_dumps(obj) -> str:
    """The previous writer: one appended token per scalar and separator."""
    out: list[str] = []
    _ref_write(obj, out)
    return "".join(out)


def _ref_write(obj, out) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in report: {obj!r}")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _ref_write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _ref_write(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def outcome(fn, obj):
    try:
        return "ok", fn(obj)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
    # Rare bad leaves: non-finite floats and unserializable objects.
    st.sampled_from([math.nan, math.inf, -math.inf, b"x", {1}, 1j]))

documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        # Non-string keys: an int key alone, or mixed with str keys, which
        # sorted() itself rejects.
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)),
                        inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_matches_token_list_writer(doc):
    assert outcome(pa.dumps_canonical, doc) == outcome(ref_dumps, doc)


# Float arrays are written as the nested lists tolist() gives.
edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
                     1.7976931348623157e308, -1.7976931348623157e308]))

array_shapes = st.one_of(
    st.sampled_from([(), (0,), (0, 2), (2, 0), (2, 0, 2)]),
    hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))


@st.composite
def float_arrays(draw):
    a = draw(hnp.arrays(np.float64, array_shapes, elements=edge_floats))
    if a.size and draw(st.integers(0, 7)) == 0:
        a.flat[draw(st.integers(0, a.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    # A transposed view is written in its own C order, as tolist() reads it.
    return a.T if draw(st.booleans()) else a


def as_lists(doc):
    if isinstance(doc, np.ndarray):
        return as_dicts(doc) if doc.dtype.names else doc.tolist()
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(as_lists, doc))
    if isinstance(doc, dict):
        return {k: as_lists(v) for k, v in doc.items()}
    return doc


documents_with_arrays = st.recursive(
    st.one_of(scalars, float_arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(float_arrays())
def test_float_array_matches_its_lists(a):
    assert outcome(pa.dumps_canonical, a) == outcome(ref_dumps, a.tolist())


@settings(max_examples=200, deadline=None)
@given(documents_with_arrays)
def test_documents_with_arrays_match_their_lists(doc):
    # The first bad leaf in output order decides the error.
    assert outcome(pa.dumps_canonical, doc) == outcome(ref_dumps, as_lists(doc))


@pytest.mark.parametrize("a", [
    np.array([1, 2]), np.array([1j]), np.array([True]), np.array([1.0], dtype=object),
    np.zeros((2, 0), dtype=int), np.array([1.0], dtype=np.longdouble)])
def test_non_float_arrays_are_refused(a):
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        pa.dumps_canonical({"a": a})
    assert outcome(pa.dumps_canonical, a) == outcome(ref_dumps, a)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, ">f8"])
def test_other_float_dtypes_match_their_lists(dtype):
    a = np.random.default_rng(1).standard_normal((3, 4, 2)).astype(dtype)
    assert pa.dumps_canonical(a[:, ::2]) == ref_dumps(a[:, ::2].tolist())


@pytest.mark.parametrize("doc, error", [
    ({"a": [1, math.nan]}, ValueError),
    ([{"b": 1}, {2: "x"}], TypeError),
    ({"a": {1}}, TypeError),
    ({"a": 1, 2: 3}, TypeError),
    # The first bad leaf in output order decides the error.
    ([math.inf, object()], ValueError),
    ({"a": object(), "b": math.nan}, TypeError),
])
def test_errors_match_token_list_writer(doc, error):
    with pytest.raises(error):
        pa.dumps_canonical(doc)
    assert outcome(pa.dumps_canonical, doc) == outcome(ref_dumps, doc)


def test_report_bytes():
    report = pa.VerificationReport(suite="s")
    report.add("c", 1.25e-16, 1e-12, detail='quote " and é')
    expected = ('{"checks":[{"detail":"quote \\" and \\u00e9","max_residual":'
                '1.2500000000000001e-16,"name":"c","pass":true,"tolerance":'
                '9.9999999999999998e-13}],"pass":true,"suite":"s"}')
    assert report.to_json() == expected == ref_dumps(report.to_dict())


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
def test_a_tolerance_not_finite_and_above_zero_is_refused(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and above 0"):
        pa.VerificationReport(suite="s").add("c", 0.0, tol)
    g = pa.make_cyclic_power(2, 1)
    with pytest.raises(ValueError, match="tolerance must be finite and above 0"):
        pa.validate_cocycle(g, pa.zero_cocycle(g), tol=tol)


# 1-D structured arrays are written as the list of dicts their records spell.
field_names = st.sampled_from(["element", "im", "re", "q", "a%d", "%", "é"])
field_dtypes = st.sampled_from([np.float64, np.float32, np.float16, ">f8",
                                np.int64, np.int8, np.uint16, ">i4"])
field_shapes = st.sampled_from([(), (), (2,), (3,), (0,), (2, 2)])


@st.composite
def record_arrays(draw):
    names = draw(st.lists(field_names, min_size=1, max_size=4, unique=True))
    dtype = np.dtype([(n, draw(field_dtypes), draw(field_shapes)) for n in names])
    a = np.zeros(draw(st.integers(0, 5)), dtype=dtype)
    raw = a.view(np.uint8).reshape(len(a), dtype.itemsize)
    raw[...] = draw(hnp.arrays(np.uint8, raw.shape))  # any bits: every field value
    for name in names:
        column = a[name]
        if column.dtype.base.kind == "f" and column.size and draw(st.booleans()):
            # Mostly finite floats, with the edge values.
            with np.errstate(over="ignore"):  # to inf in float16/float32 fields, on purpose
                column[...] = draw(hnp.arrays(np.float64, column.shape, elements=edge_floats))
    return a[::-1] if draw(st.booleans()) else a  # a strided view too


def as_dicts(a: np.ndarray) -> list:
    columns = {name: a[name].tolist() for name in a.dtype.names}
    return [{name: column[i] for name, column in columns.items()} for i in range(len(a))]


@settings(max_examples=300, deadline=None)
@given(record_arrays())
def test_record_array_matches_its_dicts(a):
    # Float fields may hold NaN or inf: the first in output order decides the error.
    assert outcome(pa.dumps_canonical, a) == outcome(ref_dumps, as_dicts(a))
    assert outcome(pa.dumps_canonical, {"r": a}) == outcome(ref_dumps, {"r": as_dicts(a)})


def test_non_finite_record_field_names_the_first_value():
    a = np.zeros(3, dtype=[("element", np.int64, (2,)), ("im", float), ("re", float)])
    a["re"][1], a["im"][2], a["re"][2] = -math.inf, math.nan, math.inf
    with pytest.raises(ValueError, match=r"^non-finite float in report: -inf$"):
        pa.dumps_canonical(a)
    assert outcome(pa.dumps_canonical, a) == outcome(ref_dumps, as_dicts(a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_signalling_nan_record_field_raises_without_a_cast_warning():
    """A float32 signalling NaN is refused as non-finite: no float64 cast of
    the field, which would warn first, is made."""
    a = np.zeros(3, dtype=[("x", np.float32), ("y", float)])
    a["x"].view(np.uint32)[1] = 0x7FA00000
    a["y"][2] = math.inf
    with pytest.raises(ValueError, match=r"^non-finite float in report: nan$"):
        pa.dumps_canonical({"r": a})


@pytest.mark.parametrize("dtype", [
    [("flag", bool)], [("re", float), ("z", complex)], [("s", "U2")],
    [("inner", [("re", float)])], [("x", np.longdouble)], []])
def test_unsupported_record_fields_are_refused(dtype):
    a = np.zeros(2, dtype=dtype)
    with pytest.raises(TypeError, match="cannot serialize ndarray deterministically"):
        pa.dumps_canonical({"a": a})


def test_only_one_dimensional_record_arrays_are_written():
    a = np.zeros((2, 2), dtype=[("re", float)])
    with pytest.raises(TypeError, match="cannot serialize ndarray deterministically"):
        pa.dumps_canonical(a)


# -- streaming: the pieces the CLI writes one at a time ------------------------

streamed_documents = st.recursive(
    st.one_of(scalars, float_arrays(), record_arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=streamed_documents)
def test_streamed_pieces_match_the_oracle(tmp_path, doc):
    expected = outcome(ref_dumps, as_lists(doc))

    def joined(d):
        pieces = list(report.canonical_pieces(d))
        assert all(isinstance(p, str) and p for p in pieces)
        return "".join(pieces)

    assert outcome(joined, doc) == outcome(pa.dumps_canonical, doc) == expected
    out = tmp_path / "out.json"
    status, text = expected
    if status == "ok":
        cli._emit(doc, str(out))
        assert out.read_text(encoding="utf-8") == text + "\n"
    else:
        with pytest.raises((TypeError, ValueError)) as info:
            cli._emit(doc, str(out))
        assert (type(info.value).__name__, str(info.value)) == expected
        assert not out.exists()


def test_float_array_pieces_are_its_rows():
    a = np.arange(12.0).reshape(3, 2, 2)
    rows = [pa.dumps_canonical(r) for r in a]
    assert list(report.canonical_pieces({"m": a})) == [
        "{", '"m":', "[", rows[0], ",", rows[1], ",", rows[2], "]", "}"]


def test_streaming_a_matrix_holds_one_row_at_a_time(tmp_path):
    # The (Z_32)^2 matrix transform: 44 MB of text, written from 45 KB rows.
    a = np.random.default_rng(1).standard_normal((1024, 1024, 2))
    out = tmp_path / "m.json"
    tracemalloc.start()
    try:
        cli._emit({"transform": {"matrix": a}}, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    head = pa.dumps_canonical({"transform": {"matrix": a[:1]}})[:-4]
    tail = pa.dumps_canonical(a[-1])
    with out.open(encoding="utf-8") as fh:
        assert fh.read(len(head)) == head
        fh.seek(out.stat().st_size - len(tail) - 5)
        assert fh.read() == "," + tail + "]}}\n"


NAN_SECOND = {"a": np.zeros((2000, 2)), "b": np.array([1.0, math.nan])}


def test_failed_write_removes_the_partial_file(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(ValueError, match=r"^non-finite float in report: nan$"):
        cli._emit(NAN_SECOND, str(out))
    assert not out.exists()


def test_failed_write_to_stdout_keeps_the_pieces_before_the_error(capsys):
    with pytest.raises(ValueError, match=r"^non-finite float in report: nan$"):
        cli._emit(NAN_SECOND, None)
    # The float array "b" is checked whole before its first piece.
    assert capsys.readouterr().out == '{"a":' + pa.dumps_canonical(NAN_SECOND["a"]) + ',"b":'


@pytest.mark.parametrize("device, doc, error", [
    (os.devnull, NAN_SECOND, ValueError),
    pytest.param("/dev/full", {"a": 1}, cli.InputError, marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
])
def test_failed_write_to_a_device_removes_nothing(monkeypatch, device, doc, error):
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    monkeypatch.setattr(os, "unlink", removed.append)
    with pytest.raises(error):
        cli._emit(doc, device)
    assert removed == []
    assert os.path.exists(device)
