"""Structured pass/fail reports with deterministic JSON serialization.

Reports collect named numeric checks (max residual vs. tolerance). The JSON
form is canonical: keys sorted, floats printed with 17 significant digits
(round-trip safe for doubles), no whitespace variation.  Wall-clock timing is
kept on the object but deliberately left out of the serialization so that
identical runs produce byte-identical files.  A float array of up to 64 bits,
whose ``tolist()`` gives Python floats, is written as those nested lists, and
a 1-D structured array of such float and integer fields as a list of objects.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    detail: str | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.detail is not None:
            d["detail"] = self.detail
        return d

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: residual {self.max_residual:.3e}"
                f" (tol {self.tolerance:.1e})")


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float | None = None

    def add(self, name: str, max_residual: float, tolerance: float,
            detail: str | None = None) -> CheckResult:
        if not 0 < float(tolerance) < math.inf:
            raise ValueError(f"tolerance must be finite and above 0, got {tolerance!r}")
        res = CheckResult(name, float(max_residual), float(tolerance),
                          bool(float(max_residual) < float(tolerance)), detail)
        self.checks.append(res)
        return res

    def extend(self, other: "VerificationReport", prefix: str | None = None) -> None:
        for c in other.checks:
            name = f"{prefix}.{c.name}" if prefix else c.name
            self.checks.append(CheckResult(name, c.max_residual, c.tolerance,
                                           c.passed, c.detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_dict())

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        return [c.summary() for c in self.checks] + [f"suite {self.suite}: {status}"]


def dumps_canonical(obj) -> str:
    """Deterministic JSON text for reports and CLI outputs."""
    return "".join(canonical_pieces(obj))


def canonical_pieces(obj):
    """``dumps_canonical(obj)`` in pieces, for a writer that holds one at a time:
    a str per outer row of a float array (or of an iterator of its row blocks), per
    block of 256 records, and per bracket, comma and ``"key":`` of lists and dicts.
    Errors come in output order."""
    # Floats come first: they are most of every output.
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in report: {obj!r}")
        yield format(obj, ".17g")
    elif obj is None or isinstance(obj, (bool, str)):
        yield json.dumps(obj)  # null, true, false or an ASCII-quoted string
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, np.ndarray) and obj.dtype.type in _FLOATS:
        yield from _float_array((obj,)) if obj.ndim else canonical_pieces(obj.tolist())
    elif isinstance(obj, Iterator):
        yield from _float_array(obj)
    elif isinstance(obj, np.ndarray) and obj.dtype.names and obj.ndim == 1:
        yield from _record_blocks(obj)
    elif isinstance(obj, (list, tuple)):
        yield from _joined("[", map(canonical_pieces, obj), "]")
    elif isinstance(obj, dict):
        # sorted() rejects str keys mixed with others, so a non-str key is
        # the first key: checking all keys before any value raises the
        # error a key-by-key check would.
        keys = sorted(obj)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
        members = (chain((_quote(k) + ":",), canonical_pieces(obj[k])) for k in keys)
        yield from _joined("{", members, "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def _joined(first: str, parts, last: str):
    """``first``, the pieces of each part with "," between parts, ``last``."""
    yield first
    for i, part in enumerate(parts):
        if i:
            yield ","
        yield from part
    yield last


_FLOATS = (np.half, np.single, np.double)  # tolist() gives Python floats


def _float_array(blocks):
    """The float array whose rows the arrays ``blocks`` hold, each checked first."""
    sep = "["
    for b in blocks:
        if not (isinstance(b, np.ndarray) and b.dtype.type in _FLOATS and b.ndim):
            raise TypeError(f"cannot serialize {type(b).__name__} deterministically")
        _require_finite(b)
        row = _template("%.17g", b.shape[1:])  # format(x, ".17g") of each Python float
        for r in b:
            yield sep
            yield row % tuple(r.ravel().tolist())
            sep = ","
    yield "]" if sep == "," else "[]"


def _require_finite(a: np.ndarray) -> None:
    # min and max propagate NaN, and they allocate no array of a's size.
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        finite = np.isfinite(a).ravel()
        raise ValueError(f"non-finite float in report: {float(a.ravel()[finite.argmin()])!r}")


def _template(spec: str, shape: tuple) -> str:
    for n in reversed(shape):
        spec = "[" + ",".join([spec] * n) + "]"
    return spec


def _record_blocks(a: np.ndarray):
    """Objects with sorted keys, one %-template per row, filled from ``flat``:
    a view of ``a`` with one scalar field per value, in key order."""
    names, formats, offsets, parts = [], [], [], []
    for key in sorted(a.dtype.names):
        field, offset = a.dtype.fields[key][:2]
        base, count = field.base, math.prod(field.shape)
        if base.type not in _FLOATS and base.kind not in "iu":
            raise TypeError(f"cannot serialize {type(a).__name__} deterministically")
        spec = _template("%.17g" if base.kind == "f" else "%d", field.shape)
        parts.append(_quote(key).replace("%", "%%") + ":" + spec)
        names += [str(len(names) + i) for i in range(count)]
        formats += [base] * count
        offsets += range(offset, offset + count * base.itemsize, base.itemsize)
    flat = a.view(np.dtype({"names": names, "formats": formats, "offsets": offsets,
                            "itemsize": a.dtype.itemsize}))
    floats = [flat[n] for n, f in zip(names, formats) if f.kind == "f"]
    # Each field's flags in its own dtype, in output order: a cast warns on a signalling NaN.
    if floats and not (finite := np.stack([np.isfinite(x) for x in floats], -1)).all():
        i, j = divmod(int(finite.argmin()), len(floats))
        raise ValueError(f"non-finite float in report: {float(floats[j][i])!r}")
    row = "{" + ",".join(parts) + "}"
    # A str per block of rows, not per row of the whole array at once.
    blocks = ((",".join([row % r.item() for r in flat[i:i + 256]]),)
              for i in range(0, len(flat), 256))
    return _joined("[", blocks, "]")
