"""JSON schemas for groups, cocycles, and group functions.

Group files:      {"kind": "cyclic_power", "n": 4, "d": 2}
                  {"kind": "lattice", "d": 2}
                  {"kind": "table", "elements": ["e", "a", ...], "table": [[...], ...]}
Cocycle files:    {"kind": "zero"}
                  {"kind": "bilinear", "theta": [[...], ...]}
                  {"kind": "table", "alpha": [[...], ...]}
                  {"kind": "coboundary", "phi": [...]}
                  {"kind": "clockshift"}  ((Z_n)^2 with n >= 2, n^2 <= VALIDATION_ORDER_LIMIT)
Function files:   [{"element": [..] | index, "re": ..., "im": ...}, ...]

Algebra elements share the function schema: a serialized element is the list
of its coefficients.  Outputs hold the records in one structured array.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, _coefficients
from .clockshift import _require_supported, measured_cocycle
from .cocycles import (BilinearCocycle, Cocycle, GaugePhase, TabulatedCocycle,
                       coboundary, zero_cocycle)
from .groups import (DIMENSION_LIMIT, VALIDATION_ORDER_LIMIT, CyclicPowerGroup,
                     FiniteTableGroup, Group, make_cyclic_power,
                     make_finite_from_table, make_lattice)
from .integration import GroupFunction


def group_from_spec(spec: dict) -> Group:
    """The group of a spec, whose n and D may not be a bool or a float with a
    fraction.  D above DIMENSION_LIMIT is refused before (Z_n)^D computes n**D;
    an order above VALIDATION_ORDER_LIMIT, after it."""
    kind = spec.get("kind")
    if kind == "table":
        return make_finite_from_table(spec["table"], spec.get("elements"))
    if kind not in ("cyclic_power", "lattice"):
        raise ValueError(f"unknown group kind {kind!r}")
    for field in ("d",) if kind == "lattice" else ("d", "n"):
        v = spec.get(field)  # int() would truncate these; a missing field fails below
        if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
            raise ValueError(f"group field {field!r} must be an integer, got {v!r}")
    d = int(spec["d"])
    if d > DIMENSION_LIMIT:
        raise ValueError(f"group dimension {d} exceeds the limit {DIMENSION_LIMIT}")
    if kind == "lattice":
        return make_lattice(d)
    group = make_cyclic_power(int(spec["n"]), d)
    if group.order > VALIDATION_ORDER_LIMIT:
        # str() refuses ints past 4300 digits, so a long order is named as n**D.
        order = group.order if group.order.bit_length() <= 256 else f"{group.n}**{d}"
        raise ValueError(f"group order {order} exceeds the limit "
                         f"{VALIDATION_ORDER_LIMIT} of finite groups")
    return group


def cocycle_from_spec(spec: dict, group: Group) -> Cocycle:
    kind = spec.get("kind")
    if kind == "zero":
        return zero_cocycle(group)
    if kind == "bilinear":
        return BilinearCocycle(group, spec["theta"])
    if kind == "table":
        return TabulatedCocycle(group, spec["alpha"])
    if kind == "coboundary":
        if not group.is_finite:
            raise ValueError(
                "list-backed coboundary phases need a finite group")
        return coboundary(group, GaugePhase.from_table(group, spec["phi"]))
    if kind == "clockshift":
        if not (isinstance(group, CyclicPowerGroup) and group.d == 2):
            raise ValueError(
                "the clockshift cocycle lives on cyclic_power groups with d = 2")
        _require_supported(group.n)
        return measured_cocycle(group.n)
    raise ValueError(f"unknown cocycle kind {kind!r}")


def function_from_spec(items, group: Group) -> GroupFunction:
    if not isinstance(items, list):
        raise ValueError("a function file is a JSON list of "
                         '{"element", "re", "im"} records')
    pairs = [(rec["element"],
              complex(float(rec.get("re", 0.0)), float(rec.get("im", 0.0))))
             for rec in items]
    return GroupFunction._wrap(group, *_coefficients(group, pairs))


def function_to_spec(f: "GroupFunction | AlgebraElement") -> np.ndarray:
    """The records of ``f`` in index order on a finite group (lexicographic
    order of the coordinates on (Z_n)^D), lexicographic order on Z^D."""
    order = np.lexsort(f._keys.T[::-1])
    keys = f._keys[order]
    if isinstance(f.group, FiniteTableGroup):
        keys = keys[:, 0]
    elif isinstance(f.group, CyclicPowerGroup):
        keys = np.stack(np.unravel_index(keys[:, 0], (f.group.n,) * f.group.d), axis=-1)
    return _records("element", keys, f._vals[order])


def character_to_spec(table: np.ndarray) -> np.ndarray:
    """The records of a character table, q in C order."""
    return _records("q", np.indices(table.shape).reshape(table.ndim, -1).T, table.ravel())


def _records(name: str, elements: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.empty(len(values), dtype=[(name, np.int64, elements.shape[1:]),
                                       ("im", float), ("re", float)])
    out[name], out["im"], out["re"] = elements, values.imag, values.real
    return out


def matrix_to_spec(mat: np.ndarray) -> np.ndarray:
    """The (rows, cols, 2) float array of [re, im] pairs; a view of C-ordered complex."""
    m = np.ascontiguousarray(mat, dtype=complex)
    return m.view(np.float64).reshape(*m.shape, 2)
