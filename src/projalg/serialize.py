"""JSON schemas for groups, cocycles, and group functions.

Group files:      {"kind": "cyclic_power", "n": 4, "d": 2}
                  {"kind": "lattice", "d": 2}
                  {"kind": "table", "elements": ["e", "a", ...], "table": [[...], ...]}
Cocycle files:    {"kind": "zero"}
                  {"kind": "bilinear", "theta": [[...], ...]}
                  {"kind": "table", "alpha": [[...], ...]}
                  {"kind": "coboundary", "phi": [...]}
                  {"kind": "clockshift"}            (cyclic_power with d = 2)
Function files:   [{"element": [..] | index, "re": ..., "im": ...}, ...]

Algebra elements share the function schema: a serialized element is the list
of its coefficients.
"""

from __future__ import annotations

import cmath

import numpy as np

from .algebra import AlgebraElement
from .clockshift import measured_cocycle
from .cocycles import (BilinearCocycle, Cocycle, GaugePhase, TabulatedCocycle,
                       coboundary, zero_cocycle)
from .groups import (CyclicPowerGroup, FiniteTableGroup, Group, LatticeGroup,
                     make_cyclic_power, make_finite_from_table, make_lattice)
from .integration import GroupFunction


def group_from_spec(spec: dict) -> Group:
    kind = spec.get("kind")
    if kind == "cyclic_power":
        return make_cyclic_power(int(spec["n"]), int(spec["d"]))
    if kind == "lattice":
        return make_lattice(int(spec["d"]))
    if kind == "table":
        return make_finite_from_table(spec["table"], spec.get("elements"))
    raise ValueError(f"unknown group kind {kind!r}")


def group_to_spec(group: Group) -> dict:
    if isinstance(group, CyclicPowerGroup):
        return {"kind": "cyclic_power", "n": group.n, "d": group.d}
    if isinstance(group, LatticeGroup):
        return {"kind": "lattice", "d": group.d}
    if isinstance(group, FiniteTableGroup):
        spec = {"kind": "table",
                "table": [[int(x) for x in row] for row in group.index_table()]}
        if group.names is not None:
            spec["elements"] = list(group.names)
        return spec
    raise TypeError(f"cannot serialize {type(group).__name__}")


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
        return measured_cocycle(group.n)
    raise ValueError(f"unknown cocycle kind {kind!r}")


def element_to_key(a) -> "int | list[int]":
    if isinstance(a, tuple):
        return [int(x) for x in a]
    return int(a)


def function_from_spec(items, group: Group) -> GroupFunction:
    if not isinstance(items, list):
        raise ValueError("a function file is a JSON list of "
                         '{"element", "re", "im"} records')
    values: dict = {}
    for rec in items:
        elem = rec["element"]
        a = group.canonical(tuple(elem) if isinstance(elem, list) else elem)
        v = complex(float(rec.get("re", 0.0)), float(rec.get("im", 0.0)))
        if not cmath.isfinite(v):
            raise ValueError(f"coefficient of element {elem} is not finite")
        values[a] = values.get(a, 0j) + v
    return GroupFunction(group, values)


def function_to_spec(f: GroupFunction) -> list:
    g = f.group
    recs = sorted(f.items(), key=lambda kv: g.element_index(kv[0])
                  if g.is_finite else kv[0])
    return [{"element": element_to_key(a), "re": v.real, "im": v.imag}
            for a, v in recs]


def element_to_spec(u: AlgebraElement) -> list:
    """Serialize an algebra element's coefficients (same schema as functions)."""
    return function_to_spec(GroupFunction(u.group, dict(u.items())))


def element_from_spec(items, group: Group, cocycle: Cocycle) -> AlgebraElement:
    f = function_from_spec(items, group)
    return AlgebraElement(group, cocycle, dict(f.items()))


def matrix_to_spec(mat: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = np.asarray(mat, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]
