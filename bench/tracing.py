"""Spans and counters around projalg's layers, installed from outside the package.

A :class:`Tracer` replaces each traced function in its defining module and in
every ``projalg`` module that bound it with ``from ... import`` (``cli`` binds
most of them), and replaces traced methods on their classes.  Spans are kept
in memory as ``(name, start, end, parent)`` records; a layer's self time is
its span's duration minus the durations of its direct child spans.

``calculus`` is not traced: no CLI command reaches it.  ``sampling`` and
``phases`` are helpers whose time counts inside their callers' spans.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from projalg import (algebra, cli, clockshift, cocycles, groups, harmonic,
                     integration, report, serialize)

ROOT_SPAN = "cli"

# (owner, attribute, span name, hook recording work counts as the span ends);
# several targets may share one span name.
SPANS = [
    (cocycles, "validate_cocycle", "cocycles.validate", "_on_validate"),
    (cocycles, "normalize", "cocycles.normalize", None),
    (algebra.AlgebraElement, "_product", "algebra.product", "_on_product"),
    (algebra, "regular_reps", "algebra.regular_reps", "_on_regular_reps"),
    (integration, "completeness_check", "integration.completeness", None),
    (integration, "invert", "integration.invert", "_on_invert"),
    (harmonic, "deformed_convolution", "harmonic.deformed_convolution",
     "_on_deformed_convolution"),
    (harmonic, "plancherel_values", "harmonic.plancherel", None),
    (harmonic, "character_matrix", "harmonic.character", None),
    (harmonic, "character_inverse", "harmonic.character", None),
    (harmonic.MatrixRepresentation, "__init__", "harmonic.matrix_rep",
     "_on_matrix_rep_init"),
    (harmonic.MatrixRepresentation, "transform", "harmonic.matrix_rep", None),
    (harmonic, "matrix_rep_inverse", "harmonic.matrix_inverse", None),
    (clockshift, "measured_cocycle", "clockshift.measure", "_on_measure"),
    (clockshift, "consistency_check", "clockshift.consistency", None),
    (serialize, "group_from_spec", "serialize.load", None),
    (serialize, "cocycle_from_spec", "serialize.load", None),
    (serialize, "function_from_spec", "serialize.load", None),
    (report, "dumps_canonical", "report.dumps", "_on_dumps"),
]

# Called millions of times inside the product loops: counted, not spanned.
COUNTERS = [
    (groups.FiniteTableGroup, "canonical", "groups.canonical.calls"),
    (groups.CyclicPowerGroup, "canonical", "groups.canonical.calls"),
    (groups.LatticeGroup, "canonical", "groups.canonical.calls"),
    (cocycles.TabulatedCocycle, "phase", "cocycles.phase.calls"),
    (cocycles.BilinearCocycle, "phase", "cocycles.phase.calls"),
    (cocycles.GaugedCocycle, "phase", "cocycles.phase.calls"),
]

SPAN_NAMES = sorted({span[2] for span in SPANS} | {ROOT_SPAN})

# Per-layer metric names and units, grouped by layer.
METRICS = {
    "groups.canonical.calls": "count",
    "cocycles.validate.self_s": "s",
    "cocycles.validate.triples": "count",
    "cocycles.validate.temp_bytes": "bytes",
    "cocycles.normalize.self_s": "s",
    "cocycles.phase.calls": "count",
    "algebra.product.self_s": "s",
    "algebra.product.calls": "count",
    "algebra.product.terms": "count",
    "algebra.product.terms_per_s": "1/s",
    "algebra.product.out_ratio": "ratio",
    "algebra.regular_reps.self_s": "s",
    "algebra.regular_reps.bytes": "bytes",
    "integration.completeness.self_s": "s",
    "integration.invert.self_s": "s",
    "integration.invert.products": "count",
    "harmonic.deformed_convolution.self_s": "s",
    "harmonic.deformed_convolution.terms": "count",
    "harmonic.plancherel.self_s": "s",
    "harmonic.character.self_s": "s",
    "harmonic.matrix_rep.self_s": "s",
    "harmonic.matrix_rep.matmuls": "count",
    "harmonic.matrix_inverse.self_s": "s",
    "clockshift.measure.self_s": "s",
    "clockshift.measure.calls": "count",
    "clockshift.measure.useful_ratio": "ratio",
    "clockshift.consistency.self_s": "s",
    "serialize.load.self_s": "s",
    "report.dumps.self_s": "s",
    "report.out_bytes": "bytes",
    "cli.self_s": "s",
    "cli.checks": "count",
    "cli.checks_failed": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    """Installs span and counter wrappers and collects what they record."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._root = -1                  # index of the current root span
        self._measured: set = set()      # (root span, n) per clockshift.measure

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _peak_memory(self, name: str, fn):
        """Record the peak of Python and numpy allocations inside fn(group, ...).

        Only on finite groups, whose checks are vectorized: on lattices the
        sampled Python loop is slowed by tracemalloc and allocates little.
        """
        counts = self.counts

        def wrapper(group, *args, **kwargs):
            if not group.is_finite:
                return fn(group, *args, **kwargs)
            tracemalloc.start()
            try:
                return fn(group, *args, **kwargs)
            finally:
                counts[name] += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        return wrapper

    # -- work counts recorded as spans end -------------------------------------

    def _on_validate(self, args, kwargs, result):
        group = args[0]
        self.counts["cocycles.validate.triples"] += (
            group.order ** 3 if group.is_finite else kwargs.get("samples", 1000))

    def _on_product(self, args, kwargs, result):
        self.counts["algebra.product.calls"] += 1
        self.counts["algebra.product.terms"] += len(args[0]) * len(args[1])
        self.counts["algebra.product.out"] += len(result)

    def _on_regular_reps(self, args, kwargs, result):
        self.counts["algebra.regular_reps.bytes"] += (
            sum(m.nbytes for m in result.R.values())
            + sum(m.nbytes for m in result.L.values()) + result.C.nbytes)

    def _on_invert(self, args, kwargs, result):
        self.counts["integration.invert.products"] += len(args[0])

    def _on_deformed_convolution(self, args, kwargs, result):
        self.counts["harmonic.deformed_convolution.terms"] += (
            len(args[0]) * len(args[1]))

    def _on_matrix_rep_init(self, args, kwargs, result):
        if kwargs.get("check", True):
            self.counts["harmonic.matrix_rep.matmuls"] += args[1].order ** 2

    def _on_measure(self, args, kwargs, result):
        self.counts["clockshift.measure.calls"] += 1
        self._measured.add((self._root, args[0]))

    def _on_dumps(self, args, kwargs, result):
        self.counts["report.out_bytes"] += len(result.encode("utf-8"))

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        """Swap ``owner.attr`` for ``wrapper`` wherever projalg binds it."""
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            homes = [(owner, attr)]
        else:
            homes = [(module, name)
                     for key, module in list(sys.modules.items())
                     if key == "projalg" or key.startswith("projalg.")
                     for name, value in vars(module).items()
                     if value is original]
        for home, name in homes:
            self._restore.append((home, name, original))
            setattr(home, name, wrapper)

    def install(self) -> None:
        for owner, attr, name, hook in SPANS:
            fn = owner.__dict__[attr]
            if name == "cocycles.validate":
                fn = self._peak_memory("cocycles.validate.temp_bytes", fn)
            self._replace(owner, attr, self._spanned(
                name, fn, getattr(self, hook) if hook else None))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr, self._counted(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._restore):
            setattr(home, attr, original)
        self._restore.clear()

    # -- running and reporting ----------------------------------------------

    def run_cli(self, argv: list) -> int:
        """One ``projalg`` command in-process, as a root span."""
        self._root = len(self.spans)
        return self._spanned(ROOT_SPAN, cli.main)(argv)

    def self_times(self) -> dict:
        """Self time per span name: duration minus direct children's durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == -1)

    def metrics(self) -> dict:
        """Per-layer values of :data:`METRICS`, except cli.checks* and trace.*."""
        selfs = self.self_times()
        c = self.counts
        out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPAN_NAMES}
        out.update((key, c[key]) for key, unit in METRICS.items()
                   if unit in ("count", "bytes") and not key.startswith("cli."))
        out["algebra.product.terms_per_s"] = _ratio(
            c["algebra.product.terms"], selfs.get("algebra.product", 0.0))
        out["algebra.product.out_ratio"] = _ratio(
            c["algebra.product.out"], c["algebra.product.terms"])
        out["clockshift.measure.useful_ratio"] = _ratio(
            len(self._measured), c["clockshift.measure.calls"])
        return out
