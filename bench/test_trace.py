"""Checks of the traced run; run with ``python3 -m pytest bench/test_trace.py``."""

import contextlib
import io
import math
import sys

import pytest

import workloads

sys.path.insert(0, str(workloads.SRC))
import tracing  # noqa: E402  (needs projalg on the path)

# Spans and counters that must fire on each workload.
EXPECTED = {
    "verify-finite": {
        "groups.canonical.calls", "cocycles.normalize", "cocycles.phase.calls",
        "algebra.product", "integration.completeness",
        "harmonic.deformed_convolution", "harmonic.plancherel"},
    "clockshift-torus": {
        "groups.canonical.calls", "integration.invert",
        "harmonic.deformed_convolution", "harmonic.matrix_rep",
        "harmonic.matrix_inverse", "clockshift.measure",
        "clockshift.consistency"},
    "lattice-sparse": {
        "groups.canonical.calls", "cocycles.normalize", "cocycles.phase.calls",
        "algebra.product", "integration.invert", "serialize.load",
        "report.dumps"},
    "transform-dense": {
        "cocycles.validate", "algebra.regular_reps",
        "harmonic.deformed_convolution", "harmonic.plancherel",
        "harmonic.character", "harmonic.matrix_inverse", "serialize.load",
        "report.dumps"},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass(workload, tmp_path):
    steps = workloads.build(workload, 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, argv in steps:
            with contextlib.redirect_stderr(io.StringIO()):
                assert tracer.run_cli(argv) == 0
    finally:
        tracer.uninstall()

    fired = {span[0] for span in tracer.spans} | {
        name for name, count in tracer.counts.items() if count}
    assert EXPECTED[workload] | {tracing.ROOT_SPAN} <= fired
    assert math.isclose(sum(tracer.self_times().values()),
                        tracer.root_seconds(), rel_tol=1e-9)
