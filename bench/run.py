"""projalg benchmark: one workload as a closed loop of CLI invocations.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ``python -m projalg`` commands back to back,
each starting after the previous one exits, the way a CLI user works.  Inputs
are generated from ``--seed`` before timing.  After one untimed warm-up pass,
whole passes over the command sequence repeat while the next one is predicted
to end within ``--seconds``.

With ``--trace 0`` each invocation is a fresh process and the run reports
the end-to-end metrics:

* ``wall_s``: median over passes of a pass's wall time, in reference seconds;
* ``peak_rss_mb``: the largest peak RSS of any single invocation;
* ``setup_s``: median over SETUP_REPEATS of generating the inputs plus one
  cold ``python -c "import projalg"``, in reference seconds.

The shared 2-core hosts this runs on change speed by up to 2x within minutes,
far more than any useful bound.  So every pass starts with a fixed reference
process (REFERENCE_CODE: interpreter start, numpy import, a dict/complex loop
and a few matrix products, like a projalg command), and times are converted
to reference seconds: seconds x REFERENCE_S / the reference's time.  A pass
uses the median reference time of itself and its two neighbouring passes;
set-up uses the run's median.  Raw seconds are printed as text as well.

Per-subcommand medians (``verify_s`` and so on) and the fail ratio are
printed as text above the result line.

With ``--trace 1`` the commands run in-process through ``projalg.cli.main``,
untraced and then once with the span and counter wrappers of ``tracing.py``,
and the run reports the per-layer metrics.

Every invocation passes a correctness gate: exit code 0, every reported check
passing, every residual below its tolerance, and output bytes identical to the
earlier repeats of the same invocation in this run.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import select
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads

SETUP_REPEATS = 7
INVOCATION_TIMEOUT_S = 120.0

REFERENCE_CODE = """\
import cmath
import numpy as np
acc = {}
for i in range(150_000):
    key = (i % 61, i % 7)
    acc[key] = acc.get(key, 0j) + complex(i, -i) * cmath.exp(0.25j * (i % 5))
a = np.exp(1j * np.arange(250_000.0)).reshape(500, 500)
for _ in range(4):
    a = (a @ a) / 500
"""
# Typical seconds of REFERENCE_CODE on the 2-core host the bounds were set on.
REFERENCE_S = 0.35


class Gate:
    """Per-invocation correctness checks; counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.checks_failed = 0
        self._first: dict[int, bytes] = {}

    def record(self, key: int, exit_code: int, out_path: str) -> None:
        """Gate invocation ``key`` (its index in the workload) of any pass."""
        self.attempted += 1
        problem = None
        try:
            raw = Path(out_path).read_bytes()
            bad, total = _check_output(json.loads(raw))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raw, bad, total = None, 1, 1
            problem = f"unreadable output: {exc}"
        self.checks += total
        self.checks_failed += bad
        first = self._first.setdefault(key, raw)
        if exit_code != 0:
            problem = f"exit code {exit_code}"
        elif problem is None and bad:
            problem = f"{bad} of {total} checks failed"
        elif problem is None and raw != first:
            problem = "output differs from an earlier repeat"
        if problem is not None:
            self.failed += 1
            print(f"FAILED invocation {key}: {problem}", file=sys.stderr)


def _check_output(data: dict) -> tuple[int, int]:
    """(failed, total) checks in a report or a fourier/convolve output."""
    checks = data["checks"]
    records = list(checks.values()) if isinstance(checks, dict) else checks
    bad = 0
    for c in records:
        ok = c["pass"] is True
        if "max_residual" in c:
            ok = ok and c["max_residual"] < c["tolerance"]
        bad += not ok
    if data.get("pass", True) is not True:
        bad = max(bad, 1)
    return bad, len(records)


def _spawn(argv: list, env: dict, stderr_path: Path) -> tuple[int, float, int]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in KiB).

    The peak RSS comes from the child's own rusage via wait4, so an earlier,
    larger invocation cannot mask a later one.
    """
    with open(os.devnull, "wb") as null, open(stderr_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, null.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], INVOCATION_TIMEOUT_S)
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(workloads.SRC)}


def _setup(name: str, seed: int, work: Path) -> tuple[list, list]:
    """Generate inputs and import projalg cold, SETUP_REPEATS times.

    Returns (the workload's steps, setup seconds of each repeat).
    """
    env = _child_env()
    times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        steps = workloads.build(name, seed, work / f"setup{i}")
        code, _, _ = _spawn([sys.executable, "-c", "import projalg"], env,
                            work / "import.err")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError("cannot import projalg from "
                               f"{workloads.SRC}: exit code {code}")
    return steps, times


def _subprocess_pass(steps: list, gate: Gate, work: Path) -> dict:
    """The reference process, then one fresh process per invocation.

    Returns the reference's seconds and per-invocation seconds and peak RSS.
    """
    env = _child_env()
    code, reference, _ = _spawn([sys.executable, "-c", REFERENCE_CODE], env,
                                work / "reference.err")
    if code != 0:
        raise RuntimeError(f"reference process failed with exit code {code}")
    seconds, rss = [], []
    for key, (_, argv) in enumerate(steps):
        code, elapsed, maxrss = _spawn(
            [sys.executable, "-m", "projalg", *argv], env, work / f"err{key}.txt")
        gate.record(key, code, argv[-1])
        seconds.append(elapsed)
        rss.append(maxrss)
    return {"seconds": seconds, "rss_kib": rss, "reference": reference}


def _timed_passes(run_pass, seconds: float) -> tuple[dict, list]:
    """Warm up once, then repeat passes while the next should fit in seconds."""
    begin = time.perf_counter()
    warm = run_pass()
    durations = [time.perf_counter() - begin]
    passes = []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start
           + statistics.median(durations) <= seconds):
        begin = time.perf_counter()
        passes.append(run_pass())
        durations.append(time.perf_counter() - begin)
    return warm, passes


def _end_to_end(steps: list, gate: Gate, work: Path, seconds: float,
                setup: list) -> tuple[dict, list]:
    warm, passes = _timed_passes(lambda: _subprocess_pass(steps, gate, work),
                                 seconds)
    refs = [p["reference"] for p in (warm, *passes)]
    # Pass i is refs[i + 1]; its neighbours are refs[i] and refs[i + 2].
    scales = [REFERENCE_S / statistics.median(refs[i:i + 3])
              for i in range(len(passes))]
    walls = [sum(p["seconds"]) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup) * REFERENCE_S
                    / statistics.median(refs), "s"),
        "wall_s": (statistics.median(w * k for w, k in zip(walls, scales)),
                   "s"),
        "peak_rss_mb": (max(max(p["rss_kib"]) for p in passes) * 1024 / 1e6,
                        "MB"),
    }
    lines = [f"setup_s      {metrics['setup_s'][0]:10.4f} s    "
             f"median of {len(setup)}",
             f"wall_s       {metrics['wall_s'][0]:10.4f} s    "
             f"median of {len(walls)} passes"]
    for cmd in ("verify", "clockshift", "fourier", "convolve"):
        keys = [k for k, (c, _) in enumerate(steps) if c == cmd]
        if keys:
            per_pass = [sum(p["seconds"][k] for k in keys) * scale
                        for p, scale in zip(passes, scales)]
            lines.append(f"{cmd + '_s':<12} "
                         f"{statistics.median(per_pass):10.4f} s    "
                         f"median of {len(per_pass)} passes, "
                         f"{len(keys)} invocation(s) each")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:10.4f} MB   "
                 f"largest single invocation")
    lines.append(f"times above are reference seconds; raw: wall_s median "
                 f"{statistics.median(walls):.4f} s, setup_s median "
                 f"{statistics.median(setup):.4f} s, reference median "
                 f"{statistics.median(refs):.4f} s")
    return metrics, lines


def _inprocess_pass(steps: list, gate: Gate, run_cli) -> dict:
    """One pass through ``run_cli(argv)`` in this process: per-invocation seconds."""
    seconds = []
    for key, (_, argv) in enumerate(steps):
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
        seconds.append(time.perf_counter() - start)
        gate.record(key, code, argv[-1])
    return {"seconds": seconds}


def _per_layer(steps: list, gate: Gate, seconds: float,
               spans_path: Path) -> tuple[dict, list]:
    sys.path.insert(0, str(workloads.SRC))
    from projalg import cli
    import tracing

    _, passes = _timed_passes(lambda: _inprocess_pass(steps, gate, cli.main),
                              seconds)
    untraced = statistics.median(sum(p["seconds"]) for p in passes)

    tracer = tracing.Tracer()
    checks, checks_failed = gate.checks, gate.checks_failed
    tracer.install()
    try:
        traced = sum(_inprocess_pass(steps, gate, tracer.run_cli)["seconds"])
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    values = tracer.metrics()
    values["cli.checks"] = gate.checks - checks
    values["cli.checks_failed"] = gate.checks_failed - checks_failed
    values["trace.overhead_s"] = traced - untraced
    metrics = {k: (values[k], unit) for k, unit in tracing.METRICS.items()}
    lines = [f"{k:<38} {v:>16.6g} {unit}" for k, (v, unit) in metrics.items()]
    lines.append(f"untraced pass {untraced:.4f} s (median of {len(passes)}), "
                 f"traced pass {traced:.4f} s, {len(tracer.spans)} spans "
                 f"written to {spans_path}")
    return metrics, lines


def _blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _environment() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads={_blas_threads()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "projalg" / "__init__.py").is_file():
        print(f"error: no projalg sources under {workloads.SRC}", file=sys.stderr)
        return 2

    gate = Gate()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=workloads.ROOT) as tmp:
        work = Path(tmp)
        steps, setup = _setup(args.workload, args.seed, work)
        if args.trace:
            spans = workloads.ROOT / ".bench-spans" / (
                f"{args.workload}-{args.seed}.jsonl")
            metrics, lines = _per_layer(steps, gate, args.seconds, spans)
        else:
            metrics, lines = _end_to_end(steps, gate, work, args.seconds,
                                         setup)

    print(f"workload {args.workload} seed {args.seed}: closed loop, one client, "
          f"{len(steps)} invocations per pass")
    print(f"environment {_environment()}")
    for line in lines:
        print(line)
    print(f"fail_ratio   {gate.failed}/{gate.attempted} invocations")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
