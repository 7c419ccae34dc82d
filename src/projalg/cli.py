"""Command-line interface: verification suites, transforms, convolutions.

All outputs are canonical JSON (sorted keys, 17-significant-digit floats),
so identical configs and seeds produce byte-identical files.  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 unreadable or invalid
input, or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain

from . import sampling
from .algebra import self_conjugacy_residual
from .cocycles import Cocycle, check_identities, normalize, validate_cocycle
from .errors import RepresentationInconsistencyError
from .groups import CyclicPowerGroup, Group
from .harmonic import (FormalRepresentation, _is_zero_cocycle,
                       character_inverse, character_transform,
                       convolution_theorem_residual, convolution_theorem_trials,
                       deformed_convolution, fourier, matrix_rep_inverse,
                       plancherel_trials, plancherel_values, regular_matrix_rep)
from .integration import GroupFunction, completeness_check, invert
from .report import CheckResult, VerificationReport, canonical_pieces
from .serialize import (character_to_spec, cocycle_from_spec,
                        function_from_spec, function_to_spec, group_from_spec,
                        matrix_to_spec)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

VERIFY_TRIALS = 50

# The package's own errors derive from ValueError or TypeError.
_INPUT_ERRORS = (ValueError, TypeError, KeyError, AttributeError, OverflowError)


class InputError(Exception):
    """Unreadable or structurally invalid configuration input."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # ValueError covers bad UTF-8 and int literals past Python's digit limit.
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _parse(path: str | None, what: str, build, spec, *args):
    """build(spec, *args), where spec was read from ``path``; bad data is an input error."""
    try:
        return build(spec, *args)
    except _INPUT_ERRORS as exc:
        raise InputError(f"invalid {what} file {path}: {exc}") from exc


def _load_function(path: str, group: Group) -> GroupFunction:
    return _parse(path, "function", function_from_spec, _load_json(path), group)


def _parse_seed(text: str) -> int:
    try:
        seed = int(text, 16)
    except ValueError as exc:
        raise InputError(f"seed must be hexadecimal, got {text!r}") from exc
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {text!r}")
    return seed


def _config(args) -> argparse.Namespace:
    """The group, cocycle, cocycle_kind, tol, seed and out of a command's arguments."""
    if args.tol is not None and not 0 < args.tol < float("inf"):
        raise InputError(f"tol must be finite and above 0, got {args.tol!r}")
    group = _parse(args.group, "group", group_from_spec, _load_json(args.group))
    spec = {"kind": "zero"} if args.cocycle is None else _load_json(args.cocycle)
    cocycle = _parse(args.cocycle, "cocycle", cocycle_from_spec, spec, group)
    return argparse.Namespace(group=group, cocycle=cocycle, cocycle_kind=str(spec.get("kind")),
                              tol=args.tol, seed=_parse_seed(args.seed), out=args.out)


def _emit(doc, out: str | None) -> None:
    """Write ``doc`` as canonical JSON and a newline to ``out`` or stdout, a piece
    at a time.  A failed write removes a partial regular file ``out``."""
    if out is None:
        sys.stdout.writelines(chain(canonical_pieces(doc), ["\n"]))
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc
    try:
        with fh:
            fh.writelines(chain(canonical_pieces(doc), ["\n"]))
    except BaseException as exc:
        if os.path.isfile(out):  # never a device such as /dev/null
            os.remove(out)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {out}: {exc}") from exc
        raise


def _tol(cfg: argparse.Namespace, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


def _check_dict(residual: float, tolerance: float) -> dict:
    return {"max_residual": float(residual), "tolerance": float(tolerance),
            "pass": bool(residual < tolerance)}


# -- verify ----------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _config(args)
    group, alpha = cfg.group, cfg.cocycle
    started = time.perf_counter()
    report = VerificationReport(suite="verify")

    validation = validate_cocycle(group, alpha, tol=_tol(cfg, 1e-10),
                                  seed=cfg.seed)
    report.extend(validation)
    if validation.passed:  # the other checks need a valid cocycle
        alpha_n, _ = normalize(group, alpha, validate=False)
        report.extend(check_identities(group, alpha_n, tol=_tol(cfg, 1e-10),
                                       seed=cfg.seed), prefix="identities")

        if group.is_finite:
            report.add("self_conjugacy", self_conjugacy_residual(group, alpha_n),
                       _tol(cfg, 1e-12))
            report.extend(completeness_check(group, alpha_n, tol=_tol(cfg, 1e-12)))

        rng = sampling.rng_from_seed(cfg.seed)
        report.add("plancherel", plancherel_trials(alpha_n, rng, VERIFY_TRIALS),
                   _tol(cfg, 1e-12), detail=f"{VERIFY_TRIALS} random functions")

        if group.is_finite:  # on a lattice every product is the kernel itself
            worst = convolution_theorem_trials(regular_matrix_rep(group, alpha_n), rng,
                                               VERIFY_TRIALS)
            report.add("convolution_theorem", worst, _tol(cfg, 1e-12),
                       detail=f"{VERIFY_TRIALS} random pairs, regular picture, relative")

        if cfg.cocycle_kind == "clockshift":
            from .clockshift import consistency_check
            report.extend(consistency_check(group.n, seed=cfg.seed, tol=cfg.tol),
                          prefix="clockshift")

    report.elapsed_seconds = time.perf_counter() - started
    return _finish(report, cfg.out)


def _finish(report: VerificationReport, out: str | None) -> int:
    _emit(report.to_dict(), out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    if report.elapsed_seconds is not None:
        print(f"suite {report.suite} finished in {report.elapsed_seconds:.3f}s",
              file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- fourier ---------------------------------------------------------------


def _normalized(cfg: argparse.Namespace) -> Cocycle:
    """Normalize the configured cocycle; invalid data is an input error here."""
    try:
        alpha_n, _ = normalize(cfg.group, cfg.cocycle, seed=cfg.seed)
    except ValueError as exc:
        raise InputError(f"cocycle is not usable: {exc}") from exc
    return alpha_n


def cmd_fourier(args) -> int:
    cfg = _config(args)
    group = cfg.group
    f = _load_function(args.infile, group)
    torus = args.rep == "matrix" and cfg.cocycle_kind == "clockshift"
    if torus:  # the torus realization validates and normalizes the measured cocycle itself
        from .clockshift import matrix_representation
        rep = matrix_representation(group.n)
    alpha_n = rep.cocycle if torus else _normalized(cfg)
    # First: input whose squares overflow is refused before a transform sums it.
    try:
        lhs, rhs = plancherel_values(f, alpha_n)
    except ValueError as exc:
        raise InputError(f"cannot multiply the input: {exc}") from exc

    if args.rep == "formal":
        rep = FormalRepresentation(group, alpha_n)
        fhat = fourier(f, rep)
        transform = function_to_spec(fhat)
        roundtrip = invert(fhat) if args.roundtrip else None
    elif args.rep == "character":
        if not isinstance(group, CyclicPowerGroup):
            raise InputError("character transforms need a cyclic_power group")
        if not _is_zero_cocycle(cfg.cocycle):
            raise InputError("character transforms apply to the zero cocycle "
                             "(vector case) only")
        table = character_transform(f)
        transform = character_to_spec(table)
        roundtrip = character_inverse(table, group) if args.roundtrip else None
    else:  # matrix; argparse restricts the choices
        if not group.is_finite:
            raise InputError("matrix transforms need a finite group")
        if not torus:
            rep = regular_matrix_rep(group, alpha_n)
        roundtrip = matrix_rep_inverse(rep.row_blocks(f), rep) if args.roundtrip else None
        transform = {"matrix": map(matrix_to_spec, rep.row_blocks(f))}

    checks = {"plancherel": {"lhs": lhs.real, "rhs": rhs,
                             "pass": bool(abs(lhs - rhs) < _tol(cfg, 1e-12))}}
    if roundtrip is not None:
        checks["roundtrip"] = _check_dict(f.max_diff(roundtrip), _tol(cfg, 1e-12))
    _emit({"transform": transform, "checks": checks}, cfg.out)
    ok = all(c["pass"] for c in checks.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- convolve ----------------------------------------------------------------


def cmd_convolve(args) -> int:
    cfg = _config(args)
    group = cfg.group
    f1 = _load_function(args.infile, group)
    f2 = _load_function(args.infile2, group)
    alpha_n = _normalized(cfg)
    try:
        h = deformed_convolution(f1, f2, alpha_n)
    except ValueError as exc:
        raise InputError(f"cannot multiply the inputs: {exc}") from exc
    checks = {}  # on a lattice every product is the kernel itself
    if group.is_finite:
        v = sampling.random_complex(sampling.rng_from_seed(cfg.seed), group.order)
        residual = convolution_theorem_residual(regular_matrix_rep(group, alpha_n),
                                                f1._vector(), f2._vector(), h._vector(), v)
        checks["convolution_theorem"] = _check_dict(residual, _tol(cfg, 1e-12))
    result = function_to_spec(h)
    del h  # its key rows and values are as large as the records: free them first
    _emit({"result": result, "checks": checks}, cfg.out)
    ok = all(c["pass"] for c in checks.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- clockshift / report -----------------------------------------------------


def cmd_clockshift(args) -> int:
    from .clockshift import consistency_check
    try:
        report = consistency_check(args.n, seed=_parse_seed(args.seed))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _finish(report, args.out)


def cmd_report(args) -> int:
    data = _load_json(args.infile)
    if not isinstance(data, dict) or "checks" not in data or "pass" not in data:
        raise InputError(f"{args.infile} is not a verification report")
    try:
        for check in data["checks"]:
            print(CheckResult(check.get("name"), check["max_residual"],
                              check["tolerance"], bool(check.get("pass"))).summary())
        print(f"suite {data.get('suite')}: {'PASS' if data['pass'] else 'FAIL'}")
        return EXIT_OK if data["pass"] else EXIT_CHECK_FAILED
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"{args.infile} has malformed check records: {exc}") from exc


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projalg",
        description="Projective group algebras: verification suites, "
                    "transforms, and deformed convolutions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", required=True, help="group definition JSON")
        p.add_argument("--cocycle", help="cocycle definition JSON (default: zero)")
        p.add_argument("--tol", type=float, default=None,
                       help="override every check tolerance")
        p.add_argument("--seed", default="5EED",
                       help="hex seed for sampled checks (default 5EED)")
        p.add_argument("--out", default=None, help="output JSON path "
                                                   "(default: stdout)")

    p = sub.add_parser("verify", help="run the full verification suite")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fourier", help="transform a function file")
    add_common(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="input function JSON")
    p.add_argument("--rep", choices=["formal", "character", "matrix"],
                   default="formal")
    p.add_argument("--roundtrip", action="store_true",
                   help="also invert and report the round-trip residual")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("convolve", help="deformed convolution of two functions")
    add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2", required=True)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("clockshift", help="torus-realization consistency suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", default="5EED")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_clockshift)

    p = sub.add_parser("report", help="pretty-print a report JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RepresentationInconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
