"""Command-line interface: verification suites, transforms, convolutions.

All outputs are canonical JSON (sorted keys, 17-significant-digit floats),
so identical configs and seeds produce byte-identical files.  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 unreadable or invalid
input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sampling
from .algebra import regular_reps
from .clockshift import consistency_check, matrix_representation
from .cocycles import Cocycle, check_identities, normalize, validate_cocycle
from .errors import (BackingMismatchError, ContextMismatchError,
                     GroupConstructionError, NormalizationRequiredError,
                     RepresentationInconsistencyError, UnsupportedOperationError)
from .groups import CyclicPowerGroup, Group
from .harmonic import (FormalRepresentation, character_inverse,
                       character_transform, deformed_convolution, fourier,
                       matrix_rep_inverse, plancherel_values,
                       regular_matrix_rep)
from .integration import (GroupFunction, as_algebra_element, completeness_check,
                          invert)
from .report import VerificationReport, dumps_canonical
from .serialize import (cocycle_from_spec, function_from_spec,
                        function_to_spec, group_from_spec, matrix_to_spec)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

VERIFY_TRIALS = 50

_INPUT_ERRORS = (GroupConstructionError, BackingMismatchError,
                 ContextMismatchError, UnsupportedOperationError,
                 NormalizationRequiredError, ValueError, KeyError, TypeError,
                 AttributeError)


class InputError(Exception):
    """Unreadable or structurally invalid configuration input."""


@dataclass
class RunConfig:
    group: Group
    cocycle: Cocycle
    cocycle_kind: str
    tol: float | None
    seed: int
    out: str | None


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_group(path: str) -> Group:
    spec = _load_json(path)
    try:
        return group_from_spec(spec)
    except _INPUT_ERRORS as exc:
        raise InputError(f"invalid group file {path}: {exc}") from exc


def _load_cocycle(path: str | None, group: Group) -> tuple[Cocycle, str]:
    if path is None:
        spec = {"kind": "zero"}
    else:
        spec = _load_json(path)
    try:
        return cocycle_from_spec(spec, group), str(spec.get("kind"))
    except _INPUT_ERRORS as exc:
        raise InputError(f"invalid cocycle file {path}: {exc}") from exc


def _load_function(path: str, group: Group) -> GroupFunction:
    data = _load_json(path)
    try:
        return function_from_spec(data, group)
    except _INPUT_ERRORS as exc:
        raise InputError(f"invalid function file {path}: {exc}") from exc


def _parse_seed(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as exc:
        raise InputError(f"seed must be hexadecimal, got {text!r}") from exc


def _config(args) -> RunConfig:
    group = _load_group(args.group)
    cocycle, kind = _load_cocycle(getattr(args, "cocycle", None), group)
    return RunConfig(group=group, cocycle=cocycle, cocycle_kind=kind,
                     tol=args.tol, seed=_parse_seed(args.seed), out=args.out)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _tol(cfg: RunConfig, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


def _check_dict(name: str, residual: float, tolerance: float) -> dict:
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
    if not validation.passed:
        report.elapsed_seconds = time.perf_counter() - started
        _finish(report, cfg)
        return EXIT_CHECK_FAILED

    alpha_n, _ = normalize(group, alpha, validate=False)
    report.extend(check_identities(group, alpha_n, tol=_tol(cfg, 1e-10),
                                   seed=cfg.seed), prefix="identities")

    if group.is_finite:
        pair = regular_reps(group, alpha_n)
        worst = 0.0
        for a in group.elements():
            worst = max(worst, float(np.max(np.abs(
                pair.C @ pair.R[a] @ pair.C - pair.L[a]))))
        report.add("self_conjugacy", worst, _tol(cfg, 1e-12))
        report.extend(completeness_check(group, alpha_n, tol=_tol(cfg, 1e-12)))

    rng = sampling.rng_from_seed(cfg.seed)
    worst = 0.0
    for _ in range(VERIFY_TRIALS):
        f = GroupFunction(group, sampling.random_coefficients(group, rng))
        lhs, rhs = plancherel_values(f, alpha_n)
        worst = max(worst, abs(lhs - rhs))
    report.add("plancherel", worst, _tol(cfg, 1e-12),
               detail=f"{VERIFY_TRIALS} random functions")

    worst = 0.0
    for _ in range(VERIFY_TRIALS):
        f = GroupFunction(group, sampling.random_coefficients(group, rng))
        g = GroupFunction(group, sampling.random_coefficients(group, rng))
        h = deformed_convolution(f, g, alpha_n)
        lhs = as_algebra_element(h, alpha_n)
        rhs = as_algebra_element(f, alpha_n) * as_algebra_element(g, alpha_n)
        worst = max(worst, lhs.max_diff(rhs))
    report.add("deformed_convolution_product", worst, _tol(cfg, 1e-12),
               detail=f"{VERIFY_TRIALS} random pairs")

    if cfg.cocycle_kind == "clockshift" and isinstance(group, CyclicPowerGroup):
        report.extend(consistency_check(group.n, seed=cfg.seed),
                      prefix="clockshift")

    report.elapsed_seconds = time.perf_counter() - started
    _finish(report, cfg)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _finish(report: VerificationReport, cfg: RunConfig) -> None:
    _emit(report.to_json(), cfg.out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    if report.elapsed_seconds is not None:
        print(f"suite {report.suite} finished in {report.elapsed_seconds:.3f}s",
              file=sys.stderr)


# -- fourier ---------------------------------------------------------------


def _is_zero_cocycle(alpha: Cocycle) -> bool:
    g = alpha.group
    if g.is_finite:
        return float(np.max(np.abs(alpha.phase_matrix()))) < 1e-14
    theta = getattr(alpha, "theta", None)
    return theta is not None and float(np.max(np.abs(theta))) < 1e-14


def _normalized(cfg: RunConfig) -> Cocycle:
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
    alpha_n = _normalized(cfg)

    if args.rep == "formal":
        rep = FormalRepresentation(group, alpha_n)
        fhat = fourier(f, rep)
        transform = function_to_spec(GroupFunction(group, dict(fhat.items())))
        roundtrip = invert(fhat) if args.roundtrip else None
    elif args.rep == "character":
        if not isinstance(group, CyclicPowerGroup):
            raise InputError("character transforms need a cyclic_power group")
        if not _is_zero_cocycle(cfg.cocycle):
            raise InputError("character transforms apply to the zero cocycle "
                             "(vector case) only")
        table = character_transform(f)
        transform = [{"q": list(q), "re": complex(table[q]).real,
                      "im": complex(table[q]).imag}
                     for q in group.elements()]
        roundtrip = character_inverse(table, group) if args.roundtrip else None
    elif args.rep == "matrix":
        if not group.is_finite:
            raise InputError("matrix transforms need a finite group")
        if _is_zero_cocycle(cfg.cocycle):
            rep = regular_matrix_rep(group)
        elif cfg.cocycle_kind == "clockshift" and isinstance(group, CyclicPowerGroup):
            rep = matrix_representation(group.n)
        else:
            raise InputError("matrix transforms are available for the zero "
                             "cocycle (regular matrices) or the clockshift "
                             "cocycle (torus realization)")
        fhat = fourier(f, rep)
        transform = {"matrix": matrix_to_spec(fhat)}
        roundtrip = matrix_rep_inverse(fhat, rep) if args.roundtrip else None
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown representation kind {args.rep!r}")

    lhs, rhs = plancherel_values(f, alpha_n)
    checks = {"plancherel": {"lhs": lhs.real, "rhs": rhs,
                             "pass": bool(abs(lhs - rhs) < _tol(cfg, 1e-12))}}
    if roundtrip is not None:
        checks["roundtrip"] = _check_dict("roundtrip", f.max_diff(roundtrip),
                                          _tol(cfg, 1e-12))
    _emit(dumps_canonical({"transform": transform, "checks": checks}), cfg.out)
    ok = checks["plancherel"]["pass"] and all(
        c.get("pass", True) for c in checks.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- convolve ----------------------------------------------------------------


def cmd_convolve(args) -> int:
    cfg = _config(args)
    group = cfg.group
    f1 = _load_function(args.infile, group)
    f2 = _load_function(args.infile2, group)
    alpha_n = _normalized(cfg)
    h = deformed_convolution(f1, f2, alpha_n)
    lhs = as_algebra_element(h, alpha_n)
    rhs = as_algebra_element(f1, alpha_n) * as_algebra_element(f2, alpha_n)
    residual = lhs.max_diff(rhs)
    out = {
        "result": function_to_spec(h),
        "checks": {"transform_product": _check_dict("transform_product",
                                                    residual, _tol(cfg, 1e-12))},
    }
    _emit(dumps_canonical(out), cfg.out)
    return EXIT_OK if out["checks"]["transform_product"]["pass"] else EXIT_CHECK_FAILED


# -- clockshift / report -----------------------------------------------------


def cmd_clockshift(args) -> int:
    try:
        report = consistency_check(args.n, seed=_parse_seed(args.seed))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(report.to_json(), args.out)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    data = _load_json(args.infile)
    if not isinstance(data, dict) or "checks" not in data or "pass" not in data:
        raise InputError(f"{args.infile} is not a verification report")
    try:
        for check in data["checks"]:
            status = "PASS" if check.get("pass") else "FAIL"
            print(f"[{status}] {check.get('name')}: residual "
                  f"{check['max_residual']:.3e} (tol {check['tolerance']:.1e})")
        print(f"suite {data.get('suite')}: {'PASS' if data['pass'] else 'FAIL'}")
        return EXIT_OK if data["pass"] else EXIT_CHECK_FAILED
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"{args.infile} has malformed check records: {exc}") from exc


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projalg",
        description="Projective group algebras: verification suites, "
                    "transforms, and deformed convolutions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cocycle=True):
        p.add_argument("--group", required=True, help="group definition JSON")
        if cocycle:
            p.add_argument("--cocycle", help="cocycle definition JSON "
                                             "(default: zero)")
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


if __name__ == "__main__":
    sys.exit(main())
