"""Seeded inputs and command sequences for the projalg benchmark workloads.

Each workload is a fixed sequence of ``projalg`` invocations over input files
that :func:`build` writes from the workload seed; projalg itself sees only the
files.  Sizes keep every validating workload at group order <= 256: the
order**3 cocycle-validation temporaries grow past 2 GB at order 512.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-finite", "clockshift-torus", "lattice-sparse",
             "transform-dense")


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _hex_seed(rng: random.Random) -> str:
    return format(rng.getrandbits(32), "X")


def _function(rng: random.Random, elements) -> list:
    """Random complex coefficients on ``elements``, scaled to unit l2 norm.

    Unit norm keeps the CLI's absolute 1e-12 Plancherel tolerance meaningful
    for hundreds of terms.
    """
    scale = 1.0 / math.sqrt(2 * len(elements))
    return [{"element": e, "re": rng.gauss(0.0, 1.0) * scale,
             "im": rng.gauss(0.0, 1.0) * scale} for e in elements]


def _cyclic(n: int, d: int) -> list:
    return [list(a) for a in itertools.product(range(n), repeat=d)]


def _verify_finite(rng: random.Random, d: Path) -> list:
    n = 6
    coords = _cyclic(n, 2)
    zn = _write(d / "z6sq.json", {"kind": "cyclic_power", "n": n, "d": 2})
    bichar = _write(d / "bichar.json", {"kind": "table", "alpha": [
        [2 * math.pi * a[0] * b[1] / n for b in coords] for a in coords]})
    perms = list(itertools.permutations(range(4)))
    pos = {p: i for i, p in enumerate(perms)}
    s4 = _write(d / "s4.json", {
        "kind": "table", "elements": ["".join(map(str, p)) for p in perms],
        "table": [[pos[tuple(p[q[i]] for i in range(4))] for q in perms]
                  for p in perms]})
    phi = [0.0] + [rng.uniform(-math.pi, math.pi) for _ in perms[1:]]
    cob = _write(d / "s4_coboundary.json", {"kind": "coboundary", "phi": phi})
    return [
        ("verify", ["--group", zn, "--cocycle", bichar, "--seed", _hex_seed(rng)]),
        ("verify", ["--group", s4, "--cocycle", cob, "--seed", _hex_seed(rng)]),
    ]


def _clockshift_torus(rng: random.Random, d: Path) -> list:
    z10 = _write(d / "z10sq.json", {"kind": "cyclic_power", "n": 10, "d": 2})
    cs = _write(d / "clockshift.json", {"kind": "clockshift"})
    f = _write(d / "f.json", _function(rng, _cyclic(10, 2)))
    return [
        ("clockshift", ["--n", "8", "--seed", _hex_seed(rng)]),
        ("fourier", ["--group", z10, "--cocycle", cs, "--in", f,
                     "--rep", "matrix", "--roundtrip"]),
    ]


def _lattice_sparse(rng: random.Random, d: Path) -> list:
    box = [[x, y] for x in range(-20, 21) for y in range(-20, 21)]
    lattice = _write(d / "z2.json", {"kind": "lattice", "d": 2})
    # A generic theta is not antisymmetric, so normalize has a gauge to remove.
    theta = [[rng.uniform(-1.0, 1.0) for _ in range(2)] for _ in range(2)]
    bil = _write(d / "bilinear.json", {"kind": "bilinear", "theta": theta})
    f1 = _write(d / "f1.json", _function(rng, rng.sample(box, 200)))
    f2 = _write(d / "f2.json", _function(rng, rng.sample(box, 200)))
    common = ["--group", lattice, "--cocycle", bil]
    return [
        ("convolve", common + ["--in", f1, "--in2", f2]),
        ("fourier", common + ["--in", f1, "--rep", "formal", "--roundtrip"]),
        ("verify", common + ["--seed", _hex_seed(rng)]),
    ]


def _transform_dense(rng: random.Random, d: Path) -> list:
    elements = _cyclic(6, 3)
    z63 = _write(d / "z6cube.json", {"kind": "cyclic_power", "n": 6, "d": 3})
    zero = _write(d / "zero.json", {"kind": "zero"})
    f1 = _write(d / "f1.json", _function(rng, elements))
    f2 = _write(d / "f2.json", _function(rng, elements))
    common = ["--group", z63, "--cocycle", zero]
    return [
        ("fourier", common + ["--in", f1, "--rep", "character", "--roundtrip"]),
        ("fourier", common + ["--in", f1, "--rep", "matrix", "--roundtrip"]),
        ("convolve", common + ["--in", f1, "--in2", f2]),
    ]


_BUILDERS = {
    "verify-finite": _verify_finite,
    "clockshift-torus": _clockshift_torus,
    "lattice-sparse": _lattice_sparse,
    "transform-dense": _transform_dense,
}


def build(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's inputs under ``directory``.

    Returns one ``(subcommand, argv)`` pair per invocation; each argv is a
    full ``projalg`` argument list that writes its output to ``out<i>.json``
    in ``directory``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    steps = _BUILDERS[workload](rng, directory)
    return [(cmd, [cmd, *args, "--out", str(directory / f"out{i}.json")])
            for i, (cmd, args) in enumerate(steps)]
