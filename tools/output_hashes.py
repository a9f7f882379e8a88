"""Hash every output of the standard spdflow commands, and count source lines.

Usage, from anywhere:

    python3 tools/output_hashes.py [--root CHECKOUT] [--keep DIR]
    python3 tools/output_hashes.py --compare DIR_A DIR_B

Runs, in-process and inside a fresh temporary directory with relative
``--out`` names:

    run --preset case1 | case2
    run --preset case1 --m0 3,4
    run --config <perfbench riccati_gen seed-7 config>
    run --config <a 3x3 ou config> | <a 3x3 gbm config> | <a 2x2 linear config>
    run --config <a 17x17 gbm config>
    convergence --model noncommuting | constant --hs 0.2,0.1,0.05,0.025
    bounds --preset case1 | case2
    bounds --preset case2 --m0 0,0

then three configs that fail numerically (exit 3): ``linear-overflow``,
``riccati-forward-blowup`` and ``gbm-mean-overflow``, and six that are bad
input (exit 2): params that break the square, row-count and vector shape
rules, a missing param, and ``--m0`` on a model without a mean.  It prints ``sha256  path`` for
every file written, for each command's standard output (``<name>.stdout``)
and for each failing config's exit code and standard error
(``<name>.exit+stderr``), so a change to a config-error message or to which
failure is reported first shows up too.  The last lines are the line count of
each module of ``src/spdflow/*.py`` and then their total.  ``--root`` picks
the source checkout whose ``src/`` and ``perfbench/`` are imported (default:
the one holding this script), so the same script compares two checkouts:
diff the two printouts.

``--keep DIR`` runs the commands in DIR, which must be new or empty, instead
of a temporary directory and leaves their outputs there; the printout is the
same.  ``--compare DIR_A DIR_B`` runs nothing: for each file present in both
kept directories whose bytes differ it prints the largest absolute difference
over the CSV cells that are numbers on both sides, the count of differing
cells that are flags (the ``spd`` column) or not numbers (``NotOnManifold``),
and the path.  A file present on one side only, or a CSV whose rows or
columns do not line up, is named as such.  The script then exits 1 if any
file differs or exists on one side only, and 0 otherwise; ``main`` itself
returns 0 once it has printed, and ``run`` returns the exit status.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HS = "0.2,0.1,0.05,0.025"
RICCATI_SEED = 7
I2 = [[1.0, 0.0], [0.0, 1.0]]
I3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
ROWS3 = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
GRID = {"t0": 0.0, "t1": 1.0, "points": 2}


def above_cap_gbm():
    """A gbm config of size n = 17, above models.AFFINE_RK4_MAX_N = 16, so
    that every RK4 step of its run, the reference's included, runs the four
    tangent stages; A and B do not commute and the mean is nonzero."""
    n, rng = 17, np.random.default_rng(17)
    A = -np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    B = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    W = rng.standard_normal((n, n)) / np.sqrt(n)
    WWt = W @ W.T
    return {
        "model": "gbm",
        "params": {"A": A.tolist(), "B": B.tolist(),
                   "m0": rng.standard_normal(n).tolist()},
        "P0": (np.eye(n) + 0.25 * (WWt + WWt.T)).tolist(),
        "grid": {"t0": 0.0, "t1": 1.0, "points": 3}, "refine": 8,
    }


# Configs whose run succeeds, by name: the model ids that no preset and no
# riccati config runs, and two gbm whose A, B and m0 the presets do not cover
# (A and B do not commute, and the mean is nonzero), one of them above the
# size that takes the affine RK4 map.
RUNS = {
    "ou-3x3": {
        "model": "ou",
        "params": {"A": [[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -0.5]],
                   "B": ROWS3},
        "P0": [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]],
        "grid": {"t0": 0.0, "t1": 1.0, "points": 6}, "refine": 64,
    },
    "gbm-3x3": {
        "model": "gbm",
        "params": {"A": [[-1.0, 0.5, 0.0], [0.2, -1.5, 0.3], [0.0, 0.4, -0.8]],
                   "B": [[0.1, 0.3, 0.0], [-0.2, 0.0, 0.1], [0.0, 0.2, -0.3]],
                   "m0": [1.0, -0.5, 2.0]},
        "P0": [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]],
        "grid": {"t0": 0.0, "t1": 1.0, "points": 6}, "refine": 64,
    },
    "linear-2x2": {
        "model": "linear", "params": {"A": [[-1.0, 2.0], [0.0, -3.0]]},
        "P0": [[2.0, 0.5], [0.5, 1.0]],
        "grid": {"t0": 0.0, "t1": 1.0, "points": 6}, "refine": 64,
    },
    "gbm-17x17": above_cap_gbm(),
}


def bad_input(model, **params):
    return {"model": model, "params": params, "P0": I2, "grid": GRID}


# Configs whose run fails: (name, config, expected exit code, extra argv).
FAILURES = [
    ("linear-overflow", {
        "model": "linear", "params": {"A": [[400.0, 0.0], [0.0, 1.0]]},
        "P0": I2, "grid": {"t0": 0.0, "t1": 2.0, "points": 3}, "refine": 4,
    }, 3, []),
    ("riccati-forward-blowup", {
        "model": "riccati",
        "params": {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": I2, "Q": I2, "R": I2},
        "P0": I2, "grid": {"t0": 0.0, "t1": 5.0, "points": 6}, "refine": 64,
    }, 3, []),
    ("gbm-mean-overflow", {
        "model": "gbm",
        "params": {"A": [[800.0, 0.0], [0.0, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]]},
        "P0": I2, "grid": {"t0": 0.0, "t1": 2.0, "points": 2}, "refine": 2,
    }, 3, []),
    ("linear-A-3x3", bad_input("linear", A=I3), 2, []),
    ("ou-B-3-rows", bad_input("ou", A=I2, B=ROWS3), 2, []),
    ("gbm-B-2x3", bad_input("gbm", A=I2, B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
     2, []),
    ("gbm-m0-length-3", bad_input("gbm", A=I2, B=I2, m0=[1.0, 2.0, 3.0]), 2, []),
    ("riccati-no-Q", bad_input("riccati", A=I2, B=I2, R=I2), 2, []),
    ("linear-flag-m0", bad_input("linear", A=I2), 2, ["--m0", "1,2"]),
]


def commands(config_name):
    """(name, argv) of each command whose outputs are hashed."""
    return [
        ("case1", ["run", "--preset", "case1", "--out", "case1"]),
        ("case2", ["run", "--preset", "case2", "--out", "case2"]),
        ("case1-m0", ["run", "--preset", "case1", "--m0", "3,4", "--out", "case1-m0"]),
        ("riccati", ["run", "--config", config_name, "--out", "riccati"]),
    ] + [
        (name, ["run", "--config", f"{name}.json", "--out", name]) for name in RUNS
    ] + [
        ("conv-noncommuting", ["convergence", "--model", "noncommuting",
                               "--hs", HS, "--out", "conv-noncommuting"]),
        ("conv-constant", ["convergence", "--model", "constant",
                           "--hs", HS, "--out", "conv-constant"]),
        ("bounds-case1", ["bounds", "--preset", "case1"]),
        ("bounds-case2", ["bounds", "--preset", "case2"]),
        ("bounds-case2-m0", ["bounds", "--preset", "case2", "--m0", "0,0"]),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_lines(root: Path) -> dict:
    """Line count of each module of ``src/spdflow``, by file name."""
    return {
        p.name: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "spdflow").glob("*.py"))
    }


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def value_diff(a: Path, b: Path):
    """(largest absolute difference over cells numeric on both sides, count
    of differing cells that are not, or that sit in an ``spd`` flag
    column), or None if the CSVs' shapes differ."""
    rows_a, rows_b = (list(csv.reader(p.read_text(encoding="utf-8").splitlines()))
                      for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    flags = {j for j, name in enumerate(rows_a[0] if rows_a else []) if name == "spd"}
    largest, other = 0.0, 0
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if u is None or v is None or j in flags:
                other += 1
            elif math.isfinite(u) and math.isfinite(v):
                largest = max(largest, abs(u - v))
            else:
                largest = math.inf
    return largest, other


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the value differences of the files two ``--keep`` runs left, and
    return how many files differ or exist on one side only."""
    files = [{p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}
             for d in (dir_a, dir_b)]
    differ = 0
    for path in sorted(files[0] | files[1]):
        if path not in files[0] or path not in files[1]:
            side = dir_a if path in files[0] else dir_b
            print(f"only in {side}  {path}")
            differ += 1
            continue
        a, b = dir_a / path, dir_b / path
        if a.read_bytes() == b.read_bytes():
            continue
        differ += 1
        diff = value_diff(a, b) if path.endswith(".csv") else None
        if diff is None:
            print(f"bytes differ, values not compared  {path}")
        else:
            print(f"{diff[0]:.3e} largest  {diff[1]} flag or non-numeric  {path}")
    return differ


def main(argv=None) -> int:
    """Print the hashes, or with --compare the differences; 0 when done."""
    run(argv)
    return 0


def run(argv=None) -> int:
    """main's work; the exit status, 1 when --compare finds a difference."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="source checkout to run (default: this one)")
    parser.add_argument("--keep", metavar="DIR",
                        help="run in DIR, new or empty, and leave the outputs there")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="print the value differences of two --keep runs")
    args = parser.parse_args(argv)
    if args.compare:
        return int(compare(*(Path(d) for d in args.compare)) > 0)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import spdflow.cli
    from riccati_gen import riccati_config_text

    if Path(spdflow.cli.__file__).resolve().parents[1] != root / "src":
        raise ImportError(f"spdflow imported from {spdflow.cli.__file__}, not {root}")

    if args.keep:
        keep = Path(args.keep)
        keep.mkdir(parents=True, exist_ok=True)
        if any(keep.iterdir()):
            raise SystemExit(f"--keep {keep}: directory is not empty")
        workdir = contextlib.nullcontext(str(keep))
    else:
        workdir = tempfile.TemporaryDirectory()
    lines = []
    with workdir as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            config_name = f"riccati-seed{RICCATI_SEED}.json"
            Path(config_name).write_text(riccati_config_text(RICCATI_SEED),
                                         encoding="utf-8")
            configs = {config_name}
            for name, config in RUNS.items():
                configs.add(f"{name}.json")
                Path(f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
            for name, cmd in commands(config_name):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = spdflow.cli.main(cmd)
                if code != 0:
                    raise SystemExit(f"{' '.join(cmd)} exited {code}")
                lines.append((f"{name}.stdout", sha256(out.getvalue().encode())))
            for name, config, expected, extra in FAILURES:
                configs.add(f"{name}.json")
                Path(f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = spdflow.cli.main(["run", "--config", f"{name}.json",
                                             "--out", name] + extra)
                if code != expected:
                    raise SystemExit(f"{name} exited {code}, not {expected}")
                lines.append((f"{name}.exit+stderr",
                              sha256(f"{code}\n{err.getvalue()}".encode())))
            for path in sorted(Path(".").rglob("*")):
                if path.is_file() and path.name not in configs:
                    lines.append((path.as_posix(), sha256(path.read_bytes())))
        finally:
            os.chdir(cwd)
    for path, digest in sorted(lines):
        print(f"{digest}  {path}")
    counts = source_lines(root)
    for name, count in counts.items():
        print(f"{count}  lines in src/spdflow/{name}")
    print(f"{sum(counts.values())}  lines in src/spdflow/*.py")
    return 0


if __name__ == "__main__":
    sys.exit(run())
