"""Hash every output of the standard spdflow commands, and count source lines.

Usage, from anywhere:

    python3 tools/output_hashes.py [--root CHECKOUT]

Runs, in-process and inside a fresh temporary directory with relative
``--out`` names:

    run --preset case1 | case2
    run --preset case1 --m0 3,4
    run --config <perfbench riccati_gen seed-7 config>
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
failure is reported first shows up too.  The last line is the line count of
``src/spdflow/*.py``.  ``--root`` picks the source checkout whose ``src/``
and ``perfbench/`` are imported (default: the one holding this script), so
the same script compares two checkouts: diff the two printouts.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HS = "0.2,0.1,0.05,0.025"
RICCATI_SEED = 7
I2 = [[1.0, 0.0], [0.0, 1.0]]
I3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
ROWS3 = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
GRID = {"t0": 0.0, "t1": 1.0, "points": 2}


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


def source_lines(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "spdflow").glob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="source checkout to run (default: this one)")
    root = Path(parser.parse_args(argv).root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import spdflow.cli
    from riccati_gen import riccati_config_text

    if Path(spdflow.cli.__file__).resolve().parents[1] != root / "src":
        raise ImportError(f"spdflow imported from {spdflow.cli.__file__}, not {root}")

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            config_name = f"riccati-seed{RICCATI_SEED}.json"
            Path(config_name).write_text(riccati_config_text(RICCATI_SEED),
                                         encoding="utf-8")
            for name, cmd in commands(config_name):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = spdflow.cli.main(cmd)
                if code != 0:
                    raise SystemExit(f"{' '.join(cmd)} exited {code}")
                lines.append((f"{name}.stdout", sha256(out.getvalue().encode())))
            configs = {config_name}
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
    print(f"{source_lines(root)}  lines in src/spdflow/*.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
