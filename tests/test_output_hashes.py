import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "output_hashes.py"
_GATE = Path(__file__).with_name("output_hashes.sha256")
_SPEC = importlib.util.spec_from_file_location("output_hashes", _PATH)
output_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_hashes)


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


class TestCompare:
    def test_value_diffs_of_kept_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, {
            "run/errors.csv": "t,d,spd\n0,1.0,1\n1,2.5,1\n",
            "run/same.csv": "t\n0\n",
            "run/ragged.csv": "t,d\n0,1\n",
            "run.stdout": "x\n",
            "only_a.csv": "t\n",
        })
        _write(b, {
            "run/errors.csv": "t,d,spd\n0,NotOnManifold,1\n1,2.5000000000000004,0\n",
            "run/same.csv": "t\n0\n",
            "run/ragged.csv": "t,d\n0\n",
            "run.stdout": "y\n",
        })
        assert output_hashes.main(["--compare", str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"only in {a}  only_a.csv",
            "bytes differ, values not compared  run.stdout",
            "4.441e-16 largest  2 flag or non-numeric  run/errors.csv",
            "  spd 1 -> 0 at t=1",
            "bytes differ, values not compared  run/ragged.csv",
        ]

    def test_spd_flips_name_each_row(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _write(a, {
            "errors.csv": "t,integrator,d,spd\n2,rk4,0.1,1\n2,rkmk4,NotOnManifold,0\n",
            "trajectory_rkmk4.csv": "t,p_11,min_eig,spd\n0,1,0.5,1\n2,1e-4,-4.9e-18,0\n",
        })
        _write(b, {
            "errors.csv": "t,integrator,d,spd\n2,rk4,0.1,1\n2,rkmk4,0.0387,1\n",
            "trajectory_rkmk4.csv": "t,p_11,min_eig,spd\n0,1,0.5,1\n2,1e-4,2.5e-18,1\n",
        })
        assert output_hashes.spd_flips(a / "errors.csv", b / "errors.csv") == [
            "  spd 0 -> 1 at t=2 rkmk4"]
        assert output_hashes.spd_flips(
            a / "trajectory_rkmk4.csv", b / "trajectory_rkmk4.csv"
        ) == ["  spd 0 -> 1 at t=2: min_eig -4.9e-18 -> 2.5e-18"]

    def test_non_finite_cells(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1.0,nan,inf\n", encoding="utf-8")
        b.write_text("1.0,nan,1.0\n", encoding="utf-8")
        assert output_hashes.value_diff(a, b) == (float("inf"), 0)


def test_compare_exit_status(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _write(a, {"run/errors.csv": "t,d\n0,1.0\n"})
    _write(b, {"run/errors.csv": "t,d\n0,1.0\n"})
    _write(c, {"run/errors.csv": "t,d\n0,1.0\n", "extra.stdout": "x\n"})
    script = [sys.executable, str(_PATH), "--compare"]
    same = subprocess.run(script + [str(a), str(b)], capture_output=True, text=True)
    assert (same.returncode, same.stdout) == (0, "")
    one_side = subprocess.run(script + [str(a), str(c)], capture_output=True, text=True)
    assert one_side.returncode == 1
    assert one_side.stdout == f"only in {c}  extra.stdout\n"
    _write(b, {"run/errors.csv": "t,d\n0,1.5\n"})
    assert output_hashes.main(["--compare", str(a), str(b)]) == 1


def test_source_counts_skip_docstrings(tmp_path):
    _write(tmp_path, {
        "src/spdflow/a.py": (
            '"""Module docstring."""\n'
            "import os\n"
            "\n"
            "\n"
            "class C:\n"
            '    """Class docstring."""\n'
            "\n"
            "    def f(self, x):\n"
            '        """Method docstring."""\n'
            "        if x:  # a comment\n"
            "            return 1\n"
            '        "not a docstring"\n'
            "        return 2\n"
        ),
        "src/spdflow/b.py": "",
        "src/other.py": "x = 1\n",
    })
    # import, class, def, if, return, the string expression, return.
    assert output_hashes.source_counts(tmp_path) == {"a.py": (13, 7), "b.py": (0, 0)}


@pytest.fixture(scope="module")
def plain_lines():
    """The printout of one run of the command set without --keep, shared by
    the tests that read it: the set takes over a second to run."""
    return output_hashes.hash_lines(_ROOT)


def test_keep_writes_each_hashed_text_once(tmp_path, plain_lines):
    """--keep leaves every hashed stdout and exit+stderr text beside the
    outputs, and the printout stays that of a run without --keep: each kept
    file, the configs aside, is hashed exactly once, with its own bytes."""
    keep = tmp_path / "keep"
    lines = output_hashes.hash_lines(_ROOT, keep)
    assert lines == plain_lines
    hashed = dict(line.split("  ", 1)[::-1] for line in lines)
    kept = {p.relative_to(keep).as_posix(): p for p in keep.rglob("*")
            if p.is_file() and p.suffix != ".json"}
    assert kept.keys() == hashed.keys()
    assert {path: output_hashes.sha256(p.read_bytes())
            for path, p in kept.items()} == hashed
    assert any(path.endswith(".stdout") for path in kept)
    assert any(path.endswith(".exit+stderr") for path in kept)


def test_outputs_match_the_committed_hashes(plain_lines):
    """Every output of the standard commands keeps the bytes recorded in
    output_hashes.sha256.  The hashes hold for the numpy and BLAS builds in
    its header; another build may round differently, so it skips."""
    recorded = _GATE.read_text(encoding="utf-8").splitlines()
    header = [line for line in recorded if line.startswith("#")]
    if header != output_hashes.versions():
        pytest.skip(f"hashes recorded for {header}, running {output_hashes.versions()}")
    expected = {line.split("  ", 1)[1]: line for line in recorded if line not in header}
    actual = {line.split("  ", 1)[1]: line for line in plain_lines}
    moved = sorted(path for path in expected.keys() | actual.keys()
                   if expected.get(path) != actual.get(path))
    assert not moved, (
        "outputs moved (compare with tools/output_hashes.py --keep and "
        f"--compare; regenerate with --gate): {', '.join(moved)}"
    )
