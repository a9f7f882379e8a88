import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
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
        assert output_hashes.main(["--compare", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"only in {a}  only_a.csv",
            "bytes differ, values not compared  run.stdout",
            "4.441e-16 largest  2 flag or non-numeric  run/errors.csv",
            "bytes differ, values not compared  run/ragged.csv",
        ]

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
    assert output_hashes.run(["--compare", str(a), str(b)]) == 1
    assert output_hashes.main(["--compare", str(a), str(b)]) == 0
