import json
import os
import re

import numpy as np
import pytest

from spdflow.cli import main

CASE2_EXPECTED_COLUMNS = ["t", "p_11", "p_12", "p_22", "min_eig", "spd"]


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def parse_bounds(capsys):
    out = capsys.readouterr().out
    fields = {}
    for line in out.strip().split("\n"):
        m = re.match(
            r"field=(\w+) rho_stay=([\d.eE+-]+) rho_leave=([\d.eE+-]+) regime=(\w+)",
            line,
        )
        assert m, f"unparseable bounds line: {line!r}"
        fields[m.group(1)] = (float(m.group(2)), float(m.group(3)), m.group(4))
    return fields


class TestRun:
    def test_preset_case2_artifacts(self, tmp_path):
        assert main(["run", "--preset", "case2", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory_rkmk4.csv")
        assert header == CASE2_EXPECTED_COLUMNS
        assert len(rows) == 11
        assert all(r[-1] == "1" for r in rows)
        header, rows = read_csv(tmp_path / "errors.csv")
        assert header == ["t", "integrator", "frob_dist", "affine_dist_or_NA", "spd"]
        by_integrator = {}
        for r in rows:
            by_integrator.setdefault(r[1], []).append(r)
        assert any(r[3] == "NotOnManifold" for r in by_integrator["rk4"])
        for name in ("rkmk4", "lie_euler", "riemannian_rk4"):
            assert all(r[3] != "NotOnManifold" for r in by_integrator[name])

    def test_affine_distance_iff_spd(self, tmp_path):
        assert main(["run", "--preset", "case2", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "errors.csv")
        for r in rows:
            if r[4] == "1":
                float(r[3])
            else:
                assert r[3] == "NotOnManifold"

    def test_byte_stable(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--preset", "case2", "--out", str(out1)]) == 0
        assert main(["run", "--preset", "case2", "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_config_file_two_points(self, tmp_path):
        cfg = {
            "model": "linear",
            "params": {"A": [[-1.0, 0.0], [0.0, -2.0]]},
            "P0": [[1.0, 0.0], [0.0, 1.0]],
            "grid": {"t0": 0.0, "t1": 0.5, "points": 2},
            "integrators": ["rk4", "rkmk4"],
            "refine": 16,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory_rk4.csv")
        assert len(rows) == 2
        assert not (out / "trajectory_euler.csv").exists()

    def test_m0_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--preset", "case1", "--out", str(a)]) == 0
        assert (
            main(["run", "--preset", "case1", "--out", str(b), "--m0", "3,4"]) == 0
        )
        with open(a / "trajectory_rkmk4.csv") as f1, open(
            b / "trajectory_rkmk4.csv"
        ) as f2:
            assert f1.read() != f2.read()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_model_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "mystery"}))
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_integrator_is_config_error(self, tmp_path):
        cfg = {
            "model": "linear",
            "params": {"A": [[-1.0]]},
            "P0": [[1.0]],
            "grid": {"t0": 0.0, "t1": 1.0, "points": 3},
            "integrators": ["simpson"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # constant negative drift: the exact solution crosses out of the
        # manifold at t = 1, so the reference must report leaving it
        cfg = {
            "model": "riccati",
            "params": {"A": [[0.0]], "B": [[0.0]], "Q": [[1.0]], "R": [[1.0]]},
            "P0": [[1.0]],
            "grid": {"t0": 0.0, "t1": 2.0, "points": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3


LINEAR_1D = {
    "model": "linear",
    "params": {"A": [[-1.0]]},
    "P0": [[1.0]],
    "grid": {"t0": 0.0, "t1": 1.0, "points": 3},
}


def _without_grid_key(key):
    grid = {k: v for k, v in LINEAR_1D["grid"].items() if k != key}
    return {**LINEAR_1D, "grid": grid}


class TestConfigBoundary:
    """Malformed configs exit 2 with a one-line config error."""

    @pytest.mark.parametrize(
        "config, extra",
        [
            ([1, 2], []),
            ("linear", []),
            (_without_grid_key("t0"), []),
            (_without_grid_key("t1"), []),
            (_without_grid_key("points"), []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": "many"}}, []),
            ({**LINEAR_1D, "grid": [0.0, 1.0, 3]}, []),
            ({**LINEAR_1D, "refine": 1}, []),
            ({**LINEAR_1D, "refine": 0}, []),
            (LINEAR_1D, ["--refine", "1"]),
            (LINEAR_1D, ["--refine", "0"]),
            (None, ["--preset", "case2", "--refine", "1"]),
        ],
        ids=[
            "list",
            "string",
            "grid-no-t0",
            "grid-no-t1",
            "grid-no-points",
            "grid-points-not-numeric",
            "grid-not-object",
            "config-refine-1",
            "config-refine-0",
            "flag-refine-1",
            "flag-refine-0",
            "preset-flag-refine-1",
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, config, extra):
        argv = ["run", "--out", str(tmp_path / "out")] + extra
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestBounds:
    def test_case2_both_fields(self, capsys):
        assert main(["bounds", "--preset", "case2"]) == 0
        fields = parse_bounds(capsys)
        assert set(fields) == {"euler", "rk4"}
        for stay, leave, regime in fields.values():
            assert regime == "Bounded" and 0 < stay <= leave

    def test_field_filter(self, capsys):
        assert main(["bounds", "--preset", "case2", "--field", "euler"]) == 0
        assert set(parse_bounds(capsys)) == {"euler"}

    def test_m0_override_moves_bounds(self, capsys):
        assert main(["bounds", "--preset", "case2", "--field", "euler"]) == 0
        base = parse_bounds(capsys)["euler"]
        assert (
            main(
                ["bounds", "--preset", "case2", "--field", "euler", "--m0", "0,0"]
            )
            == 0
        )
        moved = parse_bounds(capsys)["euler"]
        assert base[0] != moved[0]

    def test_requires_preset(self, capsys):
        assert main(["bounds"]) == 2


class TestConvergence:
    def test_constant_model_exact(self, capsys, tmp_path):
        rc = main(
            [
                "convergence",
                "--model",
                "constant",
                "--hs",
                "0.2,0.1",
                "--integrators",
                "lie_euler,rkmk4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("slope=exact") == 2
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["integrator", "h", "error"]
        assert len(rows) == 4

    def test_unknown_model(self, capsys):
        assert main(["convergence", "--model", "nope", "--hs", "0.1,0.05"]) == 2

    def test_single_h_rejected(self, capsys):
        assert main(["convergence", "--model", "constant", "--hs", "0.1"]) == 2

