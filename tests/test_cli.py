import contextlib
import io
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdflow.cli
from spdflow.cli import CONV_T1, convergence_model, convergence_study, main
from spdflow.integrators import STEPPER_NAMES, integrate, reference_trajectory

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


LINEAR_2D = {
    **LINEAR_1D,
    "params": {"A": [[-1.0, 0.0], [0.0, -2.0]]},
    "P0": [[1.0, 0.0], [0.0, 1.0]],
}
GBM_2D = {
    **LINEAR_2D,
    "model": "gbm",
    "params": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[0.5, 0.0], [0.0, 0.5]]},
}

RICCATI_1D = {
    **LINEAR_1D,
    "model": "riccati",
    "params": {"A": [[0.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[-1.0]]},
}
# A preset fixes P0, grid and params, and "refin" is misspelt: none may be
# dropped unread.
PRESET_WITH_STRAY_KEYS = {
    "model": "case1",
    "P0": [[5, 0], [0, 5]],
    "grid": {"t0": 0, "t1": 9, "points": 3},
    "params": {"m0": [1, 2]},
    "refin": 4,
}


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
            ({**LINEAR_1D, "refine": "many"}, []),
            ({**LINEAR_1D, "refine": 2.7}, []),
            ({**LINEAR_1D, "params": {"A": {"a": 1}}}, []),
            ({**LINEAR_1D, "integrators": 5}, []),
            ({**LINEAR_1D, "integrators": "rk4"}, []),
            ({**LINEAR_2D, "P0": np.eye(3).tolist()}, []),
            ({**LINEAR_2D, "params": {"A": (-np.eye(3)).tolist()}}, []),
            ({**LINEAR_2D, "P0": [[1.0, 0.5], [0.0, 1.0]]}, []),
            ({**LINEAR_2D, "P0": [[1.0, 0.0], [0.0, -1.0]]}, []),
            ({**LINEAR_2D, "P0": [[float("nan"), 0.0], [0.0, 1.0]]}, []),
            ({**GBM_2D, "params": {**GBM_2D["params"], "m0": [1.0, 2.0, 3.0]}}, []),
            (GBM_2D, ["--m0", "1,2,3"]),
            (None, ["--preset", "case1", "--m0", "1,2,3"]),
            ({**LINEAR_1D, "params": [1, 2]}, []),
            ({**GBM_2D, "params": {**GBM_2D["params"], "B": np.eye(3).tolist()}}, []),
            (RICCATI_1D, []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": float("inf"), "points": 3}}, []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": float("inf")}}, []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": 2.7}}, []),
            ({**LINEAR_1D, "grid": {"t0": -1e308, "t1": 1e308, "points": 3}}, []),
            ({**LINEAR_1D, "grid": {"t0": 1.0, "t1": 1.0 + 4e-16, "points": 5}}, []),
            (PRESET_WITH_STRAY_KEYS, []),
            ({"model": "case1", "P0": [[5.0, 0.0], [0.0, 5.0]]}, []),
            ({"model": "case2", "grid": {"t0": 0.0, "t1": 9.0, "points": 3}}, []),
            ({"model": "case1", "params": {"m0": [1.0, 2.0]}}, []),
            ({**LINEAR_1D, "refin": 4}, []),
            ({**LINEAR_1D, "integrator": ["rk4"]}, []),
            ({**LINEAR_1D, "out": "elsewhere"}, []),
            ({**LINEAR_1D, "params": {"A": [[-1.0]], "B": [[1.0]]}}, []),
            ({**LINEAR_1D, "grid": {**LINEAR_1D["grid"], "dt": 0.5}}, []),
            (LINEAR_1D, ["--preset", "case2"]),
            (None, []),
            (GBM_2D, ["--m0", ""]),
            (None, ["--preset", "case1", "--m0", ""]),
            (LINEAR_1D, ["--out", ""]),
            ({**LINEAR_1D, "integrators": ["rk4", "rk4"]}, []),
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
            "refine-not-numeric",
            "refine-not-integer",
            "param-object",
            "integrators-number",
            "integrators-string",
            "P0-3x3-A-2x2",
            "P0-2x2-A-3x3",
            "P0-not-symmetric",
            "P0-not-spd",
            "P0-nan",
            "gbm-m0-length",
            "gbm-flag-m0-length",
            "preset-flag-m0-length",
            "params-not-object",
            "gbm-B-3x3",
            "riccati-R-not-spd",
            "grid-t1-inf",
            "grid-points-inf",
            "grid-points-not-integer",
            "grid-span-overflows",
            "grid-repeats-a-time",
            "preset-with-stray-keys",
            "preset-P0",
            "preset-grid",
            "preset-params",
            "key-refin",
            "key-integrator",
            "key-out",
            "linear-params-B",
            "grid-fourth-key",
            "preset-and-config",
            "neither-preset-nor-config",
            "gbm-flag-m0-empty",
            "preset-flag-m0-empty",
            "flag-out-empty",
            "integrators-repeat",
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

    @pytest.mark.parametrize(
        "config",
        [
            LINEAR_2D,
            {**LINEAR_2D, "model": "ou",
             "params": {**LINEAR_2D["params"], "B": np.eye(2).tolist()}},
            {
                **LINEAR_2D,
                "model": "riccati",
                "params": {"A": np.eye(2).tolist(), "B": np.eye(2).tolist(),
                           "Q": np.eye(2).tolist(), "R": np.eye(2).tolist()},
                "grid": {"t0": 0.0, "t1": 0.1, "points": 3},
            },
        ],
        ids=["linear", "ou", "riccati"],
    )
    def test_m0_only_for_presets_and_gbm(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "refine": 4}))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv + ["--m0", "1,2,3,4,5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: --m0 applies only to the presets and gbm")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        # The same config without the flag runs.
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "config, key",
        [
            (PRESET_WITH_STRAY_KEYS, "'refin'"),
            ({**LINEAR_1D, "integrator": ["rk4"]}, "'integrator'"),
            ({**LINEAR_1D, "params": {"A": [[-1.0]], "B": [[1.0]]}}, "'B'"),
            ({**LINEAR_1D, "grid": {**LINEAR_1D["grid"], "dt": 0.5}}, "'dt'"),
        ],
        ids=["preset-refin", "integrator", "linear-params-B", "grid-dt"],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, config, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: unknown keys") and key in err

    def test_input_too_large_for_memory(self, tmp_path, capsys, monkeypatch):
        # A real 10**12-point request would be granted on a host that always
        # overcommits, and then faulted in, so the failure is simulated.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr("spdflow.cli.reference_trajectory", no_memory)
        argv = ["run", "--preset", "case2", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: input too large for memory")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, extra",
        [
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": 10**30}}, []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": 2**63}}, []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": 2**61}}, []),
            ({**LINEAR_1D, "grid": {"t0": 0.0, "t1": 1.0, "points": 2**60}}, []),
            ({**LINEAR_1D, "refine": 10**30}, []),
            ({**LINEAR_1D, "refine": 2**63}, []),
            ({**LINEAR_1D, "refine": 2**59 + 1}, []),
            (LINEAR_1D, ["--refine", str(2**63)]),
            (None, ["--preset", "case2", "--refine", str(2**57)]),
        ],
        ids=[
            "grid-points-1e30",
            "grid-points-2**63",
            "grid-points-2**61",
            "grid-points-2**60",
            "config-refine-1e30",
            "config-refine-2**63",
            "config-refine-2**59+1",
            "flag-refine-2**63",
            "preset-flag-refine-2**57",
        ],
    )
    def test_length_numpy_cannot_allocate(self, tmp_path, capsys, config, extra):
        # 8 bytes a point exceed the address space at 2**60 points; these are
        # rejected from the lengths alone, so nothing is ever allocated.
        argv = ["run", "--out", str(tmp_path / "out")] + extra
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: input too large for memory:")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        assert main(["run", "--preset", "case2", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config: cannot create")


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

    def test_m0_length_checked(self, capsys):
        assert main(["bounds", "--preset", "case2", "--m0", "1,2,3"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_m0_empty_is_input(self, capsys):
        assert main(["bounds", "--preset", "case2", "--m0", ""]) == 2
        assert capsys.readouterr().err.startswith("error: config: cannot parse")


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

    @pytest.mark.parametrize(
        "hs",
        [
            "0.2,0", "0.2,-0.1", "a,b", "0.2,nan", "0.2,inf", "0.1,0.1",
            "0.6,0.7", "0.3,0.15", "1e-320,0.1", "1e-300,0.1",
        ],
    )
    def test_bad_step_sizes_exit_2(self, capsys, hs):
        assert main(["convergence", "--model", "constant", "--hs", hs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra",
        [["--integrators", ""], ["--integrators", "rk4,rk4"], ["--out", ""]],
        ids=["integrators-empty", "integrators-repeat", "out-empty"],
    )
    def test_bad_flags_exit_2_before_the_study(self, capsys, extra):
        argv = ["convergence", "--model", "constant", "--hs", "0.2,0.1"] + extra
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestConvergenceStudy:
    """Every integrator and step size is measured against one reference."""

    HS = [0.2, 0.1, 0.05, 0.025]

    def test_one_reference_for_every_step_size(self, monkeypatch):
        calls = []

        def recording(model, P0, t_grid, refine):
            calls.append((list(t_grid), refine))
            return reference_trajectory(model, P0, t_grid, refine)

        monkeypatch.setattr("spdflow.cli.reference_trajectory", recording)
        convergence_study(convergence_model("noncommuting"), ["euler"], self.HS)
        assert calls == [([0.0, 1.0], 2560)]

    def test_reference_accurate_where_lie_schemes_are_exact(self):
        # On a constant field both Lie schemes are exact, so their errors
        # are the reference's own.
        study = convergence_study(
            convergence_model("constant"), ["lie_euler", "rkmk4"], self.HS
        )
        assert max(max(errors) for errors in study.values()) <= 1e-13

    def test_every_run_ends_at_t1(self, monkeypatch):
        ends = []

        def recording(stepper, model, P0, t_grid):
            ends.append(t_grid[-1])
            return integrate(stepper, model, P0, t_grid)

        monkeypatch.setattr("spdflow.cli.integrate", recording)
        names = ["euler", "rk4", "lie_euler", "rkmk4"]
        convergence_study(convergence_model("noncommuting"), names, [0.2, 0.1000001])
        assert len(ends) == 8 and all(t == CONV_T1 for t in ends)


class TestNumericalFailure:
    """A numerical failure exits 3 with one line and no numpy warnings."""

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {
                    "model": "linear",
                    "params": {"A": [[400.0, 0.0], [0.0, 1.0]]},
                    "P0": [[1.0, 0.0], [0.0, 1.0]],
                    "grid": {"t0": 0.0, "t1": 2.0, "points": 3},
                    "refine": 4,
                },
                "riemannian_rk4 failed",
            ),
            (
                {
                    "model": "riccati",
                    "params": {
                        "A": [[-1.0, 0.0], [0.0, -1.0]],
                        "B": [[1.0, 0.0], [0.0, 1.0]],
                        "Q": [[1.0, 0.0], [0.0, 1.0]],
                        "R": [[1.0, 0.0], [0.0, 1.0]],
                    },
                    "P0": [[1.0, 0.0], [0.0, 1.0]],
                    "grid": {"t0": 0.0, "t1": 5.0, "points": 6},
                    "refine": 64,
                },
                "reference left the manifold",
            ),
        ],
        ids=["linear-overflow", "riccati-forward-blowup"],
    )
    def test_exits_3_with_one_line(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and message in err
        assert err.count("\n") == 1

    def test_gbm_mean_overflow_exits_3(self, tmp_path, capsys):
        # expm(1.0 * diag(800, 1)) overflows at the first full substep.
        config = {
            "model": "gbm",
            "params": {"A": [[800.0, 0.0], [0.0, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]]},
            "P0": [[1.0, 0.0], [0.0, 1.0]],
            "grid": {"t0": 0.0, "t1": 2.0, "points": 2},
            "refine": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and "expm overflowed" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_failed_reference_creates_no_out(self, tmp_path, capsys):
        # A forward Riccati flow escapes the cone near t = 0.62, so the
        # reference fails; with linear-overflow the reference succeeds and
        # riemannian_rk4, after euler and rk4, fails.  Either exits 3 before
        # any output directory exists.
        eye = np.eye(2).tolist()
        rows = [
            (
                {
                    "model": "riccati",
                    "params": {"A": (-np.eye(2)).tolist(),
                               "B": eye, "Q": eye, "R": eye},
                    "P0": eye,
                    "grid": {"t0": 0.0, "t1": 5.0, "points": 6},
                    "refine": 64,
                },
                "solution itself leaves the cone",
            ),
            (
                {
                    "model": "linear",
                    "params": {"A": [[400.0, 0.0], [0.0, 1.0]]},
                    "P0": eye,
                    "grid": {"t0": 0.0, "t1": 2.0, "points": 3},
                    "refine": 4,
                },
                "riemannian_rk4 failed",
            ),
        ]
        for config, message in rows:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            out = tmp_path / "o"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 3
            assert message in capsys.readouterr().err
            assert not out.exists()


_SMALLEST_CONFIGS = {
    "linear": {"model": "linear", "params": {"A": [[-1.0, 0.5], [0.0, -2.0]]}},
    "ou": {
        "model": "ou",
        "params": {"A": [[-1.0, 0.5], [0.0, -2.0]], "B": [[1.0, 0.0], [0.5, 1.0]]},
    },
    "gbm": {
        "model": "gbm",
        "params": {
            "A": [[-1.0, 0.5], [0.0, -2.0]],
            "B": [[-0.4, 0.1], [0.1, -0.2]],
            "m0": [1.0, 2.0],
        },
    },
    "riccati": {
        "model": "riccati",
        "params": {
            "A": [[-1.0, 0.5], [0.0, -2.0]],
            "B": [[1.0], [0.5]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[2.0]],
        },
    },
}


class TestEveryModelRuns:
    """The smallest valid config of each model exits 0 and writes one
    trajectory per integrator."""

    @pytest.mark.parametrize("model", ["linear", "ou", "gbm", "riccati", "case1"])
    def test_exits_0(self, tmp_path, capsys, model):
        if model == "case1":
            config = {"model": "case1", "refine": 2}
        else:
            config = {
                **_SMALLEST_CONFIGS[model],
                "P0": [[2.0, 0.5], [0.5, 1.0]],
                "grid": {"t0": 0.0, "t1": 0.5, "points": 2},
                "refine": 2,
            }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        expected = {f"trajectory_{name}.csv" for name in STEPPER_NAMES}
        expected |= {"trajectory_reference.csv", "errors.csv"}
        assert {f.name for f in out.iterdir()} == expected
        points = 30 if model == "case1" else 2
        for name in expected - {"errors.csv"}:
            _, rows = read_csv(out / name)
            assert len(rows) == points


class TestModelBuilderLookup:
    """A run calls the builder bound to ``spdflow.cli.<model>_model`` when it
    runs, so that a wrapper patched over that name (as a traced benchmark
    run patches it) sees every model the CLI builds."""

    @pytest.mark.parametrize("model", ["linear", "ou", "gbm", "riccati", "case2"])
    def test_patched_builder_called_once(self, tmp_path, monkeypatch, model):
        calls = {}
        for name in ("linear", "ou", "gbm", "riccati"):
            builder = getattr(spdflow.cli, f"{name}_model")

            def counting(*args, name=name, builder=builder):
                calls[name] = calls.get(name, 0) + 1
                return builder(*args)

            monkeypatch.setattr(spdflow.cli, f"{name}_model", counting)
        out = str(tmp_path / "o")
        if model == "case2":
            argv = ["run", "--preset", "case2", "--refine", "2", "--out", out]
        else:
            config = {
                **_SMALLEST_CONFIGS[model],
                "P0": [[2.0, 0.5], [0.5, 1.0]],
                "grid": {"t0": 0.0, "t1": 0.5, "points": 2},
                "refine": 2,
            }
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["run", "--config", str(path), "--out", out]
        assert main(argv) == 0
        assert calls == {"gbm" if model == "case2" else model: 1}


_SPD = [[2.0, 0.5], [0.5, 1.0]]
_MATRICES = st.one_of(
    st.sampled_from(
        [
            _SPD,
            [[-1.0, 0.0], [0.0, -2.0]],
            [[1.0, 2.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -1.0]],
            [[float("nan"), 0.0], [0.0, 1.0]],
            [[1e300, 0.0], [0.0, 1.0]],
            [[1.0]],
            [[1.0, 2.0], [3.0]],
            {"a": 1},
            "I",
        ]
    ),
    st.lists(
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    ),
)
_GRIDS = st.fixed_dictionaries(
    {
        "t0": st.just(0.0),
        "t1": st.sampled_from([0.5, 2.0]),
        "points": st.sampled_from([2, 3]),
    }
)
_RUN_KEYS = {
    "refine": st.sampled_from([2, 4, 1, 2.7, "many", True]),
    "integrators": st.sampled_from(
        [["rk4", "rkmk4"], ["lie_euler", "riemannian_rk4"], "rk4", 5, [1], ["rk4"] * 2]
    ),
}
_PARAMS = {"linear": "A", "ou": "AB", "gbm": "AB", "riccati": "ABQR"}


def _config_of(model):
    """Configs of ``model`` drawing its own keys, and now and then a stray one,
    which no config reads and so exits 2."""
    strays = [{"refin": 4}, {"out": "elsewhere"}]
    if model == "case1":
        own = {"model": st.just(model)}
        strays.append({"P0": _SPD})  # a preset fixes P0
    else:
        m0 = st.sampled_from([[0.0, 1.0], [1.0], [1.0, 2.0, 3.0], "m"])
        own = {
            "model": st.just(model),
            "params": st.fixed_dictionaries(
                {key: _MATRICES for key in _PARAMS[model]},
                optional={"m0": m0} if model == "gbm" else {},
            ),
            "P0": st.one_of(st.just(_SPD), _MATRICES),
            "grid": _GRIDS,
        }
    return st.tuples(
        st.fixed_dictionaries(own, optional=_RUN_KEYS),
        st.sampled_from([{}] * 3 + strays),
    ).map(lambda drawn: {**drawn[0], **drawn[1]})


_CONFIGS = st.sampled_from(["linear", "ou", "gbm", "riccati", "case1"]).flatmap(
    _config_of
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=_CONFIGS)
def test_random_configs_exit_0_2_or_3(config):
    """Any config on a tiny grid exits 0, 2 or 3 with at most one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    assert rc in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1
