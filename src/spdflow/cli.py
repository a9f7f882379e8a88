"""Benchmark command line: run integrator comparisons, report step-size
admissibility bounds, and fit convergence orders.

Subcommands::

    spdflow run --config <path> | --preset case1|case2 [--out DIR]
                [--m0 x,y] [--refine N]
    spdflow bounds --preset case1|case2 [--field euler|rk4|both]
    spdflow convergence --model constant|noncommuting --hs h1,h2,... [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigError, SpdflowError
from .integrators import (
    STEPPER_NAMES,
    Trajectory,
    get_stepper,
    integrate,
    reference_trajectory,
    rk4_step,
)
from .manifold import affine_distance, step_bounds
from .matcore import sym
from .models import (
    ModelSpec,
    gbm_model,
    linear_model,
    make_case_study,
    ou_model,
    riccati_model,
)

NOT_ON_MANIFOLD = "NotOnManifold"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {text!r}") from exc


def _check_integrators(names: Sequence[str]) -> None:
    unknown = [s for s in names if s not in STEPPER_NAMES]
    if unknown:
        raise ConfigError(f"unknown integrators: {unknown}")


@dataclass(frozen=True)
class Experiment:
    """A fully resolved run configuration."""

    model: ModelSpec
    P0: np.ndarray
    t_grid: np.ndarray
    integrators: List[str]
    refine: int
    out: str


def _model_from_config(cfg: dict, m0_override: Optional[np.ndarray]):
    model_id = cfg.get("model")
    params = cfg.get("params", {})

    def mat(key):
        if key not in params:
            raise ConfigError(f"model {model_id!r} requires params.{key}")
        return np.asarray(params[key], dtype=np.float64)

    if model_id in ("case1", "case2"):
        case = make_case_study(model_id, m0=m0_override)
        return case.model(), case.P0, case.grid()

    grid_cfg = cfg.get("grid")
    if not grid_cfg:
        raise ConfigError("config requires a grid for non-preset models")
    try:
        points = int(grid_cfg["points"])
        t0, t1 = float(grid_cfg["t0"]), float(grid_cfg["t1"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"grid needs numeric t0, t1 and points: {exc!r}") from exc
    if points < 2 or t1 <= t0:
        raise ConfigError("grid must satisfy points >= 2 and t1 > t0")
    t_grid = np.linspace(t0, t1, points)
    P0 = np.asarray(cfg.get("P0"), dtype=np.float64)
    if P0.ndim != 2:
        raise ConfigError("config requires an initial SPD matrix P0")

    if model_id == "linear":
        return linear_model(mat("A")), P0, t_grid
    if model_id == "ou":
        return ou_model(mat("A"), mat("B")), P0, t_grid
    if model_id == "gbm":
        m0 = m0_override
        if m0 is None:
            m0 = np.asarray(params.get("m0", np.zeros(P0.shape[0])), dtype=float)
        return gbm_model(mat("A"), mat("B"), m0), P0, t_grid
    if model_id == "riccati":
        return riccati_model(mat("A"), mat("B"), mat("Q"), mat("R")), P0, t_grid
    raise ConfigError(f"unknown model id {model_id!r}")


def _load_experiment(args) -> Experiment:
    m0_override = _parse_vector(args.m0) if args.m0 else None
    if args.preset:
        cfg = {"model": args.preset}
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {args.config} is not a JSON object")
    else:
        raise ConfigError("one of --preset or --config is required")
    model, P0, t_grid = _model_from_config(cfg, m0_override)
    refine = args.refine if args.refine is not None else int(cfg.get("refine", 512))
    if refine < 2:
        raise ConfigError(f"refine must be at least 2, got {refine}")
    out = args.out if args.out else cfg.get("out", ".")
    integrators = list(cfg.get("integrators", STEPPER_NAMES))
    _check_integrators(integrators)
    return Experiment(model, P0, t_grid, integrators, refine, out)


def _upper_triangle(P: np.ndarray) -> List[float]:
    n = P.shape[0]
    return [P[i, j] for i in range(n) for j in range(i, n)]


def _write_lines(path: str, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trajectory_csv(path: str, traj: Trajectory) -> None:
    n = traj.points[0].shape[0]
    header = ["t"] + [
        f"p_{i + 1}{j + 1}" for i in range(n) for j in range(i, n)
    ] + ["min_eig", "spd"]
    lines = [",".join(header)]
    for t, P, mineig, ok in zip(traj.times, traj.points, traj.min_eigs, traj.spd):
        cells = [_fmt(t)] + [_fmt(v) for v in _upper_triangle(P)]
        cells += [_fmt(mineig), "1" if ok else "0"]
        lines.append(",".join(cells))
    _write_lines(path, lines)


def cmd_run(args) -> int:
    exp = _load_experiment(args)
    os.makedirs(exp.out, exist_ok=True)
    ref = reference_trajectory(exp.model, exp.P0, exp.t_grid, exp.refine)
    _write_trajectory_csv(os.path.join(exp.out, "trajectory_reference.csv"), ref)
    error_lines = ["t,integrator,frob_dist,affine_dist_or_NA,spd"]
    for name in exp.integrators:
        traj = integrate(get_stepper(name), exp.model, exp.P0, exp.t_grid)
        _write_trajectory_csv(
            os.path.join(exp.out, f"trajectory_{name}.csv"), traj
        )
        for t, P, Pref, ok in zip(traj.times, traj.points, ref.points, traj.spd):
            frob = float(np.linalg.norm(P - Pref))
            aff = _fmt(affine_distance(Pref, P)) if ok else NOT_ON_MANIFOLD
            error_lines.append(
                ",".join([_fmt(t), name, _fmt(frob), aff, "1" if ok else "0"])
            )
    _write_lines(os.path.join(exp.out, "errors.csv"), error_lines)
    print(f"run complete: {len(exp.integrators)} integrators, out={exp.out}")
    return 0


def _bounds_fields(model: ModelSpec, P0: np.ndarray, h: float):
    t0 = 0.0
    T_euler = model.tangent(P0, t0, model.aux0)
    T_rk4 = sym((rk4_step(model, t0, P0, h, model.aux0) - P0) / h)
    return {"euler": T_euler, "rk4": T_rk4}


def cmd_bounds(args) -> int:
    if not args.preset:
        raise ConfigError("bounds requires --preset")
    m0_override = _parse_vector(args.m0) if args.m0 else None
    case = make_case_study(args.preset, m0=m0_override)
    fields = _bounds_fields(case.model(), case.P0, case.h)
    wanted = ["euler", "rk4"] if args.field == "both" else [args.field]
    for name in wanted:
        b = step_bounds(case.P0, fields[name])
        print(
            f"field={name} rho_stay={_fmt(b.rho_stay)} "
            f"rho_leave={_fmt(b.rho_leave)} regime={b.regime}"
        )
    return 0


# Fixed noncommuting test problem for convergence studies:
# xi(t) = A + sin(t) C with [A, C] far from zero.
CONV_A = np.array([[-1.0, 2.0, 0.0], [0.0, -2.0, 1.0], [0.5, 0.0, -0.5]])
CONV_C = np.array([[0.0, 1.0, 0.0], [-0.3, 0.0, 2.0], [0.0, 0.5, 0.0]])
CONV_P0 = (np.eye(3) + 0.2 * np.ones((3, 3))) @ (np.eye(3) + 0.2 * np.ones((3, 3)))


def convergence_model(model_id: str) -> ModelSpec:
    """Built-in smooth test problems for order fitting."""
    if model_id == "constant":
        return linear_model(CONV_A)
    if model_id == "noncommuting":
        def xi(P, t, aux):
            return CONV_A + np.sin(t) * CONV_C

        def tangent(P, t, aux):
            z = xi(P, t, aux)
            return sym(z @ P + P @ z.T)

        return ModelSpec(n=3, name="noncommuting", xi=xi, tangent=tangent)
    raise ConfigError(f"unknown convergence model {model_id!r}")


def convergence_study(
    model: ModelSpec,
    integrators: Sequence[str],
    hs: Sequence[float],
    t1: float = 1.0,
    ref_refine: int = 64,
) -> dict:
    """Final-time Frobenius error per step size, against a refined RKMK4 run.

    The reference at each h is an RKMK4 run with step h / ref_refine, shared
    across all integrators.
    """
    rkmk = get_stepper("rkmk4")
    refs = []
    grids = []
    for h in hs:
        steps = max(1, round(t1 / h))
        grids.append(np.linspace(0.0, steps * h, steps + 1))
        fine = np.linspace(0.0, steps * h, steps * ref_refine + 1)
        refs.append(integrate(rkmk, model, CONV_P0, fine).final)
    out = {}
    for name in integrators:
        stepper = get_stepper(name)
        out[name] = [
            float(np.linalg.norm(integrate(stepper, model, CONV_P0, g).final - r))
            for g, r in zip(grids, refs)
        ]
    return out


def fit_slope(hs: Sequence[float], errors: Sequence[float]) -> float:
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def cmd_convergence(args) -> int:
    model = convergence_model(args.model)
    hs = [float(v) for v in args.hs.split(",")]
    if len(hs) < 2:
        raise ConfigError("need at least 2 step sizes")
    integrators = (
        args.integrators.split(",") if args.integrators else
        ["euler", "rk4", "lie_euler", "rkmk4"]
    )
    _check_integrators(integrators)
    csv_lines = ["integrator,h,error"]
    study = convergence_study(model, integrators, hs)
    for name in integrators:
        errors = study[name]
        for h, e in zip(hs, errors):
            csv_lines.append(f"{name},{_fmt(h)},{_fmt(e)}")
        if max(errors) <= 1e-10:
            print(f"integrator={name} slope=exact")
        else:
            print(f"integrator={name} slope={fit_slope(hs, errors):.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "convergence.csv"), csv_lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdflow",
        description="Benchmarks for structure-preserving SPD integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a model and emit CSV artifacts")
    run.add_argument("--config", help="JSON experiment config")
    run.add_argument("--preset", choices=["case1", "case2"])
    run.add_argument("--out", help="output directory")
    run.add_argument("--m0", help="initial mean override, comma separated")
    run.add_argument("--refine", type=int, help="reference refinement factor")
    run.set_defaults(fn=cmd_run)

    bounds = sub.add_parser("bounds", help="step-size admissibility bounds")
    bounds.add_argument("--preset", choices=["case1", "case2"])
    bounds.add_argument("--field", choices=["euler", "rk4", "both"], default="both")
    bounds.add_argument("--m0", help="initial mean override, comma separated")
    bounds.set_defaults(fn=cmd_bounds)

    conv = sub.add_parser("convergence", help="fit integrator order slopes")
    conv.add_argument("--model", required=True)
    conv.add_argument("--hs", required=True, help="comma-separated step sizes")
    conv.add_argument("--integrators", help="comma-separated integrator names")
    conv.add_argument("--out", help="optional CSV output directory")
    conv.set_defaults(fn=cmd_convergence)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (SpdflowError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
