"""Benchmark command line: run integrator comparisons, report step-size
admissibility bounds, and fit convergence orders.

Subcommands::

    spdflow run --config <path> | --preset case1|case2 [--out DIR] [--m0 x,y]
    spdflow bounds --preset case1|case2 [--field euler|rk4|both] [--m0 x,y]
    spdflow convergence --model constant|noncommuting --hs h1,h2,... [--out DIR]

The parser declares the flag rules: ``run`` takes exactly one of
``--config`` and ``--preset``, and ``bounds`` requires ``--preset``.  A
preset is the ``gbm`` config it stands for (its A, B, m0, P0 and grid), so
every run and ``bounds`` reaches its model through one function,
``_experiment``, and ``--m0`` is applied there alone, as a
``params.m0`` override.  Each level of a config accepts only the keys that
are read; any other key is a configuration error, and a preset config holds
only ``model``, ``integrators`` and ``refine``, the reference's refinement
factor, which has no flag.  The config, ``params`` and ``grid`` must be JSON
objects, read by ``_only``.  Every entry of a matrix or a vector, and each
grid time, must be a JSON number; a string, a boolean or a list where a grid
time belongs is refused, not converted.  Each model param's rule is the shape
it must have, with ``"n"`` for P0's size and ``None`` for any length:
``SQUARE`` (n, n), ``ROWS`` (n, any) and ``VECTOR`` (n,); ``FREE`` sets
none, and the model's builder checks it.  ``_param`` compares every param
with its rule the same way.

Exit codes: 0 success (and ``--help``), 2 configuration error, 3 numerical
failure.  A bad flag is a configuration error too: the parser raises
``ConfigError``, so every exit 2 prints one ``error: config:`` line.  So is
a config file that cannot be read or decoded (not UTF-8, not JSON, or an
integer too long to convert) or that nests deeper than Python's recursion
limit.  A config or flag value echoed in that line and not yet validated is
abridged by ``reprlib``; a ``--config`` or ``--out`` path, and argparse's own
message, by ``_echo``.  Every file of ``--out`` is written by ``_write_files``.
"""

import argparse
import json
import math
import os
import reprlib
import sys
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigError, NotSpd, SpdflowError
from .integrators import (
    STEPPER_NAMES,
    Trajectory,
    get_stepper,
    integrate,
    reference_trajectory,
    rk4_step,
)
from .manifold import affine_distance, step_bounds
from .matcore import frobenius, is_spd, is_symmetric
from .models import (
    ModelSpec,
    from_drift,
    gbm_model,
    linear_model,
    make_case_study,
    ou_model,
    riccati_model,
)

NOT_ON_MANIFOLD = "NotOnManifold"
NOT_RESOLVED = "NA"
TOO_LARGE = "input too large for memory"

# The keys each level of a config may hold; any other key exits 2.
CONFIG_KEYS = ("model", "params", "P0", "grid", "integrators", "refine")
GRID_KEYS = ("t0", "t1", "points")
# Shape rules of a model param: the shape it must have, where "n" is P0's
# size and None any length.  FREE sets none; the builder checks it.
SQUARE, ROWS, VECTOR, FREE = ("n", "n"), ("n", None), ("n",), None
# A preset fixes model, params, P0 and grid: it expands to a gbm config.
PRESETS = ("case1", "case2")
PRESET_KEYS = ("model", "integrators", "refine")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_vector(text: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector {reprlib.repr(text)}") from exc


def _is_number(value) -> bool:
    """A JSON number, or a float a preset holds; a JSON boolean is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value) -> bool:
    """Every entry of nested lists is a number."""
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return _is_number(value)


def _numeric(value, what: str) -> np.ndarray:
    if not _numbers(value):
        raise ConfigError(f"{what} must hold only numbers")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be numeric") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} has non-finite entries")
    return arr


def _number(value, what: str) -> float:
    """A finite number: unlike ``_numeric``, a list is refused."""
    if not _is_number(value):
        raise ConfigError(f"{what} must be a number, got {reprlib.repr(value)}")
    return float(_numeric(value, what))


def _count(value, what: str) -> int:
    """An integer of at least 2: grid points or a refinement factor."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        raise ConfigError(f"{what} must be an integer >= 2, got {reprlib.repr(value)}")
    return value


def _allocatable(length: int, what: str) -> int:
    """A float64 array length numpy can represent; larger is bad input."""
    most = np.iinfo(np.intp).max // 8
    if length > most:
        raise ConfigError(f"{TOO_LARGE}: {what} has more than {most} points")
    return length


def _param(
    params: dict, key: str, rule: Optional[tuple], n: int, model_id: str
) -> np.ndarray:
    """params[key], numeric and of the shape its rule asks for P0's size n."""
    if key not in params:
        raise ConfigError(f"model {model_id!r} requires params.{key}")
    what = key if rule == VECTOR else f"params.{key}"  # bare, as --m0 sets m0
    M = _numeric(params[key], what)
    if rule is not FREE and (
        M.ndim != len(rule) or any(a == "n" and s != n for a, s in zip(rule, M.shape))
    ):
        raise ConfigError(
            f"{key} must have length {n}, got shape {M.shape}" if rule == VECTOR
            else f"{what} has shape {M.shape}; P0 is {n}x{n}"
        )
    return M


def _initial_point(value) -> np.ndarray:
    """P0 as a finite, square, symmetric, strictly positive definite matrix."""
    P0 = _numeric(value, "P0")
    if P0.ndim != 2 or P0.shape[0] != P0.shape[1]:
        raise ConfigError(f"P0 must be a square matrix, got shape {P0.shape}")
    if not is_symmetric(P0):
        raise ConfigError("P0 is not symmetric")
    ok, mineig = is_spd(P0)
    if not ok:
        raise ConfigError(f"P0 is not positive definite (min eig {mineig:.3e})")
    return P0


def _check_integrators(names: List[str]) -> None:
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ConfigError(
            f"integrators must be a list of names, got {reprlib.repr(names)}"
        )
    if not names:
        raise ConfigError("integrators must name at least one integrator")
    unknown = [s for s in names if s not in STEPPER_NAMES]
    if unknown:
        raise ConfigError(f"unknown integrators: {reprlib.repr(unknown)}")
    if len(set(names)) < len(names):
        raise ConfigError(f"integrators repeat a name: {reprlib.repr(names)}")


def _only(obj, keys: Sequence[str], where: str) -> dict:
    """``obj``, the config's JSON object at ``where``: a value that is not an
    object, or a key outside ``keys`` (a misspelt key), is an error."""
    allowed = ", ".join(keys)
    if not isinstance(obj, dict):
        raise ConfigError(
            f"{where} must be a JSON object of {allowed}, got {reprlib.repr(obj)}"
        )
    stray = [k for k in obj if k not in keys]
    if stray:
        raise ConfigError(
            f"unknown keys {reprlib.repr(stray)} in {where}; it takes {allowed}"
        )
    return obj


def _echo(text: str) -> str:
    """``text``, a path or an argparse message, as an error line shows it:
    each unprintable character escaped (a NUL byte as ``\\x00``, a newline
    as ``\\n``), and, past 120 bytes of UTF-8, only its head and tail around
    ``...``, 120 bytes in all.  Shorter printable text is shown as it is."""
    data = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text).encode()
    if len(data) > 120:
        data = data[:59] + b"..." + data[-58:]
    return data.decode(errors="ignore")  # drop a character the cut split


def _out_dir(text: str) -> str:
    """The ``--out`` flag's value: a directory name, so not empty and free of
    NUL bytes, which no path can hold.  It is refused here, before the run:
    ``os.makedirs`` would make the parents before the NUL and then fail."""
    if text == "" or "\0" in text:
        raise ConfigError(f"--out must name a directory, got '{_echo(text)}'")
    return text


def _experiment(cfg, m0_flag: Optional[str]):
    """(model, P0, t_grid, integrators, refine) of a config, each key read
    where CONFIG_KEYS declares it; a preset first becomes its gbm config."""
    if isinstance(cfg, dict) and cfg.get("model") in PRESETS:
        _only(cfg, PRESET_KEYS, f"a {cfg['model']} config")
        case = make_case_study(cfg["model"])
        cfg = {
            **cfg,
            "model": "gbm",
            "params": {k: getattr(case, k).tolist() for k in ("A", "B", "m0")},
            "P0": case.P0.tolist(),
            "grid": {"t0": case.t0, "t1": case.t1, "points": case.points},
        }
    _only(cfg, CONFIG_KEYS, "the config")
    # Each model's builder and its params' shape rules in argument order.
    # Built per call, not at import, so that a wrapper patched over a
    # builder's name (a traced benchmark run) is called.
    models = {
        "linear": (linear_model, {"A": SQUARE}),
        "ou": (ou_model, {"A": SQUARE, "B": ROWS}),
        "gbm": (gbm_model, {"A": SQUARE, "B": SQUARE, "m0": VECTOR}),
        "riccati": (riccati_model, {"A": SQUARE, "B": ROWS, "Q": SQUARE, "R": FREE}),
    }
    model_id = cfg.get("model")
    if not isinstance(model_id, str) or model_id not in models:
        raise ConfigError(f"unknown model id {reprlib.repr(model_id)}")
    build, rules = models[model_id]
    params = _only(cfg.get("params", {}), rules, f"params of {model_id!r}")
    if m0_flag is not None and "m0" not in rules:
        raise ConfigError(f"--m0 applies only to the presets and gbm, not {model_id!r}")
    if m0_flag is not None:
        params = {**params, "m0": _parse_vector(m0_flag)}

    grid = _only(cfg.get("grid"), GRID_KEYS, "grid")
    t0, t1 = (_number(grid.get(key), f"grid.{key}") for key in ("t0", "t1"))
    points = _allocatable(_count(grid.get("points"), "grid.points"), "grid")
    t_grid = np.linspace(t0, t1, points)
    if not np.isfinite(t_grid).all() or not (np.diff(t_grid) > 0).all():
        raise ConfigError("grid times must be finite and strictly increasing")
    if "P0" not in cfg:
        raise ConfigError("config requires an initial SPD matrix P0")
    P0 = _initial_point(cfg["P0"])
    n = P0.shape[0]
    if "m0" in rules:  # the mean is zero unless given
        params = {"m0": [0.0] * n, **params}
    args = [_param(params, key, rule, n, model_id) for key, rule in rules.items()]
    # Building a model only touches its parameters, so a failure is bad input.
    try:
        model = build(*args)
    except (SpdflowError, ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"model {model_id!r}: {exc}") from exc
    refine = _count(cfg.get("refine", 512), "refine")
    _allocatable((len(t_grid) - 1) * refine + 1, "reference grid")
    integrators = cfg.get("integrators", list(STEPPER_NAMES))
    _check_integrators(integrators)
    return model, P0, t_grid, integrators, refine


def _write_files(out: str, files: dict) -> None:
    """Make the directory ``out`` and write each of ``files``, a name and its
    lines, in order.  A file that cannot be written exits 2 and leaves only
    the files before it; each error line shows the path once, by ``_echo``,
    and the OS's reason."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {_echo(out)}: {exc.strerror or exc}"
        ) from exc
    for name, lines in files.items():
        path = os.path.join(out, name)
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ConfigError(
                f"cannot write {_echo(path)}: {exc.strerror or exc}"
            ) from exc


def _trajectory_lines(traj: Trajectory):
    """The lines of a trajectory CSV, one at a time: the header, then per
    time t, the point's upper triangle, its min eig and its spd flag."""
    rows, cols = np.triu_indices(traj.points.shape[-1])
    yield ",".join(
        ["t", *(f"p_{i + 1}{j + 1}" for i, j in zip(rows, cols)), "min_eig", "spd"]
    )
    upper = traj.points[:, rows, cols]
    for t, entries, mineig, ok in zip(traj.times, upper, traj.min_eigs, traj.spd):
        yield ",".join([_fmt(v) for v in (t, *entries, mineig)] + ["1" if ok else "0"])


def _affine_cells(refs: np.ndarray, points: np.ndarray) -> List[str]:
    """The affine column's cell of each pair of SPD points, from one
    affine_distance call on the two stacks.  That call raises NotSpd when
    float64 cannot resolve some pair's W P W as SPD; then each pair is
    measured alone, and the cell of a pair that raises again is NA."""
    try:
        return [_fmt(d) for d in affine_distance(refs, points)]
    except NotSpd:
        if len(refs) == 1:
            return [NOT_RESOLVED]
    return [_affine_cells(Pref[None], P[None])[0] for Pref, P in zip(refs, points)]


def cmd_run(args) -> int:
    if args.preset is not None:
        cfg = {"model": args.preset}
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
            raise ConfigError(
                f"cannot read config {_echo(args.config)}: "
                f"{getattr(exc, 'strerror', None) or exc}"
            ) from exc
    model, P0, t_grid, integrators, refine = _experiment(cfg, args.m0)
    # --out is made only once every trajectory is computed and judged (its
    # min_eigs read, see Trajectory): all or nothing.
    ref = reference_trajectory(model, P0, t_grid, refine)
    ref.min_eigs
    trajs = {"reference": ref}
    error_lines = ["t,integrator,frob_dist,affine_dist_or_NA,spd"]
    for name in integrators:
        traj = trajs[name] = integrate(get_stepper(name), model, P0, t_grid)
        spd = traj.spd
        affine = iter(_affine_cells(ref.points[spd], traj.points[spd]))
        for t, P, Pref, ok in zip(traj.times, traj.points, ref.points, spd):
            frob = frobenius(P - Pref)
            aff = next(affine) if ok else NOT_ON_MANIFOLD
            error_lines.append(
                ",".join([_fmt(t), name, _fmt(frob), aff, "1" if ok else "0"])
            )
    _write_files(args.out, {
        **{f"trajectory_{name}.csv": _trajectory_lines(t) for name, t in trajs.items()},
        "errors.csv": error_lines,
    })
    print(f"run complete: {len(integrators)} integrators, out={args.out}")
    return 0


def _bounds_fields(model: ModelSpec, P0: np.ndarray, h: float):
    t0 = 0.0
    T_euler = model.tangent(P0, t0, model.aux0)
    T_rk4 = (rk4_step(model, t0, P0, h, model.aux0) - P0) / h
    return {"euler": T_euler, "rk4": T_rk4}


def cmd_bounds(args) -> int:
    model, P0, t_grid, _, _ = _experiment({"model": args.preset}, args.m0)
    fields = _bounds_fields(model, P0, t_grid[1] - t_grid[0])
    wanted = ["euler", "rk4"] if args.field == "both" else [args.field]
    for name in wanted:
        b = step_bounds(P0, fields[name])
        print(
            f"field={name} rho_stay={_fmt(b.rho_stay)} "
            f"rho_leave={_fmt(b.rho_leave)} regime={b.regime}"
        )
    return 0


# Fixed noncommuting test problem for convergence studies:
# xi(t) = A + sin(t) C with [A, C] far from zero.
CONV_A = np.array([[-1.0, 2.0, 0.0], [0.0, -2.0, 1.0], [0.5, 0.0, -0.5]])
CONV_C = np.array([[0.0, 1.0, 0.0], [-0.3, 0.0, 2.0], [0.0, 0.5, 0.0]])
CONV_P0 = (np.eye(3) + 0.2 * np.ones((3, 3))).dot(np.eye(3) + 0.2 * np.ones((3, 3)))
CONV_T1 = 1.0
# The convergence reference runs RK4 at N = max(CONV_REF_MIN_STEPS,
# CONV_REF_REFINE * max(steps)) substeps, and N / 2 (see convergence_study).
CONV_REF_REFINE = 16
CONV_REF_MIN_STEPS = 640


def convergence_model(model_id: str) -> ModelSpec:
    """Built-in smooth test problems for order fitting."""
    if model_id == "constant":
        return linear_model(CONV_A)
    if model_id == "noncommuting":
        return from_drift(
            lambda P, t, aux: CONV_A + math.sin(t) * CONV_C, xi_reads_point=False
        )
    raise ConfigError(f"unknown convergence model {reprlib.repr(model_id)}")


def convergence_ref_steps(max_steps: int, ref_refine: int = CONV_REF_REFINE) -> int:
    """N, the finer of the convergence reference's two RK4 runs:
    max(CONV_REF_MIN_STEPS, ref_refine * max_steps), rounded up to even so
    that the coarser run takes N / 2 steps of twice the size."""
    n = max(CONV_REF_MIN_STEPS, ref_refine * max_steps)
    return n + n % 2


def _step_counts(hs) -> np.ndarray:
    """round(t1 / h), at least 1, for each step size h: the steps from 0 to
    t1, as float64 (inf where t1 / h overflows)."""
    return np.maximum(np.rint(CONV_T1 / np.asarray(hs, dtype=np.float64)), 1.0)


def convergence_reference(
    model: ModelSpec, max_steps: int, ref_refine: int = CONV_REF_REFINE
) -> np.ndarray:
    """P(t1) from the fine RK4 of ``run`` at N and N / 2 substeps,
    Richardson-extrapolated: P_N + (P_N - P_{N/2}) / 15, with
    N = ``convergence_ref_steps(max_steps, ref_refine)``.  The derivation and
    the accuracy are in ``convergence_study``."""
    n = convergence_ref_steps(max_steps, ref_refine)
    fine, coarse = (
        reference_trajectory(model, CONV_P0, [0.0, CONV_T1], k).final
        for k in (n, n // 2)
    )
    return fine + (fine - coarse) / 15.0


def convergence_study(
    model: ModelSpec,
    integrators: Sequence[str],
    hs: Sequence[float],
    ref_refine: int = CONV_REF_REFINE,
) -> dict:
    """Final-time Frobenius error per step size, against one reference.

    Each h runs round(t1 / h) uniform steps ending exactly at t1.  Every
    integrator and every h is measured against the same reference,
    ``convergence_reference``: the fine-step classical RK4 of ``run`` from 0
    to t1 at N and at N / 2 substeps, N = max(CONV_REF_MIN_STEPS,
    ref_refine * max(steps)) rounded up to even (640 for the standard hs),
    Richardson-extrapolated.

    RK4's global error is C h^4 + O(h^5), so with h = t1 / N,
    P_N = P + C h^4 + O(h^5) and P_{N/2} = P + 16 C h^4 + O(h^5).  Their
    difference is -15 C h^4 + O(h^5), so P_N + (P_N - P_{N/2}) / 15 cancels
    the h^4 term and is fifth-order accurate, and ||P_N - P_{N/2}|| / 15
    estimates P_N's own error (Hairer, Norsett & Wanner, *Solving Ordinary
    Differential Equations I*, sections II.4 and II.9).

    The floor CONV_REF_MIN_STEPS is a property of the built-in problems, not
    of ``hs``: CONV_A, CONV_C, CONV_P0 and t1 are fixed, so the substeps the
    reference needs to reach float64 roundoff are fixed too.  Without it,
    ref_refine 16 leaves ``constant`` at max(steps) = 5 about 4e-10 from the
    truth, and its exact Lie schemes would fit a slope.  Frobenius distance
    of the reference from the truth (for ``constant`` scipy's
    expm(A) P0 expm(A)^T, for ``noncommuting`` a 40960 / 20480
    extrapolation), for one plain RK4 run at 64 * max(steps) substeps and
    for this reference:

    ==========  ===================  ===================
    max(steps)  constant             noncommuting
    ==========  ===================  ===================
    2           9.7e-10 -> 1.2e-14   2.3e-9 -> 4.3e-14
    5           2.4e-11 -> 1.2e-14   5.8e-11 -> 4.3e-14
    10          1.5e-12 -> 1.2e-14   3.6e-12 -> 4.3e-14
    40          7.9e-15 -> 1.2e-14   2.9e-14 -> 4.3e-14
    320         1.4e-14 -> 6.1e-15   4.4e-14 -> 2.7e-14
    ==========  ===================  ===================
    """
    steps = [int(s) for s in _step_counts(hs)]
    ref = convergence_reference(model, max(steps), ref_refine)
    grids = [np.linspace(0.0, CONV_T1, s + 1) for s in steps]
    out = {}
    for name in integrators:
        stepper = get_stepper(name)
        out[name] = [
            frobenius(integrate(stepper, model, CONV_P0, g).final - ref)
            for g in grids
        ]
    return out


def fit_slope(hs: Sequence[float], errors: Sequence[float]) -> float:
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def cmd_convergence(args) -> int:
    model = convergence_model(args.model)
    hs = _parse_vector(args.hs)
    if len(hs) < 2:
        raise ConfigError("need at least 2 step sizes")
    if not all(0.0 < h < np.inf for h in hs):
        raise ConfigError(f"step sizes must be finite and > 0: {reprlib.repr(args.hs)}")
    steps = _step_counts(hs)
    if not np.isclose(steps * hs, CONV_T1).all():
        raise ConfigError(
            f"each step size must divide t1 = {CONV_T1:g}: {reprlib.repr(args.hs)}"
        )
    # Two sizes with one step count measure one error twice: no slope.
    if len(set(steps)) < len(steps):
        raise ConfigError(
            f"step sizes must give distinct step counts: {reprlib.repr(args.hs)}"
        )
    _allocatable(convergence_ref_steps(int(steps.max())) + 1, "convergence reference")
    integrators = (
        ["euler", "rk4", "lie_euler", "rkmk4"] if args.integrators is None else
        args.integrators.split(",")
    )
    _check_integrators(integrators)
    csv_lines, slopes = ["integrator,h,error"], []
    study = convergence_study(model, integrators, hs)
    for name in integrators:
        errors = study[name]
        for h, e in zip(hs, errors):
            csv_lines.append(f"{name},{_fmt(h)},{_fmt(e)}")
        if max(errors) <= 1e-10:
            slopes.append(f"integrator={name} slope=exact")
        else:
            slopes.append(f"integrator={name} slope={fit_slope(hs, errors):.4f}")
    # The slopes are printed only once the CSV is written: a failed write
    # prints one error line and nothing else.
    if args.out is not None:
        _write_files(args.out, {"convergence.csv": csv_lines})
    print("\n".join(slopes))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reports a bad
    flag as a ConfigError instead of printing usage and exiting.  argparse
    echoes a bad value whole, so its message goes through ``_echo``."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {_echo(message)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spdflow",
        description="Benchmarks for structure-preserving SPD integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a model and emit CSV artifacts")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON experiment config")
    source.add_argument("--preset", choices=PRESETS)
    run.add_argument(
        "--out", type=_out_dir, default=".", help="output directory (default: .)"
    )
    run.add_argument("--m0", help="initial mean override for the presets and gbm")
    run.set_defaults(fn=cmd_run)

    bounds = sub.add_parser("bounds", help="step-size admissibility bounds")
    bounds.add_argument("--preset", choices=PRESETS, required=True)
    bounds.add_argument("--field", choices=["euler", "rk4", "both"], default="both")
    bounds.add_argument("--m0", help="initial mean override, comma separated")
    bounds.set_defaults(fn=cmd_bounds)

    conv = sub.add_parser("convergence", help="fit integrator order slopes")
    conv.add_argument("--model", required=True)
    conv.add_argument("--hs", required=True, help="comma-separated step sizes")
    conv.add_argument("--integrators", help="comma-separated integrator names")
    conv.add_argument("--out", type=_out_dir, help="optional CSV output directory")
    conv.set_defaults(fn=cmd_convergence)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Overflow and invalid values surface as NonFinite or a non-SPD point,
        # each reported on one line, so numpy's own warnings are silenced.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except SystemExit as exc:  # --help, the parser's only exit
        return exc.code
    except (ConfigError, RecursionError) as exc:  # a config nested too deeply
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Every array size comes from the input: grid points, refine, --hs.
        print(f"error: config: {TOO_LARGE}: {exc}", file=sys.stderr)
        return 2
    except (SpdflowError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
