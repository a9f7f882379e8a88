"""The benchmark's workloads: the ops each one repeats and how each op's
outputs are checked against the oracle.

Every workload is a closed loop in one process: the next op starts when the
previous one has returned.  An op is one call of `spdflow.cli.main(argv)`.

* presets:     `run --preset case1` and `run --preset case2`, alternating.
               The paper's GBM cases (n=2); the 14,848-substep RK4 reference
               and GBM `evolve_aux` dominate.
* convergence: `convergence --model noncommuting --hs 0.2,0.1,0.05,0.025`.
               An n=3 time-dependent field with no reference trajectory and
               no auxiliary state; RKMK4 (Pade expm, dexpinv, congruence act)
               dominates.
* riccati-n8:  `run --config` on a seeded n=8 LQR Riccati config.  The same
               `run` path as presets with no auxiliary state and no expm in
               the reference: `tangent` and the per-substep SPD test
               dominate.
"""

import contextlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import calib
import oracle
import riccati_gen

WORKLOADS = ("presets", "convergence", "riccati-n8")
CONV_HS = (0.2, 0.1, 0.05, 0.025)
# The run path's default schemes, restated so the checks do not depend on
# the program's own list.
RUN_INTEGRATORS = ("euler", "rk4", "riemannian_rk4", "lie_euler", "rkmk4")


@dataclass
class OpKind:
    """One kind of op: its argv, output directory and output check."""

    name: str
    argv: List[str]
    out_dir: str
    check: Callable[[str], List[str]]


@dataclass
class OpResult:
    seconds: float
    cal: float
    ok: bool
    problems: List[str]


def make_ops(workload: str, seed: int, tmp: str) -> List[OpKind]:
    """The op kinds of one workload, in the order the loop cycles them."""
    if workload == "presets":
        kinds = []
        for case in ("case1", "case2"):
            out = os.path.join(tmp, case)
            A, B, m0, P0, grid = oracle.case_params(case)
            exact = oracle.gbm_closed_form(A, B, m0, P0, grid)
            kinds.append(OpKind(
                case,
                ["run", "--preset", case, "--out", out],
                out,
                lambda text, out=out, exact=exact, case=case: oracle.check_run_outputs(
                    out, exact, RUN_INTEGRATORS, oracle.NOT_ON_MANIFOLD_ROWS[case]),
            ))
        return kinds
    if workload == "convergence":
        out = os.path.join(tmp, "convergence")
        hs = ",".join(repr(h) for h in CONV_HS)
        return [OpKind(
            "convergence",
            ["convergence", "--model", "noncommuting", "--hs", hs, "--out", out],
            out,
            lambda text: oracle.check_convergence_outputs(out, text, CONV_HS),
        )]
    if workload == "riccati-n8":
        out = os.path.join(tmp, "riccati")
        cfg_path = os.path.join(tmp, f"riccati-n8-seed{seed}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(riccati_gen.riccati_config_text(seed))
        p = riccati_gen.riccati_params(seed)
        grid = np.linspace(0.0, 1.0, riccati_gen.POINTS)
        exact = oracle.riccati_closed_form(p["A"], p["B"], p["Q"], p["R"], p["P0"], grid)
        return [OpKind(
            "riccati-n8",
            ["run", "--config", cfg_path, "--out", out],
            out,
            lambda text: oracle.check_run_outputs(out, exact, RUN_INTEGRATORS),
        )]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(kind: OpKind, entry, during=True) -> OpResult:
    """Run one op through ``entry`` (cli.main or a traced wrapper of it).

    Only the call is timed, against the calibration slices taken around and
    (with ``during``) inside it.  The op fails on a non-zero exit, an
    exception or a failed output check.
    """
    shutil.rmtree(kind.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    outcome = {}

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome["rc"] = entry(list(kind.argv))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome["exc"] = exc

    seconds, cal = calib.timed_call(call, during)
    if "exc" in outcome:
        return OpResult(seconds, cal, False, [f"raised {outcome['exc']!r}"])
    if outcome["rc"] != 0:
        return OpResult(seconds, cal, False, [f"exit {outcome['rc']}: {err.getvalue().strip()}"])
    try:
        problems = kind.check(out.getvalue())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return OpResult(seconds, cal, not problems, problems)

