"""Microbenchmarks of single spdflow calls, in calibrated microseconds.

Each timing is the median over several repeats of a call loop of the
per-call time divided by the calibration slices taken around and during that
loop, scaled to the reference machine's slice time (calib.SLICE_NOMINAL_S).
Inputs come from the seed.
"""

import statistics
import time

import numpy as np

from calib import SLICE_NOMINAL_S, timed_call

MATCORE_SIZES = (2, 4, 8, 16)
ACTION_SIZES = (2, 8)
STEPPERS = ("euler", "rk4", "riemannian_rk4", "lie_euler", "rkmk4")
_REPEATS = 5


def calibrated_us(fn, budget_s):
    """Calibrated microseconds per call of fn, within about budget_s."""
    fn()
    number = 1
    while True:  # find a loop length of about budget_s / _REPEATS
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        dt = time.perf_counter() - t0
        if dt >= budget_s / (4 * _REPEATS):
            break
        number *= 4
    number = max(1, int(number * (budget_s / _REPEATS) / dt))

    def loop():
        for _ in range(number):
            fn()

    ratios = []
    for _ in range(_REPEATS):
        seconds, cal = timed_call(loop)
        ratios.append(seconds / number / cal)
    return statistics.median(ratios) * SLICE_NOMINAL_S * 1e6


def _spd(rng, n):
    W = rng.standard_normal((n, n))
    return W @ W.T / n + np.eye(n)


def cases(seed, riccati_params):
    """(metric name, zero-argument call) for every microbenchmark."""
    from spdflow import actions, integrators, manifold, matcore, models

    rng = np.random.default_rng(seed)
    out = []
    for n in MATCORE_SIZES:
        W = rng.standard_normal((n, n))
        S = 0.15 * (W + W.T)
        N = 0.3 * rng.standard_normal((n, n))
        theta = 0.3 * rng.standard_normal((n, n))
        A = rng.standard_normal((n, n))
        P1, P2 = _spd(rng, n), _spd(rng, n)
        out += [
            (f"matcore.expm_sym.n{n}", lambda S=S: matcore.expm(S)),
            (f"matcore.expm_pade.n{n}", lambda N=N: matcore.expm(N)),
            (f"matcore.dexpinv.n{n}", lambda t=theta, A=A: matcore.dexpinv(t, A, 4)),
            (f"matcore.sym_eig.n{n}", lambda P=P1: matcore.sym_eig(P)),
            (f"manifold.affine_distance.n{n}",
             lambda P1=P1, P2=P2: manifold.affine_distance(P1, P2)),
        ]
    for n in ACTION_SIZES:
        cong, sieg = actions.CongruenceAction(n), actions.SiegelAction(n)
        N = 0.3 * rng.standard_normal((n, n))
        M = matcore.expm(N)
        P = _spd(rng, n)
        Sp = actions.SpAlgebraElem(
            0.3 * rng.standard_normal((n, n)),
            0.3 * matcore.sym(rng.standard_normal((n, n))),
            0.3 * matcore.sym(rng.standard_normal((n, n))),
        )
        G = sieg.exp(Sp)
        out += [
            (f"actions.congruence_act.n{n}", lambda M=M, P=P, a=cong: a.act(M, P)),
            (f"actions.congruence_exp.n{n}", lambda N=N, a=cong: a.exp(N)),
            (f"actions.siegel_act.n{n}", lambda G=G, P=P, a=sieg: a.act(G, P)),
            (f"actions.siegel_exp.n{n}", lambda Sp=Sp, a=sieg: a.exp(Sp)),
        ]
    case = models.make_case_study("case1")
    r = riccati_params
    problems = {
        "case1": (case.model(), case.P0, case.h),
        "riccati-n8": (models.riccati_model(r["A"], r["B"], r["Q"], r["R"]), r["P0"], 0.05),
    }
    for stepper_name in STEPPERS:
        stepper = integrators.get_stepper(stepper_name)
        for label, (model, P0, h) in problems.items():
            out.append((
                f"integrators.step.{stepper_name}.{label}",
                lambda s=stepper, m=model, P=P0, h=h: s.step(m, 0.0, P, h, m.aux0),
            ))
    return out


def run_all(seed, riccati_params, budget_s):
    """Calibrated microseconds per call for every case, within ~budget_s."""
    todo = cases(seed, riccati_params)
    each = max(0.02, budget_s / len(todo))
    return {name: calibrated_us(fn, each) for name, fn in todo}
