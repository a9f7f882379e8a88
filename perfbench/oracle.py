"""Independent closed-form oracle for the benchmark's outputs.

Built on scipy.linalg, which spdflow does not use.  The preset cases are
restated here from the paper rather than read from spdflow, so a change to
the program's presets shows up as a failed check.

* GBM covariance (presets): dP/dt = theta P + P theta^T + B (P + m m^T) B^T
  with dm/dt = theta m is linear in (vec P, vec m m^T).  With
  L = I (x) theta + theta (x) I its generator is the Van Loan block matrix
  [[L + B (x) B, B (x) B], [0, L]] (Van Loan 1978, "Computing integrals
  involving the matrix exponential"), so each grid point is one expm.
* LQR Riccati: dP/dt = -(A P + P A^T - P G P + Q) with G = B R^-1 B^T is
  solved by [X; Y]' = [[-A, -Q], [-G, A^T]] [X; Y], X(0) = P0, Y(0) = I,
  P = X Y^-1.
"""

import csv
import os

import numpy as np
import scipy.linalg as sl

# The paper's two GBM cases: B, P0, and per case the eigenvalues of A in
# B's eigenbasis, the horizon, the grid size and the initial mean.
CASE_B = np.array([[-0.4, 0.1], [0.1, -0.2]])
CASE_P0 = np.array([[0.3383, -0.0716], [-0.0716, 0.0743]])
CASES = {
    "case1": {"dprime": (-10.0, -2.0), "t1": 2.0, "points": 30, "m0": (0.0, 0.0)},
    "case2": {
        "dprime": (-4.0, -8.0),
        "t1": 1.5,
        "points": 11,
        "m0": (3.75595019, 7.99464079),
    },
}
# Rows marked NotOnManifold in errors.csv at the paper's settings.  Euler
# leaves the cone on case1 too, so case1 is not free of them.
NOT_ON_MANIFOLD_ROWS = {"case1": 15, "case2": 17}

REF_TOL = 1e-10
LIE_SCHEMES = ("lie_euler", "rkmk4", "riemannian_rk4")
# Fitted final-time error slopes of `spdflow convergence`, with the same
# tolerances as the acceptance suite.
SLOPE_TARGETS = {"euler": (1.0, 0.2), "lie_euler": (1.0, 0.2), "rk4": (4.0, 0.3), "rkmk4": (4.0, 0.3)}


def case_params(case: str):
    spec = CASES[case]
    _, O = sl.eigh(CASE_B)
    A = O @ np.diag(spec["dprime"]) @ O.T
    A = 0.5 * (A + A.T)
    grid = np.linspace(0.0, spec["t1"], spec["points"])
    return A, CASE_B, np.asarray(spec["m0"]), CASE_P0, grid


def gbm_closed_form(A, B, m0, P0, times):
    """Exact GBM covariance at ``times`` (from t = times[0])."""
    n = A.shape[0]
    theta = A + 0.5 * B @ B
    I = np.eye(n)
    L = np.kron(I, theta) + np.kron(theta, I)
    BB = np.kron(B, B)
    K = np.block([[L + BB, BB], [np.zeros_like(L), L]])
    # Column-major vec, matching kron(I, theta) vec(P) = vec(theta P).
    z0 = np.concatenate([P0.flatten(order="F"), np.outer(m0, m0).flatten(order="F")])
    out = []
    for t in times:
        z = sl.expm((t - times[0]) * K) @ z0
        P = z[: n * n].reshape((n, n), order="F")
        out.append(0.5 * (P + P.T))
    return out


def riccati_closed_form(A, B, Q, R, P0, times):
    """Exact LQR Riccati solution at ``times`` (from t = times[0])."""
    n = A.shape[0]
    G = B @ sl.solve(R, B.T)
    H = np.block([[-A, -Q], [-G, A.T]])
    XY0 = np.vstack([P0, np.eye(n)])
    out = []
    for t in times:
        XY = sl.expm((t - times[0]) * H) @ XY0
        P = sl.solve(XY[n:].T, XY[:n].T).T
        out.append(0.5 * (P + P.T))
    return out


def read_trajectory(path):
    """Parse a trajectory CSV into (times, matrices, spd flags)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    k = len(header) - 3
    n = int(round((np.sqrt(8 * k + 1) - 1) / 2))
    iu = np.triu_indices(n)
    times, mats, flags = [], [], []
    for r in body:
        P = np.zeros((n, n))
        P[iu] = [float(v) for v in r[1 : 1 + k]]
        P = P + np.triu(P, 1).T
        times.append(float(r[0]))
        mats.append(P)
        flags.append(r[-1] == "1")
    return np.array(times), mats, flags


def read_errors(out_dir):
    """The rows of an op's errors.csv as dicts ([] when the op writes none)."""
    path = os.path.join(out_dir, "errors.csv")
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def not_on_manifold_rows(rows):
    return sum(r["affine_dist_or_NA"] == "NotOnManifold" for r in rows)


def _min_eig(P):
    return float(sl.eigvalsh(P)[0])


def check_run_outputs(out_dir, exact, integrators, expected_off=None):
    """Problems found in one `spdflow run` output directory ([] = pass).

    ``exact`` holds the closed-form solution on the output grid.  Checks:
    the reference is within REF_TOL of it; the Lie-group schemes are SPD on
    every row; each NotOnManifold marker agrees with an independent
    eigenvalue test; and, when given, the marker count is ``expected_off``.
    """
    problems = []
    _, ref, _ = read_trajectory(os.path.join(out_dir, "trajectory_reference.csv"))
    if len(ref) != len(exact):
        return [f"reference has {len(ref)} rows, expected {len(exact)}"]
    err = max(float(np.linalg.norm(P - E)) for P, E in zip(ref, exact))
    if not err <= REF_TOL:
        problems.append(f"reference is {err:.3e} from the closed form (tol {REF_TOL:g})")
    for name in integrators:
        _, mats, flags = read_trajectory(os.path.join(out_dir, f"trajectory_{name}.csv"))
        if name in LIE_SCHEMES and not all(flags):
            problems.append(f"{name} left the SPD cone")
        if name in LIE_SCHEMES and min(_min_eig(P) for P in mats) <= 0.0:
            problems.append(f"{name} has a non-SPD row by the oracle's eigenvalues")
    rows = read_errors(out_dir)
    off = not_on_manifold_rows(rows)
    for r in rows:
        marked = r["affine_dist_or_NA"] == "NotOnManifold"
        if marked != (r["spd"] == "0"):
            problems.append(f"errors.csv row t={r['t']} {r['integrator']}: marker and spd flag disagree")
            break
    if expected_off is not None and off != expected_off:
        problems.append(f"{off} NotOnManifold rows, expected {expected_off}")
    if len(rows) != len(integrators) * len(exact):
        problems.append(f"errors.csv has {len(rows)} rows, expected {len(integrators) * len(exact)}")
    return problems


def check_convergence_outputs(out_dir, stdout_text, hs):
    """Problems found in one `spdflow convergence` run ([] = pass).

    The slopes printed must match a refit of convergence.csv and sit within
    the acceptance tolerances of each scheme's classical order.
    """
    problems = []
    printed = {}
    for line in stdout_text.splitlines():
        if line.startswith("integrator="):
            fields = dict(f.split("=", 1) for f in line.split())
            printed[fields["integrator"]] = fields["slope"]
    with open(os.path.join(out_dir, "convergence.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    for name, (order, tol) in SLOPE_TARGETS.items():
        errs = [float(r["error"]) for r in rows if r["integrator"] == name]
        hv = [float(r["h"]) for r in rows if r["integrator"] == name]
        if len(errs) != len(hs) or not np.allclose(hv, hs, rtol=0, atol=1e-15):
            problems.append(f"convergence.csv lacks the {len(hs)} rows of {name}")
            continue
        slope = float(np.polyfit(np.log(hv), np.log(errs), 1)[0])
        if abs(slope - order) > tol:
            problems.append(f"{name} slope {slope:.3f} is not within {tol} of {order}")
        if name not in printed or abs(float(printed[name]) - slope) > 1e-4:
            problems.append(f"{name} printed slope {printed.get(name)} != refit {slope:.4f}")
    return problems
