"""Fixed-step time-stepping schemes on the SPD manifold: classical Euler and
RK4 in the ambient space, Riemannian-retraction RK4, Lie-Euler, and RKMK4,
plus the trajectory driver and the fine-step reference."""

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .actions import CongruenceAction, HomogeneousAction
from .errors import ModelEvalFailure, ReferenceLeftManifold
from .manifold import affine_exp
from .matcore import dexpinv, is_spd, sym
from .models import ModelSpec


def euler_step(model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None):
    """P + h F(P, t); symmetric but not guaranteed SPD."""
    return sym(P + h * model.tangent(P, t, aux))


def rk4_step(model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None):
    """Classical 4-stage Runge-Kutta step in the ambient vector space."""
    aux_half = model.evolve_aux(t, t + 0.5 * h, aux)
    aux_full = model.evolve_aux(t, t + h, aux)
    k1 = model.tangent(P, t, aux)
    k2 = model.tangent(sym(P + 0.5 * h * k1), t + 0.5 * h, aux_half)
    k3 = model.tangent(sym(P + 0.5 * h * k2), t + 0.5 * h, aux_half)
    k4 = model.tangent(sym(P + h * k3), t + h, aux_full)
    return sym(P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def riemannian_rk4_step(
    model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None
):
    """RK4 increment retracted to the manifold via the affine exponential."""
    dP = rk4_step(model, t, P, h, aux) - P
    return affine_exp(P, dP)


def lie_euler_step(
    action: HomogeneousAction,
    model: ModelSpec,
    t: float,
    P: np.ndarray,
    h: float,
    aux=None,
):
    """One step of the frozen-coefficient exponential flow; always SPD."""
    return action.act(action.exp(h * model.xi(P, t, aux)), P)


def rkmk4_step(
    action: HomogeneousAction,
    model: ModelSpec,
    t: float,
    P: np.ndarray,
    h: float,
    aux=None,
):
    """Order-4 Runge-Kutta-Munthe-Kaas step; always SPD.

    The RK4 tableau runs in the Lie algebra; stage derivatives are pulled
    back with the truncated dexpinv series.  The series convention here is
    left-trivialized while the flow multiplies the group element on the
    left of the base point, so dexpinv is evaluated at the negated stage.
    """
    aux_half = model.evolve_aux(t, t + 0.5 * h, aux)
    aux_full = model.evolve_aux(t, t + h, aux)
    A1 = h * model.xi(P, t, aux)
    K1 = A1
    A2 = h * model.xi(action.act(action.exp(0.5 * K1), P), t + 0.5 * h, aux_half)
    K2 = dexpinv(-0.5 * K1, A2, 4)
    A3 = h * model.xi(action.act(action.exp(0.5 * K2), P), t + 0.5 * h, aux_half)
    K3 = dexpinv(-0.5 * K2, A3, 4)
    A4 = h * model.xi(action.act(action.exp(K3), P), t + h, aux_full)
    K4 = dexpinv(-K3, A4, 4)
    theta = K1 / 6.0 + K2 / 3.0 + K3 / 3.0 + K4 / 6.0
    return action.act(action.exp(theta), P)


@dataclass(frozen=True)
class Stepper:
    """A named fixed-step scheme."""

    name: str
    fn: Callable[..., np.ndarray]

    def step(self, model, t, P, h, aux=None):
        return self.fn(model, t, P, h, aux)


STEPPER_NAMES = ("euler", "rk4", "riemannian_rk4", "lie_euler", "rkmk4")


def get_stepper(name: str) -> Stepper:
    """Look up a stepper by name; Lie steppers use the congruence action."""
    if name == "euler":
        return Stepper("euler", euler_step)
    if name == "rk4":
        return Stepper("rk4", rk4_step)
    if name == "riemannian_rk4":
        return Stepper("riemannian_rk4", riemannian_rk4_step)
    if name in ("lie_euler", "rkmk4"):
        step = lie_euler_step if name == "lie_euler" else rkmk4_step

        def bound(model, t, P, h, aux=None):
            return step(CongruenceAction(model.n), model, t, P, h, aux)

        return Stepper(name, bound)
    raise ValueError(f"unknown stepper {name!r}")


@dataclass(frozen=True)
class Trajectory:
    """Ordered (time, point) samples with per-point diagnostics."""

    times: np.ndarray
    points: List[np.ndarray]
    min_eigs: List[float]
    spd: List[bool]

    def __post_init__(self):
        if len(self.points) != len(self.times):
            raise ValueError("times and points length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


def integrate(
    stepper: Stepper, model: ModelSpec, P0: np.ndarray, t_grid: Sequence[float]
) -> Trajectory:
    """Drive a stepper over consecutive grid intervals.

    A point leaving the manifold is flagged, not fatal: the Euclidean
    baselines must be observable failing.  Evaluation errors propagate with
    the failing interval index attached.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    points = [np.array(P0, dtype=np.float64)]
    ok, mineig = is_spd(points[0])
    min_eigs, spd = [mineig], [ok]
    aux = model.aux0
    for i in range(len(t_grid) - 1):
        t, t_next = t_grid[i], t_grid[i + 1]
        try:
            P = stepper.step(model, t, points[-1], t_next - t, aux)
        except Exception as exc:
            raise ModelEvalFailure(
                f"{stepper.name} failed on interval {i} (t={t:.6g}): {exc}"
            ) from exc
        aux = model.evolve_aux(t, t_next, aux)
        ok, mineig = is_spd(P)
        points.append(P)
        min_eigs.append(mineig)
        spd.append(ok)
    return Trajectory(t_grid, points, min_eigs, spd)


def reference_trajectory(
    model: ModelSpec,
    P0: np.ndarray,
    t_grid: Sequence[float],
    refine: int = 512,
) -> Trajectory:
    """Classical RK4 with each grid interval subdivided ``refine`` times.

    Every sub-iterate must stay SPD; a failure means ``refine`` is too small
    for this problem.
    """
    if refine < 2:
        raise ValueError("refine must be at least 2")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    points = [np.array(P0, dtype=np.float64)]
    ok, mineig = is_spd(points[0])
    min_eigs, spd = [mineig], [ok]
    aux = model.aux0
    P = points[0]
    for i in range(len(t_grid) - 1):
        sub = np.linspace(t_grid[i], t_grid[i + 1], refine + 1)
        for j in range(refine):
            P = rk4_step(model, sub[j], P, sub[j + 1] - sub[j], aux)
            aux = model.evolve_aux(sub[j], sub[j + 1], aux)
            ok, mineig = is_spd(P)
            if not ok:
                raise ReferenceLeftManifold(
                    f"reference left the manifold at t={sub[j + 1]:.6g} "
                    f"(min eig {mineig:.3e}); increase refine"
                )
        points.append(P)
        min_eigs.append(mineig)
        spd.append(True)
    return Trajectory(t_grid, points, min_eigs, spd)
