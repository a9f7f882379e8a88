"""Fixed-step time-stepping schemes on the SPD manifold: classical Euler and
RK4 in the ambient space, Riemannian-retraction RK4, Lie-Euler, and RKMK4,
plus ``integrate`` over a time grid and the fine-step reference.  Both run
the one stepping loop, ``_march``, and return a ``Trajectory``, which gives
each of its points its minimum eigenvalue with one ``is_spd`` on its stack.
The reference feeds ``_march`` a refined grid and enforces the cone on its
sub-iterates a block at a time (``_enforce_cone``).  It marches as the
stepper ``reference rk4``, so its failures are told from the ``rk4``
integrator's; the interval they name is an index of the refined grid."""

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .actions import CongruenceAction
from .errors import ModelEvalFailure, ReferenceLeftManifold
from .manifold import affine_exp
from .matcore import cert_margin, dexpinv, frobenius, is_spd, spd_certified, sym
from .models import ModelSpec, rk4_stages


def euler_step(model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None):
    """P + h F(P, t), not re-symmetrized (see rk4_step); not guaranteed SPD."""
    return P + h * model.tangent(P, t, aux)


def rk4_step(model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None):
    """Classical 4-stage Runge-Kutta step in the ambient vector space.

    A model with ``rk4_increment`` gives the step as
    P + rk4_increment(P, h, aux), the same step taken through one cached
    linear map (see models._affine_model).  Every other model runs the
    tableau, ``models.rk4_stages``, on its tangent.  Neither the stage points
    nor the result are re-symmetrized: for an exactly symmetric P each is a
    sum of exactly symmetric arrays (see ModelSpec)."""
    if model.rk4_increment is not None:
        return P + model.rk4_increment(P, h, aux)
    aux_half = model.evolve_aux(t, t + 0.5 * h, aux)
    aux_full = model.evolve_aux(t, t + h, aux)
    return P + rk4_stages(model.tangent, P, h, t, aux, aux_half, aux_full)


def riemannian_rk4_step(
    model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None
):
    """RK4 increment retracted to the manifold via the affine exponential.

    The scheme is first order, not fourth: retracting the whole increment dP
    adds dP P^{-1} dP / 2, which is O(h^2) per step.  What it keeps is SPD
    iterates at any step size."""
    dP = rk4_step(model, t, P, h, aux) - P
    return affine_exp(P, dP)


def lie_euler_step(
    action, model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None
):
    """One step of the frozen-coefficient exponential flow; always SPD."""
    return action.act(action.exp(h * model.xi(P, t, aux)), P)


def rkmk4_step(
    action, model: ModelSpec, t: float, P: np.ndarray, h: float, aux=None
):
    """Order-4 Runge-Kutta-Munthe-Kaas step; always SPD.

    The RK4 tableau runs in the Lie algebra; stage derivatives are pulled
    back with the truncated dexpinv series.  The series convention here is
    left-trivialized while the flow multiplies the group element on the
    left of the base point, so dexpinv is evaluated at the negated stage.

    The stage points exp(K) . P are read only by xi.  For a model whose xi
    ignores its point (``model.xi_reads_point`` False) xi is handed P itself,
    so a step forms one exponential and one action, not four: the scheme
    becomes the Magnus-type method that samples xi(t) at the stage times
    (Iserles, Munthe-Kaas, Norsett & Zanna, *Lie-group methods*, Acta
    Numerica 2000, sections 4-5).  Every A_i is xi's value at its stage
    time, the same bits whatever point xi is handed, so the step keeps its
    bits; only the stage exponentials' and actions' own checks (an overflow,
    a singular element) no longer run.  The final exponential and action run
    with every check.
    """
    def stage(K):
        return action.act(action.exp(K), P) if model.xi_reads_point else P

    aux_half = model.evolve_aux(t, t + 0.5 * h, aux)
    aux_full = model.evolve_aux(t, t + h, aux)
    K1 = h * model.xi(P, t, aux)
    A2 = h * model.xi(stage(0.5 * K1), t + 0.5 * h, aux_half)
    K2 = dexpinv(-0.5 * K1, A2)
    A3 = h * model.xi(stage(0.5 * K2), t + 0.5 * h, aux_half)
    K3 = dexpinv(-0.5 * K2, A3)
    A4 = h * model.xi(stage(K3), t + h, aux_full)
    K4 = dexpinv(-K3, A4)
    theta = K1 / 6.0 + K2 / 3.0 + K3 / 3.0 + K4 / 6.0
    return action.act(action.exp(theta), P)


@dataclass(frozen=True)
class Stepper:
    """A named fixed-step scheme; ``step(model, t, P, h, aux)`` returns the
    point one step of size h after (t, P)."""

    name: str
    step: Callable[..., np.ndarray]


def _congruence(step):
    """Bind a Lie stepper to the congruence action."""

    def bound(model, t, P, h, aux=None):
        return step(CongruenceAction(P.shape[0]), model, t, P, h, aux)

    return bound


_STEPPERS = {
    "euler": euler_step,
    "rk4": rk4_step,
    "riemannian_rk4": riemannian_rk4_step,
    "lie_euler": _congruence(lie_euler_step),
    "rkmk4": _congruence(rkmk4_step),
}
STEPPER_NAMES = tuple(_STEPPERS)


def get_stepper(name: str) -> Stepper:
    """Look up a stepper by name."""
    if name not in _STEPPERS:
        raise ValueError(f"unknown stepper {name!r}")
    return Stepper(name, _STEPPERS[name])


@dataclass(frozen=True)
class Trajectory:
    """Ordered (time, point) samples: the (N, n, n) float64 stack ``points``
    and the (N,) float64 array ``min_eigs`` of their minimum eigenvalues,
    from one ``is_spd`` on the stack."""

    times: np.ndarray
    points: np.ndarray
    min_eigs: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.points) != len(self.times):
            raise ValueError("times and points length mismatch")
        if not (np.diff(self.times) > 0).all():  # False for a NaN time too
            raise ValueError("times must be strictly ascending")
        object.__setattr__(self, "min_eigs", is_spd(self.points)[1])

    @property
    def spd(self) -> np.ndarray:
        """Bool SPD flag per point; non-finite points carry min eig -inf."""
        return self.min_eigs > 0.0

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


def _march(
    stepper: Stepper, model: ModelSpec, P0: np.ndarray, times: np.ndarray
) -> Iterator[np.ndarray]:
    """The one loop over time steps: yield P0, symmetrized once, and the
    point after each interval.  Callers judge the points: leaving the
    manifold is reported, not fatal, so the Euclidean baselines can be seen
    failing.  Step errors carry the interval index.  Times are read as Python
    floats, whose arithmetic is that of numpy's float64 at less cost."""
    P = sym(np.asarray(P0, dtype=np.float64))
    yield P
    aux = model.aux0
    for i in range(len(times) - 1):
        t, t_next = times.item(i), times.item(i + 1)
        try:
            P = stepper.step(model, t, P, t_next - t, aux)
        except Exception as exc:
            raise ModelEvalFailure(
                f"{stepper.name} failed on interval {i} (t={t:.6g}): {exc}"
            ) from exc
        aux = model.evolve_aux(t, t_next, aux)
        yield P


def integrate(
    stepper: Stepper, model: ModelSpec, P0: np.ndarray, t_grid: Sequence[float]
) -> Trajectory:
    """Drive a stepper over consecutive grid intervals."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    return Trajectory(t_grid, np.stack(list(_march(stepper, model, P0, t_grid))))


# Reference sub-iterates judged together (see reference_trajectory).
_BLOCK = 512


def _why_left(P: np.ndarray, mineig: float) -> str:
    """The reason a reference sub-iterate P with minimum eigenvalue
    ``mineig`` <= 0 is reported for.  Within the ``spd_certified`` margin of
    zero, float64 cannot tell P from a singular matrix, so no ``refine`` can
    tell whether the solution leaves the cone; below it, or for a non-finite
    P (min eig -inf), the cone is left."""
    margin = cert_margin(P.shape[-1], frobenius(P))
    if -mineig <= margin < np.inf:
        return "the solution is singular to working precision near that time"
    return "refine is too small, or the solution itself leaves the cone near that time"


def _enforce_cone(block: np.ndarray, fine: np.ndarray, start: int) -> None:
    """Raise ReferenceLeftManifold at the first sub-iterate after P0 of
    ``block``, the points at times ``fine[start:]``, that is not SPD.  One
    batched Cholesky certificate (``spd_certified``) clears most blocks; one
    it cannot clear (a non-finite, indefinite or nearly singular sub-iterate)
    goes to ``is_spd`` whole."""
    if spd_certified(block):
        return
    _, mineigs = is_spd(block)
    left = np.flatnonzero(mineigs <= 0.0)
    left = left[start + left > 0]
    if left.size:
        j = left[0]
        raise ReferenceLeftManifold(
            f"reference left the manifold at t={fine[start + j]:.6g} "
            f"(min eig {mineigs[j]:.3e}): {_why_left(block[j], mineigs[j])}"
        )


def reference_trajectory(
    model: ModelSpec, P0: np.ndarray, t_grid: Sequence[float], refine: int
) -> Trajectory:
    """Classical RK4, through the same stepping loop as ``integrate``, with
    each grid interval subdivided ``refine`` times.

    Every sub-iterate must stay SPD.  A failure means either that ``refine``
    is too small for this problem, or that the exact solution itself leaves
    the cone near that time (a forward Riccati flow can escape in finite
    time), which no ``refine`` cures, or, when the minimum eigenvalue lies
    within roundoff of zero, that the solution is singular to working
    precision; the message says which (``_why_left``).  One ``_march`` over
    the fine grid is read a block at a time into one buffer of
    min(``_BLOCK``, sub-iterates) matrices; the kept points, every
    ``refine``-th, copied out of each block, are concatenated once into the
    trajectory's stack, so the matrices held stay O(points + block).  The
    fine time grid has (points - 1) * refine + 1 entries, which
    ``cli._allocatable`` bounds before a run.

    A block only enforces the cone (``_enforce_cone``), the filled part of
    one whose substep raised too, so the first sub-iterate to leave the cone
    is reported before a later failed substep of its block.  The kept points
    get their minimum eigenvalues from ``Trajectory``, as ``integrate``'s do.
    """
    if refine < 2:
        raise ValueError("refine must be at least 2")
    t_grid = np.asarray(t_grid, dtype=np.float64)
    sub = [np.linspace(a, b, refine + 1)[:-1] for a, b in zip(t_grid, t_grid[1:])]
    fine = np.concatenate(sub + [t_grid[-1:]])
    block = np.empty((min(_BLOCK, len(fine)),) + np.shape(P0))
    points = []  # the kept chunks
    # rk4_step is read at call time, so a wrapper around it sees each substep.
    marched = _march(Stepper("reference rk4", rk4_step), model, P0, fine)
    for start in range(0, len(fine), len(block)):  # fine index of block[0]
        filled = 0
        try:
            for P in islice(marched, len(block)):
                block[filled] = P
                filled += 1
        finally:  # a sub-iterate that left the cone before a failed step wins
            _enforce_cone(block[:filled], fine, start)
        points.append(block[-start % refine:filled:refine].copy())
    return Trajectory(t_grid, np.concatenate(points))
