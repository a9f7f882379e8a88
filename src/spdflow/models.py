"""Library of xi-maps defining concrete ODEs on the SPD manifold: the
covariance equations of three linear SDEs (linear drift, Ornstein-Uhlenbeck,
multivariate geometric Brownian motion with a coupled mean) and the LQR
Riccati equation.  A model is only its callables; its dimension is that of
the points it is evaluated at."""

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .actions import SpAlgebraElem
from .errors import ModelEvalFailure, NotSpd
from .matcore import asmat, expm, is_spd, pd_tol, require_symmetric, sym


def _no_aux(t0: float, t1: float, aux: Any) -> Any:
    return aux


@dataclass(frozen=True)
class ModelSpec:
    """An ODE dP/dt = xi(P,t) P + P xi(P,t)^T with optional auxiliary state.

    ``xi`` maps (P, t, aux) into gl(n); ``tangent`` is the same right-hand
    side written directly as a symmetric matrix; ``evolve_aux`` advances the
    auxiliary state exactly between two times.
    """

    xi: Callable[[np.ndarray, float, Any], np.ndarray]
    tangent: Callable[[np.ndarray, float, Any], np.ndarray]
    aux0: Any = None
    evolve_aux: Callable[[float, float, Any], Any] = _no_aux
    siegel_coeffs: Optional[Callable[[np.ndarray, float], SpAlgebraElem]] = None


def _solve_right(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """S P^{-1} for symmetric S and SPD P, without forming the inverse."""
    try:
        return np.linalg.solve(P, S).T
    except np.linalg.LinAlgError as exc:
        raise ModelEvalFailure("state matrix is numerically singular") from exc


def linear_model(A: np.ndarray) -> ModelSpec:
    """dP/dt = A P + P A^T with constant xi = A: the covariance of
    dX = A X dt with a random initial state."""
    A = asmat(A)
    return ModelSpec(
        xi=lambda P, t, aux: A,
        tangent=lambda P, t, aux: sym(A @ P + P @ A.T),
    )


def ou_model(A: np.ndarray, B: np.ndarray) -> ModelSpec:
    """Ornstein-Uhlenbeck covariance ODE dP/dt = A P + P A^T + B B^T, of the
    SDE dX = A X dt + B dW."""
    A, B = asmat(A), asmat(B)
    BBt = sym(B @ B.T)

    def xi(P, t, aux):
        return A + 0.5 * _solve_right(P, BBt)

    def tangent(P, t, aux):
        return sym(A @ P + P @ A.T + BBt)

    return ModelSpec(xi=xi, tangent=tangent)


def gbm_model(A: np.ndarray, B: np.ndarray, m0: np.ndarray) -> ModelSpec:
    """Geometric-Brownian-motion covariance ODE with coupled mean.

    P and m are the covariance and mean of the Stratonovich SDE
    dX = A X dt + B X o dW with a scalar Brownian motion W, whose Ito drift
    is theta X with theta = A + B^2/2.  Hence
    dP/dt = theta P + P theta^T + B (P + m m^T) B^T and dm/dt = theta m;
    the mean is advanced exactly.  Its propagator expm(dt theta) is computed
    once per distinct step size dt, so a fine grid with few distinct dt
    costs few matrix exponentials.
    """
    A, B = asmat(A), asmat(B)
    theta = A + 0.5 * B @ B
    m0 = np.asarray(m0, dtype=np.float64).reshape(A.shape[0])
    # Keyed on the exact float dt; a failed expm stores nothing.
    propagators = {}

    def diffusion(P, m):
        return sym(B @ (P + m[:, None] * m) @ B.T)

    def xi(P, t, m):
        return theta + 0.5 * _solve_right(P, diffusion(P, m))

    def tangent(P, t, m):
        return sym(theta @ P + P @ theta.T + diffusion(P, m))

    def evolve_aux(t0, t1, m):
        dt = t1 - t0
        if dt not in propagators:
            propagators[dt] = expm(dt * theta)
        return propagators[dt] @ m

    return ModelSpec(
        xi=xi,
        tangent=tangent,
        aux0=m0,
        evolve_aux=evolve_aux,
    )


def riccati_model(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> ModelSpec:
    """LQR Riccati ODE dP/dt = -(A P + P A^T - P B R^{-1} B^T P + Q) of the
    regulator's cost-to-go matrix P, not a moment equation of an SDE."""
    A, B = asmat(A), asmat(B)
    Q = require_symmetric(Q)
    R = require_symmetric(R)
    ok, mineig = is_spd(R, pd_tol(R))
    if not ok:
        raise NotSpd(f"R minimum eigenvalue {mineig:.3e} not positive")
    G = sym(B @ np.linalg.solve(R, B.T))

    def xi(P, t, aux):
        return -A + 0.5 * P @ G - 0.5 * _solve_right(P, Q)

    def tangent(P, t, aux):
        return sym(-(A @ P + P @ A.T - P @ G @ P + Q))

    def siegel_coeffs(P, t):
        return SpAlgebraElem(A=-A, B=-Q, C=-G)

    return ModelSpec(
        xi=xi,
        tangent=tangent,
        siegel_coeffs=siegel_coeffs,
    )


@dataclass(frozen=True)
class CaseStudyParams:
    """Exact parameters of one benchmark case."""

    A: np.ndarray
    B: np.ndarray
    P0: np.ndarray
    m0: np.ndarray
    t0: float
    t1: float
    points: int

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.points - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.points)

    def model(self) -> ModelSpec:
        return gbm_model(self.A, self.B, self.m0)


CASE_B = np.array([[-0.4, 0.1], [0.1, -0.2]])
CASE_P0 = np.array([[0.3383, -0.0716], [-0.0716, 0.0743]])
# Mean vector for case 2: the published step-bound scalars for this case are
# only reached with a nonzero initial mean, which the source never prints.
# This value is calibrated so the Euler-field bounds at t = 0 match them.
CASE2_M0 = np.array([3.75595019, 7.99464079])

_CASE_TABLE = {
    "case1": (np.array([-10.0, -2.0]), 0.0, 2.0, 30, np.zeros(2)),
    "case2": (np.array([-4.0, -8.0]), 0.0, 1.5, 11, CASE2_M0),
}


def make_case_study(case: str) -> CaseStudyParams:
    """Build the parameters of benchmark case ``case1`` or ``case2``.

    A shares eigenvectors with B (so they commute): with B = O D O^T
    (eigenvalues ascending), A = O diag(dprime) O^T.
    """
    if case not in _CASE_TABLE:
        raise ValueError(f"unknown case {case!r}")
    dprime, t0, t1, points, m0 = _CASE_TABLE[case]
    _, O = np.linalg.eigh(CASE_B)
    A = sym(O @ np.diag(dprime) @ O.T)
    return CaseStudyParams(
        A=A,
        B=CASE_B.copy(),
        P0=CASE_P0.copy(),
        m0=m0.copy(),
        t0=t0,
        t1=t1,
        points=points,
    )
