"""SPD-manifold geometry: membership, affine-invariant distance and
exponential map, and eigenvalue-based step-size admissibility bounds."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSpd
from .matcore import (
    asmat,
    expm,
    invsqrtm_spd,
    is_spd,
    logm_spd,
    pd_tol,
    require_symmetric,
    sqrtm_spd,
    sym,
    sym_eig,
)

ALL_SAFE = "AllSafe"
BOUNDED = "Bounded"


@dataclass(frozen=True)
class StepBounds:
    """Admissible-step thresholds along a symmetric direction T from P.

    ``rho_stay``: P + rho*T is guaranteed SPD for every 0 <= rho < rho_stay.
    ``rho_leave``: P + rho*T is guaranteed not SPD for every rho >= rho_leave.
    ``regime``: ``AllSafe`` when T is positive semidefinite (both bounds
    infinite), otherwise ``Bounded``.
    """

    rho_stay: float
    rho_leave: float
    regime: str


def step_bounds(P: np.ndarray, T: np.ndarray) -> StepBounds:
    """Step-size admissibility bounds for the ray P + rho*T, rho >= 0.

    With lam (ascending eigenvalues of P) and nu (ascending eigenvalues of
    T): if nu_1 >= 0 every step is safe; otherwise rho_stay = -lam_1/nu_1
    and rho_leave = min over {i : nu_i < 0} of -lam_{n+1-i}/nu_i.
    """
    lam, _ = sym_eig(P)
    if lam[0] <= pd_tol(asmat(P)):
        raise NotSpd(f"minimum eigenvalue {lam[0]:.3e} not positive")
    nu, _ = sym_eig(T)
    n = lam.shape[0]
    if nu[0] >= 0.0:
        return StepBounds(math.inf, math.inf, ALL_SAFE)
    rho_stay = -lam[0] / nu[0]
    rho_leave = min(
        -lam[n - 1 - i] / nu[i] for i in range(n) if nu[i] < 0.0
    )
    return StepBounds(float(rho_stay), float(rho_leave), BOUNDED)


def spd_after_step(P: np.ndarray, T: np.ndarray, rho: float) -> bool:
    """Direct-eigenvalue oracle: is P + rho*T strictly SPD?"""
    P = require_symmetric(P)
    ok, mineig = is_spd(P, pd_tol(P))
    if not ok:
        raise NotSpd(f"minimum eigenvalue {mineig:.3e} not positive")
    T = require_symmetric(T)
    ok, _ = is_spd(P + rho * T, 0.0)
    return ok


def affine_distance(P1: np.ndarray, P2: np.ndarray) -> float:
    """Affine-invariant distance ||log(P1^{-1/2} P2 P1^{-1/2})||_F."""
    W = invsqrtm_spd(P1)
    return float(np.linalg.norm(logm_spd(sym(W @ P2 @ W))))


def affine_exp(P: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """Riemannian exponential P^{1/2} exp(P^{-1/2} Sigma P^{-1/2}) P^{1/2}."""
    Sigma = require_symmetric(Sigma)
    R = sqrtm_spd(P)
    W = invsqrtm_spd(P)
    return sym(R @ expm(sym(W @ Sigma @ W)) @ R)
