"""SPD-manifold geometry: membership, affine-invariant distance and
exponential map, and eigenvalue-based step-size admissibility bounds."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .matcore import (
    expm,
    invsqrtm_spd,
    is_spd,
    logm_spd,  # not called here: perfbench/spans.py traces it by this name
    require_positive,
    require_square_pair,
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
    require_square_pair(P, T)
    lam, _ = sym_eig(P)
    require_positive(lam[0])
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
    require_square_pair(P, T)
    P = require_symmetric(P)
    require_positive(is_spd(P)[1])
    T = require_symmetric(T)
    return is_spd(P + rho * T)[0]


def affine_distance(P1: np.ndarray, P2: np.ndarray):
    """Affine-invariant distance ||log(P1^{-1/2} P2 P1^{-1/2})||_F of two SPD
    matrices, a float, or of two equal-length stacks of them on the last two
    axes, an array with one distance per pair.

    With W = P1^{-1/2}, the distance is the 2-norm of log(lambda) over the
    eigenvalues lambda of W P2 W, so a stack costs one batched eigh of P1 and
    one batched eigvalsh.  Each matrix is read through its symmetric part.
    """
    P1, P2 = np.asarray(P1, dtype=np.float64), np.asarray(P2, dtype=np.float64)
    require_square_pair(P1, P2)
    if not (np.isfinite(P1).all() and np.isfinite(P2).all()):
        raise NonFinite("matrix has non-finite entries")
    vals, vecs = np.linalg.eigh(sym(P1))
    require_positive(vals[..., 0])
    scaled = vecs * (1.0 / np.sqrt(vals))[..., None, :]
    W = sym(scaled @ np.swapaxes(vecs, -1, -2))
    lam = np.linalg.eigvalsh(sym(W @ P2 @ W))
    require_positive(lam[..., 0])
    # Each log(lambda) of a positive float64 lies within 745 of 0: no overflow.
    dist = np.linalg.norm(np.log(lam), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def affine_exp(P: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """Riemannian exponential P^{1/2} exp(P^{-1/2} Sigma P^{-1/2}) P^{1/2}."""
    require_square_pair(P, Sigma)
    Sigma = require_symmetric(Sigma)
    R = sqrtm_spd(P)
    W = invsqrtm_spd(P)
    return sym(R.dot(expm(sym(W.dot(Sigma).dot(W)))).dot(R))
