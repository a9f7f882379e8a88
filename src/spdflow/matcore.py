"""Dense real matrix kernels: symmetric eigendecomposition, matrix
exponential, SPD square roots and logarithms, commutators, and the truncated
inverse-of-dexp series."""

from typing import Tuple

import numpy as np

from . import kernels
from .errors import DimMismatch, NonFinite, NotSpd, NotSymmetric, UnsupportedOrder

SYM_TOL = 1e-10
PD_TOL_BASE = 1e-12


def asmat(M) -> np.ndarray:
    """Coerce to a contiguous float64 2-d array."""
    A = np.ascontiguousarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise DimMismatch(f"expected a 2-d array, got ndim={A.ndim}")
    return A


def sym(M: np.ndarray) -> np.ndarray:
    """Re-symmetrize: (M + M^T) / 2."""
    return 0.5 * (M + M.T)


def sym2(X: np.ndarray) -> np.ndarray:
    """X + X^T, exactly symmetric because IEEE addition commutes."""
    return X + X.T


def is_symmetric(S: np.ndarray) -> bool:
    """Test |S_ij - S_ji| <= SYM_TOL * max(1, ||S||_F)."""
    return np.abs(S - S.T).max(initial=0.0) <= SYM_TOL * max(
        1.0, float(np.linalg.norm(S))
    )


def _square_finite(M) -> np.ndarray:
    """asmat, then require a square matrix with finite entries."""
    M = asmat(M)
    if M.shape[0] != M.shape[1]:
        raise DimMismatch(f"not square: {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix has non-finite entries")
    return M


def require_symmetric(S: np.ndarray) -> np.ndarray:
    S = _square_finite(S)
    if not is_symmetric(S):
        raise NotSymmetric(f"asymmetry {np.abs(S - S.T).max():.3e} exceeds tol")
    return S


def pd_tol(S: np.ndarray) -> float:
    """Scale-aware positive-definiteness tolerance."""
    n = S.shape[0]
    return PD_TOL_BASE * max(1.0, float(np.trace(S)) / n)


def _eigh(S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sym_eig without the input checks; S must already have passed them."""
    return np.linalg.eigh(sym(S))


def sym_eig(S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a checked symmetric matrix, values ascending."""
    return _eigh(require_symmetric(S))


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential; spectral calculus when M is symmetric."""
    M = _square_finite(M)
    if is_symmetric(M):
        vals, vecs = _eigh(M)
        R = sym((vecs * np.exp(vals)) @ vecs.T)
    else:
        R = kernels.expm_dense(M)
    if not np.isfinite(R).all():
        raise NonFinite(
            f"expm overflowed (input 1-norm {np.abs(M).sum(axis=0).max():.3e})"
        )
    return R


def _spectral_spd(P: np.ndarray, fn) -> np.ndarray:
    vals, vecs = sym_eig(P)
    # Strict positivity only: spectral calculus stays valid for uniformly
    # tiny or badly conditioned spectra, which strongly decaying flows reach.
    if vals[0] <= 0.0:
        raise NotSpd(f"minimum eigenvalue {vals[0]:.3e} not positive")
    return sym((vecs * fn(vals)) @ vecs.T)


def sqrtm_spd(P: np.ndarray) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix."""
    return _spectral_spd(P, np.sqrt)


def invsqrtm_spd(P: np.ndarray) -> np.ndarray:
    """Inverse of the SPD square root."""
    return _spectral_spd(P, lambda v: 1.0 / np.sqrt(v))


def logm_spd(P: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix (symmetric result)."""
    return _spectral_spd(P, np.log)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator [A, B] = AB - BA."""
    A, B = asmat(A), asmat(B)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"incompatible shapes {A.shape} and {B.shape}")
    return A @ B - B @ A


def dexpinv(theta: np.ndarray, A: np.ndarray, order: int = 4) -> np.ndarray:
    """Order-4 inverse-of-dexp series applied to A at base point theta."""
    theta, A = asmat(theta), asmat(A)
    if theta.shape != A.shape or theta.shape[0] != theta.shape[1]:
        raise DimMismatch(f"incompatible shapes {theta.shape} and {A.shape}")
    if order != 4:
        raise UnsupportedOrder(f"order must be 4, got {order}")
    return kernels.dexpinv_series(theta, A)


def is_spd(S: np.ndarray, tol: float = 0.0):
    """SPD membership test on the last two axes: (flag, minimum eigenvalue) of
    a matrix, or of a stack an array of each, one entry per matrix.  A matrix
    with a non-finite entry has minimum eigenvalue -inf."""
    S = np.asarray(S, dtype=np.float64)
    finite = np.isfinite(S).all(axis=(-2, -1))
    mineig = np.full(finite.shape, -np.inf)
    S = S[finite]
    mineig[finite] = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, -1, -2)))[:, 0]
    if mineig.ndim == 0:
        return bool(mineig > tol), float(mineig)
    return mineig > tol, mineig
