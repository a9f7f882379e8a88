"""Dense real matrix kernels: symmetric eigendecomposition, matrix
exponential, SPD square roots and logarithms, commutators, the truncated
inverse-of-dexp series, and two SPD tests: ``is_spd`` by minimum eigenvalue
and ``spd_certified``, a cheaper shifted-Cholesky proof that ``is_spd``
would say yes (its docstring derives the shift).

Every 2-d product in spdflow is written ``A.dot(B)``, not ``A @ B``.  Both
call the same BLAS routine and give the same bits, but the method skips the
``matmul`` ufunc's dispatch, which at the small n of the hot loops costs
more than the arithmetic.  ``@`` is kept for products of stacks, which
``dot`` does not broadcast.
"""

import math
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
    """Re-symmetrize: (M + M^T) / 2.  Adding a copy of the transpose gives the
    bits of adding the transposed view, and is faster."""
    return 0.5 * (M + M.T.copy())


def sym2(X: np.ndarray) -> np.ndarray:
    """X + X^T, exactly symmetric because IEEE addition commutes (the copy as
    in ``sym``)."""
    return X + X.T.copy()


def sym_stack(S: np.ndarray) -> np.ndarray:
    """``sym`` on the last two axes of a matrix or a stack of them."""
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def is_symmetric(S: np.ndarray) -> bool:
    """Test |S_ij - S_ji| <= SYM_TOL * max(1, ||S||_F).  The norm is the dot
    product of the ``order="K"`` ravel, as ``np.linalg.norm`` computes it by
    default, so the bits and the verdict are its own."""
    flat = S.ravel(order="K")
    return np.abs(S - S.T).max(initial=0.0) <= SYM_TOL * max(
        1.0, math.sqrt(flat.dot(flat))
    )


def _square_finite(M) -> np.ndarray:
    """asmat, then require a square matrix with finite entries."""
    M = asmat(M)
    if M.shape[0] != M.shape[1]:
        raise DimMismatch(f"not square: {M.shape}")
    if not np.isfinite(M).all():
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
        R = sym((vecs * np.exp(vals)).dot(vecs.T))
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
    return sym((vecs * fn(vals)).dot(vecs.T))


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
    return A.dot(B) - B.dot(A)


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
    mineig[finite] = np.linalg.eigvalsh(sym_stack(S))[:, 0]
    if mineig.ndim == 0:
        return bool(mineig > tol), float(mineig)
    return mineig > tol, mineig


# Margin of spd_certified, in units of n^2 * eps * ||S||_F (see its docstring).
_CERT_C = 8.0
_EPS = float(np.finfo(np.float64).eps)
# Below this Frobenius norm a rounding error can underflow, which the margin's
# relative bounds do not cover.
_CERT_MIN_NORM = float(np.finfo(np.float64).tiny) / _EPS


def cert_margin(n: int, norm):
    """``spd_certified``'s margin c n^2 eps ||S||_F for n x n matrices S of
    Frobenius norm ``norm``: float64 cannot tell a minimum eigenvalue within
    it of zero from that of a singular matrix."""
    return (_CERT_C * n * n * _EPS) * norm


def spd_certified(S: np.ndarray) -> bool:
    """True only if ``is_spd`` would find every matrix of S (one matrix or a
    stack on the last two axes) positive definite, from one batched Cholesky
    factorization: each matrix needs a finite Frobenius norm of at least
    ``tiny / eps``, and ``T - d I`` must factor, where T = sym(S) is the
    matrix ``is_spd`` solves and d = c n^2 eps ||T||_F, ``cert_margin``.
    False says nothing: the caller asks ``is_spd``.

    The margin covers three roundoff terms (u = eps / 2; Higham, *Accuracy
    and Stability of Numerical Algorithms*, section 10.1):

    - Subtracting d rounds each diagonal entry by at most u (||T||_F + d).
    - A Cholesky factorization of A that runs to completion gives
      R^T R = A + dA with |dA| <= g |R^T| |R|, g = (n + 1) u / (1 - (n + 1) u).
      R^T R is positive definite, so lambda_min(A) > -||dA||_2 >=
      -g ||R||_F^2, and ||R||_F^2 = tr(A + dA) <= sqrt(n) ||A||_F / (1 - g).
      This is at most about 2 n^2 u ||T||_F.
    - The symmetric eigensolver returns the exact eigenvalues of T + E with
      ||E||_2 <= p(n) u ||T||_2, for p(n) a small multiple of n^2 (backward
      stable Householder tridiagonalization and QR), and by Weyl's
      inequality each computed eigenvalue lies within ||E||_2 of T's.

    So a certified T has lambda_min(T) >= (2 c - 2) n^2 u ||T||_F - u ||T||_F,
    and its computed minimum eigenvalue is positive while p(n) <= 13 n^2
    (c = 8)."""
    T = sym_stack(np.asarray(S, dtype=np.float64))
    n = T.shape[-1]
    norms = np.linalg.norm(T, axis=(-2, -1))
    if not np.all((norms >= _CERT_MIN_NORM) & (norms < np.inf)):
        return False
    diag = np.arange(n)
    T[..., diag, diag] -= cert_margin(n, norms)[..., None]
    try:
        np.linalg.cholesky(T)
    except np.linalg.LinAlgError:
        return False
    return True
