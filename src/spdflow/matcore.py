"""Dense real matrix kernels: symmetric eigendecomposition, matrix
exponential, SPD square roots and logarithms, commutators, the truncated
inverse-of-dexp series, and spdflow's one positive-definiteness rule: a
matrix is SPD when its computed minimum eigenvalue is strictly positive, at
every scale.  ``is_spd`` reports it, ``require_positive`` raises ``NotSpd``
for it, and ``spd_certified`` is a cheaper shifted-Cholesky proof that
``is_spd`` would say yes (its docstring derives the shift).  Every public
function that pairs two matrices checks them with ``require_square_pair``,
spdflow's one shape rule.

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
# Below this Frobenius norm the square sum has left float64's normal range.
_MIN_NORMAL_NORM = math.sqrt(float(np.finfo(np.float64).tiny))


def asmat(M) -> np.ndarray:
    """Coerce to a contiguous float64 2-d array."""
    A = np.ascontiguousarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise DimMismatch(f"expected a 2-d array, got ndim={A.ndim}")
    return A


def sym(S: np.ndarray) -> np.ndarray:
    """Re-symmetrize the last two axes of a matrix or a stack: S/2 + S^T/2.
    Halving first keeps a finite S finite (S + S^T overflows near 1e308) and,
    halving being exact for normal numbers, gives the bits of (S + S^T) / 2.
    Adding a copy of the transpose gives the bits of adding the transposed
    view, and is faster at the small n of the hot loops."""
    H = 0.5 * S
    return H + H.swapaxes(-1, -2).copy()


def sym2(X: np.ndarray) -> np.ndarray:
    """X + X^T, exactly symmetric because IEEE addition commutes (the copy as
    in ``sym``)."""
    return X + X.T.copy()


def _unit_exponent(S: np.ndarray) -> int:
    """The e for which 2^-e S has its largest entry in [1/2, 1): scaling by
    it is exact (0 for a zero or non-finite S)."""
    return math.frexp(np.abs(S).max(initial=0.0))[1]


def frobenius(S: np.ndarray) -> float:
    """||S||_F of a matrix, finite whenever the norm itself is.  It is the
    square root of the dot product of the ``order="K"`` ravel, the bits of
    ``np.linalg.norm`` (``np.vdot`` gives ``dot``'s bits without its overflow
    warning).  When that square sum leaves the normal range, the sum is taken
    of 2^-e S (``_unit_exponent``) and its root scaled back by 2^e, so a
    norm near 1e200 or 1e-200 is not read as inf or 0.  An exactly zero S
    has norm 0 without the rescaling."""
    flat = S.ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat))
    if _MIN_NORMAL_NORM <= norm < math.inf:
        return norm
    if norm == 0.0 and not flat.any():  # a zero square sum may have underflowed
        return 0.0
    e = _unit_exponent(S)
    flat = np.ldexp(flat, -e)
    try:
        return math.ldexp(math.sqrt(np.vdot(flat, flat)), e)
    except OverflowError:  # the norm itself exceeds float64's range
        return math.inf


def is_symmetric(S: np.ndarray) -> bool:
    """Test |S_ij - S_ji| <= SYM_TOL * ||S||_F, with no floor: the verdict does
    not depend on the scale of S.  The norm is ``frobenius``'s.  When it
    leaves the normal range, S is first scaled by the power of two that
    brings its largest entry into [1/2, 1): an exact scaling, so the verdict
    is the one S has at that scale."""
    norm = frobenius(S)
    if not _MIN_NORMAL_NORM <= norm < math.inf:
        S = np.ldexp(S, -_unit_exponent(S))
        norm = frobenius(S)
    return np.abs(S - S.T).max(initial=0.0) <= SYM_TOL * norm


def require_square_pair(A, B, n=None) -> None:
    """spdflow's one rule for two matrices that meet in one operation: raise
    DimMismatch unless A and B (matrices or stacks of them) share one shape
    whose last two axes are equal, and equal to ``n`` when it is given (the
    size an action is bound to).  Nothing broadcasts."""
    a, b = np.asarray(A).shape, np.asarray(B).shape
    if a != b or len(a) < 2 or a[-1] != a[-2] or n not in (None, a[-1]):
        bound = "" if n is None else f" for n = {n}"
        raise DimMismatch(f"incompatible shapes {a} and {b}{bound}")


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


def sym_eig(S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a checked symmetric matrix, values ascending."""
    return np.linalg.eigh(sym(require_symmetric(S)))


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential; spectral calculus when M is symmetric."""
    M = _square_finite(M)
    if is_symmetric(M):
        vals, vecs = np.linalg.eigh(sym(M))
        R = sym((vecs * np.exp(vals)).dot(vecs.T))
    else:
        R = kernels.expm_dense(M)
    if not np.isfinite(R).all():
        raise NonFinite(
            f"expm overflowed (input 1-norm {np.abs(M).sum(axis=0).max():.3e})"
        )
    return R


def require_positive(lowest) -> None:
    """Raise NotSpd unless every minimum eigenvalue in ``lowest``, a number or
    an array, is positive.  No floor or scale enters: spectral calculus stays
    valid for uniformly tiny or badly conditioned spectra, which strongly
    decaying flows reach."""
    if not np.all(lowest > 0.0):
        raise NotSpd(f"minimum eigenvalue {np.min(lowest):.3e} not positive")


def _spectral_spd(P: np.ndarray, fn) -> np.ndarray:
    vals, vecs = sym_eig(P)
    require_positive(vals[0])
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
    require_square_pair(A, B)
    return A.dot(B) - B.dot(A)


def dexpinv(theta: np.ndarray, A: np.ndarray, order: int = 4) -> np.ndarray:
    """Order-4 inverse-of-dexp series applied to A at base point theta."""
    theta, A = asmat(theta), asmat(A)
    require_square_pair(theta, A)
    if order != 4:
        raise UnsupportedOrder(f"order must be 4, got {order}")
    return kernels.dexpinv_series(theta, A)


def is_spd(S: np.ndarray):
    """SPD membership test on the last two axes: (flag, minimum eigenvalue) of
    a matrix, or of a stack an array of each, one entry per matrix.  The flag
    is the one rule, minimum eigenvalue > 0; a matrix with a non-finite entry
    has minimum eigenvalue -inf."""
    S = np.asarray(S, dtype=np.float64)
    finite = np.isfinite(S).all(axis=(-2, -1))
    mineig = np.full(finite.shape, -np.inf)
    S = S[finite]
    mineig[finite] = np.linalg.eigvalsh(sym(S))[:, 0]
    if mineig.ndim == 0:
        return bool(mineig > 0.0), float(mineig)
    return mineig > 0.0, mineig


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
    factorization: each matrix needs a Frobenius norm of at least
    ``tiny / eps`` whose square sum is finite (entries below about 1.3e154),
    and ``T - d I`` must factor, where T = sym(S) is the matrix ``is_spd``
    solves and d = c n^2 eps ||T||_F, ``cert_margin``.  False says nothing:
    the caller asks ``is_spd``, so a block above that range costs an
    eigensolve but reads the same.

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
    T = sym(np.asarray(S, dtype=np.float64))
    n = T.shape[-1]
    # A norm that overflows only sends its block to is_spd: no output moves.
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
