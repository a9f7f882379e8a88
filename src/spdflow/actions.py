"""Transitive Lie group actions on the SPD manifold: the GL(n) congruence
action and the symplectic (Siegel half-space) action, each with ``act``,
``algebra_act`` and ``exp``."""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotSymplectic, Singular
from .matcore import asmat, expm, require_symmetric, sym

SYMPLECTIC_TOL = 1e-8


class CongruenceAction:
    """GL(n) acting by (M, P) -> M P M^T; algebra action A P + P A^T."""

    def __init__(self, n: int):
        self.n = n

    def act(self, M: np.ndarray, P: np.ndarray) -> np.ndarray:
        M = asmat(M)
        sign, logdet = np.linalg.slogdet(M)
        if sign == 0.0 or not np.isfinite(logdet):
            raise Singular("congruence element is not invertible")
        return sym(M.dot(P).dot(M.T))

    def algebra_act(self, A: np.ndarray, P: np.ndarray) -> np.ndarray:
        A, P = asmat(A), asmat(P)
        if A.shape != P.shape:
            raise DimMismatch(f"incompatible shapes {A.shape} and {P.shape}")
        return sym(A.dot(P) + P.dot(A.T))

    def exp(self, A: np.ndarray) -> np.ndarray:
        return expm(A)


@dataclass(frozen=True)
class SpAlgebraElem:
    """sp(2n) element [[A, B], [C, -A^T]] with B, C symmetric."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        require_symmetric(self.B)
        require_symmetric(self.C)
        if not (self.A.shape == self.B.shape == self.C.shape):
            raise DimMismatch("sp(2n) blocks must share one shape")

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.C, -self.A.T]])

    def __mul__(self, s: float) -> "SpAlgebraElem":
        return SpAlgebraElem(s * self.A, s * self.B, s * self.C)

    __rmul__ = __mul__


class SiegelAction:
    """Symplectic group acting on SPD matrices by real fractional maps.

    With M = [[A, B], [C, D]] symplectic, act(M, P) = (AP + B)(CP + D)^{-1};
    the infinitesimal action of (A, B, C) is AP + PA^T + B - PCP.
    """

    def __init__(self, n: int):
        self.n = n
        I, Z = np.eye(n), np.zeros((n, n))
        self.J = np.block([[Z, I], [-I, Z]])  # M is symplectic iff M^T J M = J

    def _check_symplectic(self, M: np.ndarray) -> np.ndarray:
        M = asmat(M)
        if M.shape != (2 * self.n, 2 * self.n):
            raise DimMismatch(f"expected {2 * self.n}x{2 * self.n}, got {M.shape}")
        resid = np.linalg.norm(M.T.dot(self.J).dot(M) - self.J)
        if resid > SYMPLECTIC_TOL * max(1.0, float(np.linalg.norm(M)) ** 2):
            raise NotSymplectic(f"||M^T J M - J||_F = {resid:.3e}")
        return M

    def act(self, M: np.ndarray, P: np.ndarray) -> np.ndarray:
        M = self._check_symplectic(M)
        n = self.n
        A, B = M[:n, :n], M[:n, n:]
        C, D = M[n:, :n], M[n:, n:]
        num = A.dot(P) + B
        den = C.dot(P) + D
        try:
            X = np.linalg.solve(den.T, num.T).T
        except np.linalg.LinAlgError as exc:
            raise Singular("fractional-map denominator is singular") from exc
        return sym(X)

    def algebra_act(self, a: SpAlgebraElem, P: np.ndarray) -> np.ndarray:
        if a.A.shape[0] != P.shape[0]:
            raise DimMismatch(
                f"algebra dim {a.A.shape[0]} vs point dim {P.shape[0]}"
            )
        return sym(a.A.dot(P) + P.dot(a.A.T) + a.B - P.dot(a.C).dot(P))

    def exp(self, a) -> np.ndarray:
        M = a.matrix if isinstance(a, SpAlgebraElem) else asmat(a)
        return expm(M)

