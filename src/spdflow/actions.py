"""Transitive Lie group actions on the SPD manifold: the GL(n) congruence
action and the symplectic (Siegel half-space) action, each with ``act``,
``algebra_act`` and ``exp``.  An action built for n checks the size of what
it acts on against n, through ``matcore.require_square_pair``."""

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotSymplectic, Singular
from .matcore import asmat, expm, frobenius, require_square_pair, require_symmetric, sym

SYMPLECTIC_TOL = 1e-8


class CongruenceAction:
    """GL(n) acting by (M, P) -> M P M^T; algebra action A P + P A^T."""

    def __init__(self, n: int):
        self.n = n

    def act(self, M: np.ndarray, P: np.ndarray) -> np.ndarray:
        M = asmat(M)
        require_square_pair(M, P, self.n)
        sign, logdet = np.linalg.slogdet(M)
        if sign == 0.0 or not np.isfinite(logdet):
            raise Singular("congruence element is not invertible")
        return sym(M.dot(P).dot(M.T))

    def algebra_act(self, A: np.ndarray, P: np.ndarray) -> np.ndarray:
        A, P = asmat(A), asmat(P)
        require_square_pair(A, P, self.n)
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
        # C is square, so this gives all three blocks one shape.
        require_square_pair(self.A, self.B, len(self.C))

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
        require_square_pair(M, self.J)
        # A NaN, an inf or an overflow in M^T J M leaves a non-finite
        # residual, refused below, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            resid = frobenius(M.T.dot(self.J).dot(M) - self.J)
        norm = frobenius(M)
        # No floor is needed: a symplectic M has ||M||_F^2 >= 2n (its singular
        # values pair as s, 1/s), and ||M||_F < 1 means a residual > sqrt(2n) - 1.
        # A non-finite residual (a NaN or inf entry, or M^T J M overflowing)
        # is refused; a finite one is accepted when ||M||_F^2 overflows, which
        # norm * norm reads as inf (norm ** 2 would raise OverflowError).
        if not np.isfinite(resid) or resid > SYMPLECTIC_TOL * norm * norm:
            raise NotSymplectic(f"||M^T J M - J||_F = {resid:.3e}")
        return M

    def act(self, M: np.ndarray, P: np.ndarray) -> np.ndarray:
        M = self._check_symplectic(M)
        n = self.n
        A, B = M[:n, :n], M[:n, n:]
        require_square_pair(A, P)
        C, D = M[n:, :n], M[n:, n:]
        # An overflow leaves an inf or NaN entry, refused below, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            num = A.dot(P) + B
            den = C.dot(P) + D
        try:
            X = np.linalg.solve(den.T, num.T).T
        except np.linalg.LinAlgError as exc:
            raise Singular("fractional-map denominator is singular") from exc
        if not np.isfinite(X).all():
            raise NonFinite("fractional map has non-finite entries")
        return sym(X)

    def algebra_act(self, a: SpAlgebraElem, P: np.ndarray) -> np.ndarray:
        require_square_pair(a.A, P, self.n)
        return sym(a.A.dot(P) + P.dot(a.A.T) + a.B - P.dot(a.C).dot(P))

    def exp(self, a: SpAlgebraElem) -> np.ndarray:
        return expm(a.matrix)

