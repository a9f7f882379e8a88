"""Hot numerical kernels: dense matrix exponential and the dexpinv series.

Both are plain numpy and skip input validation; `matcore.expm` and
`matcore.dexpinv` validate first and call them through this module's
attributes.  They stay a module of their own so that a traced benchmark run
can time them as a separate layer.
"""

import numpy as np

# Pade-13 numerator coefficients and the theta_13 scaling threshold
# (standard scaling-and-squaring constants for double precision).
_PADE13_B = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)
_THETA_13 = 5.371920351148152


def expm_dense(M: np.ndarray) -> np.ndarray:
    """Pade-13 scaling-and-squaring matrix exponential (square real M)."""
    n = M.shape[0]
    norm = np.abs(M).sum(axis=0).max()
    s = 0
    if norm > _THETA_13:
        s = int(np.ceil(np.log2(norm / _THETA_13)))
    A = M / (2.0**s)
    b = _PADE13_B
    I = np.eye(n)
    A2 = A.dot(A)
    A4 = A2.dot(A2)
    A6 = A4.dot(A2)
    U = A.dot(
        A6.dot(b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * I
    )
    V = (
        A6.dot(b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * I
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R.dot(R)
    return R


def dexpinv_series(theta: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Bernoulli-weighted commutator series for dexp^{-1}, to order 4:

    A + 1/2 [theta, A] + 1/12 ad_theta^2(A) - 1/720 ad_theta^4(A)
    (the cubic coefficient vanishes).
    """
    C1 = theta.dot(A) - A.dot(theta)
    C2 = theta.dot(C1) - C1.dot(theta)
    C3 = theta.dot(C2) - C2.dot(theta)
    C4 = theta.dot(C3) - C3.dot(theta)
    return A + 0.5 * C1 + C2 / 12.0 - C4 / 720.0
