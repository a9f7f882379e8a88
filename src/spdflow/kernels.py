"""Hot numerical kernels: dense matrix exponential and the dexpinv series.

The exponential evaluates the Pade approximant of the lowest degree m in
{3, 5, 7, 9} whose threshold theta_m bounds the input's 1-norm (Higham 2005,
*The scaling and squaring method for the matrix exponential revisited*, SIAM
J. Matrix Anal. Appl. 26(4), Table 2.3); inputs above theta_9 keep the
Pade-13 scaling-and-squaring path.

Both kernels are plain numpy and skip input validation; `matcore.expm` and
`matcore.dexpinv` validate first and call them through this module's
attributes.  They stay a module of their own so that a traced benchmark run
can time them as a separate layer.
"""

import numpy as np

# (theta_m, Pade numerator coefficients b_0 .. b_m) for m = 3, 5, 7, 9, lowest
# degree first: up to a 1-norm of theta_m the unscaled degree-m approximant
# has a backward error of at most 2^-53 (Higham 2005, Table 2.3).
_PADE_LOW = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (
        9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    ),
    (
        2.097847961257068,
        (
            17643225600.0,
            8821612800.0,
            2075673600.0,
            302702400.0,
            30270240.0,
            2162160.0,
            110880.0,
            3960.0,
            90.0,
            1.0,
        ),
    ),
)

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


def _pade_low(M: np.ndarray, b: tuple) -> np.ndarray:
    """Unscaled Pade approximant of degree m = len(b) - 1 (odd): r = (V - U)^-1
    (V + U) with U = M sum_k b_{2k+1} M^{2k} and V = sum_k b_{2k} M^{2k}."""
    I = np.eye(M.shape[0])
    A2 = M.dot(M)
    P = A2
    U = b[1] * I + b[3] * A2
    V = b[0] * I + b[2] * A2
    for k in range(4, len(b), 2):
        P = P.dot(A2)
        U += b[k + 1] * P
        V += b[k] * P
    U = M.dot(U)
    return np.linalg.solve(V - U, V + U)


def expm_dense(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square real M: the unscaled Pade approximant of
    the lowest degree m in {3, 5, 7, 9} with ||M||_1 <= theta_m (Higham 2005,
    Table 2.3), and above theta_9 Pade-13 with scaling and squaring."""
    norm = np.abs(M).sum(axis=0).max()
    for theta, b in _PADE_LOW:
        if norm <= theta:
            return _pade_low(M, b)
    n = M.shape[0]
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
