"""Library of xi-maps defining concrete ODEs on the SPD manifold: the
covariance equations of three linear SDEs (linear drift, Ornstein-Uhlenbeck,
multivariate geometric Brownian motion with a coupled mean) and the LQR
Riccati equation.  A model is only its callables; its dimension is that of
the points it is evaluated at."""

import math
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Optional

import numpy as np

from .actions import SpAlgebraElem
from .errors import ModelEvalFailure, NotSpd
from .matcore import asmat, expm, is_spd, require_symmetric, sym, sym2


def _no_aux(t0: float, t1: float, aux: Any) -> Any:
    return aux


def _constant_forcing(S: np.ndarray, dt: float) -> np.ndarray:
    return S


# The forcings of the affine models without a mean: none, and the constant 1.
_NO_FORCING = np.zeros((0, 0))
_UNIT_FORCING = np.ones((1, 1))


@dataclass(frozen=True)
class ModelSpec:
    """An ODE dP/dt = xi P + P xi^T with optional auxiliary state, built by
    ``from_drift``, which defines ``xi`` and ``tangent``.  ``evolve_aux``
    advances the auxiliary state exactly between two times.
    ``rk4_increment(P, h, aux)``, which only the affine models of size
    n <= AFFINE_RK4_MAX_N have, is the increment dP of one classical RK4 step
    of size h from (P, aux), ``rk4_stages`` on ``tangent`` through a cached
    linear map, exactly symmetric (see _affine_model).

    ``xi_reads_point`` is False only when ``xi(P, t, aux)`` does not depend
    on P, so that a stepper may evaluate it at any point (see
    integrators.rkmk4_step).  The builders set it: ``_affine_model`` for a
    model without a forcing (``linear``) and ``cli.convergence_model``.  The
    default True is the safe value, since a stepper then evaluates xi where
    the scheme places it.  When it is False, ``from_drift`` also computes the
    drift once per distinct (t, aux) (see there), so ``xi`` and ``tangent``
    share arrays between calls: no caller may mutate what ``xi`` returns.
    """

    xi: Callable[[np.ndarray, float, Any], np.ndarray]
    tangent: Callable[[np.ndarray, float, Any], np.ndarray]
    aux0: Any = None
    evolve_aux: Callable[[float, float, Any], Any] = _no_aux
    siegel_coeffs: Optional[Callable[[np.ndarray, float], SpAlgebraElem]] = None
    rk4_increment: Optional[Callable[[np.ndarray, float, Any], np.ndarray]] = None
    xi_reads_point: bool = True


def _solve_right(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """S P^{-1} for symmetric S and SPD P, without forming the inverse."""
    try:
        return np.linalg.solve(P, S).T
    except np.linalg.LinAlgError as exc:
        raise ModelEvalFailure("state matrix is numerically singular") from exc


def _once_per_time(drift):
    """``drift(P, t, aux)`` for a drift that ignores P, remembering its last
    value: a call with the same t (the same bits: 0.0 is not -0.0) and the
    same aux object returns it without calling the drift.  The entry holds
    aux itself, so an aux object is not freed and its id not reused while
    it is the key."""
    key_t, key_aux, value = math.nan, None, None

    def drift_at(P, t, aux):
        nonlocal key_t, key_aux, value
        if not (
            t == key_t
            and aux is key_aux
            and (t or math.copysign(1.0, t) == math.copysign(1.0, key_t))
        ):
            value = drift(P, t, aux)
            key_t, key_aux = t, aux
        return value

    return drift_at


def from_drift(drift, forcing=None, **fields) -> ModelSpec:
    """The model dP/dt = D P + P D^T + F, with D = drift(P, t, aux) in gl(n)
    and F = forcing(P, t, aux) exactly symmetric (none if omitted); ``fields``
    are ModelSpec's other fields.

    Its ``tangent`` is sym2(D P) + F, X + X^T plus a symmetric term, so it is
    *exactly* symmetric for an exactly symmetric P: the steppers rely on that
    instead of re-symmetrizing.  Its Lie generator is xi = D + F P^{-1} / 2,
    for which xi P + P xi^T is the same right-hand side; without F, ``xi`` is
    ``drift`` itself.

    With ``xi_reads_point=False`` among ``fields``, the drift ignores P, and
    it is computed once per distinct stage time: a one-entry memo keyed on
    the bits of t and the identity of aux returns the array the drift last
    computed.  RK4 and RKMK4 sample it twice at t + h/2 with one aux object,
    and at t + h, where the next step starts, so a step computes it twice,
    not four times.  The array is shared, so no caller may mutate it.
    """
    if not fields.get("xi_reads_point", True):
        drift = _once_per_time(drift)

    def xi(P, t, aux):
        return drift(P, t, aux) + 0.5 * _solve_right(P, forcing(P, t, aux))

    def tangent(P, t, aux):
        X = sym2(drift(P, t, aux).dot(P))
        return X if forcing is None else X + forcing(P, t, aux)

    return ModelSpec(xi=drift if forcing is None else xi, tangent=tangent, **fields)


def rk4_stages(tangent, P, h, t, aux, aux_half, aux_full):
    """The increment dP of one classical RK4 step of size h from (t, P), by
    the stages of ``tangent(P, t, aux)`` with aux_half and aux_full at
    t + h/2 and t + h: the one copy of the tableau, exactly symmetric when
    every stage is."""
    half = 0.5 * h
    k1 = tangent(P, t, aux)
    k2 = tangent(P + half * k1, t + half, aux_half)
    k3 = tangent(P + half * k2, t + half, aux_half)
    k4 = tangent(P + h * k3, t + h, aux_full)
    # Doubling by addition is exact, so k + k has the bits of 2.0 * k.
    return (h / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


# Largest n whose affine models take the cached RK4 map: above it, building
# one map per distinct h costs more than the four-stage steps it replaces on
# a fine reference (CHANGES.md has the measured table).
AFFINE_RK4_MAX_N = 16


def _vech(n: int):
    """(flat positions in an n x n matrix of vech, its row-major upper
    triangle; the n x n array of each entry's position in vech, in which
    (i, j) and (j, i) share one)."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return rows * n + cols, index


def _affine_model(
    theta, forcing, extra=None, forcing_flow=_constant_forcing, aux0=None,
    evolve_aux=_no_aux,
) -> ModelSpec:
    """The model dP/dt = theta P + P theta^T + extra(P, t, S), via from_drift.

    ``extra`` (none if omitted) is symmetric and linear in the pair (P, S),
    where the k x k symmetric forcing S = forcing(aux) moves exactly as
    S(t + dt) = forcing_flow(S, dt), constant by default; t is unused.

    For n <= AFFINE_RK4_MAX_N the model also has ``rk4_increment``.  One RK4
    step from (P, aux) is linear in z = (vech P, vech S): its increment is
    dP = D(h) z.  D(h) is built once per distinct float h by running
    ``rk4_stages`` on each basis column of z, with S as the stages' aux and
    its exact flow at t + h/2 and t + h.  dP is scattered through the vech
    index, so (i, j) and (j, i) read one element and dP is exactly symmetric.
    The map gives the increment, which the step adds to P: a map onto the
    step P + dP itself rounds dP against P's entries and loses accuracy on a
    decaying P.
    """
    def drift(P, t, aux):
        return theta

    field = from_drift(drift, extra).tangent  # a tangent whose aux is S

    n = theta.shape[0]
    p_flat, p_index = _vech(n)
    s_flat, s_index = _vech(forcing(aux0).shape[0])
    p = len(p_flat)
    # z's positions in the concatenated ravels of P and S.
    z_flat = np.concatenate((p_flat, n * n + s_flat))

    @cache  # D(h), keyed on the exact float h; a failed build stores nothing
    def build(h):
        D = np.empty((p, p + len(s_flat)))
        for j, z in enumerate(np.eye(p + len(s_flat))):
            P, S = z[:p][p_index], z[p:][s_index]
            S_half, S_full = forcing_flow(S, 0.5 * h), forcing_flow(S, h)
            D[:, j] = rk4_stages(field, P, h, 0.0, S, S_half, S_full).take(p_flat)
        return D

    def rk4_increment(P, h, aux):
        z = np.concatenate((P.ravel(), forcing(aux).ravel())).take(z_flat)
        return build(h).dot(z).take(p_index)

    return from_drift(
        drift,
        None if extra is None else lambda P, t, aux: extra(P, t, forcing(aux)),
        aux0=aux0,
        evolve_aux=evolve_aux,
        rk4_increment=rk4_increment if n <= AFFINE_RK4_MAX_N else None,
        xi_reads_point=extra is not None,  # xi = theta + F P^{-1} / 2
    )


def linear_model(A: np.ndarray) -> ModelSpec:
    """dP/dt = A P + P A^T with constant xi = A: the covariance of
    dX = A X dt with a random initial state."""
    return _affine_model(asmat(A), lambda aux: _NO_FORCING)


def ou_model(A: np.ndarray, B: np.ndarray) -> ModelSpec:
    """Ornstein-Uhlenbeck covariance ODE dP/dt = A P + P A^T + B B^T, of the
    SDE dX = A X dt + B dW; its forcing is the constant 1."""
    A, B = asmat(A), asmat(B)
    BBt = sym(B.dot(B.T))
    return _affine_model(A, lambda aux: _UNIT_FORCING, extra=lambda P, t, S: S * BBt)


def gbm_model(A: np.ndarray, B: np.ndarray, m0: np.ndarray) -> ModelSpec:
    """Geometric-Brownian-motion covariance ODE with coupled mean.

    P and m are the covariance and mean of the Stratonovich SDE
    dX = A X dt + B X o dW with a scalar Brownian motion W, whose Ito drift
    is theta X with theta = A + B^2/2.  Hence
    dP/dt = theta P + P theta^T + B (P + m m^T) B^T and dm/dt = theta m;
    the mean is advanced exactly.  Its propagator E = expm(dt theta) is
    computed once per distinct step size dt, so a fine grid with few distinct
    dt costs few matrix exponentials.  The forcing is m m^T, which moves as
    S -> E S E^T.
    """
    A, B = asmat(A), asmat(B)
    theta = A + (0.5 * B).dot(B)

    @cache  # keyed on the exact float dt; a failed expm stores nothing
    def propagator(dt):
        return expm(dt * theta)

    def forcing_flow(S, dt):
        E = propagator(dt)
        return E.dot(S).dot(E.T)

    return _affine_model(
        theta,
        lambda m: np.multiply.outer(m, m),
        extra=lambda P, t, S: sym(B.dot(P + S).dot(B.T)),
        forcing_flow=forcing_flow,
        aux0=np.asarray(m0, dtype=np.float64).reshape(A.shape[0]),
        evolve_aux=lambda t0, t1, m: propagator(t1 - t0).dot(m),
    )


def riccati_model(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> ModelSpec:
    """LQR Riccati ODE dP/dt = -(A P + P A^T - P G P + Q), G = B R^{-1} B^T,
    of the regulator's cost-to-go matrix P, not a moment equation of an SDE.

    Q is symmetrized once, when the model is built.  It is from_drift's
    model with drift P G/2 - A and forcing -Q; its Siegel coefficients are
    the constant (-A, -Q, -G).
    """
    A, B = asmat(A), asmat(B)
    Q = sym(require_symmetric(Q))
    R = require_symmetric(R)
    ok, mineig = is_spd(R)
    if not ok:
        raise NotSpd(f"R minimum eigenvalue {mineig:.3e} not positive")
    G = sym(B.dot(np.linalg.solve(R, B.T)))
    half_G, neg_Q = 0.5 * G, -Q
    siegel = SpAlgebraElem(A=-A, B=neg_Q, C=-G)
    return from_drift(
        lambda P, t, aux: P.dot(half_G) - A,
        lambda P, t, aux: neg_Q,
        siegel_coeffs=lambda P, t: siegel,
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
    A = sym(O.dot(np.diag(dprime)).dot(O.T))
    return CaseStudyParams(
        A=A,
        B=CASE_B.copy(),
        P0=CASE_P0.copy(),
        m0=m0.copy(),
        t0=t0,
        t1=t1,
        points=points,
    )
