import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import random_spd
from spdflow import matcore, models
from spdflow.actions import SiegelAction
from spdflow.cli import convergence_model
from spdflow.errors import NonFinite, NotSpd
from spdflow.integrators import euler_step, reference_trajectory, rk4_step
from spdflow.models import (
    gbm_model,
    linear_model,
    make_case_study,
    ou_model,
    riccati_model,
)


def consistency_residual(model, P, t=0.3, aux=None):
    """||xi P + P xi^T - tangent|| relative to ||P||."""
    if aux is None:
        aux = model.aux0
    z = model.xi(P, t, aux)
    lhs = z @ P + P @ z.T
    return np.linalg.norm(lhs - model.tangent(P, t, aux)) / np.linalg.norm(P)


class TestLinear:
    def test_zero_field(self):
        m = linear_model(np.zeros((2, 2)))
        assert np.allclose(m.tangent(np.eye(2), 0.0, None), 0.0)

    def test_scalar_decay(self):
        m = linear_model(-np.eye(2))
        P = np.diag([2.0, 3.0])
        assert np.allclose(m.tangent(P, 0.0, None), -2 * P)

    def test_consistency(self):
        rng = np.random.default_rng(50)
        m = linear_model(rng.standard_normal((3, 3)))
        assert consistency_residual(m, random_spd(rng, 3)) <= 1e-10


class TestOu:
    def test_reduces_to_linear(self):
        rng = np.random.default_rng(51)
        A = rng.standard_normal((3, 3))
        m = ou_model(A, np.zeros((3, 3)))
        P = random_spd(rng, 3)
        assert np.allclose(m.tangent(P, 0.0, None), A @ P + P @ A.T)

    def test_pure_diffusion(self):
        m = ou_model(np.zeros((2, 2)), np.eye(2))
        assert np.allclose(m.tangent(np.eye(2), 0.0, None), np.eye(2))

    def test_consistency(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            m = ou_model(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
            assert consistency_residual(m, random_spd(rng, 3)) <= 1e-10


class TestGbm:
    def test_zero_mean_stays_zero(self):
        rng = np.random.default_rng(53)
        m = gbm_model(
            rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), np.zeros(2)
        )
        assert np.allclose(m.evolve_aux(0.0, 1.7, m.aux0), 0.0)

    def test_zero_b_reduces_to_linear(self):
        rng = np.random.default_rng(54)
        A = rng.standard_normal((2, 2))
        m = gbm_model(A, np.zeros((2, 2)), np.ones(2))
        P = random_spd(rng, 2)
        assert np.allclose(m.tangent(P, 0.0, m.aux0), A @ P + P @ A.T)

    def test_mean_evolution_exact(self):
        rng = np.random.default_rng(55)
        A, B = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        m = gbm_model(A, B, np.array([1.0, -2.0]))
        theta = A + 0.5 * B @ B
        sol = solve_ivp(
            lambda t, y: theta @ y,
            (0.0, 1.0),
            m.aux0,
            rtol=1e-12,
            atol=1e-12,
        )
        assert np.allclose(m.evolve_aux(0.0, 1.0, m.aux0), sol.y[:, -1], atol=1e-9)

    def test_consistency(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            m = gbm_model(
                rng.standard_normal((3, 3)),
                rng.standard_normal((3, 3)),
                rng.standard_normal(3),
            )
            aux = m.evolve_aux(0.0, 0.3, m.aux0)
            assert consistency_residual(m, random_spd(rng, 3), aux=aux) <= 1e-10


class TestGbmPropagatorCache:
    """evolve_aux computes expm(dt theta) once per distinct dt."""

    @pytest.mark.parametrize("symmetric", [True, False], ids=["eigh", "pade"])
    def test_bits_equal_uncached(self, symmetric):
        rng = np.random.default_rng(60)
        A, B = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        if symmetric:
            A, B = A + A.T, B + B.T
        theta = A + 0.5 * B @ B
        assert matcore.is_symmetric(theta) == symmetric
        model = gbm_model(A, B, rng.standard_normal(3))
        steps = [(0.0, 0.25), (0.1, 0.35), (0.3, 0.3 + 0.125), (0.0, 0.25)]
        for _ in range(3):
            for t0, t1 in steps:
                m = rng.standard_normal(3)
                want = matcore.expm((t1 - t0) * theta) @ m
                assert np.array_equal(model.evolve_aux(t0, t1, m), want)

    def test_result_is_a_fresh_array(self):
        model = gbm_model(-np.eye(2), 0.1 * np.eye(2), np.ones(2))
        first = model.evolve_aux(0.0, 0.5, model.aux0)
        want = first.copy()
        first[:] = np.nan
        assert np.array_equal(model.evolve_aux(0.0, 0.5, model.aux0), want)

    def test_models_do_not_share_propagators(self):
        m0, B = np.array([1.0, 2.0]), np.zeros((2, 2))
        results = []
        for A in (np.array([[-1.0, 0.5], [0.0, -2.0]]), -3.0 * np.eye(2)):
            got = gbm_model(A, B, m0).evolve_aux(0.0, 1.0, m0)
            assert np.array_equal(got, matcore.expm(A) @ m0)
            results.append(got)
        assert not np.allclose(*results)

    def test_reference_computes_few_propagators(self, monkeypatch):
        calls = []

        def counting_expm(M):
            calls.append(M)
            return matcore.expm(M)

        monkeypatch.setattr(models, "expm", counting_expm)
        p = make_case_study("case1")
        reference_trajectory(p.model(), p.P0, p.grid(), 512)
        # One call per substep (14,848) without the cache; with it, one for
        # h and one for h/2 of each of the 14 distinct substep sizes h.
        assert len(calls) <= 64

    def test_overflow_is_not_cached(self):
        model = gbm_model(np.diag([800.0, 1.0]), np.zeros((2, 2)), np.ones(2))
        for _ in range(2):
            with pytest.raises(NonFinite), np.errstate(all="ignore"):
                model.evolve_aux(0.0, 1.0, model.aux0)
        assert np.all(np.isfinite(model.evolve_aux(0.0, 0.5, model.aux0)))


class TestRiccati:
    def test_reduces_to_negated_linear(self):
        rng = np.random.default_rng(57)
        A = rng.standard_normal((2, 2))
        m = riccati_model(A, np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        P = random_spd(rng, 2)
        assert np.allclose(m.tangent(P, 0.0, None), -(A @ P + P @ A.T))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_tangent_is_the_stated_ode(self, n):
        rng = np.random.default_rng(70 + n)
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        Q, R = random_spd(rng, n), random_spd(rng, n)
        m = riccati_model(A, B, Q, R)
        P = matcore.sym(random_spd(rng, n))
        # dP/dt = -(A P + P A^T - P B R^{-1} B^T P + Q), written out here.
        want = -(A @ P + P @ A.T - P @ B @ np.linalg.solve(R, B.T) @ P + Q)
        norm = np.linalg.norm(P)
        got = m.tangent(P, 0.0, None)
        assert np.abs(got - want).max() <= 1e-13 * norm * (1.0 + norm)

    def test_asymmetric_q_is_symmetrized_at_build(self):
        """A Q that is symmetric only within SYM_TOL builds a model whose
        tangent and steps are still exactly symmetric."""
        rng = np.random.default_rng(73)
        n = 3
        Q = matcore.sym(random_spd(rng, n))
        Q[0, 1] += 1e-13
        assert not np.array_equal(Q, Q.T)
        m = riccati_model(
            rng.standard_normal((n, n)), rng.standard_normal((n, n)), Q,
            random_spd(rng, n),
        )
        P = matcore.sym(random_spd(rng, n))
        T = m.tangent(P, 0.0, None)
        assert np.array_equal(T, T.T)
        for step in (euler_step, rk4_step):
            S = step(m, 0.0, P, 0.01, None)
            assert np.array_equal(S, S.T), step.__name__
        z = m.xi(P, 0.0, None)
        assert np.abs(z @ P + P @ z.T - T).max() <= 1e-12 * np.linalg.norm(P)

    def test_n8_reference_matches_the_closed_form(self):
        """The fine RK4 reference of an n = 8 LQR problem (drawn as the
        benchmark's generator draws one) against Radon's lemma: with
        H = [[-A, -Q], [-G, A^T]] and [X; Y](t) = expm(t H) [P0; I], the
        solution is P = X Y^{-1}."""
        n = 8
        rng = np.random.default_rng(7)
        O, _ = np.linalg.qr(rng.standard_normal((n, n)))
        X = rng.standard_normal((n, n))
        A = O @ np.diag(rng.uniform(0.3, 1.0, n)) @ O.T + 0.3 * (X - X.T) / np.sqrt(n)
        B = 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        Y = rng.standard_normal((n, n))
        Q = matcore.sym(0.01 * Y @ Y.T / n)
        Z = rng.standard_normal((n, n))
        P0 = matcore.sym(0.5 * (Z @ Z.T / n + np.eye(n)))
        R = np.eye(n)
        times = np.linspace(0.0, 1.0, 21)
        traj = reference_trajectory(riccati_model(A, B, Q, R), P0, times, refine=128)
        H = np.block([[-A, -Q], [-B @ np.linalg.solve(R, B.T), A.T]])
        XY0 = np.vstack([P0, np.eye(n)])
        for t, P in zip(times, traj.points):
            XY = expm(t * H) @ XY0
            exact = np.linalg.solve(XY[n:].T, XY[:n].T).T
            assert np.abs(P - exact).max() <= 1e-13 * np.linalg.norm(exact), t

    def test_scalar_oracle(self):
        a, b, q, r = 0.7, 1.3, 0.4, 2.0
        m = riccati_model(
            np.array([[a]]), np.array([[b]]), np.array([[q]]), np.array([[r]])
        )
        p0 = 0.9
        sol = solve_ivp(
            lambda t, p: -(2 * a * p - p * p * b * b / r + q),
            (0.0, 1.0),
            [p0],
            rtol=1e-12,
            atol=1e-12,
        )
        traj = reference_trajectory(
            m, np.array([[p0]]), np.linspace(0.0, 1.0, 5), refine=256
        )
        assert traj.final[0, 0] == pytest.approx(sol.y[0, -1], rel=1e-8)

    def test_requires_spd_r(self):
        with pytest.raises(NotSpd):
            riccati_model(np.eye(2), np.eye(2), np.eye(2), -np.eye(2))

    def test_consistency(self):
        rng = np.random.default_rng(58)
        for _ in range(50):
            W = rng.standard_normal((3, 3))
            m = riccati_model(
                rng.standard_normal((3, 3)),
                rng.standard_normal((3, 3)),
                matcore.sym(W @ W.T),
                random_spd(rng, 3),
            )
            assert consistency_residual(m, random_spd(rng, 3)) <= 1e-10

    def test_siegel_coeffs_cross_check(self):
        rng = np.random.default_rng(59)
        action = SiegelAction(3)
        for _ in range(20):
            W = rng.standard_normal((3, 3))
            m = riccati_model(
                rng.standard_normal((3, 3)),
                rng.standard_normal((3, 3)),
                matcore.sym(W @ W.T),
                random_spd(rng, 3),
            )
            P = random_spd(rng, 3)
            via_siegel = action.algebra_act(m.siegel_coeffs(P, 0.0), P)
            assert np.linalg.norm(via_siegel - m.tangent(P, 0.0, None)) <= 1e-8


def contract_model(name, n):
    """A model with non-commuting random coefficients (and, for gbm, a
    nonzero mean); the two convergence models are fixed at n = 3."""
    if name in ("constant", "noncommuting"):
        assert n == 3
        return convergence_model(name)
    rng = np.random.default_rng(60 + n)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    if name == "linear":
        return linear_model(A)
    if name == "ou":
        return ou_model(A, B)
    if name == "gbm":
        return gbm_model(A, B, rng.standard_normal(n))
    return riccati_model(
        A, B, matcore.sym(random_spd(rng, n)), matcore.sym(random_spd(rng, n))
    )


class TestXiReadsPoint:
    """A builder clears ``xi_reads_point`` only for a model whose xi does not
    depend on P, so that rkmk4_step may hand xi any point."""

    POINT_FREE = {
        "linear-symmetric": lambda: linear_model(
            matcore.sym(np.random.default_rng(1).standard_normal((3, 3)))
        ),
        "linear-nonsymmetric": lambda: linear_model(
            np.random.default_rng(2).standard_normal((3, 3))
        ),
        "constant": lambda: convergence_model("constant"),
        "noncommuting": lambda: convergence_model("noncommuting"),
    }

    @staticmethod
    def _two_points():
        rng = np.random.default_rng(7)
        return [matcore.sym(random_spd(rng, 3)) for _ in range(2)]

    @pytest.mark.parametrize("name", sorted(POINT_FREE))
    def test_xi_has_the_same_bits_at_any_point(self, name):
        model = self.POINT_FREE[name]()
        assert model.xi_reads_point is False
        P, Q = self._two_points()
        for t in (0.0, 0.3, 1.7):
            assert np.array_equal(model.xi(P, t, model.aux0), model.xi(Q, t, model.aux0))

    @pytest.mark.parametrize("name", ["ou", "gbm", "riccati"])
    def test_point_reading_models_keep_the_default(self, name):
        model = contract_model(name, 3)
        assert model.xi_reads_point is True
        P, Q = self._two_points()
        aux = model.aux0
        assert not np.array_equal(model.xi(P, 0.3, aux), model.xi(Q, 0.3, aux))


class TestExactSymmetry:
    """For an exactly symmetric P, each tangent, and one Euler and one RK4
    step, are exactly symmetric: the steppers do not re-symmetrize, so they
    rely on it bit for bit, not to a tolerance.  The generator xi gives the
    same right-hand side, xi P + P xi^T, to 1e-10 of ||P||."""

    @pytest.mark.parametrize(
        "name,n",
        [(name, n) for name in ("linear", "ou", "gbm", "riccati") for n in (2, 3, 8)]
        + [("constant", 3), ("noncommuting", 3)],
    )
    def test_tangent_and_steps(self, name, n):
        model = contract_model(name, n)
        P = matcore.sym(random_spd(np.random.default_rng(n), n))
        assert np.array_equal(P, P.T)
        aux = model.evolve_aux(0.0, 0.3, model.aux0)
        T = model.tangent(P, 0.3, aux)
        assert np.array_equal(T, T.T)
        assert consistency_residual(model, P, aux=aux) <= 1e-10
        for step in (euler_step, rk4_step):
            Q = step(model, 0.3, P, 0.01, aux)
            assert np.array_equal(Q, Q.T), step.__name__


class TestAffineRk4Map:
    """The cached map of the affine models is the four-stage RK4 step."""

    @pytest.mark.parametrize(
        "name,n", [(name, n) for name in ("linear", "ou", "gbm") for n in (2, 3, 8)]
    )
    def test_map_step_is_the_stage_step(self, name, n):
        model = contract_model(name, n)
        assert model.rk4_increment is not None
        stages = dataclasses.replace(model, rk4_increment=None)
        P = matcore.sym(random_spd(np.random.default_rng(n), n))
        aux = model.evolve_aux(0.0, 0.3, model.aux0)
        h = 0.0137
        for _ in range(2):  # the second step reads the cached map
            got = rk4_step(model, 0.3, P, h, aux)
            want = rk4_step(stages, 0.3, P, h, aux)
            assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(P)

    def test_above_the_cap_the_stages_run(self):
        n = models.AFFINE_RK4_MAX_N + 1
        rng = np.random.default_rng(n)
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        model = gbm_model(A, B, rng.standard_normal(n))
        assert model.rk4_increment is None
        assert gbm_model(A[1:, 1:], B[1:, 1:], np.ones(n - 1)).rk4_increment is not None
        P = matcore.sym(random_spd(rng, n))
        m = model.evolve_aux(0.0, 0.3, model.aux0)
        h = 0.0137
        got = rk4_step(model, 0.3, P, h, m)
        # The four stages of the stated ODE, written out here:
        # dP/dt = theta P + P theta^T + B (P + m m^T) B^T, dm/dt = theta m.
        theta = A + 0.5 * B @ B

        def field(P, m):
            return theta @ P + P @ theta.T + B @ (P + np.outer(m, m)) @ B.T

        m_half, m_full = expm(0.5 * h * theta) @ m, expm(h * theta) @ m
        k1 = field(P, m)
        k2 = field(P + 0.5 * h * k1, m_half)
        k3 = field(P + 0.5 * h * k2, m_half)
        k4 = field(P + h * k3, m_full)
        want = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(P)


class TestCaseStudy:
    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_commutation(self, case):
        p = make_case_study(case)
        assert np.linalg.norm(p.A @ p.B - p.B @ p.A) <= 1e-8

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_drift_negative_definite(self, case):
        p = make_case_study(case)
        theta = p.A + 0.5 * p.B @ p.B
        assert np.all(np.real(np.linalg.eigvals(theta)) < 0)

    def test_grids(self):
        c1, c2 = make_case_study("case1"), make_case_study("case2")
        assert c1.points == 30 and (c1.t0, c1.t1) == (0.0, 2.0)
        assert c2.h == pytest.approx(0.15)
        assert np.allclose(c1.P0, [[0.3383, -0.0716], [-0.0716, 0.0743]])

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            make_case_study("case3")

    def test_case1_reference_trace_decreases(self):
        # with a zero mean and stable commuting coefficients the exact flow
        # contracts to zero; the reference trace must decrease monotonically
        p = make_case_study("case1")
        assert np.allclose(p.m0, 0.0)
        traj = reference_trajectory(p.model(), p.P0, p.grid(), refine=64)
        traces = [np.trace(P) for P in traj.points]
        assert all(b < a for a, b in zip(traces, traces[1:]))


SDE_BATCHES = 20


def batch_se(X):
    """Mean of the batch sample covariances of X, and its standard error
    from their spread."""
    covs = np.array([np.cov(b, rowvar=False) for b in np.split(X, SDE_BATCHES)])
    return covs.mean(axis=0), covs.std(axis=0, ddof=1) / np.sqrt(SDE_BATCHES)


def zscore(X, P):
    """Largest |sample covariance of X - P| in standard errors, the errors
    taken from the spread of the batch covariances."""
    cov, se = batch_se(X)
    return (np.abs(cov - P) / se)[np.triu_indices(len(P))].max()


class TestGbmSde:
    """The presets' covariance ODE against exact samples of the SDE it is for.

    A and B commute, so with B = O diag(d_B) O^T and A = O diag(d_A) O^T the
    Stratonovich SDE dX = A X dt + B X o dW has the exact solution
    X_t = O diag(exp(d_A t + d_B W_t)) O^T X_0: the samples carry no
    time-discretization bias.  Read as Ito, the solution has d_A - d_B^2 / 2
    in place of d_A, and the test must tell the two readings apart.
    """

    SAMPLES, LIMIT = 400_000, 5.0

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_stratonovich_matches_and_ito_does_not(self, case):
        p = make_case_study(case)
        t_grid = p.grid()
        ref = reference_trajectory(p.model(), p.P0, t_grid, refine=64)
        d_B, O = np.linalg.eigh(p.B)
        d_A = np.diag(O.T @ p.A @ O)
        rng = np.random.default_rng(0)
        L = np.linalg.cholesky(p.P0)
        Y0 = (p.m0 + rng.standard_normal((self.SAMPLES, 2)) @ L.T) @ O
        W1 = rng.standard_normal((self.SAMPLES, 1))  # W_t = sqrt(t) W1
        strat, ito = [], []
        for k in (len(t_grid) // 3, 2 * len(t_grid) // 3, len(t_grid) - 1):
            t = t_grid[k]
            for drift, zs in ((d_A, strat), (d_A - 0.5 * d_B**2, ito)):
                X = (Y0 * np.exp(drift * t + d_B * np.sqrt(t) * W1)) @ O.T
                zs.append(zscore(X, ref.points[k]))
        assert max(strat) <= self.LIMIT
        assert max(ito) > self.LIMIT


class TestGbmHeunMoments:
    """The non-commuting gbm covariance ODE (the ``gbm-3x3`` config of
    tools/output_hashes.py: B not symmetric, AB != BA, a nonzero mean)
    against the exact moments of Heun's scheme, with no sampling.

    Heun's scheme converges to the Stratonovich solution.  For
    dX = A X dt + B X o dW with scalar W its one-step map is X+ = M(w) X,
    with M = I + Y + Y^2/2, Y = A h + B w and w ~ N(0, h).  So the second
    moment C = P + m m^T obeys C+ = E[M C M^T] and the mean m+ = E[M] m.
    M C M^T has degree 4 in w, which 3-point Gauss-Hermite nodes integrate
    exactly.  The recursion's covariance C - m m^T is O(h) from the ODE's.
    Here B S B^T differs from B^T S B, and B^2 from B^T B, so the recursion
    tells the model from the Ito reading theta = A, from the transposed
    diffusion B^T S B and from theta = A + B^T B / 2.
    """

    A = np.array([[-1.0, 0.5, 0.0], [0.2, -1.5, 0.3], [0.0, 0.4, -0.8]])
    B = np.array([[0.1, 0.3, 0.0], [-0.2, 0.0, 0.1], [0.0, 0.2, -0.3]])
    m0 = np.array([1.0, -0.5, 2.0])
    P0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
    TIMES = (0.5, 1.0)

    def heun_covariances(self, h):
        """C - m m^T of Heun's recursion at each of TIMES, step h."""
        nodes = np.sqrt(3.0 * h) * np.array([-1.0, 0.0, 1.0])
        weights = np.array([1.0, 4.0, 1.0]) / 6.0
        Y = self.A * h + nodes[:, None, None] * self.B
        M = np.eye(3) + Y + 0.5 * Y @ Y
        mean_map = np.tensordot(weights, M, 1)
        # C -> E[M C M^T] on the row-major vec of C.
        moment_map = sum(w * np.kron(Mw, Mw) for w, Mw in zip(weights, M))
        C0 = (self.P0 + np.outer(self.m0, self.m0)).ravel()
        out = []
        for t in self.TIMES:
            steps = round(t / h)
            C = (np.linalg.matrix_power(moment_map, steps) @ C0).reshape(3, 3)
            m = np.linalg.matrix_power(mean_map, steps) @ self.m0
            out.append(C - np.outer(m, m))
        return out

    def reference(self, A, B):
        """The refine-64 reference of gbm_model(A, B, m0) at each of TIMES."""
        return reference_trajectory(
            gbm_model(A, B, self.m0), self.P0, [0.0, *self.TIMES], refine=64
        ).points[1:]

    @staticmethod
    def distances(covariances, points):
        return np.array([np.linalg.norm(C - P) for C, P in zip(covariances, points)])

    def test_heun_converges_to_the_model(self):
        ref = self.reference(self.A, self.B)
        coarse = self.distances(self.heun_covariances(1 / 200), ref)
        fine = self.distances(self.heun_covariances(1 / 800), ref)
        order = np.log(coarse / fine) / np.log(4.0)
        assert np.all((0.9 <= order) & (order <= 1.1)), order
        assert fine.max() <= 1e-4

    def test_wrong_readings_miss(self):
        A, B = self.A, self.B
        half_BB = 0.5 * B @ B
        wrong = {  # gbm_model(A', B') has theta = A' + B'^2 / 2
            "ito, theta = A": (A - half_BB, B),
            "transposed diffusion": (A + half_BB - 0.5 * B.T @ B.T, B.T),
            "theta = A + B^T B / 2": (A + 0.5 * B.T @ B - half_BB, B),
        }
        heun = self.heun_covariances(1 / 800)
        for name, (A_, B_) in wrong.items():
            assert self.distances(heun, self.reference(A_, B_)).min() > 1e-2, name


class TestOuSde:
    """The OU covariance ODE against a seeded Euler-Maruyama sample of
    dX = A X dt + B dW (the 3x3 ``ou`` config of tools/output_hashes.py, with
    a 2-dimensional W and A, B not commuting).

    The scheme X_{k+1} = X_k + h A X_k + sqrt(h) B xi_k, at step h = 1/300,
    has a covariance that is not the ODE's: it obeys
    C_{k+1} = (I + hA) C_k (I + hA)^T + h B B^T, which is O(h) off.  That
    bias is computed here from the recursion and required to stay below half
    a standard error (it is at most 0.15 of one at the three times checked),
    so it cannot eat the 5 standard errors of tolerance.  The sample lies
    within 2.3 standard errors of the ODE; with the drift transposed,
    dX = A^T X dt, it misses by 14.9 or more, and must miss by more than 5.
    """

    A = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -0.5]])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    P0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
    SAMPLES, STEPS, LIMIT = 20_000, 300, 5.0

    def test_euler_maruyama_matches(self):
        A, B, P0 = self.A, self.B, self.P0
        t_grid = np.linspace(0.0, 1.0, 4)
        ref = reference_trajectory(ou_model(A, B), P0, t_grid, refine=64)
        transposed = reference_trajectory(ou_model(A.T, B), P0, t_grid, refine=64)
        h = t_grid[-1] / self.STEPS
        M = np.eye(3) + h * A
        rng = np.random.default_rng(0)
        X = rng.standard_normal((self.SAMPLES, 3)) @ np.linalg.cholesky(P0).T
        C = P0  # the covariance of the Euler-Maruyama iterates, exactly
        every = self.STEPS // 3
        zs, wrong, bias = [], [], []
        for k in range(1, self.STEPS + 1):
            X = X @ M.T + np.sqrt(h) * rng.standard_normal((self.SAMPLES, 2)) @ B.T
            C = M @ C @ M.T + h * B @ B.T
            if k % every == 0:
                P = ref.points[k // every]
                bias.append((np.abs(C - P) / batch_se(X)[1]).max())
                zs.append(zscore(X, P))
                wrong.append(zscore(X, transposed.points[k // every]))
        assert max(bias) <= 0.5
        assert max(zs) <= self.LIMIT
        assert min(wrong) > self.LIMIT
