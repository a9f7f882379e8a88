import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_spd
from spdflow import integrators, matcore
from spdflow.actions import CongruenceAction
from spdflow.errors import (
    ModelEvalFailure,
    NonFinite,
    ReferenceLeftManifold,
    Singular,
)
from spdflow.integrators import (
    _BLOCK,
    Trajectory,
    _why_left,
    get_stepper,
    integrate,
    lie_euler_step,
    reference_trajectory,
    rkmk4_step,
)
from spdflow.manifold import affine_distance, step_bounds
from spdflow.models import (
    ModelSpec,
    gbm_model,
    linear_model,
    make_case_study,
    ou_model,
)

ALL_STEPPERS = ["euler", "rk4", "riemannian_rk4", "lie_euler", "rkmk4"]


class TestTrivialFields:
    @pytest.mark.parametrize("name", ALL_STEPPERS)
    def test_zero_field_fixes_point(self, name):
        rng = np.random.default_rng(60)
        P = random_spd(rng, 3)
        out = get_stepper(name).step(linear_model(np.zeros((3, 3))), 0.0, P, 0.1)
        assert np.allclose(out, P, atol=1e-12)

    def test_euler_constant_field_identity_start(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((3, 3))
        out = get_stepper("euler").step(linear_model(A), 0.0, np.eye(3), 0.1)
        assert np.allclose(out, np.eye(3) + 0.1 * (A + A.T))

    def test_rk4_matches_degree4_taylor(self):
        # scalar linear problem: dp/dt = 2ap (xi = a I in dimension 1)
        a = -0.7
        m = linear_model(np.array([[a]]))
        h = 0.3
        out = get_stepper("rk4").step(m, 0.0, np.array([[1.0]]), h)
        z = 2 * a * h
        taylor = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert out[0, 0] == pytest.approx(taylor, rel=1e-14)


class TestFrozenFlowExactness:
    @pytest.mark.parametrize("name", ["lie_euler", "rkmk4"])
    def test_constant_xi_exact(self, name):
        rng = np.random.default_rng(62)
        A = rng.standard_normal((3, 3))
        P0 = random_spd(rng, 3)
        model = linear_model(A)
        stepper = get_stepper(name)
        h, N = 0.05, 20
        traj = integrate(stepper, model, P0, np.linspace(0.0, N * h, N + 1))
        G = matcore.expm(N * h * A)
        exact = G @ P0 @ G.T
        assert np.linalg.norm(traj.final - exact) <= 1e-10 * np.linalg.norm(exact)


class TestManifoldPreservation:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_random_draws_stay_spd(self):
        # includes steps far beyond the admissibility threshold of the
        # initial point.  Draws where ||h xi|| makes exp(h xi) worse
        # conditioned than 1/eps are skipped: there the true SPD result has
        # eigenvalue spread beyond double precision and no scheme can
        # represent it, independent of the stepper.
        rng = np.random.default_rng(63)
        action = CongruenceAction(2)
        tested = 0
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            P = random_spd(rng, n)
            if rng.random() < 0.5:
                model = ou_model(
                    0.5 * rng.standard_normal((n, n)),
                    0.5 * rng.standard_normal((n, n)),
                )
            else:
                model = gbm_model(
                    0.5 * rng.standard_normal((n, n)),
                    0.5 * rng.standard_normal((n, n)),
                    rng.standard_normal(n),
                )
            T = model.tangent(P, 0.0, model.aux0)
            b = step_bounds(P, T)
            hmax = 10.0 * b.rho_leave if math.isfinite(b.rho_leave) else 10.0
            h = rng.uniform(0.0, hmax) + 1e-6
            if h * np.linalg.norm(model.xi(P, 0.0, model.aux0)) > 15.0:
                continue
            for step in (lie_euler_step, rkmk4_step):
                try:
                    out = step(action, model, 0.0, P, h, model.aux0)
                except (NonFinite, ModelEvalFailure, Singular):
                    # an interior stage re-evaluates xi at a moved point,
                    # which can leave the representable regime (exp overflow,
                    # or an under/overflowed stage point) even when the
                    # initial stage does not
                    continue
                if not np.all(np.isfinite(out)):
                    continue
                tested += 1
                lam = np.linalg.eigvalsh(matcore.sym(out))
                if lam[-1] <= 1e6:
                    assert lam[0] > 0.0, (
                        f"{step.__name__} left manifold: min eig {lam[0]}"
                    )
                else:
                    # badly scaled output: positivity can only hold up to
                    # roundoff relative to the dominant eigenvalue
                    assert lam[0] > -1e-8 * lam[-1], (
                        f"{step.__name__}: min eig {lam[0]} vs max {lam[-1]}"
                    )
        assert tested >= 1000


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_STEPPERS)
    def test_bit_identical_repeats(self, name):
        p = make_case_study("case2")
        model, grid = p.model(), p.grid()
        t1 = integrate(get_stepper(name), model, p.P0, grid)
        t2 = integrate(get_stepper(name), model, p.P0, grid)
        for a, b in zip(t1.points, t2.points):
            assert np.array_equal(a, b)


class TestIntegrate:
    def test_single_point_grid(self):
        rng = np.random.default_rng(64)
        P = random_spd(rng, 2)
        traj = integrate(get_stepper("rk4"), linear_model(np.eye(2)), P, [0.0])
        assert len(traj.points) == 1 and np.array_equal(traj.final, P)

    def test_case1_rkmk4_all_spd(self):
        p = make_case_study("case1")
        traj = integrate(get_stepper("rkmk4"), p.model(), p.P0, p.grid())
        assert all(traj.spd)

    def test_case2_rk4_leaves_manifold(self):
        p = make_case_study("case2")
        traj = integrate(get_stepper("rk4"), p.model(), p.P0, p.grid())
        assert not all(traj.spd)

    def test_case2_euler_first_step_fails(self):
        p = make_case_study("case2")
        traj = integrate(get_stepper("euler"), p.model(), p.P0, p.grid())
        assert traj.spd[0] and not traj.spd[1]

    def test_step_error_carries_index(self):
        # the Riemannian retraction requires an SPD base point, which the
        # Euclidean increment destroys on this problem at the first step
        p = make_case_study("case2")
        with pytest.raises(ModelEvalFailure, match="interval"):
            integrate(get_stepper("riemannian_rk4"), p.model(), -p.P0, p.grid())

    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("name", ALL_STEPPERS)
    def test_min_eigs_equal_per_point_is_spd_bits(self, name, case):
        # One is_spd call judges the whole trajectory; case2 includes points
        # off the cone.
        p = make_case_study(case)
        traj = integrate(get_stepper(name), p.model(), p.P0, p.grid())
        expected = np.array([matcore.is_spd(P)[1] for P in traj.points])
        assert np.array(traj.min_eigs).tobytes() == expected.tobytes()


class TestReference:
    def test_matches_closed_form_constant_xi(self):
        rng = np.random.default_rng(65)
        A = rng.standard_normal((2, 2)) * 0.5
        P0 = random_spd(rng, 2)
        grid = np.linspace(0.0, 1.0, 5)
        traj = reference_trajectory(linear_model(A), P0, grid, refine=128)
        G = matcore.expm(A)
        exact = G @ P0 @ G.T
        assert np.linalg.norm(traj.final - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_refine_doubling_stable_on_case1(self):
        p = make_case_study("case1")
        a = reference_trajectory(p.model(), p.P0, p.grid(), refine=512)
        b = reference_trajectory(p.model(), p.P0, p.grid(), refine=1024)
        assert np.linalg.norm(a.final - b.final) < 1e-10

    def test_case1_affine_accuracy(self):
        # A and B commute, so in B's eigenbasis (b_i) each entry of P solves
        # a scalar ODE: P_ij(t) = exp((a_i + a_j + b_i b_j) t) P_ij(0), with
        # a_i the eigenvalues of the drift theta = A + B^2/2.  The affine
        # distance weighs the reference's error against P's smallest
        # eigenvalue, about 3e-18 at t = 2, which the Frobenius one does not.
        p = make_case_study("case1")
        ref = reference_trajectory(p.model(), p.P0, p.grid(), refine=512)
        b, O = np.linalg.eigh(p.B)
        a = np.diag(O.T @ (p.A + 0.5 * p.B @ p.B) @ O)
        rate = a[:, None] + a[None, :] + b[:, None] * b[None, :]
        P0 = O.T @ p.P0 @ O
        exact = [O @ (np.exp(rate * t) * P0) @ O.T for t in p.grid()]
        assert max(affine_distance(E, P) for E, P in zip(exact, ref.points)) <= 5e-3
        assert max(np.linalg.norm(E - P) for E, P in zip(exact, ref.points)) <= 1e-13

    def test_case2_reference_exists(self):
        p = make_case_study("case2")
        traj = reference_trajectory(p.model(), p.P0, p.grid(), refine=512)
        assert all(traj.spd)

    def test_too_coarse_reference_detected(self):
        # single-interval grid: refine=2 means substeps of 0.75, five times
        # the step at which plain RK4 already leaves the manifold
        p = make_case_study("case2")
        with pytest.raises(ReferenceLeftManifold, match="t=0.75"):
            reference_trajectory(p.model(), p.P0, [p.t0, p.t1], refine=2)

    def test_refine_validation(self):
        p = make_case_study("case1")
        with pytest.raises(ValueError):
            reference_trajectory(p.model(), p.P0, p.grid(), refine=1)


def _fine_grid(grid, refine):
    sub = [np.linspace(a, b, refine + 1)[:-1] for a, b in zip(grid, grid[1:])]
    return np.concatenate(sub + [grid[-1:]])


class TestReferenceIsIntegrateOnFineGrid:
    """The reference keeps every refine-th point of plain RK4 integration on
    the refined grid, bit for bit."""

    @pytest.mark.parametrize(
        "grid",
        [None, np.array([0.0, 0.05, 0.3, 0.31, 1.0, 2.0])],
        ids=["case1-grid", "non-uniform"],
    )
    def test_case1_bit_identical(self, grid):
        p = make_case_study("case1")
        grid = p.grid() if grid is None else grid
        refine = 8
        ref = reference_trajectory(p.model(), p.P0, grid, refine)
        fine = integrate(get_stepper("rk4"), p.model(), p.P0, _fine_grid(grid, refine))
        assert len(fine.points) == (len(grid) - 1) * refine + 1
        assert np.array_equal(ref.times, grid)
        for k, P in enumerate(ref.points):
            assert np.array_equal(P, fine.points[k * refine])
            assert ref.min_eigs[k] == fine.min_eigs[k * refine]

    def test_substep_error_names_fine_interval(self):
        # plain RK4 raises only when the model does: this tangent raises
        # after t = 0.5, first reached by substep 2 (0.5 -> 0.75)
        def tangent(P, t, aux):
            if t > 0.5:
                raise ValueError("boom")
            return -P

        model = ModelSpec(xi=lambda P, t, aux: -0.5 * np.eye(2), tangent=tangent)
        msg = r"rk4 failed on interval 2 \(t=0.5\)"
        with pytest.raises(ModelEvalFailure, match=msg):
            reference_trajectory(model, np.eye(2), [0.0, 1.0], refine=4)


class TestBatchedReferenceCheck:
    """The reference tests its sub-iterates in blocks of ``_BLOCK`` with one
    is_spd call on a stack; the outcome is that of testing each alone."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_min_eigs_equal_is_spd_bits(self, n):
        rng = np.random.default_rng(n)
        S = random_spd(rng, n)
        G = rng.standard_normal((n, n))
        singular = G[:, :1] @ G[:, :1].T
        nan, inf = S.copy(), S.copy()
        nan[0, n - 1] = np.nan
        inf[n - 1, n - 1] = np.inf
        stack = [S, G + G.T, singular, nan, G, inf, -S, np.zeros((n, n))]
        stack += [random_spd(rng, n) for _ in range(20)]
        expected = np.array([matcore.is_spd(P)[1] for P in stack])
        assert matcore.is_spd(np.stack(stack))[1].tobytes() == expected.tobytes()

    def test_refine_beyond_block_is_integrate_on_fine_grid(self):
        p = make_case_study("case1")
        grid = np.array([0.0, 0.05, 0.3, 1.0])
        refine = _BLOCK + 3
        ref = reference_trajectory(p.model(), p.P0, grid, refine)
        fine = integrate(get_stepper("rk4"), p.model(), p.P0, _fine_grid(grid, refine))
        assert len(fine.points) == (len(grid) - 1) * refine + 1 > 2 * _BLOCK
        for k, P in enumerate(ref.points):
            assert np.array_equal(P, fine.points[k * refine])
            assert ref.min_eigs[k] == fine.min_eigs[k * refine]

    @pytest.mark.parametrize(
        "k, refine",
        [(5, 10), (_BLOCK - 2, _BLOCK), (_BLOCK + 5, 2 * _BLOCK)],
        ids=["mid-block", "block-end", "second-block"],
    )
    def test_first_failure_wins(self, k, refine):
        # On [0, 1] with refine substeps of h: the substep to t_k turns the
        # iterate indefinite, and the one to t_{k+2} raises in its mid stage.
        t = np.linspace(0.0, 1.0, refine + 1)
        h = 1.0 / refine

        def tangent(P, s, aux):
            if s > t[k + 1] + 0.25 * h:
                raise ValueError("boom")
            if t[k - 1] + 0.25 * h < s <= t[k] + 0.25 * h:
                return -(2.4 / h) * np.diag([1.0, 0.0])
            return np.zeros((2, 2))

        model = ModelSpec(xi=lambda P, s, aux: np.zeros((2, 2)), tangent=tangent)
        with pytest.raises(ReferenceLeftManifold, match=rf"t={t[k]:.6g} \(min eig -1"):
            reference_trajectory(model, np.eye(2), [0.0, 1.0], refine)

    def test_near_symmetric_p0_gives_symmetric_points(self):
        rng = np.random.default_rng(7)
        model = ou_model(0.5 * rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        P0 = random_spd(rng, 3)
        P0[0, 2] += 1e-12
        assert matcore.is_symmetric(P0) and not np.array_equal(P0, P0.T)
        grid = np.linspace(0.0, 0.5, 6)
        trajs = [integrate(get_stepper(name), model, P0, grid) for name in ALL_STEPPERS]
        trajs.append(reference_trajectory(model, P0, grid, refine=4))
        for traj in trajs:
            assert all(np.array_equal(P, P.T) for P in traj.points)


class TestBlockVerdict:
    """The reference writes its sub-iterates into one reused buffer and judges
    each block with array operations: the first sub-iterate out of the cone
    is reported, and every refine-th point is kept as a copy."""

    @staticmethod
    def _kicks(refine, kicks):
        """A 2x2 model on [0, 1] with `refine` substeps, the identity's flow:
        the substep to t_k moves P by kicks[k] * diag(1, 0) and every other
        substep leaves it (only the two mid stages of a substep see a kick)."""
        t = np.linspace(0.0, 1.0, refine + 1)
        h = 1.0 / refine

        def tangent(P, s, aux):
            k = round(s * refine + 0.5)  # the substep whose midpoint s is
            if k in kicks and abs(s - (t[k - 1] + 0.5 * h)) < 0.25 * h:
                return (1.5 * kicks[k] / h) * np.diag([1.0, 0.0])
            return np.zeros((2, 2))

        return t, ModelSpec(xi=lambda P, s, aux: np.zeros((2, 2)), tangent=tangent)

    def test_earlier_of_two_in_one_block_is_reported(self):
        # out at t_5 (min eig -1), back in at t_7, out again at t_9 (-2)
        refine = 20
        t, model = self._kicks(refine, {5: -2.0, 7: 2.0, 9: -3.0})
        with pytest.raises(ReferenceLeftManifold) as info:
            reference_trajectory(model, np.eye(2), [0.0, 1.0], refine)
        assert f"t={t[5]:.6g} (min eig -1" in str(info.value)

    def test_last_sub_iterate_of_a_short_final_block_is_reported(self):
        refine = _BLOCK + 10
        t, model = self._kicks(refine, {refine: -2.0})
        with pytest.raises(ReferenceLeftManifold, match=r"t=1 \(min eig -1"):
            reference_trajectory(model, np.eye(2), [0.0, 1.0], refine)
        _, quiet = self._kicks(refine, {})
        quiet_ref = reference_trajectory(quiet, np.eye(2), [0.0, 1.0], refine)
        assert np.array_equal(quiet_ref.spd, np.ones(2, dtype=bool))

    @pytest.mark.parametrize("kick", [None, 100], ids=["raise-only", "left-first"])
    def test_failure_on_the_first_substep_of_a_block(self, kick):
        # The substep to fine index _BLOCK, the first sub-iterate of block 2,
        # raises in its mid stage, so that block is empty when it does.  An
        # indefinite sub-iterate at t_kick in block 1 is reported instead.
        refine = _BLOCK + 10
        t = np.linspace(0.0, 1.0, refine + 1)
        h = 1.0 / refine

        def tangent(P, s, aux):
            if s > t[_BLOCK - 1] + 0.25 * h:
                raise ValueError("boom")
            if kick and t[kick - 1] + 0.25 * h < s <= t[kick] + 0.25 * h:
                return -(2.4 / h) * np.diag([1.0, 0.0])
            return np.zeros((2, 2))

        model = ModelSpec(xi=lambda P, s, aux: np.zeros((2, 2)), tangent=tangent)
        if kick is None:
            error, msg = ModelEvalFailure, rf"rk4 failed on interval {_BLOCK - 1} \(t="
        else:
            error, msg = ReferenceLeftManifold, rf"t={t[kick]:.6g} \(min eig -1"
        with pytest.raises(error, match=msg):
            reference_trajectory(model, np.eye(2), [0.0, 1.0], refine)

    def test_kept_points_survive_buffer_reuse(self):
        p = make_case_study("case1")
        grid = np.array([0.0, 0.05, 0.3, 1.0])
        refine = 2 * _BLOCK + 1
        ref = reference_trajectory(p.model(), p.P0, grid, refine)
        fine = integrate(get_stepper("rk4"), p.model(), p.P0, _fine_grid(grid, refine))
        assert len(fine.points) > 5 * _BLOCK and len(ref.points) == len(grid)
        for k, P in enumerate(ref.points):
            assert np.array_equal(P, fine.points[k * refine])
            assert ref.min_eigs[k] == fine.min_eigs[k * refine]

    def test_short_grid_at_large_n_allocates_a_short_buffer(self):
        n = 200
        rng = np.random.default_rng(200)
        model = linear_model(-np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n))
        tracemalloc.start()
        try:
            ref = reference_trajectory(model, np.eye(n), [0.0, 0.5, 1.0], refine=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ref.spd, np.ones(3, dtype=bool))
        assert peak < 0.1 * _BLOCK * n * n * 8


class TestCertifiedBlocks:
    """A block whose sub-iterates spd_certified proves SPD sends only its kept
    points to is_spd; any other block is judged whole by is_spd."""

    def test_spd_below_the_margin_falls_back(self):
        P0 = np.diag([1.0, 1e-17])
        assert matcore.is_spd(P0)[0] and not matcore.spd_certified(P0)
        zero = ModelSpec(
            xi=lambda P, s, aux: np.zeros((2, 2)),
            tangent=lambda P, s, aux: np.zeros((2, 2)),
        )
        ref = reference_trajectory(zero, P0, [0.0, 0.5, 1.0], refine=4)
        assert all(np.array_equal(P, P0) for P in ref.points)
        expected = [matcore.is_spd(P)[1] for P in ref.points]
        assert np.array(ref.min_eigs).tobytes() == np.array(expected).tobytes()
        assert np.array_equal(ref.spd, np.ones(3, dtype=bool))

    def test_certified_blocks_leave_the_eigenvalues_to_one_call(self, monkeypatch):
        # case1 at refine=512 fills 30 blocks, each certified, so the only
        # is_spd call is the Trajectory's on the kept points.
        calls = []

        def counting(S, tol=0.0):
            calls.append(np.shape(S))
            return matcore.is_spd(S, tol)

        monkeypatch.setattr(integrators, "is_spd", counting)
        p = make_case_study("case1")
        ref = reference_trajectory(p.model(), p.P0, p.grid(), refine=512)
        assert calls == [ref.points.shape]

    def test_long_grid_at_n64_peaks_at_a_few_blocks(self):
        # 4 * _BLOCK + 1 sub-iterates: holding them all would take 4 blocks.
        n = 64
        rng = np.random.default_rng(64)
        model = linear_model(-np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n))
        tracemalloc.start()
        try:
            ref = reference_trajectory(model, np.eye(n), [0.0, 1.0], refine=4 * _BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ref.spd, np.ones(2, dtype=bool))
        assert peak < 3.5 * _BLOCK * n * n * 8


class TestWhyLeft:
    """A sub-iterate within the cert_margin, 8 n^2 eps ||P||_F, of zero is
    singular to working precision; one below it has left the cone."""

    SINGULAR = "the solution is singular to working precision"
    LEFT = "refine is too small"

    def test_margin_boundary(self):
        P = np.array([[2.0, 1.0], [1.0, 3.0]])
        norm = float(np.linalg.norm(P))
        margin = matcore.cert_margin(2, norm)
        assert margin == 8.0 * 2**2 * np.finfo(np.float64).eps * norm
        assert self.SINGULAR in _why_left(P, -margin)
        assert self.LEFT in _why_left(P, np.nextafter(-margin, -np.inf))

    def test_non_finite_point_left(self):
        P = np.array([[np.inf, 0.0], [0.0, 1.0]])
        assert self.LEFT in _why_left(P, -np.inf)


class TestTrajectorySpd:
    @pytest.mark.parametrize(
        "times",
        [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, math.nan, 1.0], [math.nan] * 3],
        ids=["repeat", "descending", "nan-inside", "all-nan"],
    )
    def test_times_must_be_strictly_ascending(self, times):
        with pytest.raises(ValueError, match="times must be strictly ascending"):
            Trajectory(np.array(times), np.stack([np.eye(2)] * 3))
        with pytest.raises(ValueError, match="times must be strictly ascending"):
            integrate(get_stepper("rk4"), linear_model(-np.eye(2)), np.eye(2), times)

    def test_spd_derived_from_min_eigs(self):
        unbounded = np.eye(2)
        unbounded[0, 1] = unbounded[1, 0] = float("inf")
        traj = Trajectory(
            np.array([0.0, 1.0, 2.0]),
            np.stack([np.eye(2), np.diag([1.0, 0.0]), unbounded]),
        )
        assert np.array_equal(traj.min_eigs, [1.0, 0.0, float("-inf")])
        assert traj.spd.dtype == bool
        assert np.array_equal(traj.spd, [True, False, False])


def _case_inputs(name):
    p = make_case_study(name)
    return p.model(), p.P0, p.grid()


class TestTrajectoryArrays:
    """integrate and the reference return each trajectory as arrays: one
    float64 stack of points, one float64 array of minimum eigenvalues, and a
    bool SPD flag per point, none of them shared with another run."""

    RUNS = {
        "integrate-case2-rk4": lambda: integrate(
            get_stepper("rk4"), *_case_inputs("case2")
        ),
        "integrate-ou-3x3": lambda: integrate(
            get_stepper("rkmk4"), ou_model(-np.eye(3), np.ones((3, 1))),
            np.eye(3), np.linspace(0.0, 1.0, 4),
        ),
        "reference-case1-refine-4": lambda: reference_trajectory(
            *_case_inputs("case1"), 4
        ),
        "reference-refine-above-block": lambda: reference_trajectory(
            ou_model(-np.eye(3), np.ones((3, 1))), np.eye(3),
            np.array([0.0, 0.05, 0.3, 1.0]), _BLOCK + 3,
        ),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_arrays_of_one_run(self, run):
        traj, other = self.RUNS[run](), self.RUNS[run]()
        N, n = len(traj.times), traj.final.shape[0]
        assert isinstance(traj.points, np.ndarray)
        assert traj.points.dtype == np.float64 and traj.points.shape == (N, n, n)
        assert isinstance(traj.min_eigs, np.ndarray)
        assert traj.min_eigs.dtype == np.float64 and traj.min_eigs.shape == (N,)
        assert traj.spd.dtype == bool and traj.spd.shape == (N,)
        assert np.array_equal(traj.spd, traj.min_eigs > 0.0)
        assert np.array_equal(traj.points, other.points)
        assert not np.shares_memory(traj.points, other.points)
        assert not np.shares_memory(traj.min_eigs, other.min_eigs)
