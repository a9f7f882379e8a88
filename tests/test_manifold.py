import math

import numpy as np
import pytest

from conftest import random_spd, random_sym
from spdflow import manifold, matcore
from spdflow.errors import DimMismatch, NotSpd, NotSymmetric
from spdflow.manifold import (
    affine_distance,
    affine_exp,
    spd_after_step,
    step_bounds,
)


def random_sym_with_negative(rng, n):
    while True:
        T = random_sym(rng, n)
        if np.linalg.eigvalsh(T)[0] < -1e-6:
            return T


class TestStepBounds:
    def test_psd_direction_all_safe(self):
        b = step_bounds(np.eye(3), np.eye(3))
        assert b.regime == manifold.ALL_SAFE
        assert b.rho_stay == math.inf and b.rho_leave == math.inf

    def test_diagonal_pair(self):
        b = step_bounds(np.diag([1.0, 2.0]), np.diag([-1.0, 1.0]))
        assert b.regime == manifold.BOUNDED
        assert b.rho_stay == pytest.approx(1.0)
        assert b.rho_leave == pytest.approx(2.0)
        # direct check: P + rho T = diag(1 - rho, 2 + rho)
        assert spd_after_step(np.diag([1.0, 2.0]), np.diag([-1.0, 1.0]), 0.5)
        assert not spd_after_step(np.diag([1.0, 2.0]), np.diag([-1.0, 1.0]), 1.5)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_any_scale(self, scale):
        # P + rho T = scale * (1 - rho) I: leaves the cone exactly at rho = 1,
        # whatever the scale.
        P, T = scale * np.eye(2), -scale * np.eye(2)
        assert step_bounds(P, T) == manifold.StepBounds(1.0, 1.0, manifold.BOUNDED)
        assert spd_after_step(P, T, 0.5)
        assert not spd_after_step(P, T, 1.0)

    def test_stay_not_above_leave(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            for _ in range(50):
                P = random_spd(rng, n)
                T = random_sym_with_negative(rng, n)
                b = step_bounds(P, T)
                assert 0.0 < b.rho_stay <= b.rho_leave < math.inf

    def test_soundness_sweep(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            P = random_spd(rng, n)
            T = random_sym_with_negative(rng, n)
            b = step_bounds(P, T)
            assert spd_after_step(P, T, 0.999 * b.rho_stay)
            assert not spd_after_step(P, T, b.rho_leave)
            assert not spd_after_step(P, T, 2.0 * b.rho_leave)

    def test_all_safe_soundness(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            P = random_spd(rng, n)
            W = rng.standard_normal((n, n))
            T = matcore.sym(W @ W.T)
            assert step_bounds(P, T).regime == manifold.ALL_SAFE
            for rho in (0.1, 1.0, 10.0, 1000.0):
                assert spd_after_step(P, T, rho)

    def test_each_input_checked_and_decomposed_once(self, monkeypatch):
        calls = []
        sym_eig = manifold.sym_eig

        def counted(S):
            calls.append(S)
            return sym_eig(S)

        def second_spd_test(*args):
            raise AssertionError("step_bounds re-tested P with is_spd")

        monkeypatch.setattr(manifold, "sym_eig", counted)
        monkeypatch.setattr(manifold, "is_spd", second_spd_test)
        P, T = np.diag([1.0, 2.0]), np.diag([-1.0, 1.0])
        b = step_bounds(P, T)
        assert (b.rho_stay, b.rho_leave) == (1.0, 2.0)
        assert len(calls) == 2
        assert calls[0] is P and calls[1] is T

    def test_input_validation(self):
        with pytest.raises(NotSpd):
            step_bounds(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(NotSymmetric):
            step_bounds(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "P, T", [(np.eye(2), -np.diag([1.0, 2.0, 3.0]))], ids=["P-2x2-T-3x3"]
    )
    def test_shape_mismatch_raises(self, P, T):
        with pytest.raises(DimMismatch):
            step_bounds(P, T)


class TestAffineDistance:
    def test_coincident(self):
        rng = np.random.default_rng(14)
        P = random_spd(rng, 3)
        assert affine_distance(P, P) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_log(self):
        assert affine_distance(np.eye(2), np.diag([math.e, 1.0])) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        P, Q = random_spd(rng, 3), random_spd(rng, 3)
        assert affine_distance(P, Q) == pytest.approx(
            affine_distance(Q, P), rel=1e-10
        )

    def test_congruence_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            P, Q = random_spd(rng, 3), random_spd(rng, 3)
            M = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            d1 = affine_distance(P, Q)
            d2 = affine_distance(
                matcore.sym(M @ P @ M.T), matcore.sym(M @ Q @ M.T)
            )
            assert abs(d1 - d2) <= 1e-8 * max(1.0, d1)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            P, Q, R = (random_spd(rng, 3) for _ in range(3))
            assert affine_distance(P, R) <= (
                affine_distance(P, Q) + affine_distance(Q, R) + 1e-9
            )


class TestAffineDistanceStacks:
    """affine_distance on two stacks is the per-pair distance, pair by pair."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_stack_matches_pairs(self, n):
        rng = np.random.default_rng(40 + n)
        P = np.stack([random_spd(rng, n) for _ in range(7)])
        Q = np.stack([random_spd(rng, n, scale=3.0) for _ in range(7)])
        dist = affine_distance(P, Q)
        assert dist.shape == (7,)
        pairs = [affine_distance(a, b) for a, b in zip(P, Q)]
        np.testing.assert_allclose(dist, pairs, rtol=1e-12, atol=0.0)

    def test_matrix_call_returns_a_float(self):
        d = affine_distance(np.eye(2), np.diag([math.e, 1.0]))
        assert type(d) is float

    @pytest.mark.parametrize("side", [0, 1])
    def test_non_spd_on_either_side_raises(self, side):
        rng = np.random.default_rng(50)
        pair = [np.stack([random_spd(rng, 3) for _ in range(4)]) for _ in range(2)]
        pair[side][2] = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotSpd):
            affine_distance(*pair)
        with pytest.raises(NotSpd):
            affine_distance(pair[0][2], pair[1][2])


class TestAffineExp:
    def test_zero_tangent(self):
        rng = np.random.default_rng(18)
        P = random_spd(rng, 3)
        assert np.allclose(affine_exp(P, np.zeros((3, 3))), P, atol=1e-12)

    def test_at_identity(self):
        rng = np.random.default_rng(19)
        S = random_sym(rng, 3)
        assert np.allclose(affine_exp(np.eye(3), S), matcore.expm(S), atol=1e-10)

    def test_always_on_manifold(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            P = random_spd(rng, 3)
            S = random_sym(rng, 3, scale=1.5 * np.linalg.norm(P))
            ok, _ = matcore.is_spd(affine_exp(P, S))
            assert ok

    def test_huge_tangent_positivity_up_to_roundoff(self):
        # for ||Sigma|| >> ||P|| the exact result has eigenvalue spread
        # beyond what doubles represent; positivity then only holds up to
        # roundoff relative to the dominant eigenvalue
        rng = np.random.default_rng(22)
        for _ in range(20):
            P = random_spd(rng, 3)
            S = random_sym(rng, 3, scale=30.0 * np.linalg.norm(P))
            lam = np.linalg.eigvalsh(matcore.sym(affine_exp(P, S)))
            assert np.all(np.isfinite(lam))
            assert lam[0] > -1e-9 * lam[-1]

    def test_metric_compatibility_slope(self):
        rng = np.random.default_rng(21)
        P = random_spd(rng, 3)
        S = random_sym(rng, 3)
        W = matcore.invsqrtm_spd(P)
        speed = np.linalg.norm(W @ S @ W)
        for t in (1e-3, 1e-4):
            ratio = affine_distance(P, affine_exp(P, t * S)) / t
            assert ratio == pytest.approx(speed, rel=1e-3)
