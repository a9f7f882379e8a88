import contextlib

import numpy as np
import pytest

from conftest import random_spd, random_sym
from spdflow import matcore
from spdflow.actions import (
    CongruenceAction,
    SiegelAction,
    SpAlgebraElem,
)
from spdflow.errors import NonFinite, NotSymplectic, Singular


def random_sp_algebra(rng, n, scale):
    a = SpAlgebraElem(
        A=rng.standard_normal((n, n)),
        B=random_sym(rng, n),
        C=random_sym(rng, n),
    )
    nrm = np.linalg.norm(a.matrix)
    if nrm > scale:
        a = SpAlgebraElem(
            A=a.A * scale / nrm, B=a.B * scale / nrm, C=a.C * scale / nrm
        )
    return a


def fd_algebra(act, exp, a, P, s=1e-5):
    return (act(exp(s * a), P) - act(exp(-s * a), P)) / (2 * s)


class TestCongruence:
    def setup_method(self):
        self.action = CongruenceAction(3)

    def test_identity_axiom(self):
        rng = np.random.default_rng(30)
        P = random_spd(rng, 3)
        assert np.allclose(self.action.act(np.eye(3), P), P)

    def test_diagonal(self):
        out = CongruenceAction(2).act(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(out, np.diag([4.0, 9.0]))

    def test_composition_axiom(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            P = random_spd(rng, 3)
            g1 = matcore.expm(rng.standard_normal((3, 3)) * 0.5)
            g2 = matcore.expm(rng.standard_normal((3, 3)) * 0.5)
            lhs = self.action.act(g1, self.action.act(g2, P))
            rhs = self.action.act(g1 @ g2, P)
            assert np.linalg.norm(lhs - rhs) <= 1e-7 * np.linalg.norm(rhs)

    def test_transitivity_witness(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            X, Y = random_spd(rng, 3), random_spd(rng, 3)
            G = matcore.sqrtm_spd(Y) @ matcore.invsqrtm_spd(X)
            assert np.linalg.norm(self.action.act(G, X) - Y) <= 1e-9 * (
                1 + np.linalg.norm(Y)
            )

    def test_algebra_act(self):
        rng = np.random.default_rng(33)
        P = random_spd(rng, 3)
        assert np.allclose(self.action.algebra_act(np.zeros((3, 3)), P), 0.0)
        assert np.allclose(self.action.algebra_act(np.eye(3), P), 2 * P)

    def test_algebra_fd_consistency(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            P = random_spd(rng, 3)
            A = rng.standard_normal((3, 3))
            fd = fd_algebra(self.action.act, self.action.exp, A, P)
            assert np.linalg.norm(self.action.algebra_act(A, P) - fd) <= 1e-6

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            self.action.act(np.zeros((3, 3)), np.eye(3))

    def test_preserves_manifold(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            P = random_spd(rng, 3)
            M = matcore.expm(rng.standard_normal((3, 3)))
            ok, _ = matcore.is_spd(self.action.act(M, P))
            assert ok


class TestSiegel:
    def setup_method(self):
        self.action = SiegelAction(2)

    def test_identity_axiom(self):
        rng = np.random.default_rng(36)
        P = random_spd(rng, 2)
        assert np.allclose(self.action.act(np.eye(4), P), P)

    def test_block_diagonal_recovers_congruence(self):
        rng = np.random.default_rng(37)
        cong = CongruenceAction(2)
        for _ in range(20):
            P = random_spd(rng, 2)
            A = matcore.expm(rng.standard_normal((2, 2)) * 0.5)
            M = np.block(
                [[A, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(A).T]]
            )
            lhs = self.action.act(M, P)
            rhs = cong.act(A, P)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_composition_and_spd(self):
        # P kept at unit scale: the fractional map has a pole where the
        # denominator block loses invertibility (its stated precondition),
        # and positivity is only guaranteed on the near side of the pole
        rng = np.random.default_rng(38)
        for i in range(20):
            P = random_spd(rng, 2, scale=0.2)
            g1 = self.action.exp(random_sp_algebra(rng, 2, 0.5))
            g2 = self.action.exp(random_sp_algebra(rng, 2, 0.5))
            out = self.action.act(g1, P)
            ok, _ = matcore.is_spd(out)
            assert ok
            lhs = self.action.act(g1, self.action.act(g2, P))
            rhs = self.action.act(g1 @ g2, P)
            assert np.linalg.norm(lhs - rhs) <= 1e-7 * (1 + np.linalg.norm(rhs))

    def test_algebra_special_cases(self):
        rng = np.random.default_rng(39)
        P = random_spd(rng, 2)
        A = rng.standard_normal((2, 2))
        B = random_sym(rng, 2)
        Z = np.zeros((2, 2))
        out = self.action.algebra_act(SpAlgebraElem(A, Z, Z), P)
        assert np.allclose(out, A @ P + P @ A.T)
        assert np.allclose(self.action.algebra_act(SpAlgebraElem(Z, B, Z), P), B)

    def test_algebra_fd_consistency(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            P = random_spd(rng, 2)
            a = random_sp_algebra(rng, 2, 1.0)
            fd = fd_algebra(self.action.act, self.action.exp, a, P, s=1e-5)
            err = np.linalg.norm(self.action.algebra_act(a, P) - fd)
            assert err <= 1e-6 * max(1.0, np.linalg.norm(P) ** 2)

    def test_non_symplectic_rejected(self):
        M = np.eye(4)
        M[0, 0] = 2.0
        with pytest.raises(NotSymplectic):
            self.action.act(M, np.eye(2))

    @pytest.mark.parametrize(
        "n, M, symplectic",
        [
            (2, np.diag([np.nan, 1.0, 1.0, 1.0]), False),
            (2, np.diag([np.inf, 1.0, 1.0, 1.0]), False),
            (2, 1e200 * np.eye(4), False),
            (1, np.diag([1e200, 1e-200]), True),
        ],
        ids=["nan-entry", "inf-entry", "1e200-I", "norm-squared-overflows"],
    )
    def test_symplectic_check_at_any_scale(self, n, M, symplectic):
        # A non-finite residual is refused, and a symplectic M whose
        # ||M||_F^2 alone overflows is accepted.  M^T J M warns on a NaN, an
        # inf or an overflow; only the verdict is checked here.
        check = SiegelAction(n)._check_symplectic
        verdict = (
            contextlib.nullcontext() if symplectic else pytest.raises(NotSymplectic)
        )
        with np.errstate(all="ignore"), verdict:
            np.testing.assert_array_equal(check(M), M)

    @pytest.mark.parametrize(
        "M", [np.diag([np.inf, 1.0, 1.0, 1.0]), 1e200 * np.eye(4)],
        ids=["inf-entry", "1e200-I"],
    )
    def test_symplectic_check_refuses_without_warning(self, M):
        # No errstate here: pyproject turns a numpy RuntimeWarning into an
        # error, so a warning from M^T J M would fail the test.
        with pytest.raises(NotSymplectic):
            self.action._check_symplectic(M)

    @pytest.mark.parametrize("P", [np.eye(1), np.array([[1e200]])], ids=["I", "1e200"])
    def test_non_finite_image_raises(self, P):
        # diag(1e200, 1e-200) is symplectic; its image of P overflows.
        with pytest.raises(NonFinite):
            SiegelAction(1).act(np.diag([1e200, 1e-200]), P)
