import numpy as np
import pytest

from conftest import random_spd, random_sym
from spdflow import matcore
from spdflow.errors import DimMismatch, NonFinite, NotSpd, UnsupportedOrder


class TestSymEig:
    def test_diagonal(self):
        vals, vecs = matcore.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    def test_identity(self):
        vals, vecs = matcore.sym_eig(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            S = random_sym(rng, 5)
            vals, vecs = matcore.sym_eig(S)
            assert np.all(np.diff(vals) >= 0)
            err = np.linalg.norm((vecs * vals) @ vecs.T - S)
            assert err <= 1e-9 * np.linalg.norm(S)
            assert np.linalg.norm(vecs.T @ vecs - np.eye(5)) <= 1e-9 * 5

    def test_nonfinite_rejected(self):
        S = np.eye(2)
        S[0, 1] = S[1, 0] = np.nan
        with pytest.raises(NonFinite):
            matcore.sym_eig(S)


class TestExpm:
    def test_zero(self):
        assert np.array_equal(matcore.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matcore.expm(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag(np.exp([1.0, -2.0])), rtol=1e-14)

    def test_taylor_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = rng.standard_normal((4, 4))
            M *= 1.0 / max(1.0, np.linalg.norm(M))
            series = np.eye(4)
            term = np.eye(4)
            for k in range(1, 31):
                term = term @ M / k
                series = series + term
            assert np.linalg.norm(matcore.expm(M) - series) <= 1e-12

    def test_symmetric_is_spd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            S = random_sym(rng, 3)
            ok, _ = matcore.is_spd(matcore.expm(S), 0.0)
            assert ok

    def test_overflow_raises(self):
        with pytest.raises(NonFinite):
            matcore.expm(np.array([[2000.0, 1.0], [0.0, 1000.0]]))

    def test_symmetric_overflow_raises(self):
        # the spectral branch used to return [[inf, nan], [nan, nan]] here
        with pytest.raises(NonFinite):
            matcore.expm(np.diag([800.0, 0.0]))

    def test_scaling_branch_large_norm(self):
        M = np.array([[0.0, 30.0, 0.0], [0.0, 0.0, 30.0], [1.0, 0.0, 0.0]])
        # nilpotent-free large-norm input: compare against spectral identity
        # exp(M) exp(-M) = I
        R = matcore.expm(M) @ matcore.expm(-M)
        assert np.linalg.norm(R - np.eye(3)) <= 1e-8

    @pytest.mark.parametrize(
        "M, error",
        [
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFinite),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), NonFinite),
            (np.array([[1.0, 0.0], [0.0, np.inf]]), NonFinite),
            (np.ones((2, 3)), DimMismatch),
            (np.ones((2, 2, 2)), DimMismatch),
        ],
        ids=["nan-symmetric", "nan-nonsymmetric", "inf-diagonal", "non-square", "3-d"],
    )
    def test_bad_input_rejected(self, M, error):
        with pytest.raises(error):
            matcore.expm(M)

    def test_one_norm_matches_column_loop(self):
        # kernels.expm_dense picks its scaling exponent from this 1-norm.  The
        # axis-0 sum must add each column in row order, as a loop does, so
        # the exponent and every output byte stay what the loop gave.
        rng = np.random.default_rng(3)
        for n in (2, 3, 8, 16):
            M = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
            loop = max(sum(abs(M[i, j]) for i in range(n)) for j in range(n))
            assert np.abs(M).sum(axis=0).max() == loop

    def test_symmetric_input_checked_once(self, monkeypatch):
        calls = []
        is_symmetric = matcore.is_symmetric

        def counted(S, *args):
            calls.append(S.shape)
            return is_symmetric(S, *args)

        def revalidated(S, *args):
            raise AssertionError("expm re-validated its input")

        monkeypatch.setattr(matcore, "is_symmetric", counted)
        monkeypatch.setattr(matcore, "require_symmetric", revalidated)
        out = matcore.expm(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag(np.exp([1.0, -2.0])), rtol=1e-14)
        assert calls == [(2, 2)]


class TestSpdFunctions:
    def test_sqrt_identity(self):
        assert np.allclose(matcore.sqrtm_spd(np.eye(3)), np.eye(3))

    def test_sqrt_diagonal(self):
        assert np.allclose(
            matcore.sqrtm_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_sqrt_squares(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            P = random_spd(rng, 3)
            R = matcore.sqrtm_spd(P)
            assert np.linalg.norm(R @ R - P) <= 1e-9 * np.linalg.norm(P)

    def test_invsqrt(self):
        rng = np.random.default_rng(4)
        P = random_spd(rng, 4)
        W = matcore.invsqrtm_spd(P)
        assert np.allclose(W @ P @ W, np.eye(4), atol=1e-9)

    def test_explog_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = np.exp(rng.uniform(-6.9, 6.9, size=4))  # cond <= 1e6
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            P = matcore.sym((Q * vals) @ Q.T)
            err = np.linalg.norm(matcore.expm(matcore.logm_spd(P)) - P)
            assert err <= 1e-8 * np.linalg.norm(P)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpd):
            matcore.sqrtm_spd(np.diag([1.0, -1.0]))


class TestCommutator:
    def test_self_commutes(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 3))
        assert np.array_equal(matcore.commutator(A, A), np.zeros((3, 3)))

    def test_diagonal_commute(self):
        out = matcore.commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_hand_expansion(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(
            matcore.commutator(A, B), np.array([[1.0, 0.0], [0.0, -1.0]])
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            matcore.commutator(np.eye(2), np.eye(3))


def _fd_dexp_residual(theta, A, order, s=1e-6):
    """Residual of d/ds exp(theta + s dexpinv(theta, A)) = exp(theta) A."""
    v = matcore.dexpinv(theta, A, order)
    d = (matcore.expm(theta + s * v) - matcore.expm(theta - s * v)) / (2 * s)
    return np.linalg.norm(d - matcore.expm(theta) @ A)


class TestDexpinv:
    def test_zero_theta(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        assert np.array_equal(matcore.dexpinv(np.zeros((3, 3)), A, 4), A)

    def test_commuting(self):
        theta = np.diag([1.0, 2.0, 3.0])
        A = np.diag([4.0, 5.0, 6.0])
        assert np.allclose(matcore.dexpinv(theta, A, 4), A)

    def test_unsupported_order(self):
        for order in (1, 2, 3):
            with pytest.raises(UnsupportedOrder):
                matcore.dexpinv(np.eye(2), np.eye(2), order)

    def test_fd_identity_order4(self):
        rng = np.random.default_rng(8)
        theta = rng.standard_normal((3, 3))
        theta *= 0.1 / np.linalg.norm(theta)
        A = rng.standard_normal((3, 3))
        assert _fd_dexp_residual(theta, A, 4) <= 1e-8

    @pytest.mark.parametrize("order", [4])
    def test_fd_residual_order(self, order):
        # Truncation error decays at least as O(theta^{order+1}); the next
        # Bernoulli coefficient vanishes, so the observed slope exceeds
        # order + 1 (the O-bound is not tight).
        rng = np.random.default_rng(9)
        theta0 = rng.standard_normal((3, 3))
        theta0 *= 1.6 / np.linalg.norm(theta0)
        A = rng.standard_normal((3, 3))
        scales = np.array([1.0, 0.5, 0.25])
        resid = [_fd_dexp_residual(c * theta0, A, order) for c in scales]
        slope = np.polyfit(np.log(scales), np.log(resid), 1)[0]
        assert slope >= order + 1 - 0.5


class TestIsSpd:
    def test_identity(self):
        ok, mineig = matcore.is_spd(np.eye(3))
        assert ok and mineig == pytest.approx(1.0)

    def test_slightly_indefinite(self):
        ok, mineig = matcore.is_spd(np.diag([1.0, -1e-3]))
        assert not ok and mineig == pytest.approx(-1e-3)

    def test_nonfinite(self):
        ok, mineig = matcore.is_spd(np.full((2, 2), np.nan))
        assert not ok and mineig == -np.inf

    def test_stack_judged_per_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.full((2, 2), np.nan)])
        ok, mineig = matcore.is_spd(stack.reshape(3, 1, 2, 2))
        assert ok.tolist() == [[True], [False], [False]]
        assert mineig.ravel().tolist() == pytest.approx([1.0, -1e-3, -np.inf])

    def test_just_past_leave_bound(self):
        # diagonal pair where the leave threshold is exact arithmetic
        P, T = np.diag([1.0, 2.0]), np.diag([-1.0, 1.0])
        ok, _ = matcore.is_spd(P + 1.001 * T)
        assert not ok



class TestSymBits:
    """sym and sym2 add a copy of the transpose; the bits are those of adding
    the transposed view, whatever the input's memory layout."""

    @staticmethod
    def _layouts(n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
        wide = rng.standard_normal((2 * n, 3 * n))
        return {
            "C": X,
            "F": np.asfortranarray(X),
            "strided": wide[::2, ::3],
            "transposed": wide[1::2, 1::3].T,
        }

    @pytest.mark.parametrize("n", [1, 2, 8, 17])
    def test_sym2_is_x_plus_xt(self, n):
        for layout, X in self._layouts(n).items():
            expected = X + X.T
            assert matcore.sym2(X).tobytes() == expected.tobytes(), layout
            assert np.array_equal(matcore.sym2(X), matcore.sym2(X).T), layout

    @pytest.mark.parametrize("n", [1, 2, 8, 17])
    def test_sym_is_half_x_plus_xt(self, n):
        for layout, X in self._layouts(n).items():
            assert matcore.sym(X).tobytes() == (0.5 * (X + X.T)).tobytes(), layout
