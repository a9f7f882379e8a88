import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, random_sym
from spdflow import kernels, matcore
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
        with pytest.warns(RuntimeWarning), pytest.raises(NonFinite):
            matcore.expm(np.array([[2000.0, 1.0], [0.0, 1000.0]]))

    def test_symmetric_overflow_raises(self):
        # the spectral branch used to return [[inf, nan], [nan, nan]] here
        with pytest.warns(RuntimeWarning), pytest.raises(NonFinite):
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
        # kernels.expm_dense picks its Pade degree and its scaling exponent
        # from this 1-norm.  The axis-0 sum must add each column in row
        # order, as a loop does, so the degree, the exponent and every output
        # byte stay what the loop gave.
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


_THETAS = [theta for theta, _ in kernels._PADE_LOW]
# One 1-norm inside each band of expm_dense: below theta_3, between
# consecutive thresholds, and above theta_9 (Pade-13).  None is above
# theta_13: there scipy's expm itself strays up to 5.6e-13 from a 50-digit
# mpmath expm on matrices this helper draws (n = 2, 3), while expm_dense stays
# within 3e-15, so the comparison would test scipy.
# TestExpm.test_scaling_branch_large_norm covers that branch.
_BAND_NORMS = [1e-3, 0.1, 0.5, 1.5, 3.0]


def _with_one_norm(rng, n, norm):
    """A random non-normal n x n matrix whose 1-norm, as expm_dense computes
    it, is exactly ``norm``.  Every column but the first sums below it.  The
    first column's other entries sum to about 0.7 ``norm``, so its last
    entry, ``norm`` minus that sum, is exact (Sterbenz) and closes the column
    sum to ``norm`` without rounding."""
    M = rng.standard_normal((n, n))
    M *= 0.9 * norm / np.abs(M).sum(axis=0).max()
    M[:, 0] *= 0.7 * norm / np.abs(M[:-1, 0]).sum()
    M[-1, 0] = 0.0
    partial = np.abs(M).sum(axis=0)[0]
    M[-1, 0] = (norm - partial) * rng.choice([-1.0, 1.0])
    assert np.abs(M).sum(axis=0).max() == norm
    return M


class TestExpmDegree:
    """kernels.expm_dense takes the lowest Pade degree m in {3, 5, 7, 9} with
    ||M||_1 <= theta_m, and Pade-13 above theta_9."""

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_matches_scipy_in_every_band_and_at_each_threshold(self, n):
        rng = np.random.default_rng(n)
        norms = _BAND_NORMS + _THETAS + [np.nextafter(t, np.inf) for t in _THETAS]
        for norm in norms:
            for _ in range(5):
                M = _with_one_norm(rng, n, norm)
                expected = scipy.linalg.expm(M)
                err = np.linalg.norm(kernels.expm_dense(M) - expected)
                assert err <= 1e-13 * np.linalg.norm(expected), (norm, err)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_degree_switches_just_above_each_threshold(self, n):
        rng = np.random.default_rng(100 + n)
        degrees = [b for _, b in kernels._PADE_LOW]
        for k, theta in enumerate(_THETAS):
            at = _with_one_norm(rng, n, theta)
            assert (kernels.expm_dense(at).tobytes()
                    == kernels._pade_low(at, degrees[k]).tobytes())
            above = _with_one_norm(rng, n, np.nextafter(theta, np.inf))
            if k + 1 < len(degrees):
                expected = kernels._pade_low(above, degrees[k + 1])
            else:
                expected = scipy.linalg.expm(above)
            assert not np.array_equal(kernels.expm_dense(above),
                                      kernels._pade_low(above, degrees[k]))
            assert np.allclose(kernels.expm_dense(above), expected,
                               rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("norm", _BAND_NORMS)
    def test_diagonal_matches_scalar_exp(self, norm):
        d = norm * np.array([1.0, -0.75, 0.5, -0.25])
        out = kernels.expm_dense(np.diag(d))
        assert np.allclose(out, np.diag(np.exp(d)), rtol=1e-14, atol=0.0)


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



def _with_min_eig(rng, n, rel, scale):
    """A symmetric matrix with eigenvalues in [scale / 2, 2 scale] and one set
    to rel * scale, in a random orthonormal basis."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = scale * rng.uniform(0.5, 2.0, n)
    vals[0] = rel * scale
    return matcore.sym((Q * vals).dot(Q.T))


class TestSpdCertified:
    """spd_certified proves what is_spd would say: a certified matrix or
    stack is SPD to is_spd, matrix by matrix."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 8, 16]),
        size=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        log_rel=st.floats(-18.0, -10.0),
        sign=st.sampled_from([-1.0, 0.0, 1.0]),
        log_scale=st.floats(-100.0, 100.0),
    )
    def test_certified_implies_is_spd(self, n, size, seed, log_rel, sign, log_scale):
        # The smallest eigenvalue sweeps the rounding band, relative
        # +-1e-18 ... 1e-10, of the other eigenvalues' size.
        rng = np.random.default_rng(seed)
        rel, scale = sign * 10.0**log_rel, 10.0**log_scale
        S = np.stack([_with_min_eig(rng, n, rel, scale) for _ in range(size)])
        if matcore.spd_certified(S):
            assert matcore.is_spd(S)[0].all()
        for P in S:
            if matcore.spd_certified(P):
                assert matcore.is_spd(P)[0]

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_clear_margin_is_certified(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-100, 1.0, 1e100):
            S = np.stack([_with_min_eig(rng, n, 1e-9, scale) for _ in range(4)])
            assert matcore.spd_certified(S)
            assert matcore.spd_certified(S[0])
        assert matcore.spd_certified(np.eye(n))

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_bad_matrices_are_never_certified(self, n):
        rng = np.random.default_rng(n)
        good = random_spd(rng, n)
        G = rng.standard_normal((n, n))
        nan, inf, neg_inf = good.copy(), good.copy(), good.copy()
        nan[0, n - 1] = np.nan
        inf[n - 1, n - 1] = np.inf
        neg_inf[1, 0] = -np.inf
        singular = G[:, :1].dot(G[:, :1].T)
        bad = {
            "nan": nan, "inf": inf, "-inf": neg_inf, "singular": singular,
            "zero": np.zeros((n, n)), "negative": -good,
            "indefinite": _with_min_eig(rng, n, -0.5, 1.0),
            "rank-deficient": _with_min_eig(rng, n, 0.0, 1.0),
            "below the margin": _with_min_eig(rng, n, 1e-17, 1.0),
            "tiny": 1e-300 * np.eye(n),
        }
        for name, P in bad.items():
            assert not matcore.spd_certified(P), name
            stack = np.stack([good, good, P, good])
            assert not matcore.spd_certified(stack), name


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


class TestIsSymmetric:
    # Where one off-diagonal pair holds (delta, 0), relative to the
    # tolerance tol = SYM_TOL * max(1, ||S||_F): 1e-12 either side of it, one
    # bit either side, and on it, where a norm off by one bit flips the
    # verdict.
    _PLACES = {
        "-1e-12": lambda tol: tol * (1.0 - 1e-12),
        "-ulp": lambda tol: np.nextafter(tol, 0.0),
        "at": lambda tol: tol,
        "+ulp": lambda tol: np.nextafter(tol, np.inf),
        "+1e-12": lambda tol: tol * (1.0 + 1e-12),
    }

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 9),
        log_scale=st.integers(-12, 12),
        place=st.sampled_from(sorted(_PLACES)),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdict_matches_linalg_norm(self, n, log_scale, place, layout, seed):
        rng = np.random.default_rng(seed)
        S = random_sym(rng, n) * 10.0**log_scale
        i, j = rng.choice(n, size=2, replace=False)
        S[i, j] = S[j, i] = 0.0
        for _ in range(2):
            tol = matcore.SYM_TOL * max(1.0, float(np.linalg.norm(S)))
            S[i, j] = self._PLACES[place](tol)
        if layout == "F":
            S = np.asfortranarray(S)
        elif layout == "strided":
            wide = np.zeros((2 * n, 3 * n))
            wide[::2, ::3] = S
            S = wide[::2, ::3]
        expected = np.abs(S - S.T).max(initial=0.0) <= matcore.SYM_TOL * max(
            1.0, float(np.linalg.norm(S))
        )
        assert matcore.is_symmetric(S) == expected
