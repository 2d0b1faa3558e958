import numpy as np
import pytest
from numpy.testing import assert_allclose

from schurblock import (
    ContractError,
    ShapeError,
    as_operator,
    hermitian_min_eig,
    psd_sqrt,
    sample_operator,
    spectral_norm,
)
from schurblock import linalg
from schurblock.linalg import identity_residual


def sv2_oracle(m):
    """Largest singular value of a real 2x2 matrix by trace/determinant."""
    g = m.T @ m
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return np.sqrt((tr + np.sqrt(tr * tr - 4 * det)) / 2)


class TestSpectralNorm:
    def test_identity_is_exactly_one(self):
        assert spectral_norm(np.eye(5)) == 1.0

    def test_diagonal(self):
        assert_allclose(spectral_norm(np.diag([3.0, -4.0])), 4.0)

    def test_hand_example(self):
        m = np.array([[5.0, 12.0], [21.0, 32.0]])
        expected = sv2_oracle(m)
        assert_allclose(expected, 40.35843836998762, rtol=1e-13)
        assert_allclose(spectral_norm(m), expected, rtol=1e-12)

    def test_cstar_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            lhs = spectral_norm(x.conj().T @ x)
            assert abs(lhs - spectral_norm(x) ** 2) <= 1e-8 * lhs

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            spectral_norm(np.zeros((0, 3)))


class TestIdentityResidual:
    def test_exact_zero_difference_takes_no_norm(self, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("spectral_norm called on an exact identity")

        monkeypatch.setattr(linalg, "spectral_norm", no_norm)
        f = np.eye(6)[::-1]
        assert identity_residual(f @ f, np.eye(6)) == 0.0

    def test_nonzero_difference_is_relative_to_rhs(self):
        rhs = np.diag([4.0, 2.0])
        lhs = rhs + np.diag([0.0, 1e-3])
        assert identity_residual(lhs, rhs) == spectral_norm(lhs - rhs) / 4.0
        small_lhs, small_rhs = lhs * 1e-3, rhs * 1e-3  # ||rhs|| < 1: no division
        assert identity_residual(small_lhs, small_rhs) == spectral_norm(
            small_lhs - small_rhs)


class TestHermitianMinEig:
    def test_identity(self):
        assert_allclose(hermitian_min_eig(np.eye(4)), 1.0)

    def test_singular_psd_boundary(self):
        # eigenvalues {0, 13}: det = 9*4 - 36 = 0, trace = 13
        m = np.array([[9.0, -6.0], [-6.0, 4.0]])
        assert abs(hermitian_min_eig(m)) <= 1e-12

    def test_diagonal(self):
        assert_allclose(hermitian_min_eig(np.diag([-2.0, 5.0])), -2.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            hermitian_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hermitian_min_eig(np.zeros((2, 3)))


class TestPsdSqrt:
    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        r = psd_sqrt(m)
        assert_allclose(r @ r, m, rtol=1e-10, atol=1e-12)
        assert_allclose(r, r.conj().T, atol=1e-12)

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-14])
        r = psd_sqrt(m, tol=1e-10)
        assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-7)

    def test_rejects_indefinite(self):
        with pytest.raises(ContractError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestAsOperator:
    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            as_operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            as_operator(np.zeros(3))


class TestRandomOperator:
    def test_deterministic(self):
        a = sample_operator(np.random.default_rng(123), 4, 4)
        b = sample_operator(np.random.default_rng(123), 4, 4)
        assert np.array_equal(a, b)

    def test_scale_zero(self):
        assert not sample_operator(np.random.default_rng(1), 3, 3, scale=0.0).any()

    def test_hermitian_exact(self):
        h = sample_operator(np.random.default_rng(7), 5, 5, "hermitian")
        assert np.array_equal(h, h.conj().T)

    def test_haar_near_unitary(self):
        u = sample_operator(np.random.default_rng(7), 6, 6, "haar", scale=1.0)
        assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)

    def test_rejects_bad_spec(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_operator(rng, 3, 3, "cauchy")
        with pytest.raises(ShapeError):
            sample_operator(rng, 0, 3)
