import numpy as np
import pytest
from numpy.testing import assert_allclose

from schurblock import (
    ContractError,
    ConvergenceError,
    RandomSpec,
    ShapeError,
    adjoint,
    as_operator,
    hermitian_min_eig,
    kron,
    matmul,
    power_iteration_norm,
    psd_sqrt,
    random_operator,
    spectral_norm,
)
from schurblock import linalg
from schurblock.linalg import identity_residual


def matmul_oracle(x, y):
    """Brute-force triple loop, independent of numpy's matmul."""
    out = np.zeros((x.shape[0], y.shape[1]), dtype=complex)
    for i in range(x.shape[0]):
        for j in range(y.shape[1]):
            for l in range(x.shape[1]):
                out[i, j] += x[i, l] * y[l, j]
    return out


def sv2_oracle(m):
    """Largest singular value of a real 2x2 matrix by trace/determinant."""
    g = m.T @ m
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return np.sqrt((tr + np.sqrt(tr * tr - 4 * det)) / 2)


class TestMatmul:
    def test_identity(self):
        x = np.array([[1 + 2j, 3], [0, 4j]])
        assert_allclose(matmul(np.eye(2), x), x)

    def test_hand_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.array([[19.0, 22.0], [43.0, 50.0]])
        assert_allclose(matmul(x, y), expected)
        assert_allclose(matmul_oracle(x, y), expected)

    def test_annihilator(self):
        x = np.array([[1 + 1j, 2], [3, 4]])
        assert_allclose(matmul(x, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        y = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert_allclose(matmul(x, y), matmul_oracle(x, y), rtol=1e-12)

    def test_shape_error_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestAdjoint:
    def test_scalar_conjugation(self):
        assert_allclose(adjoint(np.array([[1j]])), np.array([[-1j]]))

    def test_real_symmetric_fixed(self):
        x = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert_allclose(adjoint(x), x)

    def test_real_transpose(self):
        assert_allclose(adjoint(np.array([[1.0, 2.0], [3.0, 4.0]])),
                        np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_involution_and_product_law(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        y = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        assert_allclose(adjoint(adjoint(x)), x)
        assert_allclose(adjoint(matmul(x, y)), matmul(adjoint(y), adjoint(x)),
                        rtol=1e-12)


class TestKron:
    def test_identities(self):
        assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar_factor(self):
        assert_allclose(kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[2.0]])),
                        np.array([[0.0, 2.0], [0.0, 0.0]]))

    def test_index_formula(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = kron(x, y)
        assert z.shape == (4, 4)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert z[i * 2 + k, j * 2 + l] == x[i, j] * y[k, l]

    def test_mixed_product_law(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(2))
            b, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                    for _ in range(2))
            assert_allclose(matmul(kron(a, b), kron(c, d)),
                            kron(matmul(a, c), matmul(b, d)), rtol=1e-12)


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
            lhs = spectral_norm(matmul(adjoint(x), x))
            assert abs(lhs - spectral_norm(x) ** 2) <= 1e-8 * lhs

    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(9)
        for size in (3, 17, 64):
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            exact = spectral_norm(x)
            via_power = spectral_norm(x, tol=1e-12, svd_cutoff=0)
            assert abs(via_power - exact) <= 1e-8 * exact

    def test_power_iteration_zero_matrix(self):
        assert power_iteration_norm(np.zeros((4, 4))) == 0.0

    def test_nonconvergence_carries_iteration_count(self):
        x = np.diag([2.0, 1.0, 0.5, 0.1])
        with pytest.raises(ConvergenceError) as exc:
            spectral_norm(x, tol=1e-15, svd_cutoff=0, max_iter=2)
        assert exc.value.iterations == 2

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
        spec = RandomSpec(seed=123)
        a = random_operator(spec, 4, 4)
        b = random_operator(spec, 4, 4)
        assert np.array_equal(a, b)

    def test_scale_zero(self):
        spec = RandomSpec(seed=1, scale=0.0)
        assert not random_operator(spec, 3, 3).any()

    def test_hermitian_exact(self):
        spec = RandomSpec(seed=7, ensemble="hermitian")
        h = random_operator(spec, 5, 5)
        assert np.array_equal(h, h.conj().T)

    def test_haar_near_unitary(self):
        spec = RandomSpec(seed=7, ensemble="haar", scale=1.0)
        u = random_operator(spec, 6, 6)
        assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=1, ensemble="cauchy")
        with pytest.raises(ValueError):
            RandomSpec(seed=-1)
        with pytest.raises(ValueError):
            RandomSpec(seed=1, scale=-0.5)
