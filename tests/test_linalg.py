import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from schurblock import (
    ContractError,
    ShapeError,
    as_operator,
    hermitian_min_eig,
    psd_sqrt,
    sample_block_matrix,
    sample_lift,
    sample_operator,
    sample_vector,
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

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (4, 3, 7), (2, 2, 7, 3), (32, 256)])
    def test_transpose_gives_the_same_bits(self, shape):
        rng = np.random.default_rng(shape)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        norm = np.asarray(spectral_norm(x))
        assert norm.shape == shape[:-2]
        assert np.array_equal(norm.view(np.uint64),
                              np.asarray(spectral_norm(x.swapaxes(-1, -2))).view(np.uint64))


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
        # below unit norm too: no floor, so a power-of-two scale changes nothing
        for scale in (2.0 ** -20, 2.0 ** -600):
            assert identity_residual(lhs * scale, rhs * scale) == identity_residual(lhs, rhs)

    def test_nonzero_difference_from_zero_is_infinite(self):
        assert identity_residual(np.eye(2), np.zeros((2, 2))) == np.inf


class TestHermitianMinEig:
    def test_identity(self):
        assert_allclose(hermitian_min_eig(np.eye(4)), 1.0)

    def test_singular_psd_boundary(self):
        # eigenvalues {0, 13}: det = 9*4 - 36 = 0, trace = 13
        m = np.array([[9.0, -6.0], [-6.0, 4.0]])
        assert abs(hermitian_min_eig(m)) <= 1e-12

    def test_diagonal(self):
        assert_allclose(hermitian_min_eig(np.diag([-2.0, 5.0])), -2.0)

    def test_non_hermitian_gives_its_hermitian_part(self):
        # (x + x*)/2 = [[0, 1/2], [1/2, 0]], eigenvalues -1/2 and 1/2
        assert hermitian_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]])) == -0.5

    def test_stack_gives_each_matrix_its_own_value(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        hermitian = g + g.conj().T
        lo = hermitian_min_eig(np.stack([hermitian, g]))
        assert lo[0] == hermitian_min_eig(hermitian)
        assert lo[1] == hermitian_min_eig(g)

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
        r = psd_sqrt(m)
        assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-7)

    def test_rejects_indefinite(self):
        # refused with a NaN root, which the judge fails, not with an exception
        assert np.isnan(psd_sqrt(np.diag([1.0, -0.5]))).all()

    def test_stack_rejects_per_matrix(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        valid = g @ g.conj().T
        roots = psd_sqrt(np.stack([valid, np.diag([1.0, -0.5, 2.0])]))
        assert np.array_equal(roots[0], psd_sqrt(valid))
        assert np.isnan(roots[1]).all()


class TestAsOperator:
    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            as_operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            as_operator(np.zeros(3))


class TestRandomOperator:
    def test_deterministic(self):
        a = sample_operator(np.random.default_rng(123), 4)
        b = sample_operator(np.random.default_rng(123), 4)
        assert np.array_equal(a, b)

    def test_hermitian_exact(self):
        h = sample_operator(np.random.default_rng(7), 5, "hermitian")
        assert np.array_equal(h, h.conj().T)

    def test_haar_near_unitary(self):
        # a Haar unitary scaled by 1/sqrt(size)
        u = sample_operator(np.random.default_rng(7), 6, "haar")
        assert_allclose(u @ u.conj().T, np.eye(6) / 6, atol=1e-12)

    def test_rejects_bad_spec(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_operator(rng, 3, "cauchy")
        with pytest.raises(ShapeError):
            sample_operator(rng, 0)

    def test_removed_settings_fail_loudly(self):
        # the samplers are square only and always scaled by 1/sqrt(size): a
        # second size or a scale argument raises instead of drawing otherwise
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_operator(rng, 3, 3)
        with pytest.raises(TypeError):
            sample_operator(rng, 3, "ginibre", 1.0)
        with pytest.raises(TypeError):
            sample_block_matrix(rng, 2, 2, scale=1.0)
        with pytest.raises(TypeError):
            sample_lift(rng, 2, 2, 2, "ginibre", 1.0)


# sha256 of the bytes that sample_block_matrix, sample_vector and sample_lift
# draw, in that order, from default_rng(2024). A worst_seed regenerates its
# instance only as long as these draws stay the same.
SAMPLER_DIGESTS = {
    ("ginibre", 3, 2, 2): (
        "b4c280afddb680400121a10b368d26bbca0ca99e24daaade69267de0c9cd1acd",
        "96a1dac54f6dea0d7d7405821b88d66ad6ff9d8a9cc7f957cd4011aa01ef6066",
        "85c553f902eb4c7f40d4d8ddb4dd35a413061fd092a253a9114f4314be0173e1",
    ),
    ("ginibre", 8, 4, 3): (
        "72c87eb4f826de76c0a44ff3b9f8d9660743a3c23fb45112e855fd0bccd48665",
        "fde7d1a17174e978a6819b75ffae156ef450b16a635382f3284f99a891fd95d3",
        "74710953e5171a63e8cc8eded4c418f35bcccfcf6c659dd9ad3cac8530b99ba9",
    ),
    ("hermitian", 3, 2, 2): (
        "193a87ba8f05cddc0b741bcdd84c6eb848413539345f14ab2a6b8129af6dc970",
        "96a1dac54f6dea0d7d7405821b88d66ad6ff9d8a9cc7f957cd4011aa01ef6066",
        "1f8abd7fa149d48b5f1398b8cd1d7504b74e18859d88da6736b0af5777fb8332",
    ),
    ("hermitian", 8, 4, 3): (
        "8e4f4ad641dd237d2a1cb836834afcd319ba2e3c997c801d653711549f111080",
        "fde7d1a17174e978a6819b75ffae156ef450b16a635382f3284f99a891fd95d3",
        "46c6e881772bb79d4d69e208c5d557aac9e09ae2055cc38dfa756464581bc46a",
    ),
    ("haar", 3, 2, 2): (
        "526d99c4be933a37cccf42d70f1375cc849c44973b30093399cff01603eb9282",
        "96a1dac54f6dea0d7d7405821b88d66ad6ff9d8a9cc7f957cd4011aa01ef6066",
        "5fbf61fabe3ab360f29b62eb3625d9026d4b69c02588602dfb5f729deb22f4dd",
    ),
    ("haar", 8, 4, 3): (
        "c00ea89afb3c33ece34dabfa0792f148233e2a066a36de65e1513432665a0850",
        "fde7d1a17174e978a6819b75ffae156ef450b16a635382f3284f99a891fd95d3",
        "ab9cb2f9662e9032dbba3e65ab09a6051860d4a0250634e28a6ee595db239816",
    ),
}


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("ensemble,n,d,k", sorted(SAMPLER_DIGESTS))
def test_sampler_draws_are_pinned(ensemble, n, d, k):
    rng = np.random.default_rng(2024)
    a = sample_block_matrix(rng, n, d, ensemble)
    xi = sample_vector(rng, n * d)
    lift = sample_lift(rng, k, n, d, ensemble)
    drawn = (_sha256(a.blocks), _sha256(xi),
             _sha256(*(x.blocks for row in lift for x in row)))
    assert drawn == SAMPLER_DIGESTS[ensemble, n, d, k]
