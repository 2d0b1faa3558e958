import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import svd_shapes
from schurblock import (
    ContractError,
    ShapeError,
    as_operator,
    hermitian_min_eig,
    psd_sqrt,
    sample_block_matrix,
    sample_lift,
    sample_vector,
    spectral_norm,
)
from schurblock import linalg


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


def _ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


GRAM_SHAPES = [(256, 32), (96, 12), (32, 4)]


class TestGramRoute:
    """A non-square matrix is normed through its Gram on the narrow side."""

    @pytest.mark.parametrize("shape", GRAM_SHAPES)
    def test_matches_the_svd_of_the_matrix(self, shape, monkeypatch):
        rng = np.random.default_rng(shape)
        x = _ginibre(rng, (3, *shape))
        want = np.linalg.svd(x, compute_uv=False)[..., 0]
        sides = svd_shapes(monkeypatch)
        assert_allclose(spectral_norm(x), want, rtol=1e-13)
        assert_allclose(spectral_norm(x.swapaxes(-1, -2)), want, rtol=1e-13)
        for t in range(3):
            assert_allclose(spectral_norm(x[t]), want[t], rtol=1e-13)
        # every SVD was of a Gram, on the narrow side
        assert set(sides) == {(shape[1], shape[1])}

    @pytest.mark.parametrize("shape", GRAM_SHAPES)
    def test_stack_gives_each_matrix_its_bits_alone(self, shape):
        rng = np.random.default_rng(shape)
        x = _ginibre(rng, (2, 3, *shape))
        # a stack that mixes the Gram route and the fallback
        x[0, 1] *= 2.0 ** 600
        x[1, 2] *= 2.0 ** -600
        stacked = spectral_norm(x)
        alone = np.array([[spectral_norm(m) for m in row] for row in x])
        assert stacked.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600])
    @pytest.mark.parametrize("shape", GRAM_SHAPES)
    def test_gram_out_of_range_takes_the_svd_of_the_matrix(self, shape, scale,
                                                            monkeypatch):
        # at 2^600 the Gram overflows, at 2^-600 it underflows to zero
        rng = np.random.default_rng(shape)
        x = _ginibre(rng, shape)
        unscaled = spectral_norm(x)
        sides = svd_shapes(monkeypatch)
        norm = spectral_norm(scale * x)
        assert sides == [shape]
        assert np.isfinite(norm)
        assert_allclose(norm, scale * unscaled, rtol=1e-13)

    def test_zero_matrix_has_norm_zero(self):
        assert spectral_norm(np.zeros((7, 3))) == 0.0
        assert spectral_norm(np.zeros((2, 3, 7))).tolist() == [0.0, 0.0]


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


class TestRandomBlockMatrix:
    def test_deterministic(self):
        a = sample_block_matrix(np.random.default_rng(123), 2, 2)
        b = sample_block_matrix(np.random.default_rng(123), 2, 2)
        assert a.blocks.tobytes() == b.blocks.tobytes()

    @pytest.mark.parametrize("n, d", [(0, 2), (2, 0), (-1, -1)])
    def test_rejects_sizes_below_one(self, n, d):
        with pytest.raises(ShapeError, match="n and d must be positive"):
            sample_block_matrix(np.random.default_rng(1), n, d)

    def test_removed_settings_fail_loudly(self):
        # every draw is Ginibre, always scaled by 1/sqrt(n*d): an ensemble
        # or a scale argument raises instead of drawing otherwise
        rng = np.random.default_rng(1)
        with pytest.raises(TypeError):
            sample_block_matrix(rng, 2, 2, "ginibre")
        with pytest.raises(TypeError):
            sample_block_matrix(rng, 2, 2, scale=1.0)
        with pytest.raises(TypeError):
            sample_lift(rng, 2, 2, 2, "ginibre")


# sha256 of the bytes that sample_block_matrix, sample_vector and sample_lift
# draw, in that order, from default_rng(2024). A worst_seed regenerates its
# instance only as long as these draws stay the same.
SAMPLER_DIGESTS = {
    (3, 2, 2): (
        "b4c280afddb680400121a10b368d26bbca0ca99e24daaade69267de0c9cd1acd",
        "96a1dac54f6dea0d7d7405821b88d66ad6ff9d8a9cc7f957cd4011aa01ef6066",
        "85c553f902eb4c7f40d4d8ddb4dd35a413061fd092a253a9114f4314be0173e1",
    ),
    (8, 4, 3): (
        "72c87eb4f826de76c0a44ff3b9f8d9660743a3c23fb45112e855fd0bccd48665",
        "fde7d1a17174e978a6819b75ffae156ef450b16a635382f3284f99a891fd95d3",
        "74710953e5171a63e8cc8eded4c418f35bcccfcf6c659dd9ad3cac8530b99ba9",
    ),
    (1, 1, 1): (
        "1c418be30463b07c9ac264bf818808b3c19f72079152af10f10c7500fe2d8622",
        "81124eb52617f856067825e358e57218aa97948bac23a906702b65805bdfae4d",
        "43b9fb5ca9a6cfabf97db97dfab3367a52e097d31ac0a6dd07d6437894e6aa15",
    ),
    (2, 1, 2): (
        "937137495333a17199816a6b5100527d8117ca70557e6810002c9a37145d0501",
        "ce4f1456e392be2267443f60be3b81721d29544efca74e8d0ed4142294f1d56c",
        "b7368eaf24f7ded6eb2c4ee69924546ce5f9d12702f6e1377b607157adff3ddd",
    ),
    (4, 2, 1): (
        "9e885259b003f53998169f5894980261bcbc67f1ef82149e99cfea3009697eed",
        "02a0d900aaf0b72c6ec4152640ae2ba9e933ab3116630a9845170ab44b98784f",
        "de388405e2327031ce2d703c1a594fbfa7b37d2f7d825ee05fec211c5df713ea",
    ),
    (1, 2, 1): (
        "937137495333a17199816a6b5100527d8117ca70557e6810002c9a37145d0501",
        "ce4f1456e392be2267443f60be3b81721d29544efca74e8d0ed4142294f1d56c",
        "7d81a6e6a3ff0e9f802bc7a45e5e8179c80cf771355dc2ebae3eeb6b7f8d3076",
    ),
    (2, 3, 1): (
        "8861b36620290e20ffa860ae9f5a27ebfec1c5a9f794c4351e0d266900cc4023",
        "96a1dac54f6dea0d7d7405821b88d66ad6ff9d8a9cc7f957cd4011aa01ef6066",
        "aa3002ceaf3a57233b3e1e05bf9228918a38fbc0199d1c4bad2f9758cfcaedb6",
    ),
    (4, 2, 2): (
        "9e885259b003f53998169f5894980261bcbc67f1ef82149e99cfea3009697eed",
        "02a0d900aaf0b72c6ec4152640ae2ba9e933ab3116630a9845170ab44b98784f",
        "828817d8ab463f84fe6378fec69e66c172d95bc9069838ce742c12c9032d7559",
    ),
}


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n,d,k", sorted(SAMPLER_DIGESTS))
def test_sampler_draws_are_pinned(n, d, k):
    rng = np.random.default_rng(2024)
    a = sample_block_matrix(rng, n, d)
    xi = sample_vector(rng, n * d)
    lift = sample_lift(rng, k, n, d)
    assert lift.batch == (k, k)
    drawn = (_sha256(a.blocks), _sha256(xi), _sha256(lift.blocks))
    assert drawn == SAMPLER_DIGESTS[n, d, k]
