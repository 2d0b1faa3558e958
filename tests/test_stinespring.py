import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_bm, scalar_bm
from schurblock import (
    BlockMatrix,
    StinespringSystem,
    block_identity,
    block_matmul,
    build_lambda,
    build_rho,
    build_sigma,
    col_norm,
    diag_block,
    flatten,
    row_norm,
    schur_block_product,
    spectral_norm,
    triple_dim,
)

SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2)]


def idx(i, s, k, n, d):
    return (i * d + s) * n + k


def lambda_oracle(a):
    """Entry formula, written out with plain loops."""
    n, d = a.n, a.d
    out = np.zeros((triple_dim(n, d), triple_dim(n, d)), dtype=complex)
    for i in range(n):
        for j in range(n):
            for s in range(d):
                for t in range(d):
                    for k in range(n):
                        out[idx(i, s, k, n, d), idx(j, t, k, n, d)] = a.blocks[i, j, s, t]
    return out


def rho_oracle(a):
    n, d = a.n, a.d
    out = np.zeros((triple_dim(n, d), triple_dim(n, d)), dtype=complex)
    for i in range(n):
        for k in range(n):
            for l in range(n):
                for s in range(d):
                    for t in range(d):
                        out[idx(i, s, k, n, d), idx(i, t, l, n, d)] = a.blocks[k, l, s, t]
    return out


def sigma_oracle(a):
    n, d = a.n, a.d
    out = np.zeros((triple_dim(n, d), triple_dim(n, d)), dtype=complex)
    for i in range(n):
        for j in range(n):
            for s in range(d):
                for t in range(d):
                    out[idx(i, s, i, n, d), idx(j, t, j, n, d)] = a.blocks[i, j, s, t]
    return out


def flip_oracle(n, d):
    out = np.zeros((triple_dim(n, d), triple_dim(n, d)))
    for i in range(n):
        for k in range(n):
            for s in range(d):
                out[idx(i, s, k, n, d), idx(k, s, i, n, d)] = 1.0
    return out


def isometry_oracle(n, d):
    out = np.zeros((triple_dim(n, d), n * d))
    for j in range(n):
        for t in range(d):
            out[idx(j, t, j, n, d), j * d + t] = 1.0
    return out


def signed_zero_bm(rng, n, d, batch):
    """A stack of random block matrices with signed zeros in both parts, so
    that a bitwise comparison pins the signs of the zero entries too."""
    shape = (*batch, n, n, d, d)
    blocks = np.empty(shape, dtype=np.complex128)
    for part in (blocks.real, blocks.imag):
        part[...] = rng.standard_normal(shape)
        u = rng.random(shape)
        part[u < 0.2] = -0.0
        part[(0.2 <= u) & (u < 0.3)] = 0.0
        part.flat[0] = -0.0
    return BlockMatrix(n, d, blocks)


class TestBuildersMatchIndexFormulas:
    @pytest.mark.parametrize("n,d", SHAPES)
    def test_lambda(self, n, d):
        a = random_bm(np.random.default_rng(n * 10 + d), n, d)
        assert np.array_equal(build_lambda(a), lambda_oracle(a))

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_rho(self, n, d):
        a = random_bm(np.random.default_rng(n * 10 + d + 1), n, d)
        assert np.array_equal(build_rho(a), rho_oracle(a))

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_sigma(self, n, d):
        a = random_bm(np.random.default_rng(n * 10 + d + 2), n, d)
        assert np.array_equal(build_sigma(a), sigma_oracle(a))

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_flip(self, n, d):
        assert np.array_equal(StinespringSystem.build(n, d).F, flip_oracle(n, d))

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_isometry(self, n, d):
        assert np.array_equal(StinespringSystem.build(n, d).V, isometry_oracle(n, d))

    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("n,d", [(1, 1), (3, 1), (2, 3), (4, 2), (8, 4), (3, 12)])
    def test_lambda_is_the_kron_broadcast_bit_for_bit(self, n, d, batch):
        a = signed_zero_bm(np.random.default_rng([n, d, len(batch)]), n, d, batch)
        big = triple_dim(n, d)
        kron = (flatten(a)[..., :, None, :, None] * np.eye(n)[:, None, :]).reshape(
            *batch, big, big)
        assert np.array_equal(build_lambda(a).view(np.uint64), kron.view(np.uint64))

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (8, 4)])
    def test_lambda_at_indices_is_the_gather_bit_for_bit(self, n, d, batch):
        rng = np.random.default_rng([n, d, len(batch), 1])
        a = signed_zero_bm(rng, n, d, batch)
        sys_ = StinespringSystem.build(n, d)
        r, f = sys_.v_rows, sys_.f_perm
        perm = rng.permutation(triple_dim(n, d))
        full = build_lambda(a)
        # the pairs the checkers and the proof pass, and one arbitrary pair
        for rows, cols in [(r, None), (None, r), (r, f), (f, r), (r, r), (perm, perm[::-1])]:
            gathered = full if rows is None else full[..., rows, :]
            gathered = gathered if cols is None else gathered[..., cols]
            got = build_lambda(a, rows, cols)
            assert got.shape == gathered.shape
            assert np.array_equal(got.view(np.uint64),
                                  np.ascontiguousarray(gathered).view(np.uint64))


class TestHandExamples:
    def test_lambda_unital(self):
        assert_allclose(build_lambda(block_identity(2, 3)), np.eye(12))

    def test_lambda_scalar_case_is_kron_with_identity(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(build_lambda(a), np.kron(flatten(a), np.eye(2)))

    def test_rho_unital(self):
        assert_allclose(build_rho(block_identity(2, 3)), np.eye(12))

    def test_rho_scalar_case(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(build_rho(a), np.kron(np.eye(2), flatten(a)))

    def test_sigma_of_identity_is_projection(self):
        q = build_sigma(block_identity(2, 1))
        assert_allclose(q, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_sigma_scalar_entries(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        s = build_sigma(a)
        expected = np.zeros((4, 4))
        expected[0, 0], expected[0, 3] = 1.0, 2.0
        expected[3, 0], expected[3, 3] = 3.0, 4.0
        assert_allclose(s, expected)

    def test_flip_degenerate(self):
        assert_allclose(StinespringSystem.build(1, 3).F, np.eye(3))

    def test_flip_two_by_two(self):
        f = StinespringSystem.build(2, 1).F
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert_allclose(f, expected)

    def test_flip_involution(self):
        f = StinespringSystem.build(3, 2).F
        assert np.array_equal(f @ f, np.eye(18))

    def test_isometry_degenerate(self):
        assert_allclose(StinespringSystem.build(1, 3).V, np.eye(3))

    def test_isometry_two_by_one(self):
        v = StinespringSystem.build(2, 1).V
        assert_allclose(v, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    def test_isometry_inner(self):
        v = StinespringSystem.build(3, 2).V
        assert np.array_equal(v.conj().T @ v, np.eye(6))


class TestSystemInvariants:
    @pytest.mark.parametrize("n,d", SHAPES)
    def test_exact_invariants(self, n, d):
        sys_ = StinespringSystem.build(n, d)
        big = triple_dim(n, d)
        assert np.array_equal(sys_.V.conj().T @ sys_.V, np.eye(n * d))
        vv = sys_.V @ sys_.V.conj().T
        assert np.array_equal(vv, sys_.Q)
        # bit for bit, so the scattered Q has VV*'s signs of zero too
        assert np.array_equal(vv.view(np.uint64), sys_.Q.view(np.uint64))
        assert np.array_equal(sys_.F, sys_.F.conj().T)
        assert np.array_equal(sys_.F @ sys_.F, np.eye(big))
        assert np.array_equal(sys_.F @ sys_.V, sys_.V)
        assert np.array_equal(build_sigma(block_identity(n, d)), sys_.Q)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_gathers_match_dense_operators(self, n, d):
        sys_ = StinespringSystem.build(n, d)
        v, f = sys_.V, sys_.F
        r, perm = sys_.v_rows, sys_.f_perm
        big = triple_dim(n, d)
        p = (f + np.eye(big)) / 2
        rng = np.random.default_rng(8 * n + d)
        x = rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))
        assert np.array_equal(v.conj().T @ x, x[r])
        assert np.array_equal(x @ v, x[:, r])
        assert np.array_equal(f @ x, x[perm])
        assert np.array_equal(x @ f, x[:, perm])
        assert np.array_equal(x @ p, (x + x[:, perm]) / 2)
        assert np.array_equal(x @ (np.eye(big) - p), (x - x[:, perm]) / 2)
        assert np.array_equal(v, isometry_oracle(n, d))
        assert np.array_equal(f, flip_oracle(n, d))
        assert sys_.operator_residual == 0.0
        for arr in (v, f, sys_.Q, r, perm):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("n,d", [(8, 4), (8, 12)])
    def test_proof_holds_one_dense_stack_at_a_time(self, n, d):
        # below two dense stacks of two: 4,194,304 B at (8, 4) and
        # 37,748,736 B at (8, 12); a proof that holds F lambda(A) F and
        # rho(A) whole at once peaks near 4.4e6 and 39.4e6 B
        bound = 2 * 2 * triple_dim(n, d) ** 2 * 16
        # the labelled instance's first rng.choice imports numpy.random,
        # which would retain 0.72 MiB inside the trace
        import numpy.random  # noqa: F401
        StinespringSystem.build.cache_clear()
        sys_ = StinespringSystem.build(n, d)
        tracemalloc.start()
        try:
            residual = sys_.operator_residual
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            StinespringSystem.build.cache_clear()
        assert residual == 0.0
        assert peak < bound


class TestRepresentationProperties:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2)])
    def test_homomorphism(self, n, d):
        rng = np.random.default_rng(97)
        a, b = random_bm(rng, n, d), random_bm(rng, n, d)
        ab = block_matmul(a, b)
        for build in (build_lambda, build_rho, build_sigma):
            assert_allclose(build(ab), build(a) @ build(b), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2)])
    def test_adjoint_preserving(self, n, d):
        rng = np.random.default_rng(101)
        a = random_bm(rng, n, d)
        from schurblock import adjoint_block
        for build in (build_lambda, build_rho, build_sigma):
            assert np.array_equal(build(adjoint_block(a)), build(a).conj().T)

    def test_sigma_not_unital_for_n_at_least_two(self):
        q = build_sigma(block_identity(2, 2))
        assert not np.array_equal(q, np.eye(8))

    def test_left_and_right_commute_for_scalar_blocks(self):
        # shared middle leg: commutation holds exactly when blocks commute,
        # so always for d = 1 and not in general for d >= 2
        rng = np.random.default_rng(103)
        a, b = random_bm(rng, 3, 1), random_bm(rng, 3, 1)
        la, rb = build_lambda(a), build_rho(b)
        assert_allclose(la @ rb, rb @ la, rtol=1e-12, atol=1e-14)

    def test_left_and_right_need_not_commute_for_block_entries(self):
        x = np.zeros((2, 2, 2, 2), dtype=complex)
        y = np.zeros((2, 2, 2, 2), dtype=complex)
        x[0, 0] = [[0, 1], [0, 0]]
        y[0, 0] = [[0, 0], [1, 0]]
        from schurblock import block_matrix
        a, b = block_matrix(x), block_matrix(y)
        la, rb = build_lambda(a), build_rho(b)
        assert not np.allclose(la @ rb, rb @ la)

    def test_rho_is_flip_conjugate_of_lambda(self):
        rng = np.random.default_rng(107)
        a = random_bm(rng, 3, 2)
        f = StinespringSystem.build(3, 2).F
        assert np.array_equal(f @ build_lambda(a) @ f, build_rho(a))

    def test_sigma_intertwines_with_isometry(self):
        rng = np.random.default_rng(109)
        a = random_bm(rng, 3, 2)
        v = StinespringSystem.build(3, 2).V
        assert np.array_equal(build_sigma(a) @ v, v @ flatten(a))


class TestKroneckerBlockProduct:
    """lambda(A) rho(B), entry ((i,s,k),(j,t,l)) = (a_ij b_kl)[s, t]."""

    def test_scalar_case_is_classical_kron(self):
        rng = np.random.default_rng(113)
        a, b = random_bm(rng, 3, 1), random_bm(rng, 3, 1)
        assert_allclose(build_lambda(a) @ build_rho(b),
                        np.kron(flatten(a), flatten(b)), rtol=1e-12, atol=1e-14)

    def test_identity_pair(self):
        i = block_identity(2, 3)
        assert_allclose(build_lambda(i) @ build_rho(i), np.eye(12))

    def test_entry_formula(self):
        rng = np.random.default_rng(127)
        n, d = 2, 2
        a, b = random_bm(rng, n, d), random_bm(rng, n, d)
        kb = build_lambda(a) @ build_rho(b)
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    for l in range(n):
                        prod = a.blocks[i, j] @ b.blocks[k, l]
                        for s in range(d):
                            for t in range(d):
                                assert_allclose(
                                    kb[idx(i, s, k, n, d), idx(j, t, l, n, d)],
                                    prod[s, t], rtol=1e-12, atol=1e-14)

    def test_compression_gives_schur_product(self):
        rng = np.random.default_rng(131)
        for n, d in [(2, 2), (3, 2)]:
            a, b = random_bm(rng, n, d), random_bm(rng, n, d)
            sys_ = StinespringSystem.build(n, d)
            lhs = sys_.Q @ build_lambda(a) @ build_rho(b) @ sys_.Q
            rhs = build_sigma(schur_block_product(a, b))
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestNormAndDiagLemmas:
    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (4, 3)])
    def test_column_and_row_norm_via_lambda(self, n, d):
        rng = np.random.default_rng(137 + n + d)
        a = random_bm(rng, n, d)
        v = StinespringSystem.build(n, d).V
        la = build_lambda(a)
        cn, rn = col_norm(a), row_norm(a)
        assert abs(cn - spectral_norm(la @ v)) <= 1e-8 * cn
        assert abs(rn - spectral_norm(v.conj().T @ la)) <= 1e-8 * rn

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
    def test_diag_compression(self, n, d):
        rng = np.random.default_rng(139 + n + d)
        a = random_bm(rng, n, d)
        v = StinespringSystem.build(n, d).V
        assert np.array_equal(flatten(diag_block(a)), v.conj().T @ build_lambda(a) @ v)

