import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    PAIR_TEXT,
    as_json_lists,
    assert_stdlib_dump,
    outer_lift,
    random_bm,
    random_lift,
    scalar_bm,
)
from schurblock import (
    BlockMatrix,
    ShapeError,
    adjoint_block,
    block_identity,
    block_matmul,
    block_matrix,
    block_matrix_from_json,
    block_matrix_to_json,
    col_norm,
    diag_block,
    flatten,
    flatten_lift,
    lift_schur_k,
    operator_from_json,
    operator_to_json,
    regroup_lift,
    row_norm,
    schur_block_product,
    schur_unit,
    spectral_norm,
    unflatten,
    vector_from_json,
    vector_to_json,
)
from schurblock import blocks as blocks_module
from schurblock.blocks import _PIECE_PAIRS, json_chunks


class TestFlatten:
    def test_scalar_blocks_are_the_matrix_itself(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(flatten(scalar_bm(m)), m)

    def test_block_identity_flattens_to_identity(self):
        assert_allclose(flatten(block_identity(3, 2)), np.eye(6))

    def test_single_block(self):
        m = np.array([[1.0, 2j], [3.0, 4.0]])
        assert_allclose(flatten(unflatten(m, 1, 2)), m)

    def test_roundtrip_and_injectivity(self):
        rng = np.random.default_rng(2)
        a = random_bm(rng, 3, 2)
        b = unflatten(flatten(a), 3, 2)
        assert a == b
        c = random_bm(rng, 3, 2)
        assert (a == c) == np.array_equal(flatten(a), flatten(c))

    def test_index_formula(self):
        rng = np.random.default_rng(4)
        a = random_bm(rng, 2, 3)
        f = flatten(a)
        for i in range(2):
            for j in range(2):
                for s in range(3):
                    for t in range(3):
                        assert f[i * 3 + s, j * 3 + t] == a.blocks[i, j, s, t]


class TestSchurBlockProduct:
    def test_unit_is_idempotent(self):
        e = schur_unit(2, 3)
        assert schur_block_product(e, e) == e

    def test_scalar_case_is_entrywise(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        b = scalar_bm([[5.0, 6.0], [7.0, 8.0]])
        assert_allclose(flatten(schur_block_product(a, b)),
                        np.array([[5.0, 12.0], [21.0, 32.0]]))

    def test_noncommutative_witness(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        blocks_a = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks_b = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks_a[0, 1] = x
        blocks_b[0, 1] = y
        a, b = block_matrix(blocks_a), block_matrix(blocks_b)
        ab = schur_block_product(a, b).blocks[0, 1]
        ba = schur_block_product(b, a).blocks[0, 1]
        assert_allclose(ab, np.diag([1.0, 0.0]))
        assert_allclose(ba, np.diag([0.0, 1.0]))

    def test_scalar_blocks_commute(self):
        rng = np.random.default_rng(8)
        a, b = random_bm(rng, 4, 1), random_bm(rng, 4, 1)
        assert_allclose(flatten(schur_block_product(a, b)),
                        flatten(schur_block_product(b, a)))

    def test_associative(self):
        rng = np.random.default_rng(17)
        for n, d in [(2, 2), (5, 3), (3, 1)]:
            a, b, c = (random_bm(rng, n, d) for _ in range(3))
            lhs = schur_block_product(schur_block_product(a, b), c)
            rhs = schur_block_product(a, schur_block_product(b, c))
            assert_allclose(flatten(lhs), flatten(rhs), rtol=1e-12, atol=1e-14)

    def test_adjoint_law(self):
        rng = np.random.default_rng(23)
        a, b = random_bm(rng, 3, 2), random_bm(rng, 3, 2)
        lhs = adjoint_block(schur_block_product(a, b))
        rhs = schur_block_product(adjoint_block(b), adjoint_block(a))
        assert_allclose(flatten(lhs), flatten(rhs), rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            schur_block_product(block_identity(2, 2), block_identity(2, 3))
        with pytest.raises(ShapeError):
            schur_block_product(block_identity(2, 2), block_identity(3, 2))


class TestBlockMatmul:
    def test_identity(self):
        rng = np.random.default_rng(31)
        a = random_bm(rng, 3, 2)
        assert block_matmul(a, block_identity(3, 2)) == a

    def test_scalar_hand_example(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        b = scalar_bm([[5.0, 6.0], [7.0, 8.0]])
        assert_allclose(flatten(block_matmul(a, b)),
                        np.array([[19.0, 22.0], [43.0, 50.0]]))

    def test_flatten_compatible(self):
        rng = np.random.default_rng(37)
        a, b = random_bm(rng, 3, 2), random_bm(rng, 3, 2)
        assert np.array_equal(flatten(block_matmul(a, b)), flatten(a) @ flatten(b))


class TestDiagBlock:
    def test_block_identity_fixed(self):
        i = block_identity(3, 2)
        assert diag_block(i) == i

    def test_hand_example(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        gram = block_matmul(adjoint_block(a), a)
        assert_allclose(flatten(gram), np.array([[10.0, 14.0], [14.0, 20.0]]))
        assert_allclose(flatten(diag_block(gram)), np.diag([10.0, 20.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        a = random_bm(rng, 4, 2)
        assert diag_block(diag_block(a)) == diag_block(a)


class TestRowColNorms:
    def test_block_identity(self):
        i = block_identity(3, 2)
        assert_allclose(row_norm(i), 1.0)
        assert_allclose(col_norm(i), 1.0)

    def test_hand_values(self):
        a = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(row_norm(a), 5.0)
        assert_allclose(col_norm(a), np.sqrt(20.0))
        b = scalar_bm([[5.0, 6.0], [7.0, 8.0]])
        assert_allclose(col_norm(b), 10.0)
        assert_allclose(row_norm(b), np.sqrt(113.0))  # max(sqrt(61), sqrt(113))

    def test_row_is_col_of_adjoint(self):
        rng = np.random.default_rng(43)
        a = random_bm(rng, 4, 3)
        assert_allclose(row_norm(a), col_norm(adjoint_block(a)), rtol=1e-12)

    def test_bounded_by_operator_norm(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = random_bm(rng, 4, 2)
            whole = spectral_norm(flatten(a))
            assert row_norm(a) <= whole + 1e-10
            assert col_norm(a) <= whole + 1e-10

    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize("n, d", itertools.product([1, 3, 8], [1, 2, 4]))
    def test_hold_at_every_scale(self, n, d, stack):
        # at 2^-600 and 2^600 a strip's Gram underflows or overflows, and
        # spectral_norm takes the strip's own SVD, so the bits may differ
        rng = np.random.default_rng(600 + 10 * n + d)
        singles = [random_bm(rng, n, d).blocks for _ in range(3)]
        a = BlockMatrix(n, d, np.stack(singles) if stack else singles[0])
        for norm in (row_norm, col_norm):
            unit = norm(a)
            for k in (-600, 600):
                assert_allclose(norm(BlockMatrix(n, d, 2.0 ** k * a.blocks)),
                                2.0 ** k * np.asarray(unit), rtol=1e-13, atol=0)


def lift_oracle(a, b):
    """Brute-force (p, q, l, i, j) loop over slotwise block products."""
    k = a.batch[-1]
    out = np.zeros_like(a.blocks)
    for p, q, l in itertools.product(range(k), repeat=3):
        for i, j in itertools.product(range(a.n), repeat=2):
            out[p, q, i, j] += a.blocks[p, l, i, j] @ b.blocks[l, q, i, j]
    return out


def gaussian_integer_lift(rng, k, n, d):
    """A lift with Gaussian-integer entries, |re| and |im| below 2^20.

    A sum of at most 12 products of them stays below 2^45, so float64
    forms it exactly in any order.
    """
    re, im = rng.integers(1 - 2**20, 2**20, size=(2, k, k, n, n, d, d))
    return BlockMatrix(n, d, re + 1j * im)


class TestLift:
    def test_k1_reduces_to_schur(self):
        rng = np.random.default_rng(53)
        a, b = random_bm(rng, 2, 2), random_bm(rng, 2, 2)
        lifted = lift_schur_k(outer_lift(np.ones((1, 1)), a), outer_lift(np.ones((1, 1)), b))
        assert lifted.batch == (1, 1)
        assert BlockMatrix(2, 2, lifted.blocks[0, 0]) == schur_block_product(a, b)

    def test_lift_identity_is_unit(self):
        # schur_unit on the grid diagonal, zero off it
        e = outer_lift(np.eye(2), schur_unit(2, 2))
        assert lift_schur_k(e, e) == e

    def test_against_brute_force(self):
        rng = np.random.default_rng(59)
        k, n, d = 2, 2, 1
        a = BlockMatrix(n, d, rng.integers(-3, 4, size=(k, k, n, n, d, d)))
        b = BlockMatrix(n, d, rng.integers(-3, 4, size=(k, k, n, n, d, d)))
        assert_allclose(lift_schur_k(a, b).blocks, lift_oracle(a, b))

    def test_level_k_contractive(self):
        rng = np.random.default_rng(61)
        for k in (1, 2, 3):
            a, b = random_lift(rng, k, 2, 2), random_lift(rng, k, 2, 2)
            lhs = spectral_norm(flatten_lift(lift_schur_k(a, b)))
            rhs = spectral_norm(flatten_lift(a)) * spectral_norm(flatten_lift(b))
            assert lhs <= rhs + 1e-8

    def test_flatten_lift_nesting_order(self):
        rng = np.random.default_rng(67)
        a = random_lift(rng, 2, 2, 2)
        f = flatten_lift(a)
        assert f.shape == (8, 8)
        assert_allclose(f[4:8, 0:4], flatten(BlockMatrix(2, 2, a.blocks[1, 0])))

    @pytest.mark.parametrize("k, n, d", [(1, 2, 2), (2, 2, 1), (2, 3, 2),
                                         (3, 1, 2), (3, 2, 3)])
    def test_regroup_against_brute_force(self, k, n, d):
        # the level-k lift is the Schur block product at block size k*d
        rng = np.random.default_rng(71 + 10 * k + n + d)
        a, b = random_lift(rng, k, n, d), random_lift(rng, k, n, d)
        expected = regroup_lift(BlockMatrix(n, d, lift_oracle(a, b)))
        got = schur_block_product(regroup_lift(a), regroup_lift(b))
        assert (got.n, got.d) == (n, k * d)
        assert_allclose(got.blocks, expected.blocks, rtol=0, atol=1e-13)
        assert_allclose(lift_schur_k(a, b).blocks, lift_oracle(a, b), rtol=0, atol=1e-13)
        whole = spectral_norm(flatten_lift(a))
        assert_allclose(spectral_norm(flatten(regroup_lift(a))), whole, rtol=1e-12)
        corner = BlockMatrix(n, d, a.blocks[0, 0])
        assert regroup_lift(outer_lift(np.ones((1, 1)), corner)) == corner

    @pytest.mark.parametrize("k, n, d", [(1, 1, 1), (2, 1, 2), (3, 2, 2),
                                         (2, 3, 1), (1, 2, 1), (3, 8, 4)])
    def test_regroup_is_exact(self, k, n, d):
        # on exact arithmetic the regrouped product is the lift, bit for bit
        rng = np.random.default_rng(83 + 100 * k + 10 * n + d)
        a, b = gaussian_integer_lift(rng, k, n, d), gaussian_integer_lift(rng, k, n, d)
        lifted = regroup_lift(lift_schur_k(a, b)).blocks
        regrouped = schur_block_product(regroup_lift(a), regroup_lift(b)).blocks
        assert np.array_equal(lifted.view(np.uint64), regrouped.view(np.uint64))

    def test_lift_schur_k_does_not_use_regroup(self, monkeypatch):
        # with the k-by-k grid transposed in the regroup, the lift is unchanged
        rng = np.random.default_rng(89)
        a, b = random_lift(rng, 2, 2, 2), random_lift(rng, 2, 2, 2)
        want, regrouped = lift_schur_k(a, b).blocks, regroup_lift(a)
        regroup = blocks_module._regroup
        monkeypatch.setattr(blocks_module, "_regroup",
                            lambda grids: regroup(grids.swapaxes(-6, -5)))
        assert regroup_lift(a) != regrouped
        assert np.array_equal(lift_schur_k(a, b).blocks.view(np.uint64),
                              want.view(np.uint64))

    def test_stacks_of_lifts(self):
        # further leading axes stack lifts; each gives the bits it has alone
        rng = np.random.default_rng(97)
        a = BlockMatrix(2, 2, np.stack([random_lift(rng, 2, 2, 2).blocks for _ in range(3)]))
        b = BlockMatrix(2, 2, np.stack([random_lift(rng, 2, 2, 2).blocks for _ in range(3)]))
        lifted, regrouped, flat = lift_schur_k(a, b), regroup_lift(a), flatten_lift(a)
        for t in range(3):
            at, bt = BlockMatrix(2, 2, a.blocks[t]), BlockMatrix(2, 2, b.blocks[t])
            assert np.array_equal(lifted.blocks[t], lift_schur_k(at, bt).blocks)
            assert np.array_equal(regrouped.blocks[t], regroup_lift(at).blocks)
            assert np.array_equal(flat[t], flatten_lift(at))

    def test_regroup_slot_layout(self):
        # slot (i, j) entry (p*d + s, q*d + t) is xs.blocks[p, q, i, j, s, t]
        rng = np.random.default_rng(73)
        xs = random_lift(rng, 2, 3, 2)
        r = regroup_lift(xs)
        for p in range(2):
            for q in range(2):
                assert np.array_equal(r.blocks[:, :, 2 * p:2 * p + 2, 2 * q:2 * q + 2],
                                      xs.blocks[p, q])

    def test_nested_lists_rejected(self):
        # the nested-list form of a lift is gone: a lift is one BlockMatrix
        a = block_identity(2, 2)
        rows = [[a, a], [a, a]]
        with pytest.raises(TypeError):
            regroup_lift(rows)
        with pytest.raises(TypeError):
            flatten_lift(rows)
        with pytest.raises(TypeError):
            lift_schur_k(rows, rows)
        with pytest.raises(TypeError):
            lift_schur_k(outer_lift(np.eye(2), a), rows)

    @pytest.mark.parametrize("batch", [(), (2,), (2, 3), (2, 2, 3)])
    def test_stack_without_square_grid_rejected(self, batch):
        x = BlockMatrix(2, 2, np.zeros(batch + (2, 2, 2, 2)))
        with pytest.raises(ShapeError):
            regroup_lift(x)
        with pytest.raises(ShapeError):
            flatten_lift(x)
        with pytest.raises(ShapeError):
            lift_schur_k(x, x)

    def test_shape_mismatch_rejected(self):
        a, b = block_identity(2, 2), block_identity(2, 3)
        with pytest.raises(ShapeError):
            lift_schur_k(outer_lift(np.eye(2), a), outer_lift(np.eye(2), b))
        # k*d alone cannot tell (k, d) = (2, 3) from (3, 2)
        with pytest.raises(ShapeError):
            lift_schur_k(outer_lift(np.eye(3), a), outer_lift(np.eye(2), b))


class TestConstruction:
    def test_rejects_nonsquare_grid(self):
        with pytest.raises(ShapeError):
            block_matrix(np.zeros((2, 3, 2, 2)))

    def test_rejects_nan(self):
        bad = np.zeros((2, 2, 1, 1))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            block_matrix(bad)

    def test_blocks_are_read_only(self):
        a = block_identity(2, 2)
        with pytest.raises(ValueError):
            a.blocks[0, 0, 0, 0] = 5.0


class TestJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(71)
        a = random_bm(rng, 3, 2)
        obj = block_matrix_to_json(a)
        text = json.dumps(obj)
        assert block_matrix_from_json(json.loads(text)) == a

    def test_schema_shape(self):
        a = block_identity(2, 2)
        obj = block_matrix_to_json(a)
        assert set(obj) == {"n", "d", "blocks"}
        assert obj["blocks"][0][0][0][0] == [1.0, 0.0]

    @staticmethod
    def signed_zeros(rng, shape):
        """Gaussian entries with every sign of zero in each part."""
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = x.reshape(-1)
        for k, (re, im) in enumerate([(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0),
                                      (-0.0, 1.5), (2.5, -0.0), (-0.0, -3.0)]):
            flat[k] = complex(re, im)
        return x

    def test_encoders_match_the_elementwise_loop(self):
        rng = np.random.default_rng(5)
        x = self.signed_zeros(rng, (3, 4))
        ref = [[[float(v.real), float(v.imag)] for v in row] for row in x]
        assert operator_to_json(x) == ref
        # == does not see the sign of a zero; the json text does
        assert json.dumps(operator_to_json(x)) == json.dumps(ref)
        assert json.dumps(operator_to_json(x.T)) == json.dumps(
            [[[float(v.real), float(v.imag)] for v in row] for row in x.T])
        v = x[0]
        assert json.dumps(vector_to_json(v)) == json.dumps(
            [[float(c.real), float(c.imag)] for c in v])
        bm = block_matrix(self.signed_zeros(rng, (3, 3, 2, 2)))
        assert json.dumps(block_matrix_to_json(bm)) == json.dumps(
            {"n": 3, "d": 2, "blocks": [[operator_to_json(bm.blocks[i, j])
                                         for j in range(3)] for i in range(3)]})

    def test_decode_keeps_signed_zeros(self):
        rng = np.random.default_rng(6)
        x = self.signed_zeros(rng, (3, 3))
        for back in (operator_from_json(json.loads(json.dumps(operator_to_json(x)))),
                     vector_from_json(vector_to_json(x.reshape(-1))).reshape(3, 3),
                     flatten(block_matrix_from_json(
                         block_matrix_to_json(scalar_bm(x))))):
            assert np.array_equal(back, x)
            assert np.array_equal(np.signbit(back.real), np.signbit(x.real))
            assert np.array_equal(np.signbit(back.imag), np.signbit(x.imag))

    def test_chunks_are_the_stdlib_dump_signed_zeros_apart(self):
        # each distinct [re, im] pair is formatted once per array; a table
        # keyed by float or complex value would write 0.0 for -0.0 or back
        parts = [0.0, -0.0, 5e-324, 1e16, 0.1, -0.0, 0.1, 0.0, 1.0, -2.5]
        pairs = [complex(re, im) for re in parts for im in parts]
        x = np.array(pairs, dtype=np.complex128)
        obj = {
            "d": 2, "name": "signed zeros",
            "row": x[:25],
            "grid": x.reshape(10, 10),
            "nested": {"n": 5, "blocks": x.reshape(5, 5, 2, 2),
                       "more": {"z": x[::-1].reshape(2, 50), "k": [1, 2]}},
        }
        text = "".join(json_chunks(obj))
        assert text == json.dumps(as_json_lists(obj), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("shape", [(_PIECE_PAIRS + 1,), (3, 1500)])
    def test_chunks_over_several_pieces_are_the_stdlib_dump(self, shape):
        # arrays longer than a piece, with rows that do not divide it, so
        # row ends and the array's end fall inside pieces and at their edges
        parts = np.array(zero_pairs + [[5e-324, -0.0], [-0.0, 5e-324],
                                       [0.1, -2.5], [1e16, 1.0]])
        draws = np.random.default_rng(11).integers(len(parts), size=np.prod(shape))
        pairs = parts[draws]
        obj = {"x": pair_array(pairs, shape),
               "y": {"n": 1, "z": pair_array(pairs[::-1], shape)}}
        assert_stdlib_dump("".join(json_chunks(obj)), obj)

    def test_long_runs_across_pieces_are_the_stdlib_dump(self):
        # each row of the grid is four long runs, one per signed-zero pair, so
        # runs cross piece edges; nonzero pairs sit at the last pair of the
        # first piece, the first of the second and a row end. The line is one
        # run of equal nonzero pairs that only the piece edges cut
        width = 2 * _PIECE_PAIRS + 5
        quarter = np.arange(width) * 4 // width
        pairs = np.array(zero_pairs)[(quarter + np.arange(3)[:, None]) % 4]
        pairs[0, _PIECE_PAIRS - 1] = [0.1, -0.0]
        pairs[0, _PIECE_PAIRS] = [-0.0, 1e16]
        pairs[1, -1] = [5e-324, 0.0]
        obj = {"grid": pair_array(pairs, (3, width)),
               "line": pair_array([[-2.5, 0.1]] * (3 * _PIECE_PAIRS), (3 * _PIECE_PAIRS,))}
        pieces = list(json_chunks(obj))
        assert_stdlib_dump("".join(pieces), obj)
        counts = [len(PAIR_TEXT.findall(piece)) for piece in pieces]
        assert sum(counts) == 3 * width + 3 * _PIECE_PAIRS
        assert max(counts) == _PIECE_PAIRS

    @pytest.mark.parametrize("collide", [False, True])
    def test_pair_ids_never_join_different_pairs(self, collide, monkeypatch):
        # pairs equal as complex numbers but not in their zero signs, and
        # pairs that share one of their two words; with every key made to
        # collide, equal keys interleave different pairs in the sort
        if collide:
            monkeypatch.setattr(blocks_module, "_pair_keys",
                                lambda words: np.zeros(len(words), dtype=np.uint64))
        pairs = [[1.0, 0.0], [1.0, -0.0], [-0.0, 2.0], [0.0, 2.0], [1.0, 2.0],
                 [2.0, 1.0], [2.0, 2.0], [1.0, 1.0], [-1.0, 2.0], [5e-324, 1.0]]
        order = np.random.default_rng(3).permutation(5 * len(pairs))
        x = pair_array(np.array(pairs * 5)[order], (5, len(pairs)))
        ids, _ = blocks_module._pair_texts(x, "\n")
        words = x.view(np.uint64).reshape(-1, 2)
        for i in np.unique(ids):
            assert len(np.unique(words[ids.reshape(-1) == i], axis=0)) == 1
        obj = {"x": x, "y": {"row": x[::-1].reshape(-1)}}
        assert_stdlib_dump("".join(json_chunks(obj)), obj)

    def test_bad_payloads_name_the_field(self):
        with pytest.raises(ValueError, match="missing field 'blocks'"):
            block_matrix_from_json({"n": 1, "d": 1})
        with pytest.raises(ValueError, match=r"blocks\[0\]\[1\]"):
            block_matrix_from_json({
                "n": 2, "d": 1,
                "blocks": [[[[[1, 0]]], [[["x", 0]]]],
                           [[[[0, 0]]], [[[1, 0]]]]],
            })


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def scalar_block_matrices(draw, n=2):
    rows = draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return scalar_bm(np.array(rows, dtype=float))


@settings(max_examples=50, deadline=None)
@given(scalar_block_matrices(), scalar_block_matrices(), scalar_block_matrices())
def test_schur_associativity_property(a, b, c):
    lhs = schur_block_product(schur_block_product(a, b), c)
    rhs = schur_block_product(a, schur_block_product(b, c))
    assert lhs == rhs  # integer entries: exact


@settings(max_examples=50, deadline=None)
@given(scalar_block_matrices(), scalar_block_matrices())
def test_flatten_compat_property(a, b):
    assert np.array_equal(flatten(block_matmul(a, b)), flatten(a) @ flatten(b))


# the writer's zero pairs take their text from two sign bits; the others
# are formatted once per array, however often they repeat
dump_parts = [0.0, -0.0, 5e-324, 1e-05, 0.1, 1.0, -2.5, 1e16]


def pair_array(pairs, shape) -> np.ndarray:
    """[re, im] pairs as a complex array of the given shape, zero signs kept."""
    return np.array(pairs, dtype=np.float64).view(np.complex128).reshape(shape)


@st.composite
def dump_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    part = st.sampled_from(dump_parts)
    pairs = draw(st.lists(st.tuples(part, part), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return pair_array(pairs, shape)


dump_keys = st.text(alphabet="abz_\"", min_size=1, max_size=3)
dump_leaves = dump_arrays() | st.integers(-2, 2) | st.sampled_from(["s", None])
dump_mappings = st.recursive(
    st.dictionaries(dump_keys, dump_leaves, min_size=1, max_size=3),
    lambda inner: st.dictionaries(dump_keys, dump_leaves | inner, min_size=1,
                                  max_size=3),
    max_leaves=6)
zero_pairs = [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]


@settings(max_examples=60, deadline=None)
@given(dump_mappings)
@example({"zeros": pair_array(zero_pairs, (2, 2)),
          "none": {"x": pair_array([[5e-324, 1e16], [-2.5, 1e-05]] * 3, (3, 1, 2))},
          "one": pair_array([[-0.0, 0.1]], (1, 1, 1, 1))})
@example({"mixed": pair_array(zero_pairs + [[1.0, -0.0], [-0.0, 1.0]], (6,)),
          "one": pair_array([[0.0, -0.0]], (1,))})
def test_chunks_match_the_stdlib_dump_property(obj):
    text = "".join(json_chunks(obj))
    assert text == json.dumps(as_json_lists(obj), indent=2, sort_keys=True) + "\n"
