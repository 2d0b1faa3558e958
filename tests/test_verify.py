import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (checker_residual, outer_lift, random_bm, random_lift, scalar_bm,
                      svd_shapes)
from schurblock import (
    PROPERTIES,
    BlockMatrix,
    PropertyResult,
    ShapeError,
    StinespringSystem,
    adjoint_block,
    block_identity,
    block_matmul,
    block_matrix,
    block_matrix_to_json,
    build_lambda,
    build_rho,
    build_sigma,
    col_norm,
    diag_block,
    flatten,
    merge_results,
    regroup_lift,
    row_norm,
    row_norms_via_schur,
    run_property,
    schur_block_product,
    schur_unit,
    spectral_norm,
    triple_dim,
    verify_cauchy_schwarz,
    verify_cb_level,
    verify_decomposition,
    verify_factorization,
    verify_livshits,
    verify_norm_lemmas,
    verify_sandwich,
    verify_sharpness,
    verify_structure,
    worst_residual,
)
from schurblock import linalg, stinespring
from schurblock import verify as verify_module
from schurblock.linalg import gap_norm
from schurblock.cli import TrialConfig, replay_instance, run_suite

A2 = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
B2 = scalar_bm([[5.0, 6.0], [7.0, 8.0]])


class TestPropertyResult:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PropertyResult("x", trials=1, failures=2, worst_residual=0.0,
                           worst_seed=0, tolerance_used=1.0)
        with pytest.raises(ValueError):
            PropertyResult("x", trials=1, failures=0, worst_residual=2.0,
                           worst_seed=0, tolerance_used=1.0)
        with pytest.raises(ValueError):
            PropertyResult("x", trials=1, failures=1, worst_residual=0.5,
                           worst_seed=0, tolerance_used=1.0)

    def test_merge(self):
        r1 = PropertyResult("x", 1, 0, 1e-14, 111, 1e-10)
        r2 = PropertyResult("x", 1, 1, 3e-9, 222, 1e-10)
        merged = merge_results([r1, r2])
        assert merged.trials == 2
        assert merged.failures == 1
        assert merged.worst_residual == 3e-9
        assert merged.worst_seed == 222

    def test_merge_rejects_mixed(self):
        r1 = PropertyResult("x", 1, 0, 0.0, 0, 1e-10)
        r2 = PropertyResult("y", 1, 0, 0.0, 0, 1e-10)
        with pytest.raises(ValueError):
            merge_results([r1, r2])


class TestFactorization:
    def test_identity_pair_is_exact(self):
        i = block_identity(3, 2)
        assert worst_residual(verify_factorization(i, i)) == 0.0

    def test_hand_example(self):
        r = worst_residual(verify_factorization(A2, B2))
        assert r <= 1e-13
        assert r <= PROPERTIES["factorization"].tol

    def test_random_large(self):
        rng = np.random.default_rng(211)
        a, b = random_bm(rng, 4, 3), random_bm(rng, 4, 3)
        assert worst_residual(verify_factorization(a, b)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            verify_factorization(block_identity(2, 2), block_identity(3, 2))


class TestLivshits:
    def test_hand_example(self):
        lhs = spectral_norm(flatten(schur_block_product(A2, B2)))
        assert_allclose(lhs, 40.35843836998762, rtol=1e-12)
        assert row_norm(A2) * col_norm(B2) == 50.0
        assert worst_residual(verify_livshits(A2, B2)) <= PROPERTIES["livshits"].tol

    def test_zero_instance(self):
        z = scalar_bm(np.zeros((2, 2)))
        r = worst_residual(verify_livshits(z, z))
        assert r <= PROPERTIES["livshits"].tol and r == 0.0

    def test_equality_at_indicator_row(self):
        # B with I_d blocks on row k only: ||A [] B|| equals row k's norm
        rng = np.random.default_rng(223)
        a = random_bm(rng, 3, 2)
        k = 1
        y = np.zeros((3, 3, 2, 2), dtype=complex)
        y[k, :] = np.eye(2)
        b = block_matrix(y)
        lhs = spectral_norm(flatten(schur_block_product(a, b)))
        strip = a.blocks[k].transpose(1, 0, 2).reshape(2, 6)
        assert_allclose(lhs, spectral_norm(strip), rtol=1e-10)
        assert worst_residual(verify_livshits(a, b)) <= PROPERTIES["livshits"].tol


class TestSharpness:
    def test_block_identity_rows(self):
        assert_allclose(row_norms_via_schur(block_identity(3, 2)), np.ones(3))

    def test_hand_example_row(self):
        assert_allclose(row_norms_via_schur(A2), [np.sqrt(5.0), 5.0])

    def test_max_over_rows_is_row_norm(self):
        rng = np.random.default_rng(227)
        x = random_bm(rng, 4, 2)
        best = row_norms_via_schur(x).max()
        assert_allclose(best, row_norm(x), rtol=1e-10)
        assert worst_residual(verify_sharpness(x)) <= PROPERTIES["sharpness"].tol


def _row_norm_via_indicator(x, k):
    """Norm of block row k of x through one indicator product, row by row:
    the product is zero outside its block row k, the d-by-(n*d) strip
    whose norm is taken."""
    y = np.zeros((x.n, x.n, x.d, x.d), dtype=complex)
    y[k, :] = np.eye(x.d)
    product = flatten(schur_block_product(x, block_matrix(y)))
    return spectral_norm(product[..., k * x.d:(k + 1) * x.d, :])


@pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (4, 2), (8, 4)])
def test_row_norms_via_schur_are_the_per_row_products_bit_for_bit(n, d):
    rng = np.random.default_rng(307 + n * d)
    singles = [random_bm(rng, n, d) for _ in range(3)]
    stack = BlockMatrix(n, d, np.stack([x.blocks for x in singles]))
    want = np.array([[_row_norm_via_indicator(x, k) for k in range(n)] for x in singles])
    assert row_norms_via_schur(stack).tobytes() == want.tobytes()
    per_row_on_stack = np.stack([_row_norm_via_indicator(stack, k) for k in range(n)], -1)
    assert per_row_on_stack.tobytes() == want.tobytes()
    for x, row in zip(singles, want):
        assert row_norms_via_schur(x).tobytes() == row.tobytes()


class TestSandwich:
    def test_block_identity(self):
        r = worst_residual(verify_sandwich(block_identity(2, 2)))
        assert r <= PROPERTIES["sandwich"].tol and r == 0.0

    def test_boundary_case(self):
        star = adjoint_block(A2)
        s = flatten(schur_block_product(star, A2))
        assert_allclose(s, np.array([[1.0, 6.0], [6.0, 16.0]]))
        from schurblock import block_matmul, diag_block
        d = flatten(diag_block(block_matmul(star, A2)))
        assert_allclose(d, np.diag([10.0, 20.0]))
        gap = np.linalg.eigvalsh(d - s)
        assert abs(gap[0]) <= 1e-12  # eigenvalues {0, 13}
        assert_allclose(gap[1], 13.0, rtol=1e-12)
        assert worst_residual(verify_sandwich(A2)) <= PROPERTIES["sandwich"].tol

    def test_random(self):
        rng = np.random.default_rng(229)
        for _ in range(20):
            a = random_bm(rng, 5, 2)
            assert worst_residual(verify_sandwich(a)) <= 1e-10


@pytest.mark.parametrize("n, d", [(4, 2), (3, 1), (8, 4)])
def test_block_diagonal_a_meets_the_sandwich_bound(n, d, tmp_path):
    # A* [] A = diag(A*A) for block-diagonal A, the equality case of the
    # lower bound: dmat - s is zero up to rounding
    rng = np.random.default_rng(n * d)
    off = ~np.eye(n, dtype=bool)
    blocks = np.stack([random_bm(rng, n, d).blocks for _ in range(200)])
    blocks[:, off] = 0
    result = run_property("sandwich", {"A": BlockMatrix(n, d, blocks)})
    assert result.trials == 200 and result.passed, result
    path = tmp_path / "a.json"
    for a in blocks:
        path.write_text(json.dumps({"A": block_matrix_to_json(block_matrix(a))}))
        assert replay_instance(str(path), "sandwich").passed


class TestCauchySchwarz:
    def test_zero_pair(self):
        zero = BlockMatrix(2, 2, np.zeros((2, 2, 2, 2)))
        assert worst_residual(verify_cauchy_schwarz(zero, zero)) == 0.0

    def test_saturation_at_identity(self):
        # G = [[I, I], [I, I]] is singular: the bound is reached at xi = -gamma
        i = block_identity(2, 2)
        assert worst_residual(verify_cauchy_schwarz(i, i)) == 0.0

    def test_random_pairs_sit_inside_the_bound(self):
        rng = np.random.default_rng(233)
        for _ in range(20):
            a, b = random_bm(rng, 4, 2), random_bm(rng, 4, 2)
            assert worst_residual(verify_cauchy_schwarz(a, b)) == 0.0

    def test_shapes_checked(self):
        with pytest.raises(ShapeError):
            verify_cauchy_schwarz(A2, block_identity(2, 2))


class TestDecomposition:
    def test_identity_pair(self):
        i = block_identity(2, 2)
        assert worst_residual(verify_decomposition(i, i)) == 0.0

    def test_hand_example_diagonal_of_product(self):
        from schurblock import block_matmul, diag_block
        prod = block_matmul(A2, B2)
        assert_allclose(flatten(diag_block(prod)), np.diag([19.0, 50.0]))
        r = worst_residual(verify_decomposition(A2, B2))
        assert r <= PROPERTIES["decomposition"].tol and r <= 1e-13

    def test_random(self):
        rng = np.random.default_rng(239)
        a, b = random_bm(rng, 3, 2), random_bm(rng, 3, 2)
        assert worst_residual(verify_decomposition(a, b)) <= 1e-12

    def test_half_flip_is_exact_projection(self):
        f = StinespringSystem.build(3, 2).F
        p = (f + np.eye(18)) / 2
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p, p.conj().T)


class TestStructureAndNormLemmas:
    def test_structure_random(self):
        rng = np.random.default_rng(241)
        for n, d in [(1, 1), (2, 2), (4, 3)]:
            a, b = random_bm(rng, n, d), random_bm(rng, n, d)
            assert worst_residual(verify_structure(a, b)) <= 1e-12

    def test_norm_lemmas_random(self):
        rng = np.random.default_rng(251)
        for n, d in [(2, 1), (3, 2)]:
            a = random_bm(rng, n, d)
            assert worst_residual(verify_norm_lemmas(a)) <= PROPERTIES["norm_lemmas"].tol


def _lhs_over_rhs(a, b):
    """||A [] B|| / (row_norm(A) col_norm(B)), how close the Livshits bound came."""
    return spectral_norm(flatten(schur_block_product(a, b))) / (
        row_norm(a) * col_norm(b))


class TestCbLevel:
    def test_schur_unit_saturates_when_n_is_one(self):
        e = schur_unit(1, 3)
        r = worst_residual(verify_cb_level(e, e))
        assert r == 0.0 and r <= PROPERTIES["cb_level"].tol
        assert _lhs_over_rhs(e, e) == 1.0

    def test_lifted_block_identity_saturates(self):
        i = block_identity(3, 2)
        for k in (1, 2, 3):
            lift = regroup_lift(outer_lift(np.eye(k), i))
            assert lift == block_identity(3, 2 * k)
            assert worst_residual(verify_cb_level(lift, lift)) == 0.0
            assert_allclose(_lhs_over_rhs(lift, lift), 1.0, rtol=1e-12)

    def test_schur_unit_saturates_at_every_n(self):
        # E [] E = E with ||E|| = n = row_norm(E) col_norm(E)
        for n in (2, 3, 5):
            e = schur_unit(n, 2)
            assert worst_residual(verify_cb_level(e, e)) == 0.0
            assert_allclose(_lhs_over_rhs(e, e), 1.0, rtol=1e-12)

    def test_lift_identity_of_lifted_product(self):
        # the Schur unit on the grid diagonal regroups to the Schur unit
        unit = schur_unit(2, 2)
        e = regroup_lift(outer_lift(np.eye(2), unit))
        assert e == schur_unit(2, 4)
        r = worst_residual(verify_cb_level(e, e))
        assert r <= PROPERTIES["cb_level"].tol and r == 0.0
        assert_allclose(_lhs_over_rhs(e, e), 1.0, rtol=1e-12)

    def test_random_contractive(self):
        rng = np.random.default_rng(257)
        for k in (1, 2, 3):
            a = regroup_lift(random_lift(rng, k, 3, 2))
            b = regroup_lift(random_lift(rng, k, 3, 2))
            r = worst_residual(verify_cb_level(a, b))
            assert r <= PROPERTIES["cb_level"].tol
            assert r <= 1e-8

    def test_k_mismatch(self):
        # a level-2 pair has block size 2d, so it does not meet a level-1 one
        i = block_identity(2, 2)
        with pytest.raises(ShapeError):
            verify_cb_level(regroup_lift(outer_lift(np.ones((2, 2)), i)), i)


def _zero_like(x):
    return block_matrix(np.zeros_like(x.blocks))


class TestCheckerBehavior:
    def test_deterministic(self):
        rng = np.random.default_rng(263)
        a, b = random_bm(rng, 3, 2), random_bm(rng, 3, 2)
        assert (worst_residual(verify_factorization(a, b))
                == worst_residual(verify_factorization(a, b)))

    def test_scaling_invariance(self):
        # all tolerances are relative: scaling A by c leaves pass/fail alone
        rng = np.random.default_rng(269)
        a, b = random_bm(rng, 3, 2), random_bm(rng, 3, 2)
        c = 3.0 - 4.0j
        scaled = block_matrix(c * a.blocks)
        lhs = spectral_norm(flatten(schur_block_product(scaled, b)))
        base = spectral_norm(flatten(schur_block_product(a, b)))
        assert_allclose(lhs, abs(c) * base, rtol=1e-12)
        assert_allclose(row_norm(scaled), abs(c) * row_norm(a), rtol=1e-12)
        for check, pid in ((verify_factorization, "factorization"),
                           (verify_livshits, "livshits"),
                           (verify_decomposition, "decomposition")):
            tol = PROPERTIES[pid].tol
            assert ((worst_residual(check(a, b)) <= tol)
                    == (worst_residual(check(scaled, b)) <= tol))

    def test_trivial_saturation_within_eps(self):
        # saturating instances stay at essentially zero residual
        i = block_identity(3, 2)
        assert worst_residual(verify_factorization(i, i)) <= 1e-13
        assert worst_residual(verify_livshits(i, i)) <= 1e-13
        assert worst_residual(verify_sandwich(i)) <= 1e-13
        assert worst_residual(verify_decomposition(i, i)) <= 1e-13

    def test_run_property_dispatch(self):
        rng = np.random.default_rng(271)
        a, b = random_bm(rng, 2, 2), random_bm(rng, 2, 2)
        for pid in ("factorization", "structure", "livshits", "sharpness",
                    "sandwich", "cauchy_schwarz", "decomposition",
                    "norm_lemmas", "cb_level"):
            r = run_property(pid, {"A": a, "B": b})
            assert r.property_id == pid
            assert r.passed

    def test_run_property_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_property("nonsense", {"A": A2, "B": B2})

    def test_run_property_missing_piece(self):
        with pytest.raises(ValueError, match="needs B"):
            run_property("cauchy_schwarz", {"A": A2})


def _use_system(monkeypatch, system):
    """Make StinespringSystem.build return ``system``, whatever (n, d) it is asked for."""
    monkeypatch.setattr(StinespringSystem, "build", classmethod(lambda cls, n, d: system))


class TestFixedOperatorChecks:
    """The laws of V, F and Q are checked once per (n, d)."""

    def test_broken_system_fails(self, monkeypatch):
        n, d = 3, 2
        rng = np.random.default_rng(281)
        a, b = random_bm(rng, n, d), random_bm(rng, n, d)
        zero = _zero_like(a)
        build = StinespringSystem.build
        healthy = build(n, d)
        # measure the healthy invariants first: replace() must not carry them over
        assert worst_residual(verify_structure(a, b)) <= PROPERTIES["structure"].tol
        assert worst_residual(verify_decomposition(a, b)) <= PROPERTIES["decomposition"].tol
        big = triple_dim(n, d)
        rows = healthy.v_rows.copy()
        rows[d:2 * d] = rows[:d]  # the j = 0 leg twice, the j = 1 leg gone
        flip_is_identity = replace(healthy, f_perm=np.arange(big))
        leg_dropped = replace(healthy, v_rows=rows)
        not_involutive = replace(healthy, f_perm=np.roll(np.arange(big), 1))
        # a 3-cycle among legs off the diagonal keeps FV = V but not F = F^-1
        perm = healthy.f_perm.copy()
        perm[[1, 2, 4]] = perm[[2, 4, 1]]
        three_cycle = replace(healthy, f_perm=perm)
        # conjugating F by the swap of legs 0 and 1 keeps F = F^-1 but not FV = V
        swap = np.arange(big)
        swap[[0, 1]] = [1, 0]
        moves_v = replace(healthy, f_perm=swap[healthy.f_perm[swap]])
        for broken in (flip_is_identity, leg_dropped):
            _use_system(monkeypatch, broken)
            assert not worst_residual(verify_structure(a, b)) <= PROPERTIES["structure"].tol
        _use_system(monkeypatch, flip_is_identity)
        assert not worst_residual(verify_decomposition(a, b)) <= (
            PROPERTIES["decomposition"].tol)
        # every per-instance identity holds on the zero instance, so only the
        # fixed-operator invariants can fail there
        _use_system(monkeypatch, leg_dropped)
        assert not worst_residual(verify_structure(zero, zero)) <= (
            PROPERTIES["structure"].tol)
        for broken in (not_involutive, three_cycle, moves_v):
            _use_system(monkeypatch, broken)
            assert not worst_residual(verify_decomposition(zero, zero)) <= (
                PROPERTIES["decomposition"].tol)
        # the healthy system, and one built afresh, still pass
        build.cache_clear()
        for sys_ in (healthy, build(n, d)):
            _use_system(monkeypatch, sys_)
            assert worst_residual(verify_structure(a, b)) <= PROPERTIES["structure"].tol
            assert worst_residual(verify_decomposition(a, b)) <= (
                PROPERTIES["decomposition"].tol)
            assert worst_residual(verify_structure(zero, zero)) <= (
                PROPERTIES["structure"].tol)

    def test_second_call_repeats_no_fixed_work(self, monkeypatch, tmp_path):
        n, d = 3, 2
        calls = []

        def counted(builder):
            def call(a, *args):
                calls.append((builder.__name__, a.batch))
                return builder(a, *args)
            return call

        # verify binds the builders itself, so only the system's own checks
        # reach these
        for builder in (build_lambda, build_rho, build_sigma):
            monkeypatch.setattr(stinespring, builder.__name__, counted(builder))
        StinespringSystem.build.cache_clear()
        rng = np.random.default_rng(283)
        for check in (verify_structure, verify_decomposition):
            for _ in range(2):
                worst_residual(check(random_bm(rng, n, d), random_bm(rng, n, d)))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {key: block_matrix_to_json(random_bm(rng, n, d)) for key in ("A", "B")}))
        for pid in PROPERTIES:
            replay_instance(str(path), pid)
        # the laws of V and F, and the labelled proof alone and on a stack
        # of two, were checked by the first call alone: rho whole, lambda
        # one first-leg row group at a time, then sigma
        assert calls == [(name, batch) for batch in ((), (2,))
                         for name in ("build_rho", *["build_lambda"] * n, "build_sigma")]

    def test_one_system_per_shape_keeps_no_dense_operator(self):
        system = StinespringSystem.build(3, 2)
        assert StinespringSystem.build(3, 2) is system
        for name in ("V", "F", "Q"):
            getattr(system, name)
            assert name not in vars(system), name


def dense_residual(ref, other):
    """||ref - other|| / ||ref||, 0.0 where the gap is exactly zero: the
    ratio formed here, apart from the checkers' judge."""
    gap = gap_norm(ref - other)
    return gap / spectral_norm(ref) if gap else 0.0


def dense_structure_terms(a, sys_):
    """The instance terms of ``structure``, by dense products with V, F and Q.

    ``flip`` and ``sigma`` are the gather laws the system proves once per
    shape; ``compression`` is checked per trial.
    """
    v, f = sys_.V, sys_.F
    vh = v.conj().T
    la = build_lambda(a)
    return {
        "flip": dense_residual(build_rho(a), f @ la @ f),
        "sigma": dense_residual(v @ flatten(a) @ vh, build_sigma(a)),
        "compression": dense_residual(flatten(diag_block(a)), vh @ la @ v),
    }


def dense_factorization_residual(a, b, sys_):
    """``factorization``, by dense products with V and F."""
    vh = sys_.V.conj().T
    target = flatten(schur_block_product(a, b))
    via_flip = (vh @ build_lambda(a) @ sys_.F) @ (build_lambda(b) @ sys_.V)
    return dense_residual(target, via_flip)


def dense_norm_lemmas_residual(a, sys_):
    """``norm_lemmas``, by dense products with V."""
    la = build_lambda(a)
    cn, rn = col_norm(a), row_norm(a)
    return max(abs(spectral_norm(la @ sys_.V) - cn) / cn,
               abs(spectral_norm(sys_.V.conj().T @ la) - rn) / rn)


def dense_decomposition_residual(a, b, sys_):
    """The instance part of ``decomposition``, by dense products with V."""
    prod = block_matmul(a, b)
    return dense_residual(flatten(diag_block(prod)),
                          sys_.V.conj().T @ build_lambda(prod) @ sys_.V)


@pytest.mark.parametrize("n,d,trials", [(3, 1, 4), (2, 3, 4), (4, 2, 4), (8, 4, 2)])
def test_index_route_matches_dense_products_bit_for_bit(n, d, trials):
    rng = np.random.default_rng(293 + n * d)
    sys_ = StinespringSystem.build(n, d)
    # every fixed-operator invariant is exact, so the stored part is 0.0
    assert sys_.operator_residual == 0.0
    structure = []
    for _ in range(trials):
        a, b = random_bm(rng, n, d), random_bm(rng, n, d)
        structure.append(worst_residual(verify_structure(a, b)))
        terms = dense_structure_terms(a, sys_)
        assert structure[-1] == max(terms.values())
        # the labelled proof covers the gather laws only while the builders
        # stay free of branches on values; random draws check them here
        assert terms["flip"] == terms["sigma"] == 0.0
        assert (worst_residual(verify_decomposition(a, b))
                == dense_decomposition_residual(a, b, sys_))
        assert (worst_residual(verify_factorization(a, b))
                == dense_factorization_residual(a, b, sys_))
        assert worst_residual(verify_norm_lemmas(a)) == dense_norm_lemmas_residual(a, sys_)
    # structure compares exact gathers, so it carries no rounding
    assert max(structure) == 0.0


def _rebind(monkeypatch, original, replacement):
    """Replace every binding of ``original`` in the package by ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "schurblock" or name.startswith("schurblock."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _record_calls(monkeypatch, original, record):
    """Wrap every binding of ``original`` in the package so that each call
    first passes its array argument to ``record``."""
    def counted(x, *args, **kwargs):
        record(np.asarray(x))
        return original(x, *args, **kwargs)

    _rebind(monkeypatch, original, counted)


@pytest.fixture
def norm_calls(monkeypatch):
    """(matrix side, matrices, all-zero input) of each spectral_norm call.

    The side is the larger of the last two axes, so a stack of trials is
    binned by its matrices, not by its trial count. Every binding of
    spectral_norm in the package is wrapped.
    """
    calls = []
    _record_calls(monkeypatch, linalg.spectral_norm, lambda x: calls.append(
        (max(x.shape[-2:]), int(np.prod(x.shape[:-2])), not x.any())))
    return calls


def test_structure_builds_each_representation_once_per_chunk(monkeypatch):
    n, d = 3, 2
    # the proof of the gather laws runs once per (n, d), before the count
    assert StinespringSystem.build(n, d).operator_residual == 0.0
    calls = []
    for builder in (build_lambda, build_rho, build_sigma):
        _record_calls(monkeypatch, builder, lambda x, name=builder.__name__: (
            calls.append(name)))
    rng = np.random.default_rng(311)
    x = {key: BlockMatrix(n, d, np.stack([random_bm(rng, n, d).blocks
                                          for _ in range(10)]))
         for key in ("A", "B")}
    assert run_property("structure", x).passed
    # V* lambda(A) alone; no rho, and no sigma at all
    assert calls == ["build_lambda"]


def test_no_trial_builds_a_triple_space_square(monkeypatch):
    n, d = 8, 4
    big = triple_dim(n, d)
    # the once-per-shape proof builds whole squares; it runs before the count
    assert StinespringSystem.build(n, d).operator_residual == 0.0
    shapes = []
    for builder in (build_lambda, build_rho, build_sigma):
        def recorded(*args, builder=builder):
            out = builder(*args)
            shapes.append(out.shape)
            return out
        _rebind(monkeypatch, builder, recorded)
    assert run_suite(TrialConfig(n=n, d=d, k=3, trials=4)).passed
    assert shapes
    assert all(shape[-2:] != (big, big) for shape in shapes), shapes


def test_svd_budget_per_trial_at_largest_config(norm_calls):
    report = run_suite(TrialConfig(n=8, d=4, k=3, trials=1, seed=7))
    assert report.passed
    assert norm_calls
    assert sum(1 for side, _, _ in norm_calls if side == 256) <= 4
    assert not any(zero for _, _, zero in norm_calls)


@pytest.mark.parametrize("n, d", [(5, 3), (4, 2)])
def test_structure_norms_nothing_wider_than_n_d(n, d, norm_calls):
    # structure's one per-trial term, flatten(diag(A)) = V* lambda(A) V,
    # compares two gathers of A's entries: it is judged in the n*d space,
    # and exactly, so it takes no norm at all
    rng = np.random.default_rng(337 + n * d)
    x = {key: BlockMatrix(n, d, np.stack([random_bm(rng, n, d).blocks
                                          for _ in range(4)]))
         for key in ("A", "B")}
    assert run_property("structure", x).passed
    assert norm_calls == []


def test_every_svd_gets_the_tall_side(monkeypatch):
    shapes = svd_shapes(monkeypatch)
    assert run_suite(TrialConfig(n=8, d=4, k=3, trials=1, seed=7)).passed
    assert shapes
    assert all(rows >= cols for rows, cols in shapes), shapes
    # a non-square matrix is normed through its Gram on the narrow side:
    # no SVD is wider than n*d, where lambda(A) V is 256 by 32
    assert max(rows for rows, _ in shapes) <= 8 * 4, shapes


def test_builder_products_keep_only_the_columns_v_keeps(monkeypatch):
    """V keeps n*d of the n*d*n columns, so no product of a builder's
    matrix in factorization is wider; structure and decomposition compare
    a builder's matrix by gathers and multiply none."""
    n, d = 8, 4
    shapes = []

    class Recorded(np.ndarray):
        """An array whose matmuls record their output shapes; what is
        computed from it stays Recorded."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
            if ufunc is np.matmul:
                shapes.append(out.shape)
            return out.view(Recorded) if isinstance(out, np.ndarray) else out

    monkeypatch.setattr(verify_module, "build_lambda",
                        lambda a, *idx: build_lambda(a, *idx).view(Recorded))
    rng = np.random.default_rng(331)
    a, b = (BlockMatrix(n, d, np.stack([random_bm(rng, n, d).blocks for _ in range(2)]))
            for _ in range(2))
    worst_residual(verify_factorization(a, b))
    assert shapes
    assert all(shape[-1] <= n * d for shape in shapes), shapes
    for check in (verify_structure, verify_decomposition):
        shapes.clear()
        worst_residual(check(a, b))
        assert shapes == [], check.__name__


@pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (8, 4)])
@pytest.mark.parametrize("pid", ["livshits", "sharpness", "norm_lemmas", "cb_level"])
def test_norm_checkers_pass_on_a_tiny_input_as_given(pid, n, d):
    # row_norm and col_norm of A at 2^-600 take the strips' own SVDs where
    # their Grams underflow, so the bound and the lemmas hold as given:
    # the checker runs on A unscaled, not through run_property
    rng = np.random.default_rng(601 + n * d)
    a, b = (random_bm(rng, n, d) for _ in range(2))
    tiny = BlockMatrix(n, d, 2.0 ** -600 * a.blocks)
    assert checker_residual(pid, {"A": tiny, "B": b}) <= PROPERTIES[pid].tol


def test_sharpness_makes_three_svd_calls_per_chunk(norm_calls):
    rng = np.random.default_rng(313)
    x = BlockMatrix(4, 2, np.stack([random_bm(rng, 4, 2).blocks for _ in range(10)]))
    worst_residual(verify_sharpness(x))
    # the rows through [], the rows directly, and row_norm's strips
    assert norm_calls == [(8, 40, False), (8, 40, False), (8, 40, False)]


@pytest.mark.parametrize("n, d, k, trials, expected", [
    # Ginibre chunks sit well inside both orders: one Cholesky proves each
    (4, 2, 2, 300, []),
    # at n = 1 the sandwich's lower side is 0 and G has rank d, so no chunk
    # can be proven; two chunks, of 1820 and 180 trials: sandwich stacks its
    # lower and upper gaps, cauchy_schwarz has one 2*n*d-sided Gram per trial
    (1, 4, 3, 2000, [(2, 1820, 4, 4), (1820, 8, 8), (2, 180, 4, 4), (180, 8, 8)]),
    # at n = 2 the lower side is [a_21, -a_12]* [a_21, -a_12], of rank d
    (2, 4, 3, 500, [(2, 455, 8, 8), (2, 45, 8, 8)]),
])
def test_one_eigen_call_per_rule_per_chunk(n, d, k, trials, expected, monkeypatch):
    calls = []
    _record_calls(monkeypatch, linalg.hermitian_min_eig, lambda x: calls.append(x.shape))
    report = run_suite(TrialConfig(n=n, d=d, k=k, trials=trials, seed=7,
                                   properties=("sandwich", "cauchy_schwarz")))
    assert report.passed
    assert calls == expected


@pytest.mark.parametrize("n, d, k, trials, svds", [(4, 2, 2, 10, 12), (8, 4, 3, 1, 9)])
def test_one_chunk_computes_each_shared_quantity_once(n, d, k, trials, svds, monkeypatch):
    calls = dict.fromkeys(["schur_block_product", "row_norm", "build_lambda", "svd"], 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("schur_block_product", "row_norm", "build_lambda"):
        counting(verify_module, name)
    counting(np.linalg, "svd")
    # each config is one chunk
    assert run_suite(TrialConfig(n=n, d=d, k=k, trials=trials, seed=7)).passed
    assert calls == {
        # A [] B for three properties, A* [] A, sharpness' rows, the level-k pair
        "schur_block_product": 4,
        # row_norm(A) for livshits, sharpness and norm_lemmas, and the level-k A
        "row_norm": 2,
        # V* lambda(A) shared, lambda(B) V, V* lambda(AB) V and lambda(A) V
        "build_lambda": 4,
        # ||A [] B|| once, where the factorization residual carries rounding
        "svd": svds,
    }


def test_no_checker_reads_the_dense_operators(monkeypatch):
    for name in ("V", "F", "Q"):
        monkeypatch.setattr(StinespringSystem, name, property(
            lambda self, name=name: pytest.fail(f"a checker read StinespringSystem.{name}")))
    for n, d, k in [(4, 2, 2), (8, 4, 3)]:
        assert run_suite(TrialConfig(n=n, d=d, k=k, trials=2, seed=7)).passed
    # replay runs one property at a time on a single instance
    rng = np.random.default_rng(317)
    x = {"A": random_bm(rng, 3, 2), "B": random_bm(rng, 3, 2)}
    for pid in PROPERTIES:
        assert run_property(pid, x).passed, pid


MARGIN = verify_module.PROOF_MARGIN
PROOF_SIDES = [4, 8, 16, 32, 96]
PROOF_DRAWS = 20


def _bound_gap(x, bound):
    """R^2 I - X* X, the matrix the ``at_most`` rule proves PSD, with
    bound = R^2 per matrix."""
    return (np.asarray(bound)[..., None, None] * np.eye(x.shape[-1])
            - np.conj(x).swapaxes(-1, -2) @ x)


def _unit_norm_draws(rng, m, kind):
    """PROOF_DRAWS m-by-m matrices of spectral norm 1 up to rounding:
    complex Ginibre, or rank one (u v*)."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "ginibre":
        x = gauss(PROOF_DRAWS, m, m)
    else:
        x = gauss(PROOF_DRAWS, m, 1) * np.conj(gauss(PROOF_DRAWS, 1, m))
    return x / spectral_norm(x)[:, None, None]


@pytest.mark.parametrize("kind", ["ginibre", "rank_one"])
@pytest.mark.parametrize("m", PROOF_SIDES)
def test_proof_of_the_norm_bound_keeps_its_margin(m, kind):
    # ||X|| = rel R: R^2 I - X* X has smallest eigenvalue (1 - rel^2) R^2,
    # so the proof must hold at 4 margins and fail at 0.8 margin and below
    rng = np.random.default_rng(401 + m)
    unit = _unit_norm_draws(rng, m, kind)
    r = rng.uniform(0.5, 2.0, PROOF_DRAWS)
    bound = np.square(r)

    def gap(rel):
        return _bound_gap(unit * (rel * r)[:, None, None], bound)

    assert verify_module._proves_psd(gap(1 - 2 * MARGIN), bound)
    for rel in (1 - 0.4 * MARGIN, 1.0, 1 + 1e-12):
        h = gap(rel)
        assert not any(verify_module._proves_psd(h[t], bound[t])
                       for t in range(PROOF_DRAWS)), rel


@pytest.mark.parametrize("m", PROOF_SIDES)
def test_proof_of_psd_keeps_its_margin(m):
    # h = U diag(w) U* with w in [lowest, 1] and scale 1
    rng = np.random.default_rng(409 + m)
    g = (rng.standard_normal((PROOF_DRAWS, m, m))
         + 1j * rng.standard_normal((PROOF_DRAWS, m, m)))
    u, _ = np.linalg.qr(g)
    w = rng.uniform(0.5, 1.0, (PROOF_DRAWS, m))

    def with_lowest(lowest):
        w[:, 0] = lowest
        return (u * w[:, None, :]) @ np.conj(u).swapaxes(-1, -2)

    ones = np.ones(PROOF_DRAWS)
    assert verify_module._proves_psd(with_lowest(2 * MARGIN), ones)
    for lowest in (0.4 * MARGIN, 0.0, -1e-12):
        h = with_lowest(lowest)
        assert not any(verify_module._proves_psd(h[t], 1.0)
                       for t in range(PROOF_DRAWS)), lowest


def test_proof_covers_the_whole_stack_and_only_finite_factors():
    proven = np.stack([np.eye(3), 2 * np.eye(3)]).astype(complex)
    assert verify_module._proves_psd(proven, [1.0, 2.0])
    # one matrix of the stack below its margin refuses the stack
    assert not verify_module._proves_psd(proven, [1.0, 2.0 / MARGIN])
    # the factorization passes a NaN or an infinity through without an error
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf):
            h = proven.copy()
            h[1, 2, 2] = bad
            assert not verify_module._proves_psd(h, [1.0, 2.0])
        assert not verify_module._proves_psd(np.eye(3), np.inf)
    # a zero matrix at scale 0 is PSD, but not with room to spare
    assert not verify_module._proves_psd(np.zeros((3, 3)), 0.0)
    # only the Hermitian part counts: this one is the identity
    assert verify_module._proves_psd(np.eye(3) + np.triu(np.ones((3, 3)), 1)
                                     - np.tril(np.ones((3, 3)), -1), 1.0)


def _results_text(results):
    """Each PropertyResult as JSON with its seconds dropped; floats by repr,
    so two texts are equal exactly when every residual's bits are."""
    return [json.dumps(dict(r.as_dict(), seconds=None), sort_keys=True)
            for r in results]


def _suite_and_replay_results(tmp_path):
    texts = []
    for (n, d, k), trials in [((8, 4, 3), 3), ((4, 2, 2), 40), ((3, 1, 1), 20),
                              ((2, 3, 2), 20), ((1, 4, 3), 50)]:
        texts += _results_text(run_suite(TrialConfig(n=n, d=d, k=k, trials=trials,
                                                     seed=7)).results)
    rng = np.random.default_rng(419)
    instances = [(random_bm(rng, n, d), random_bm(rng, n, d))
                 for n, d in [(4, 2), (2, 2), (1, 3), (8, 4)]]
    # pairs on the Livshits bound, which no proof can take
    instances += [(schur_unit(3, 2), schur_unit(3, 2)),
                  (block_identity(2, 3), block_identity(2, 3))]
    path = tmp_path / "instance.json"
    for a, b in instances:
        path.write_text(json.dumps({"A": block_matrix_to_json(a),
                                    "B": block_matrix_to_json(b)}))
        texts += _results_text([replay_instance(str(path), pid) for pid in PROPERTIES])
    return texts


def test_proof_changes_no_report_byte(monkeypatch, tmp_path):
    proofs = []
    proves_psd = verify_module._proves_psd

    def recorded(h, scale):
        proofs.append(proves_psd(h, scale))
        return proofs[-1]

    monkeypatch.setattr(verify_module, "_proves_psd", recorded)
    shipped = _suite_and_replay_results(tmp_path)
    # both routes ran: chunks the factorization proved, and chunks it did not
    assert True in proofs and False in proofs
    monkeypatch.setattr(verify_module, "_proves_psd", lambda h, scale: False)
    assert _suite_and_replay_results(tmp_path) == shipped
