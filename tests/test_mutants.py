"""Realistic bugs in the block operations, each caught by the suite.

Each mutant replaces one operation of ``blocks`` by a plausible wrong
version, in ``blocks`` and in ``verify``, the two modules that bind the
name. A caught mutant fails its properties with exit code 1 and a
written report, never with an error exit, and its ``worst_seed``
regenerates an instance that replay fails too.

A wrong representation builder, installed in ``stinespring`` alone, is
caught by the labelled proof that ``StinespringSystem.operator_residual``
runs once per (n, d), which fails every ``structure`` trial. The proof
checks sigma(A) = V flatten(A) V* whole, so it also catches a sigma that
writes outside Q's range, where sigma(A) V and sigma(I) do not look.
A wrong lambda installed in ``verify`` alone is caught per trial, by
``factorization``, ``structure`` and ``decomposition`` (the kill table).

A bug that only loosens an inequality's bound escapes random draws,
which stay well inside it; the families that reach the bound, built in
closed form below (Livshits, sandwich and Cauchy–Schwarz), catch it.
"""

import json

import numpy as np
import pytest

from schurblock import (
    PROPERTIES,
    BlockMatrix,
    StinespringSystem,
    block_matrix_to_json,
    col_norm,
    flatten,
    mix64,
    row_norm,
    run_property,
    sample_block_matrix,
    sample_chunk,
    schur_block_product,
    spectral_norm,
    unflatten,
)
from schurblock import blocks, stinespring, verify
from schurblock.cli import TrialConfig, main, run_suite
from schurblock.stinespring import build_lambda, build_rho, build_sigma

N, D = 3, 2


def adjoint_without_conj(a):
    return BlockMatrix(a.n, a.d, a.blocks.swapaxes(-4, -3).swapaxes(-2, -1))


def adjoint_without_slot_swap(a):
    return BlockMatrix(a.n, a.d, np.conj(a.blocks.swapaxes(-2, -1)))


def schur_product_swapped(a, b):
    return BlockMatrix(a.n, a.d, np.matmul(b.blocks, a.blocks))


def block_matmul_swapped(a, b):
    return unflatten(flatten(b) @ flatten(a), a.n, a.d)


def diag_block_identity(a):
    return a


# (name, mutant, the properties it fails, those whose residual is NaN)
MUTANTS = [
    ("adjoint_block", adjoint_without_conj, {"sandwich", "cauchy_schwarz"}, set()),
    ("adjoint_block", adjoint_without_slot_swap, {"sandwich", "cauchy_schwarz"}, set()),
    ("schur_block_product", schur_product_swapped,
     {"factorization", "sandwich", "cauchy_schwarz"}, set()),
    ("block_matmul", block_matmul_swapped, {"sandwich", "cauchy_schwarz"}, set()),
    ("diag_block", diag_block_identity,
     {"structure", "sandwich", "cauchy_schwarz", "decomposition"}, set()),
]


def install(monkeypatch, name, mutant):
    for module in (blocks, verify):
        monkeypatch.setattr(module, name, mutant)


def write_trial_instance(path, seed):
    """The suite's trial for ``seed``: A and B in their draw order."""
    rng = np.random.default_rng(seed)
    a, b = (sample_block_matrix(rng, N, D) for _ in range(2))
    path.write_text(json.dumps({
        "A": block_matrix_to_json(a), "B": block_matrix_to_json(b)}))


@pytest.mark.parametrize("name, mutant, failing, nan", MUTANTS,
                         ids=[m[1].__name__ for m in MUTANTS])
def test_mutant_fails_its_properties(name, mutant, failing, nan, tmp_path,
                                     monkeypatch, capsys):
    install(monkeypatch, name, mutant)
    out = tmp_path / "report.json"
    code = main(["verify", "--n", str(N), "--d", str(D), "--k", "1",
                 "--trials", "5", "--seed", "1", "--out", str(out)])
    assert code == 1, capsys.readouterr().err
    results = {r["property_id"]: r for r in json.loads(out.read_text())["results"]}
    assert {p for p, r in results.items() if r["failures"]} == failing
    assert {p for p in failing if np.isnan(results[p]["worst_residual"])} == nan
    for p in failing:
        assert results[p]["failures"] == 5, p
        # the recorded seed regenerates an instance that replay fails
        path = tmp_path / f"{p}.json"
        write_trial_instance(path, results[p]["worst_seed"])
        assert main(["replay", str(path), "--property", p]) == 1
        assert "result=FAIL" in capsys.readouterr().out


def schur_product_leaking(a, b):
    """The slotwise product with half of each block row added to the next."""
    out = np.matmul(a.blocks, b.blocks)
    return BlockMatrix(a.n, a.d, out + 0.5 * np.roll(out, 1, axis=-4))


def test_leaking_product_fails_sharpness(tmp_path, monkeypatch, capsys):
    # sharpness takes the norm of X [] E_k on its block row k only where
    # every other block row is exactly zero; this product writes half of
    # row k into row k + 1, so the whole matrix is measured, and its norm
    # is sqrt(5/4) times that of the row. Not in MUTANTS: it fails
    # cauchy_schwarz on only 4 of these 5 trials
    install(monkeypatch, "schur_block_product", schur_product_leaking)
    out = tmp_path / "report.json"
    code = main(["verify", "--n", str(N), "--d", str(D), "--k", "1",
                 "--trials", "5", "--seed", "1", "--out", str(out)])
    assert code == 1, capsys.readouterr().err
    results = {r["property_id"]: r for r in json.loads(out.read_text())["results"]}
    assert results["sharpness"]["failures"] == 5
    assert abs(results["sharpness"]["worst_residual"] - (np.sqrt(1.25) - 1)) <= 1e-12


def test_wrong_order_product_fails_factorization_at_every_scale(tmp_path, monkeypatch,
                                                                capsys):
    # run_property, and so replay, scales each input by a power of two, so
    # the residual is the same at every scale: to the bit at 2**-600 and
    # 2**-700, and to the digits replay prints where a decimal scale rounds
    # the entries
    install(monkeypatch, "schur_block_product", schur_product_swapped)
    rng = np.random.default_rng(5)
    a, b = (sample_block_matrix(rng, N, D) for _ in range(2))
    residuals, lines = set(), set()
    for scale in (1.0, 1e-5, 1e-100, 1e-200, 2.0 ** -600, 2.0 ** -700):
        pair = {"A": BlockMatrix(N, D, scale * a.blocks),
                "B": BlockMatrix(N, D, scale * b.blocks)}
        result = run_property("factorization", pair)
        assert not result.passed, scale
        residuals.add(f"{result.worst_residual:.6e}")
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({key: block_matrix_to_json(v)
                                    for key, v in pair.items()}))
        assert main(["replay", str(path), "--property", "factorization"]) == 1, scale
        lines.add(capsys.readouterr().out)
    assert len(residuals) == 1, residuals
    assert len(lines) == 1, lines
    assert f"residual={residuals.pop()} " in lines.pop()


DRAWS = 40


def ginibre_draws(n, d, draws=DRAWS):
    """``draws`` suite trials of A and B at (n, d), stacked."""
    x, _ = sample_chunk([mix64(2017, t) for t in range(draws)], n, d, 1)
    return x


def livshits_column_family(n, d, draws=DRAWS, seed=11):
    """Pairs at which ||A [] B|| = row_norm(A) col_norm(B), stacked.

    Only block column 0 is nonzero. With v_i the columns of a unitary from
    a QR factorisation, a_i0 = v_i v_i* and b_i0 is that unitary with its
    columns rolled so that v_i comes first, for i < min(n, d). Then block
    i of (A [] B) e_0 is v_i e_0*, so ||A [] B|| = sqrt(min(n, d)) =
    col_norm(B), and row_norm(A) = 1.
    """
    rng = np.random.default_rng(seed)
    a = np.zeros((draws, n, n, d, d), dtype=np.complex128)
    b = np.zeros_like(a)
    for t in range(draws):
        v, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        for i in range(min(n, d)):
            a[t, i, 0] = np.outer(v[:, i], np.conj(v[:, i]))
            b[t, i, 0] = np.roll(v, -i, axis=1)
    return {"A": BlockMatrix(n, d, a), "B": BlockMatrix(n, d, b)}


def sandwich_lower_family(n, d, draws=DRAWS, seed=13):
    """A with only a_01 and a_10 nonzero, stacked: diag(A*A) + A* [] A is
    then [a_10 a_01]* [a_10 a_01] on the first two block rows, which is
    singular, so the lower side of the sandwich holds with equality."""
    rng = np.random.default_rng(seed)
    a = np.zeros((draws, n, n, d, d), dtype=np.complex128)
    for i, j in ((0, 1), (1, 0)):
        a[:, i, j] = (rng.standard_normal((draws, d, d))
                      + 1j * rng.standard_normal((draws, d, d)))
    return {"A": BlockMatrix(n, d, a)}


def cauchy_schwarz_row_family(n, d, draws=DRAWS, seed=17):
    """Pairs at which Cauchy–Schwarz holds with equality, stacked.

    Only block row 0 is nonzero: A's blocks are Ginibre and B's unitary.
    Then D_B = diag(B*B) is the identity, and D_A = diag(AA*) equals
    (A [] B)(A [] B)* = sum_j a_0j b_0j b_0j* a_0j* on block row 0 and is 0
    elsewhere. So the Schur complement D_A - (A [] B) D_B^-1 (A [] B)* of
    the Gram matrix G = [[D_A, A [] B], [(A [] B)*, D_B]] is 0: G is
    singular, and the bound is reached for some pair of vectors.
    """
    rng = np.random.default_rng(seed)
    a = np.zeros((draws, n, n, d, d), dtype=np.complex128)
    b = np.zeros_like(a)
    row = (draws, n, d, d)
    a[:, 0] = rng.standard_normal(row) + 1j * rng.standard_normal(row)
    b[:, 0], _ = np.linalg.qr(rng.standard_normal(row) + 1j * rng.standard_normal(row))
    return {"A": BlockMatrix(n, d, a), "B": BlockMatrix(n, d, b)}


def cauchy_schwarz_gram(a, b):
    """(lambda_min(G), r): G's smallest eigenvalue and the largest norm of
    a diagonal block of D_A or D_B, from dense products of flatten(A), flatten(B)."""
    fa, fb = flatten(a), flatten(b)
    keep = np.kron(np.eye(a.n), np.ones((a.d, a.d)))
    d_a = keep * (fa @ np.conj(fa).swapaxes(-1, -2))
    d_b = keep * (np.conj(fb).swapaxes(-1, -2) @ fb)
    ab = flatten(schur_block_product(a, b))
    gram = np.block([[d_a, ab], [np.conj(ab).swapaxes(-1, -2), d_b]])
    return np.linalg.eigvalsh(gram)[..., 0], np.maximum(spectral_norm(d_a), spectral_norm(d_b))


def norms_swapped(monkeypatch):
    monkeypatch.setattr(verify, "row_norm", blocks.col_norm)
    monkeypatch.setattr(verify, "col_norm", blocks.row_norm)


def row_norm_shrunk(monkeypatch):
    monkeypatch.setattr(verify, "row_norm", lambda a: 0.999 * blocks.row_norm(a))


def row_norm_shrunk_by_2_to_the_minus_22(monkeypatch):
    # an excess of 2.4e-7 over the 1e-8 tolerance, but a quarter of
    # PROOF_MARGIN: a proof with its margin's sign flipped passes the family
    monkeypatch.setattr(verify, "row_norm", lambda a: (1 - 2.0 ** -22) * blocks.row_norm(a))


def lambda_of_conj_in_verify(monkeypatch):
    """``lambda_of_conj`` in verify's binding alone: every per-trial term
    that builds lambda sees it, and the once-per-shape proof, which runs
    stinespring's own builder, does not."""
    monkeypatch.setattr(verify, "build_lambda", lambda_of_conj)


def installer(mutant_name):
    """Install a ``MUTANTS`` entry, ``norms_swapped``, ``lambda_of_conj`` in
    verify's binding, or nothing ("correct")."""
    if mutant_name == "correct":
        return lambda monkeypatch: None
    if mutant_name == "norms_swapped":
        return norms_swapped
    if mutant_name == "lambda_of_conj":
        return lambda_of_conj_in_verify
    name, mutant = next((name, m) for name, m, *_ in MUTANTS if m.__name__ == mutant_name)
    return lambda monkeypatch: install(monkeypatch, name, mutant)


# The suite's Ginibre kill table: the properties each mutant fails on 20
# suite trials (seed 42) at each (n, d, k). Normal draws (A*A = AA*) hide
# block_matmul_swapped and unitary blocks (row_norm = col_norm) hide
# norms_swapped, which is why every trial is Ginibre. An empty set is a
# mutant equal to the correct operation at that shape: at n = 1 the slot
# swap, diag_block and the norm swap change nothing, and at d = 1 the
# blocks are scalars, which commute.
KILL_SHAPES = [(3, 2, 2), (2, 1, 2), (4, 2, 1), (1, 2, 1)]
ADJOINT = {"sandwich", "cauchy_schwarz"}
PRODUCT = {"factorization", "sandwich", "cauchy_schwarz"}
DIAGONAL = {"structure", "sandwich", "cauchy_schwarz", "decomposition"}
NORMS = {"sharpness", "norm_lemmas"}
LAMBDA = {"factorization", "structure", "decomposition"}
GINIBRE_KILLS = {
    "correct": [set(), set(), set(), set()],
    "adjoint_without_conj": [ADJOINT, ADJOINT, ADJOINT, ADJOINT],
    "adjoint_without_slot_swap": [ADJOINT, ADJOINT, ADJOINT, set()],
    "schur_product_swapped": [PRODUCT, set(), PRODUCT, PRODUCT],
    "block_matmul_swapped": [ADJOINT, {"cauchy_schwarz"}, ADJOINT, ADJOINT],
    "diag_block_identity": [DIAGONAL, DIAGONAL, DIAGONAL, set()],
    "norms_swapped": [NORMS, NORMS, NORMS, set()],
    "lambda_of_conj": [LAMBDA, LAMBDA, LAMBDA, LAMBDA],
}
KILL_TABLE = [(mutant, shape, failing)
              for mutant, row in GINIBRE_KILLS.items()
              for shape, failing in zip(KILL_SHAPES, row)]


@pytest.mark.parametrize("mutant, shape, failing", KILL_TABLE,
                         ids=[f"{m}-{n}-{d}-{k}" for m, (n, d, k), _ in KILL_TABLE])
def test_ginibre_kill_table(mutant, shape, failing, monkeypatch):
    installer(mutant)(monkeypatch)
    n, d, k = shape
    report = run_suite(TrialConfig(n=n, d=d, k=k, trials=20, seed=42))
    assert {r.property_id for r in report.results if r.failures} == failing


def failing_properties(x, level_k):
    """The properties that fail on one chunk, ``cb_level`` on its level-k pair."""
    return {p for p in PROPERTIES
            if not run_property(p, level_k if p == "cb_level" else x).passed}


@pytest.mark.parametrize("mutant", [m.__name__ for _, m, *_ in MUTANTS] + ["norms_swapped"])
def test_shared_chunk_values_are_never_stale(mutant):
    # the kill table's first shape and trials, as one chunk
    (n, d, k), seeds = KILL_SHAPES[0], [mix64(42, t) for t in range(20)]
    shared = sample_chunk(seeds, n, d, k)
    assert failing_properties(*shared) == set()
    # the correct run left the chunk's shared values on its matrices
    assert shared[0]["A"].unit_scaled._memo
    with pytest.MonkeyPatch.context() as mp:
        installer(mutant)(mp)
        fresh = failing_properties(*sample_chunk(seeds, n, d, k))
        assert fresh == GINIBRE_KILLS[mutant][0]
        assert failing_properties(*shared) == fresh
    # nor does a value computed under the mutant outlive it
    assert failing_properties(*shared) == set()


@pytest.mark.parametrize("n, d", [(4, 2), (4, 4), (4, 8)])
def test_livshits_column_family_reaches_the_bound(n, d):
    x = livshits_column_family(n, d)
    lhs = spectral_norm(flatten(schur_block_product(x["A"], x["B"])))
    # equality up to the rounding of the SVDs: at most 7.8e-16 at seed 11
    assert np.abs(lhs / (row_norm(x["A"]) * col_norm(x["B"])) - 1).max() <= 1e-15


@pytest.mark.parametrize("mutant", [norms_swapped, row_norm_shrunk,
                                    row_norm_shrunk_by_2_to_the_minus_22])
@pytest.mark.parametrize("pid, n, d", [("livshits", 4, 2), ("cb_level", 4, 4),
                                       ("cb_level", 4, 8)])
def test_bound_mutant_is_killed_by_the_column_family(pid, n, d, mutant, monkeypatch):
    # cb_level is the Livshits bound of a level-k pair at block size k*d
    family = livshits_column_family(n, d)
    assert run_property(pid, family).failures == 0
    mutant(monkeypatch)
    assert run_property(pid, family).failures == DRAWS
    # random draws stay inside the loosened bound
    assert run_property(pid, ginibre_draws(n, d)).failures == 0


def test_shrunk_diagonal_is_killed_by_the_sandwich_lower_family(monkeypatch):
    n, d, draws = 4, 2, 50
    family = sandwich_lower_family(n, d, draws)
    assert run_property("sandwich", family).failures == 0
    monkeypatch.setattr(verify, "diag_block", lambda a: BlockMatrix(
        a.n, a.d, 0.999 * blocks.diag_block(a).blocks))
    assert run_property("sandwich", family).failures == draws
    assert run_property("sandwich", ginibre_draws(n, d, draws)).failures == 0


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3), (2, 1)])
def test_cauchy_schwarz_row_family_reaches_the_bound(n, d):
    x = cauchy_schwarz_row_family(n, d)
    lowest, r = cauchy_schwarz_gram(x["A"], x["B"])
    # G is PSD and singular, up to rounding
    assert np.abs(lowest / r).max() <= 1e-15


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3), (2, 1)])
def test_shrunk_bound_is_killed_by_the_cauchy_schwarz_family(n, d, monkeypatch):
    family = cauchy_schwarz_row_family(n, d)
    assert run_property("cauchy_schwarz", family).failures == 0
    monkeypatch.setattr(verify, "diag_block", lambda a: BlockMatrix(
        a.n, a.d, 0.999 * blocks.diag_block(a).blocks))
    assert run_property("cauchy_schwarz", family).failures == DRAWS
    # random draws stay inside the shrunk bound, but for one at (2, 1) whose
    # G has its smallest eigenvalue within 3.2e-5 r of 0
    random_kills = 1 if (n, d) == (2, 1) else 0
    assert run_property("cauchy_schwarz", ginibre_draws(n, d)).failures == random_kills


def rho_with_blocks_transposed(a):
    """rho(A) with A_kl[t, s] where A_kl[s, t] belongs: the s and t legs unswapped."""
    return build_rho(BlockMatrix(a.n, a.d, a.blocks.swapaxes(-1, -2)))


def sigma_with_grid_transposed(a):
    """sigma(A) with block (j, i) where block (i, j) belongs."""
    return build_sigma(BlockMatrix(a.n, a.d, a.blocks.swapaxes(-4, -3)))


def sigma_with_stray_block(a):
    """sigma(A) that also writes each off-diagonal block (i, j) at row group
    (i,*,i) and column group (j,*,i), outside Q's range: sigma(A) V and
    sigma(I) are those of the true sigma."""
    n, d = a.n, a.d
    out = build_sigma(a).reshape(*a.batch, n, d, n, n, d, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                out[..., i, :, i, j, :, i] = a.blocks[..., i, j, :, :]
    return out.reshape(*a.batch, n * d * n, n * d * n)


def lambda_of_conj(a, *idx):
    return build_lambda(BlockMatrix(a.n, a.d, np.conj(a.blocks)), *idx)


def lambda_with_last_leg_negated(a, rows=None, cols=None):
    """lambda(A) with its rows (i, s, n-1) negated: F lambda(A) F then
    differs from rho(A) only in the rows whose first leg is n - 1."""
    out = build_lambda(a, rows, cols)
    rows = np.arange(out.shape[-2]) if rows is None else rows
    out[..., rows % a.n == a.n - 1, :] *= -1
    return out


def rho_of_first_grid_everywhere(a):
    """rho of the stack's first grid, written into every grid of the stack."""
    first = a.blocks[(0,) * len(a.batch)]
    return build_rho(BlockMatrix(a.n, a.d, np.broadcast_to(first, a.blocks.shape)))


BUILDER_MUTANTS = [
    ("build_rho", rho_with_blocks_transposed),
    ("build_sigma", sigma_with_grid_transposed),
    # agrees with build_sigma on Q's range: only the whole law
    # sigma(A) = V flatten(A) V* catches it
    ("build_sigma", sigma_with_stray_block),
    ("build_lambda", lambda_of_conj),
    # wrong only in the last first-leg row group of F lambda(A) F, which
    # the proof compares last
    ("build_lambda", lambda_with_last_leg_negated),
    # agrees with build_rho on a single instance: only the stack of two
    # catches it
    ("build_rho", rho_of_first_grid_everywhere),
]


@pytest.fixture
def fresh_systems():
    """No memoised StinespringSystem before the test or after it."""
    StinespringSystem.build.cache_clear()
    yield
    StinespringSystem.build.cache_clear()


@pytest.mark.parametrize("name, mutant", BUILDER_MUTANTS,
                         ids=[m[1].__name__ for m in BUILDER_MUTANTS])
def test_labelled_proof_catches_builder_mutant(name, mutant, fresh_systems, tmp_path,
                                               monkeypatch, capsys):
    # verify keeps its own bindings of the builders, so every per-trial term
    # stays correct and only the proof sees the mutant
    monkeypatch.setattr(stinespring, name, mutant)
    assert StinespringSystem.build(N, D).operator_residual == 1.0
    out = tmp_path / "report.json"
    code = main(["verify", "--n", str(N), "--d", str(D), "--k", "1", "--trials", "5",
                 "--seed", "1", "--properties", "structure", "--out", str(out)])
    assert code == 1, capsys.readouterr().err
    [result] = json.loads(out.read_text())["results"]
    assert result["property_id"] == "structure"
    assert result["failures"] == result["trials"] == 5
